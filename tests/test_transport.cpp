// Transport-abstraction tests: downstream code programs against the
// abstract comm::Comm, the threaded backend is reachable through it, the
// rank runtime picks a backend and runs rank functions, and the
// distributed MFP gives the same answer through the runtime as through a
// directly constructed World (transport parity on the threaded backend;
// the MPI side of the same scenario is tests/transport_parity_main.cpp
// under mpirun, ctest label "mpi").
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "comm/runtime.hpp"
#include "comm/world.hpp"
#include "env_guard.hpp"
#include "gp/dataset.hpp"
#include "mosaic/distributed_predictor.hpp"

namespace comm = mf::comm;
namespace mosaic = mf::mosaic;
namespace la = mf::linalg;

namespace {

// A helper that only sees the abstract interface.
double ring_sum_through_interface(comm::Comm& c) {
  const int next = (c.rank() + 1) % c.size();
  const int prev = (c.rank() + c.size() - 1) % c.size();
  c.send(next, std::vector<double>{static_cast<double>(c.rank())}, 42);
  auto got = c.recv_vec(prev, 42);
  return c.allreduce_sum(got[0]);
}

struct Scenario {
  mf::gp::SolvedBvp problem;
  mosaic::MfpOptions opts;
  int64_t m;
  int64_t cells;
};

Scenario make_scenario() {
  Scenario s;
  s.m = 8;
  s.cells = 32;
  mf::gp::LaplaceDatasetGenerator gen(s.m, {}, 21);
  s.problem = gen.generate_global(s.cells, s.cells);
  // Target-MAE-gated so iteration-count parity is a real check (the stop
  // iteration depends on convergence, not on a fixed budget).
  s.opts.max_iters = 2000;
  s.opts.tol = 0;
  s.opts.target_mae = 0.02;
  s.opts.check_every = 10;
  return s;
}

}  // namespace

TEST(TransportAbstraction, ThreadCommIsAComm) {
  comm::World world(4);
  std::vector<double> sums(4, -1);
  world.run([&](comm::Comm& c) {
    // The lambda receives the abstract type; all ops go through it.
    sums[static_cast<std::size_t>(c.rank())] = ring_sum_through_interface(c);
  });
  for (double s : sums) EXPECT_EQ(s, 6.0);  // 0+1+2+3
}

TEST(TransportAbstraction, StatsRecordedThroughInterface) {
  comm::World world(2, comm::AlphaBetaModel{1e-5, 1e9});
  world.run([](comm::Comm& c) {
    std::vector<double> payload(1000, 1.0);  // 8000 bytes
    if (c.rank() == 0) {
      c.send(1, payload, 0);
      (void)c.recv_vec(1, 1);
    } else {
      c.send(0, payload, 1);
      (void)c.recv_vec(0, 0);
    }
    EXPECT_EQ(c.stats().sendrecv.messages, 1u);
    EXPECT_EQ(c.stats().sendrecv.bytes, 8000u);
    EXPECT_NEAR(c.stats().sendrecv.modeled_seconds, 1e-5 + 8000 / 1e9, 1e-15);
    EXPECT_GE(c.stats().sendrecv.wall_seconds, 0.0);
  });
}

TEST(TransportAbstraction, NonblockingHaloMatchesBlocking) {
  // All-to-all messages of varying size (including empty, the halo
  // pattern's latency-only case) over isend/irecv must deliver the same
  // payloads and record the same message/byte accounting as the blocking
  // send/recv path.
  const int P = 4;
  auto run_pattern = [&](bool nonblocking) {
    comm::World world(P);
    std::vector<std::vector<double>> received(static_cast<std::size_t>(P));
    std::vector<comm::CommStats> stats(static_cast<std::size_t>(P));
    world.run([&](comm::Comm& c) {
      const int r = c.rank();
      std::vector<std::vector<double>> payloads(static_cast<std::size_t>(P));
      for (int p = 0; p < P; ++p) {
        if (p == r) continue;
        payloads[static_cast<std::size_t>(p)].assign(
            static_cast<std::size_t>((r * 7 + p) % 5), r * 100.0 + p);
      }
      auto& inbox = received[static_cast<std::size_t>(r)];
      if (nonblocking) {
        std::vector<comm::Comm::Request> reqs;
        for (int p = 0; p < P; ++p) {
          if (p != r) reqs.push_back(c.irecv(p, 9));
        }
        for (int p = 0; p < P; ++p) {
          if (p != r) c.isend(p, payloads[static_cast<std::size_t>(p)], 9);
        }
        c.progress();  // drain whatever already arrived
        for (auto req : reqs) {
          auto got = c.wait_recv(req);
          inbox.insert(inbox.end(), got.begin(), got.end());
        }
      } else {
        for (int p = 0; p < P; ++p) {
          if (p != r) c.send(p, payloads[static_cast<std::size_t>(p)], 9);
        }
        for (int p = 0; p < P; ++p) {
          if (p == r) continue;
          auto got = c.recv_vec(p, 9);
          inbox.insert(inbox.end(), got.begin(), got.end());
        }
      }
      stats[static_cast<std::size_t>(r)] = c.stats();
    });
    return std::make_pair(received, stats);
  };
  auto [blocking_rx, blocking_stats] = run_pattern(false);
  auto [nb_rx, nb_stats] = run_pattern(true);
  for (int r = 0; r < P; ++r) {
    const auto ru = static_cast<std::size_t>(r);
    EXPECT_EQ(blocking_rx[ru], nb_rx[ru]) << "rank " << r;
    EXPECT_EQ(blocking_stats[ru].sendrecv.messages,
              nb_stats[ru].sendrecv.messages);
    EXPECT_EQ(blocking_stats[ru].sendrecv.bytes, nb_stats[ru].sendrecv.bytes);
    EXPECT_EQ(blocking_stats[ru].sendrecv.modeled_seconds,
              nb_stats[ru].sendrecv.modeled_seconds);
  }
}

TEST(TransportAbstraction, WaitRecvPreservesPostOrder) {
  // Two receives posted for the same (src, tag) must match messages in
  // post order even when the caller waits on the later request first
  // (MPI request semantics).
  comm::World world(2);
  world.run([](comm::Comm& c) {
    if (c.rank() == 0) {
      c.isend(1, std::vector<double>{1.0}, 3);
      c.isend(1, std::vector<double>{2.0}, 3);
    } else {
      auto r1 = c.irecv(0, 3);
      auto r2 = c.irecv(0, 3);
      auto second = c.wait_recv(r2);
      auto first = c.wait_recv(r1);
      ASSERT_EQ(first.size(), 1u);
      ASSERT_EQ(second.size(), 1u);
      EXPECT_EQ(first[0], 1.0);
      EXPECT_EQ(second[0], 2.0);
      // A consumed request cannot be waited on again.
      EXPECT_THROW((void)c.wait_recv(r1), std::logic_error);
    }
  });
}

TEST(TransportAbstraction, StragglerDoesNotPinPendingTable) {
  // One posted receive that is never waited on must not stop the
  // bookkeeping table from recycling: it used to recycle only when
  // *every* post had been consumed, so a single straggler pinned
  // unbounded growth (and its payload) for the Comm's lifetime.
  comm::World world(2);
  world.run([](comm::Comm& c) {
    if (c.rank() == 0) {
      c.isend(1, std::vector<double>{999.0}, 7);
      for (int i = 0; i < 200; ++i) {
        c.isend(1, std::vector<double>{double(i)}, 4);
      }
    } else {
      auto straggler = c.irecv(0, 7);  // posted, never waited on
      for (int i = 0; i < 200; ++i) {
        auto v = c.wait_recv(c.irecv(0, 4));
        ASSERT_EQ(v.size(), 1u);
        EXPECT_EQ(v[0], double(i));
      }
      // Bounded: the one outstanding straggler plus the amortized
      // compaction slack — nowhere near the 200 consumed posts.
      EXPECT_LT(c.pending_recv_count(), 40u);
      (void)straggler;
    }
  });
}

TEST(TransportAbstraction, PostOrderSurvivesCompaction) {
  // Same-signature matching must stay post-ordered across the table's
  // amortized compaction passes (the straggler keeps an unconsumed entry
  // in front, so compaction removes entries from the middle).
  comm::World world(2);
  world.run([](comm::Comm& c) {
    if (c.rank() == 0) {
      for (int round = 0; round < 8; ++round) {
        for (int i = 0; i < 6; ++i) {
          c.isend(1, std::vector<double>{round * 10.0 + i}, 5);
        }
      }
    } else {
      auto straggler = c.irecv(0, 11);  // no matching send: never done
      for (int round = 0; round < 8; ++round) {
        std::vector<comm::Comm::Request> reqs;
        for (int i = 0; i < 6; ++i) reqs.push_back(c.irecv(0, 5));
        // Wait in reverse post order: matching must still pair the j-th
        // posted receive of this round with the j-th message.
        for (int i = 5; i >= 0; --i) {
          auto v = c.wait_recv(reqs[static_cast<std::size_t>(i)]);
          ASSERT_EQ(v.size(), 1u);
          EXPECT_EQ(v[0], round * 10.0 + i);
        }
      }
      EXPECT_LT(c.pending_recv_count(), 40u);
      (void)straggler;
    }
  });
}

TEST(RankRuntime, DefaultsToThreadsAndSweeps) {
  comm::RankLauncher launcher(0, nullptr);
  // Without mpirun the backend must be the threaded one (MF_COMM unset in
  // the test environment) and sweeps stay free.
  EXPECT_EQ(launcher.backend(), comm::Backend::kThreads);
  EXPECT_TRUE(launcher.is_root());
  EXPECT_EQ(launcher.fixed_world_size(), 0);
  const auto counts = launcher.sweep_rank_counts({1, 2, 4});
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[2], 4);
}

// MF_COMM takes exactly "threads" or "mpi" (empty counts as unset). A
// typo must not silently fall back to auto-selection, which under
// mpirun in an MPI build means MPI.
TEST(RankRuntime, MalformedCommBackendThrows) {
  for (const char* bad : {"thread", "MPI", "threads ", "tcp", "1"}) {
    EnvGuard env("MF_COMM", bad);
    try {
      comm::RankLauncher launcher(0, nullptr);
      ADD_FAILURE() << "MF_COMM=" << bad << " did not throw";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("MF_COMM"), std::string::npos) << what;
      EXPECT_NE(what.find(bad), std::string::npos) << what;
    }
  }
  for (const char* ok : {"threads", ""}) {
    EnvGuard env("MF_COMM", ok);
    comm::RankLauncher launcher(0, nullptr);
    EXPECT_EQ(launcher.backend(), comm::Backend::kThreads) << ok;
  }
}

TEST(RankRuntime, RunsEveryRankAndPropagatesExceptions) {
  comm::RankLauncher launcher(0, nullptr);
  std::vector<int> seen(8, 0);
  launcher.run(8, [&](comm::Comm& c) {
    seen[static_cast<std::size_t>(c.rank())] = 1;
    EXPECT_EQ(c.size(), 8);
  });
  for (int s : seen) EXPECT_EQ(s, 1);

  EXPECT_THROW(launcher.run(0, [](comm::Comm&) {}), std::invalid_argument);
  EXPECT_THROW(launcher.run(2, [](comm::Comm& c) {
    if (c.rank() == 1) throw std::runtime_error("rank 1 failed");
  }),
               std::runtime_error);
}

TEST(TransportParity, RuntimeMatchesDirectWorldOnDistributedMfp) {
  // The same distributed-MFP scenario through the rank runtime and
  // through a directly constructed World must agree exactly: same
  // backend, same semantics, nothing lost in the abstraction.
  auto s = make_scenario();
  s.opts.reference = &s.problem.solution;
  mosaic::HarmonicKernelSolver solver(s.m);
  comm::CartesianGrid grid(4);

  mosaic::DistMfpResult via_runtime;
  comm::RankLauncher launcher(0, nullptr);
  launcher.run(4, [&](comm::Comm& c) {
    auto r = mosaic::distributed_mosaic_predict(c, grid, solver, s.cells,
                                                s.cells, s.problem.boundary,
                                                s.opts);
    if (c.rank() == 0) via_runtime = std::move(r);
  });

  mosaic::DistMfpResult via_world;
  comm::World world(4);
  world.run([&](comm::Comm& c) {
    auto r = mosaic::distributed_mosaic_predict(c, grid, solver, s.cells,
                                                s.cells, s.problem.boundary,
                                                s.opts);
    if (c.rank() == 0) via_world = std::move(r);
  });

  EXPECT_EQ(via_runtime.iterations, via_world.iterations);
  EXPECT_EQ(via_runtime.final_delta, via_world.final_delta);
  EXPECT_EQ(la::Grid2D::max_abs_diff(via_runtime.solution, via_world.solution),
            0.0);
}

TEST(TransportParity, MultiRankMatchesSingleRankScenario) {
  // The cross-backend agreement contract (ISSUE acceptance): iterations,
  // final delta, and assembled solution. Here both sides are threaded
  // (MPI parity runs under mpirun via transport_parity_main); the
  // scenario and tolerances are identical in both harnesses.
  auto s = make_scenario();
  s.opts.reference = &s.problem.solution;
  mosaic::HarmonicKernelSolver solver(s.m);

  auto run_at = [&](int ranks) {
    comm::CartesianGrid grid(ranks);
    comm::World world(ranks);
    mosaic::DistMfpResult out;
    world.run([&](comm::Comm& c) {
      auto r = mosaic::distributed_mosaic_predict(c, grid, solver, s.cells,
                                                  s.cells, s.problem.boundary,
                                                  s.opts);
      if (c.rank() == 0) out = std::move(r);
    });
    return out;
  };

  auto single = run_at(1);
  auto dist = run_at(4);
  EXPECT_EQ(dist.iterations, single.iterations);
  EXPECT_NEAR(dist.final_delta, single.final_delta, 1e-10);
  EXPECT_LT(la::Grid2D::mean_abs_diff(dist.solution, single.solution), 1e-10);
}
