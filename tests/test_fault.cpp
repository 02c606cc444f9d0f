// Robustness tests: deterministic comm fault injection (FaultComm),
// deadline-aware halo exchange with graceful degradation, the numerical
// health sentinel and its fallback ladders, hardened serialization, and
// bitwise checkpoint/restart of training.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ad/dtype.hpp"
#include "ad/ops.hpp"
#include "ad/program.hpp"
#include "ad/tensor.hpp"
#include "comm/fault_comm.hpp"
#include "comm/world.hpp"
#include "env_guard.hpp"
#include "gp/dataset.hpp"
#include "mosaic/distributed_predictor.hpp"
#include "mosaic/sdnet.hpp"
#include "mosaic/subdomain_solver.hpp"
#include "mosaic/trainer.hpp"
#include "nn/serialize.hpp"
#include "optim/optimizers.hpp"

namespace ad = mf::ad;
namespace ops = mf::ad::ops;
namespace comm = mf::comm;
namespace mosaic = mf::mosaic;
namespace la = mf::linalg;
using ad::Tensor;

namespace {

/// Re-enable (or disable) the health sentinel for one test body.
struct HealthGuard {
  explicit HealthGuard(bool on) : prev_(ad::health_checks_set_enabled(on)) {}
  ~HealthGuard() { ad::health_checks_set_enabled(prev_); }
  bool prev_;
};

struct DistScenario {
  mf::gp::SolvedBvp problem;
  mosaic::MfpOptions opts;
  int64_t m = 8;
  int64_t cells = 32;
};

DistScenario make_dist_scenario() {
  DistScenario s;
  mf::gp::LaplaceDatasetGenerator gen(s.m, {}, 21);
  s.problem = gen.generate_global(s.cells, s.cells);
  s.opts.max_iters = 2000;
  s.opts.tol = 0;
  s.opts.reference = &s.problem.solution;
  s.opts.target_mae = 0.02;
  s.opts.check_every = 10;
  return s;
}

mosaic::DistMfpResult run_dist(int ranks, const DistScenario& s,
                               const comm::FaultSpec* spec,
                               double halo_timeout_ms = -1) {
  mosaic::HarmonicKernelSolver solver(s.m);
  comm::CartesianGrid grid(ranks);
  mosaic::MfpOptions opts = s.opts;
  opts.halo_timeout_ms = halo_timeout_ms;
  opts.reference = &s.problem.solution;
  comm::World world(ranks);
  mosaic::DistMfpResult out;
  world.run([&](comm::Comm& c) {
    const auto body = [&](comm::Comm& use) {
      auto r = mosaic::distributed_mosaic_predict(use, grid, solver, s.cells,
                                                  s.cells, s.problem.boundary,
                                                  opts);
      if (c.rank() == 0) out = std::move(r);
    };
    if (spec) {
      comm::FaultComm faulty(c, *spec);
      body(faulty);
    } else {
      body(c);
    }
  });
  return out;
}

mosaic::SdnetConfig tiny_net_config(int64_t boundary) {
  mosaic::SdnetConfig cfg;
  cfg.boundary_size = boundary;
  cfg.hidden_width = 8;
  cfg.mlp_depth = 2;
  cfg.conv_channels = 2;
  cfg.conv_depth = 1;
  cfg.conv_kernel = 3;
  return cfg;
}

void copy_file(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  out << in.rdbuf();
  ASSERT_TRUE(in && out) << "copy " << from << " -> " << to;
}

}  // namespace

// ---------------------------------------------------------------------------
// Fault spec parsing and the deterministic schedule
// ---------------------------------------------------------------------------

TEST(FaultSpec, ParsesClausesAndRejectsGarbage) {
  const auto s = comm::FaultSpec::parse(
      "seed=7;drop=0.25,delay=0.1;delay_ms=3.5;stall_rank=2;stall_ms=4");
  EXPECT_EQ(s.seed, 7u);
  EXPECT_DOUBLE_EQ(s.drop, 0.25);
  EXPECT_DOUBLE_EQ(s.delay, 0.1);
  EXPECT_DOUBLE_EQ(s.delay_ms, 3.5);
  EXPECT_EQ(s.stall_rank, 2);
  EXPECT_TRUE(s.any_faults());
  EXPECT_FALSE(comm::FaultSpec{}.any_faults());

  EXPECT_THROW((void)comm::FaultSpec::parse("drop=1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)comm::FaultSpec::parse("drop=-0.1"),
               std::invalid_argument);
  EXPECT_THROW((void)comm::FaultSpec::parse("bogus_knob=1"),
               std::invalid_argument);
  EXPECT_THROW((void)comm::FaultSpec::parse("drop=abc"),
               std::invalid_argument);
  EXPECT_THROW((void)comm::FaultSpec::parse("justtext"),
               std::invalid_argument);
}

TEST(FaultSpec, ScheduleIsDeterministicAndSeedSensitive) {
  const auto a = comm::FaultSpec::parse("seed=9;drop=0.3;delay=0.2;dup=0.2;flip=0.1");
  const auto b = comm::FaultSpec::parse("seed=9;drop=0.3;delay=0.2;dup=0.2;flip=0.1");
  const auto c = comm::FaultSpec::parse("seed=10;drop=0.3;delay=0.2;dup=0.2;flip=0.1");
  int differs_from_c = 0;
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    const auto da = a.decide(0, 1, 5, seq);
    const auto db = b.decide(0, 1, 5, seq);
    EXPECT_EQ(da.drop_losses, db.drop_losses);
    EXPECT_EQ(da.delayed, db.delayed);
    EXPECT_EQ(da.flip, db.flip);
    EXPECT_EQ(da.dup, db.dup);
    EXPECT_DOUBLE_EQ(da.hold_ms, db.hold_ms);
    const auto dc = c.decide(0, 1, 5, seq);
    if (da.drop_losses != dc.drop_losses || da.delayed != dc.delayed ||
        da.flip != dc.flip || da.dup != dc.dup) {
      ++differs_from_c;
    }
  }
  EXPECT_GT(differs_from_c, 0);  // a different seed is a different schedule

  // An all-zero spec never injects anything.
  const comm::FaultSpec clean;
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    const auto d = clean.decide(1, 0, 3, seq);
    EXPECT_EQ(d.drop_losses, 0);
    EXPECT_FALSE(d.delayed);
    EXPECT_FALSE(d.flip);
    EXPECT_FALSE(d.dup);
    EXPECT_DOUBLE_EQ(d.hold_ms, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Deadline-bounded receives
// ---------------------------------------------------------------------------

TEST(DeadlineRecv, WaitRecvForTimesOutThenDelivers) {
  comm::World world(2);
  world.run([](comm::Comm& c) {
    if (c.rank() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      c.send(1, std::vector<double>{3.5, 4.5}, 8);
    } else {
      auto req = c.irecv(0, 8);
      std::vector<double> out;
      // Nothing sent yet: the bounded wait must give up quickly and
      // leave the request pending.
      EXPECT_FALSE(c.wait_recv_for(req, 1.0, out));
      // The same request can then be waited to completion.
      EXPECT_TRUE(c.wait_recv_for(req, 10000.0, out));
      ASSERT_EQ(out.size(), 2u);
      EXPECT_EQ(out[0], 3.5);
      EXPECT_EQ(out[1], 4.5);
      // Consumed requests are invalid for further waits.
      EXPECT_THROW((void)c.wait_recv_for(req, 1.0, out), std::logic_error);
    }
  });
}

// ---------------------------------------------------------------------------
// FaultComm delivery semantics
// ---------------------------------------------------------------------------

TEST(FaultComm, ZeroFaultSpecIsBitwiseTransparent) {
  const auto s = make_dist_scenario();
  const comm::FaultSpec clean;  // framing on, zero injection
  auto bare = run_dist(4, s, nullptr);
  auto framed = run_dist(4, s, &clean);
  EXPECT_EQ(framed.iterations, bare.iterations);
  EXPECT_EQ(framed.final_delta, bare.final_delta);
  EXPECT_EQ(la::Grid2D::max_abs_diff(framed.solution, bare.solution), 0.0);
  EXPECT_EQ(framed.degraded_iterations, 0);
  EXPECT_EQ(framed.halo_timeouts, 0);
}

TEST(FaultComm, ExactlyOnceInOrderUnderHeavyFaults) {
  const auto spec = comm::FaultSpec::parse(
      "seed=3;drop=0.3;delay=0.2;dup=0.2;flip=0.1;rto_ms=1;rto_max_ms=4;"
      "delay_ms=1");
  const int kMessages = 200;
  comm::FaultStats receiver_stats;
  comm::World world(2);
  world.run([&](comm::Comm& c) {
    comm::FaultComm faulty(c, spec);
    if (c.rank() == 0) {
      for (int i = 0; i < kMessages; ++i) {
        faulty.send(1, std::vector<double>{double(i), i + 0.5}, 5);
      }
      // Reverse traffic so both directions cross the faulty channel.
      for (int i = 0; i < 50; ++i) {
        auto v = faulty.recv_vec(1, 6);
        ASSERT_EQ(v.size(), 1u);
        EXPECT_EQ(v[0], 1000.0 + i);
      }
    } else {
      for (int i = 0; i < kMessages; ++i) {
        auto v = faulty.recv_vec(0, 5);
        ASSERT_EQ(v.size(), 2u) << "message " << i;
        // Exactly-once, in-order, contents-exact despite drops, delays,
        // duplicates and bit flips.
        EXPECT_EQ(v[0], double(i));
        EXPECT_EQ(v[1], i + 0.5);
      }
      for (int i = 0; i < 50; ++i) {
        faulty.send(0, std::vector<double>{1000.0 + i}, 6);
      }
      receiver_stats = faulty.fault_stats();
    }
  });
  EXPECT_EQ(receiver_stats.frames_delivered, 200u);
  EXPECT_GT(receiver_stats.injected_drops, 0u);
  EXPECT_GT(receiver_stats.injected_delays, 0u);
  EXPECT_GT(receiver_stats.injected_dups, 0u);
  EXPECT_GT(receiver_stats.injected_flips, 0u);
  // Every injected duplicate was discarded by the sequence dedup — except
  // possibly a copy of the final frame, which stays queued until a later
  // receive on the channel would encounter and discard it — and every
  // injected bit flip was caught by the CRC.
  EXPECT_LE(receiver_stats.duplicate_discards, receiver_stats.injected_dups);
  EXPECT_LE(receiver_stats.injected_dups - receiver_stats.duplicate_discards,
            1u);
  EXPECT_EQ(receiver_stats.detected_corruptions, receiver_stats.injected_flips);
}

TEST(FaultComm, StallScheduleTriggersAndCounts) {
  const auto spec =
      comm::FaultSpec::parse("seed=2;stall_rank=1;stall_ms=1;stall_every=2");
  comm::FaultStats stats;
  comm::World world(2);
  world.run([&](comm::Comm& c) {
    comm::FaultComm faulty(c, spec);
    if (c.rank() == 0) {
      for (int i = 0; i < 8; ++i) {
        faulty.send(1, std::vector<double>{double(i)}, 1);
      }
    } else {
      for (int i = 0; i < 8; ++i) {
        auto v = faulty.recv_vec(0, 1);
        ASSERT_EQ(v.size(), 1u);
        EXPECT_EQ(v[0], double(i));
      }
      stats = faulty.fault_stats();
    }
  });
  EXPECT_GT(stats.stalls, 0u);
}

// ---------------------------------------------------------------------------
// Deadline halo exchange: graceful degradation end to end
// ---------------------------------------------------------------------------

TEST(FaultComm, DistributedSolveConvergesWithStaleHalos) {
  // Held frames (drops/delays) are withheld ~15ms while the per-direction
  // halo budget is 0.5ms, so the solver must repeatedly time out, run
  // iterations on stale boundary data, and still converge below the same
  // MAE target as the clean run.
  const auto s = make_dist_scenario();
  const auto spec = comm::FaultSpec::parse(
      "seed=5;drop=0.25;delay=0.2;delay_ms=15;rto_ms=15;rto_max_ms=15");
  auto r = run_dist(4, s, &spec, /*halo_timeout_ms=*/0.5);
  EXPECT_GT(r.iterations, 0);
  EXPECT_LT(r.iterations, s.opts.max_iters) << "did not converge";
  EXPECT_TRUE(std::isfinite(r.mae));
  EXPECT_LT(r.mae, s.opts.target_mae);
  EXPECT_GT(r.degraded_iterations, 0);
  EXPECT_GT(r.halo_timeouts, 0);
  // Everything owed eventually arrived (the epilogue drain applies late).
  EXPECT_GE(r.late_halo_applies, 0);
  for (int64_t j = 0; j < r.solution.ny(); ++j)
    for (int64_t i = 0; i < r.solution.nx(); ++i)
      ASSERT_TRUE(std::isfinite(r.solution.at(i, j)));
}

// ---------------------------------------------------------------------------
// Capture exception safety
// ---------------------------------------------------------------------------

TEST(ProgramRobustness, ExceptionMidCapturePoisonsAndRecovers) {
  ad::Program p;
  Tensor x = Tensor::zeros({4});
  for (int64_t i = 0; i < 4; ++i) x.flat(i) = double(i + 1);
  EXPECT_THROW(p.capture([&] {
    Tensor y = ops::mul(x, x);  // some work lands on the recorder first
    throw std::runtime_error("boom mid-capture");
  }),
               std::runtime_error);
  EXPECT_FALSE(p.captured());

  // Eager execution still works after the unwound capture...
  Tensor z = ops::add(x, x);
  EXPECT_EQ(z.flat(3), 8.0);

  // ...and the same Program object can capture cleanly afterwards.
  Tensor out;
  p.capture([&] { out = ops::mul_scalar(x, 3.0); });
  ASSERT_TRUE(p.captured());
  x.flat(0) = 10.0;
  p.replay();
  EXPECT_EQ(out.flat(0), 30.0);
}

// ---------------------------------------------------------------------------
// Numerical health sentinel
// ---------------------------------------------------------------------------

TEST(HealthSentinel, TripsOnNonFiniteAndOnDivergence) {
  HealthGuard health(true);
  ad::health_stats_reset();
  ad::Program p;
  Tensor x = Tensor::zeros({4});
  for (int64_t i = 0; i < 4; ++i) x.flat(i) = 1.0;
  Tensor y;
  p.capture([&] { y = ops::mul(x, x); });
  ASSERT_TRUE(p.captured());

  p.replay();
  EXPECT_TRUE(p.last_replay_healthy());

  x.flat(0) = 1e200;  // squares to Inf
  p.replay();
  EXPECT_FALSE(p.last_replay_healthy());

  x.flat(0) = 1e60;  // squares to 1e120: finite but past the 1e100 bound
  p.replay();
  EXPECT_FALSE(p.last_replay_healthy());

  x.flat(0) = 2.0;
  p.replay();
  EXPECT_TRUE(p.last_replay_healthy());
  EXPECT_EQ(y.flat(0), 4.0);

  const auto st = p.stats();
  EXPECT_EQ(st.health_checks, 4u);
  EXPECT_EQ(st.health_trips, 2u);
  const auto g = ad::health_stats();
  EXPECT_GE(g.checks, 4u);
  EXPECT_GE(g.trips, 2u);
}

TEST(HealthSentinel, DisabledByDefaultCostsNothing) {
  HealthGuard health(false);
  ad::Program p;
  Tensor x = Tensor::zeros({2});
  x.flat(0) = 1e200;
  Tensor y;
  p.capture([&] { y = ops::mul(x, x); });
  p.replay();
  // Without the hatch the scan never runs: the flag stays optimistic
  // and no checks are counted.
  EXPECT_TRUE(p.last_replay_healthy());
  EXPECT_EQ(p.stats().health_checks, 0u);
}

TEST(HealthSentinel, TrainStepRetiresPoisonedF64PlanToEager) {
  HealthGuard health(true);
  // The f64 rung of the ladder: pinned, since under the f32 policy the
  // first trip demotes to f64 instead of retiring to eager.
  const ad::DType prev = ad::set_compute_dtype(ad::DType::kF64);
  ad::health_stats_reset();
  const int64_t m = 4;
  mf::util::Rng rng(11);
  mosaic::Sdnet net(tiny_net_config(4 * m), rng);
  mf::gp::LaplaceDatasetGenerator gen(m, {}, 7);
  auto bvps = gen.generate_many(4);
  mosaic::TrainConfig cfg;
  cfg.batch_size = 4;
  cfg.q_data = 4;
  cfg.q_colloc = 4;
  mosaic::CompiledTrainStep cstep(net, cfg, nullptr);

  auto batch = gen.make_batch(bvps, cfg.q_data, cfg.q_colloc);
  (void)cstep.run(batch);  // capture
  (void)cstep.run(batch);  // healthy replay
  EXPECT_TRUE(cstep.last_was_replay());

  // Poisoned targets: the squared error reaches ~1e240 — finite in f64
  // but far past the divergence bound, so the sentinel must trip.
  auto poisoned = gen.make_batch(bvps, cfg.q_data, cfg.q_colloc);
  for (int64_t i = 0; i < poisoned.y_data.numel(); ++i) {
    poisoned.y_data.flat(i) = 1e120;
  }
  const auto before = ad::health_stats();
  (void)cstep.run(poisoned);
  // The bad replay was discarded and rerun eagerly; an f64 plan has no
  // wider fallback, so the step retires to permanent eager execution.
  EXPECT_FALSE(cstep.last_was_replay());
  EXPECT_TRUE(cstep.capture_failed());
  const auto after = ad::health_stats();
  EXPECT_GT(after.trips, before.trips);
  EXPECT_GT(after.eager_fallbacks, before.eager_fallbacks);

  // Still trainable (eagerly) on good data afterwards.
  auto [ld, lp] = cstep.run(batch);
  EXPECT_TRUE(std::isfinite(ld));
  EXPECT_FALSE(cstep.last_was_replay());
  ad::set_compute_dtype(prev);
}

TEST(HealthSentinel, TrainStepDemotesF32PlanToF64) {
  HealthGuard health(true);
  const ad::DType prev = ad::set_compute_dtype(ad::DType::kF32);
  const int64_t m = 4;
  mf::util::Rng rng(13);
  mosaic::Sdnet net(tiny_net_config(4 * m), rng);
  mf::gp::LaplaceDatasetGenerator gen(m, {}, 9);
  auto bvps = gen.generate_many(4);
  mosaic::TrainConfig cfg;
  cfg.batch_size = 4;
  cfg.q_data = 4;
  cfg.q_colloc = 4;
  mosaic::CompiledTrainStep cstep(net, cfg, nullptr);

  // Targets of 1e45 overflow f32 (max ~3.4e38) but keep the f64 loss
  // (~1e90) inside the divergence bound: exactly the case the widened-
  // precision ladder exists for.
  auto batch = gen.make_batch(bvps, cfg.q_data, cfg.q_colloc);
  for (int64_t i = 0; i < batch.y_data.numel(); ++i) {
    batch.y_data.flat(i) = 1e45;
  }
  (void)cstep.run(batch);  // captures an f32 plan (capture runs eagerly)
  (void)cstep.run(batch);  // f32 replay overflows -> sentinel trips
  EXPECT_FALSE(cstep.last_was_replay());
  EXPECT_TRUE(cstep.forced_f64());
  EXPECT_FALSE(cstep.capture_failed());

  (void)cstep.run(batch);  // recaptures at f64 despite the f32 policy
  auto [ld, lp] = cstep.run(batch);  // f64 replay survives
  EXPECT_TRUE(cstep.last_was_replay());
  EXPECT_TRUE(cstep.program().last_replay_healthy());
  EXPECT_TRUE(std::isfinite(ld));
  ad::set_compute_dtype(prev);
}

TEST(HealthSentinel, InferenceLadderRecapturesAtF64ThenRetiresToEager) {
  // The inference ladder under the f32 policy. An output bias of 1e45
  // overflows the f32 replay but stays finite in f64: the sentinel trips,
  // the batch reruns eagerly and the next call recaptures the geometry at
  // f64. A bias of 1e120 then trips the f64 replay (past the 1e100
  // bound) and retires the geometry to eager. Every batch returned equals
  // eager f64 bitwise.
  HealthGuard health(true);
  const ad::DType prev = ad::set_compute_dtype(ad::DType::kF32);
  const bool prev_prog = ad::program_set_enabled(true);
  const int64_t m = 4;
  mf::util::Rng rng(19);
  auto net = std::make_shared<mosaic::Sdnet>(tiny_net_config(4 * m), rng);
  const mosaic::NeuralSubdomainSolver solver(net, m);
  Tensor out_bias = net->parameters().back();
  auto set_bias = [&](double v) {
    for (int64_t k = 0; k < out_bias.numel(); ++k) out_bias.flat(k) = v;
  };
  const mosaic::QueryList queries = {{0.25, 0.5}, {0.5, 0.5}, {0.75, 0.25}};
  mf::util::Rng brng(23);
  std::vector<std::vector<double>> rows(3, std::vector<double>(4 * m));
  for (auto& row : rows) {
    for (auto& v : row) v = brng.uniform(-1.0, 1.0);
  }

  // One call, checked bitwise against the eager f64 path, returning how
  // the cache and sentinel counters moved.
  struct Moves {
    std::uint64_t captures, hits, misses, retired, plan_fb, eager_fb;
  };
  auto call = [&]() {
    std::vector<std::vector<double>> want, got;
    ad::program_set_enabled(false);
    solver.predict(rows, queries, want);
    ad::program_set_enabled(true);
    const auto c0 = mosaic::infer_cache_stats();
    const auto h0 = ad::health_stats();
    solver.predict(rows, queries, got);
    const auto c1 = mosaic::infer_cache_stats();
    const auto h1 = ad::health_stats();
    EXPECT_EQ(got.size(), want.size());
    for (std::size_t b = 0; b < got.size() && b < want.size(); ++b) {
      EXPECT_EQ(got[b], want[b]) << "row " << b;
    }
    return Moves{c1.captures - c0.captures, c1.widened_hits - c0.widened_hits,
                 c1.misses - c0.misses, c1.retired - c0.retired,
                 h1.plan_fallbacks - h0.plan_fallbacks,
                 h1.eager_fallbacks - h0.eager_fallbacks};
  };
  auto expect_moves = [](const Moves& got, const Moves& want) {
    EXPECT_EQ(got.captures, want.captures);
    EXPECT_EQ(got.hits, want.hits);
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_EQ(got.retired, want.retired);
    EXPECT_EQ(got.plan_fb, want.plan_fb);
    EXPECT_EQ(got.eager_fb, want.eager_fb);
  };

  set_bias(1e45);
  {
    SCOPED_TRACE("f32 capture, replay trips, eager rerun");
    expect_moves(call(), {1, 0, 1, 1, 1, 0});
  }
  {
    SCOPED_TRACE("f64 recapture, healthy replay");
    expect_moves(call(), {1, 1, 0, 0, 0, 0});
  }
  set_bias(1e120);
  {
    SCOPED_TRACE("f64 replay trips, geometry retires to eager");
    expect_moves(call(), {0, 0, 1, 1, 0, 1});
  }
  {
    SCOPED_TRACE("retired geometry stays eager");
    expect_moves(call(), {0, 0, 1, 0, 0, 0});
  }
  ad::program_set_enabled(prev_prog);
  ad::set_compute_dtype(prev);
}

// ---------------------------------------------------------------------------
// Hardened serialization
// ---------------------------------------------------------------------------

TEST(Serialize, ParametersRoundtripRejectTruncationAndCorruption) {
  const std::string path = "test_fault_params.bin";
  mf::util::Rng rng_a(1), rng_b(2);
  mosaic::Sdnet net_a(tiny_net_config(16), rng_a);
  mosaic::Sdnet net_b(tiny_net_config(16), rng_b);
  mf::nn::save_parameters(net_a, path);
  mf::nn::load_parameters(net_b, path);
  const auto pa = net_a.named_parameters();
  const auto pb = net_b.named_parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (int64_t j = 0; j < pa[i].second.numel(); ++j) {
      ASSERT_EQ(pa[i].second.flat(j), pb[i].second.flat(j));
    }
  }

  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    bytes.resize(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Truncated file: clear error, no out-of-bounds read.
  const std::string trunc = "test_fault_params_trunc.bin";
  {
    std::ofstream out(trunc, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 48));
  }
  EXPECT_THROW(mf::nn::load_parameters(net_b, trunc), std::runtime_error);

  // One flipped payload byte: the CRC catches it.
  const std::string corrupt = "test_fault_params_corrupt.bin";
  {
    auto mutated = bytes;
    mutated[mutated.size() / 2] ^= 0x40;
    std::ofstream out(corrupt, std::ios::binary | std::ios::trunc);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
  }
  EXPECT_THROW(mf::nn::load_parameters(net_b, corrupt), std::runtime_error);

  // Legacy headerless file (the pre-header format is exactly today's
  // payload): still loads.
  const std::string legacy = "test_fault_params_legacy.bin";
  {
    std::ofstream out(legacy, std::ios::binary | std::ios::trunc);
    out.write(bytes.data() + 32,
              static_cast<std::streamsize>(bytes.size() - 32));
  }
  mf::util::Rng rng_c(3);
  mosaic::Sdnet net_c(tiny_net_config(16), rng_c);
  mf::nn::load_parameters(net_c, legacy);
  const auto pc = net_c.named_parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (int64_t j = 0; j < pa[i].second.numel(); ++j) {
      ASSERT_EQ(pa[i].second.flat(j), pc[i].second.flat(j));
    }
  }

  std::remove(path.c_str());
  std::remove(trunc.c_str());
  std::remove(corrupt.c_str());
  std::remove(legacy.c_str());
}

TEST(Serialize, CheckpointRoundtripAndKindMismatch) {
  const std::string path = "test_fault_ckpt_rt.bin";
  mf::nn::TrainingCheckpoint ckpt;
  ckpt.blobs.emplace_back("params", std::vector<double>{1.0, -2.5, 3e7});
  ckpt.blobs.emplace_back("optimizer", std::vector<double>{});
  ckpt.counters.emplace_back("epoch_next", 12);
  ckpt.counters.emplace_back("step", -3);
  std::mt19937_64 eng(77);
  eng.discard(123);
  std::ostringstream os;
  os << eng;
  ckpt.rng_state = os.str();
  mf::nn::save_checkpoint(ckpt, path);

  const auto back = mf::nn::load_checkpoint(path);
  ASSERT_NE(back.find_blob("params"), nullptr);
  EXPECT_EQ(*back.find_blob("params"), (std::vector<double>{1.0, -2.5, 3e7}));
  ASSERT_NE(back.find_blob("optimizer"), nullptr);
  EXPECT_TRUE(back.find_blob("optimizer")->empty());
  EXPECT_EQ(back.find_blob("missing"), nullptr);
  ASSERT_NE(back.find_counter("epoch_next"), nullptr);
  EXPECT_EQ(*back.find_counter("epoch_next"), 12);
  EXPECT_EQ(*back.find_counter("step"), -3);
  // The restored engine continues the exact stream.
  std::mt19937_64 restored;
  std::istringstream is(back.rng_state);
  is >> restored;
  EXPECT_EQ(restored(), eng());

  // A parameters file is not a checkpoint: distinct magic, clear error.
  const std::string params = "test_fault_ckpt_kind.bin";
  mf::util::Rng rng(4);
  mosaic::Sdnet net(tiny_net_config(16), rng);
  mf::nn::save_parameters(net, params);
  EXPECT_THROW((void)mf::nn::load_checkpoint(params), std::runtime_error);
  // And an empty/garbage file is rejected too.
  const std::string garbage = "test_fault_ckpt_garbage.bin";
  {
    std::ofstream out(garbage, std::ios::binary | std::ios::trunc);
    out << "not a checkpoint";
  }
  EXPECT_THROW((void)mf::nn::load_checkpoint(garbage), std::runtime_error);

  std::remove(path.c_str());
  std::remove(params.c_str());
  std::remove(garbage.c_str());
}

// ---------------------------------------------------------------------------
// Checkpoint/restart: bitwise trajectory resume
// ---------------------------------------------------------------------------

TEST(Checkpoint, ResumedTrainingMatchesUninterruptedBitwise) {
  // Bitwise resume is the f64 contract: under the f32 policy the step
  // that captures runs eagerly in f64 and the replays after it in f32, so
  // a resumed run, which captures at another step, takes another path.
  const ad::DType prev = ad::set_compute_dtype(ad::DType::kF64);
  const std::string ckpt_a = "test_fault_resume_a.bin";
  const std::string ckpt_b = "test_fault_resume_b.bin";
  std::remove(ckpt_a.c_str());
  std::remove(ckpt_b.c_str());

  const int64_t m = 4;
  mf::gp::LaplaceDatasetGenerator data_gen(m, {}, 5);
  const auto train = data_gen.generate_many(8);
  const auto val = data_gen.generate_many(2);

  mosaic::TrainConfig cfg;
  cfg.epochs = 4;
  cfg.batch_size = 4;
  cfg.q_data = 4;
  cfg.q_colloc = 4;
  cfg.max_lr = 1e-3;
  cfg.optimizer = mosaic::OptimizerKind::kAdamW;
  cfg.checkpoint_path = ckpt_a;
  cfg.checkpoint_every = 2;

  // Uninterrupted 4-epoch run, stashing the epoch-2 snapshot before the
  // epoch-4 save overwrites it (the trainer checkpoints before on_epoch,
  // so the file is durable inside the callback — the same guarantee the
  // kill-after-epoch crash test relies on).
  mf::util::Rng rng_full(31);
  mosaic::Sdnet net_full(tiny_net_config(4 * m), rng_full);
  mf::gp::LaplaceDatasetGenerator gen_full(m, {}, 17);
  auto history_full = mosaic::train_sdnet(
      net_full, train, val, cfg, gen_full, nullptr,
      [&](const mosaic::EpochStats& s) {
        if (s.epoch == 1) copy_file(ckpt_a, ckpt_b);
      });
  ASSERT_EQ(history_full.size(), 4u);

  // Second life: fresh replica, fresh generator (same seed), resume from
  // the epoch-2 snapshot, finish epochs 2..3.
  mosaic::TrainConfig cfg_resume = cfg;
  cfg_resume.checkpoint_path = ckpt_b;
  cfg_resume.resume = true;
  mf::util::Rng rng_res(31);
  mosaic::Sdnet net_res(tiny_net_config(4 * m), rng_res);
  mf::gp::LaplaceDatasetGenerator gen_res(m, {}, 17);
  auto history_res =
      mosaic::train_sdnet(net_res, train, val, cfg_resume, gen_res, nullptr);
  ASSERT_EQ(history_res.size(), 2u);  // only epochs 2 and 3 ran

  // The resumed trajectory is the original, bitwise: same losses, same
  // validation, same final weights.
  EXPECT_EQ(history_res[0].train_loss, history_full[2].train_loss);
  EXPECT_EQ(history_res[1].train_loss, history_full[3].train_loss);
  EXPECT_EQ(history_res[1].val_mse, history_full[3].val_mse);
  const auto pf = net_full.named_parameters();
  const auto pr = net_res.named_parameters();
  ASSERT_EQ(pf.size(), pr.size());
  for (std::size_t i = 0; i < pf.size(); ++i) {
    for (int64_t j = 0; j < pf[i].second.numel(); ++j) {
      ASSERT_EQ(pf[i].second.flat(j), pr[i].second.flat(j))
          << pf[i].first << "[" << j << "]";
    }
  }

  // Resuming on a different world size is refused loudly.
  mosaic::TrainConfig cfg_wrong = cfg_resume;
  comm::World world(2);
  EXPECT_THROW(
      world.run([&](comm::Comm& c) {
        mf::util::Rng r(31);
        mosaic::Sdnet n(tiny_net_config(4 * m), r);
        mf::gp::LaplaceDatasetGenerator g(m, {}, 17);
        (void)mosaic::train_sdnet(n, train, val, cfg_wrong, g, &c);
      }),
      std::runtime_error);

  std::remove(ckpt_a.c_str());
  std::remove(ckpt_b.c_str());
  std::remove((ckpt_b + ".rank1").c_str());
  ad::set_compute_dtype(prev);
}

// MF_CHECKPOINT_EVERY sets the stride when a checkpoint path comes
// without one. Anything but a whole integer >= 1 throws instead of
// silently becoming 1 (or 2 for "2x"); empty counts as unset.
TEST(Checkpoint, MalformedCheckpointStrideThrows) {
  const std::string ckpt = "test_fault_stride.bin";
  const int64_t m = 4;
  mf::gp::LaplaceDatasetGenerator data_gen(m, {}, 5);
  const auto train = data_gen.generate_many(4);
  const auto val = data_gen.generate_many(1);
  mosaic::TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 4;
  cfg.q_data = 4;
  cfg.q_colloc = 4;
  cfg.checkpoint_path = ckpt;
  // Whether the checkpoint file exists after each epoch.
  auto saved_after_epoch = [&] {
    std::remove(ckpt.c_str());
    mf::util::Rng rng(31);
    mosaic::Sdnet net(tiny_net_config(4 * m), rng);
    mf::gp::LaplaceDatasetGenerator gen(m, {}, 17);
    std::vector<bool> saved;
    (void)mosaic::train_sdnet(net, train, val, cfg, gen, nullptr,
                              [&](const mosaic::EpochStats&) {
                                saved.push_back(std::ifstream(ckpt).good());
                              });
    return saved;
  };

  for (const char* bad : {"abc", "0", "-2", "2x", "1.5"}) {
    EnvGuard env("MF_CHECKPOINT_EVERY", bad);
    try {
      (void)saved_after_epoch();
      ADD_FAILURE() << "MF_CHECKPOINT_EVERY=" << bad << " did not throw";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("MF_CHECKPOINT_EVERY"), std::string::npos) << what;
      EXPECT_NE(what.find(bad), std::string::npos) << what;
    }
  }
  {
    EnvGuard env("MF_CHECKPOINT_EVERY", "2");
    EXPECT_EQ(saved_after_epoch(), (std::vector<bool>{false, true, true}));
  }
  {
    EnvGuard env("MF_CHECKPOINT_EVERY", "");
    EXPECT_EQ(saved_after_epoch(), (std::vector<bool>{true, true, true}));
  }
  std::remove(ckpt.c_str());
}

TEST(Optimizers, StateRoundtripsThroughFlattenedForm) {
  auto make_params = [] {
    std::vector<Tensor> ps;
    Tensor a = Tensor::zeros({3});
    Tensor b = Tensor::zeros({2, 2});
    for (int64_t i = 0; i < a.numel(); ++i) a.flat(i) = 0.1 * double(i + 1);
    for (int64_t i = 0; i < b.numel(); ++i) b.flat(i) = -0.2 * double(i + 1);
    a.set_requires_grad(true);
    b.set_requires_grad(true);
    return ps = {a, b};
  };
  auto attach_grads = [](std::vector<Tensor>& ps, double scale) {
    for (auto& p : ps) {
      Tensor g = Tensor::zeros(p.shape());
      for (int64_t i = 0; i < g.numel(); ++i) g.flat(i) = scale * double(i + 1);
      p.set_grad(g);
    }
  };

  // Adam: step twice, save, step once more; a restored twin must produce
  // the identical third step.
  auto p1 = make_params();
  auto p2 = make_params();
  mf::optim::Adam opt1(p1, 1e-2);
  mf::optim::Adam opt2(p2, 1e-2);
  attach_grads(p1, 1.0);
  opt1.step();
  attach_grads(p1, -0.5);
  opt1.step();
  const auto saved = opt1.state_to();
  EXPECT_EQ(saved.size(), 1u + 2u * 7u);  // t + m/v over 7 values

  // Mirror the weights, restore the state, take the same third step.
  for (std::size_t i = 0; i < p1.size(); ++i) {
    for (int64_t j = 0; j < p1[i].numel(); ++j) {
      p2[i].flat(j) = p1[i].flat(j);
    }
  }
  opt2.state_from(saved);
  EXPECT_EQ(opt2.steps_taken(), 2);
  attach_grads(p1, 2.0);
  attach_grads(p2, 2.0);
  opt1.step();
  opt2.step();
  for (std::size_t i = 0; i < p1.size(); ++i) {
    for (int64_t j = 0; j < p1[i].numel(); ++j) {
      ASSERT_EQ(p1[i].flat(j), p2[i].flat(j));
    }
  }

  EXPECT_THROW(opt2.state_from(std::vector<double>(3, 0.0)),
               std::runtime_error);

  // SGD momentum state follows the same protocol.
  auto p3 = make_params();
  mf::optim::Sgd sgd(p3, 1e-2, 0.9);
  attach_grads(p3, 1.0);
  sgd.step();
  const auto sgd_state = sgd.state_to();
  EXPECT_EQ(sgd_state.size(), 7u);
  mf::optim::Sgd sgd2(make_params(), 1e-2, 0.9);
  sgd2.state_from(sgd_state);
  EXPECT_THROW(sgd2.state_from(std::vector<double>(2, 0.0)),
               std::runtime_error);
}
