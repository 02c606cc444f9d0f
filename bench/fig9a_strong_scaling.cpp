// Figure 9a + Table 4: strong scaling of the distributed MF predictor.
//
// A fixed global domain (paper: 32x32 spatial = 2048x2048 resolution,
// 4096 atomic subdomains) is solved to a target MAE with 1..32 ranks.
// We report, per rank count:
//   * iterations to reach the MAE target      (Table 4: 3200 -> 3500)
//   * per-rank device compute time (max)      (Fig. 9a: Model Inference)
//   * modeled sendrecv / allgather time       (Fig. 9a: SendRecv, Allgather)
//   * boundary IO time                        (Fig. 9a: Boundaries IO)
//   * speedup vs 1 rank                       (paper: ~10x at 32)
//
// Runs on the rank runtime: plain invocation sweeps rank counts as
// in-process threads (device compute is per-thread CPU time: rank threads
// timeshare this machine, so each thread's CPU time is the work it would
// do on its own device); under `mpirun -np N` (built with
// -DMF_WITH_MPI=ON) the same binary measures one real N-process point.
#include <cstdio>
#include <algorithm>
#include <vector>

#include "bench_util.hpp"
#include "comm/runtime.hpp"
#include "gp/dataset.hpp"
#include "mosaic/distributed_predictor.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

static int main_body(int argc, char** argv) {
  using namespace mf;
  util::CliArgs args(argc, argv);
  comm::RankLauncher launcher(argc, argv);
  const bool paper = args.get_bool("paper-scale");
  const int64_t m = args.get_int("m", paper ? 32 : 8);
  const int64_t cells = args.get_int("cells", paper ? 2048 : 256);
  const double target_mae = args.get_double("target-mae", 0.05);
  std::vector<int> rank_counts = paper ? std::vector<int>{1, 2, 4, 8, 16, 32}
                                       : std::vector<int>{1, 2, 4, 8, 16};
  if (args.has("max-ranks")) {
    rank_counts.clear();
    for (int r = 1; r <= args.get_int("max-ranks", 16); r *= 2) rank_counts.push_back(r);
  }
  rank_counts = launcher.sweep_rank_counts(rank_counts);

  if (launcher.is_root()) {
    std::printf("== Figure 9a / Table 4: strong scaling of distributed MFP "
                "(%s backend) ==\n", launcher.backend_name());
    std::printf("domain %ld x %ld cells, %ld atomic subdomain positions, "
                "target MAE %.3f\n\n", cells, cells,
                (2 * cells / m - 1) * (2 * cells / m - 1), target_mae);
    std::printf("generating reference solution (multigrid)...\n");
  }

  gp::LaplaceDatasetGenerator gen(m, {}, 99);
  auto problem = gen.generate_global(cells, cells);
  mosaic::HarmonicKernelSolver solver(m);

  mosaic::MfpOptions opts;
  opts.max_iters = args.get_int("max-iters", 20000);
  opts.tol = 0;
  opts.reference = &problem.solution;
  opts.target_mae = target_mae;
  opts.check_every = 10;

  // Critical-path (max over ranks) metrics, reduced through the comm so
  // the aggregation is identical for thread and process ranks.
  struct Agg {
    int64_t iterations = 0;
    double mae = 0;
    double infer = 0, halo = 0, gather = 0, io = 0, device = 0, wall = 0;
  };

  util::Table table({"ranks", "iterations", "infer s", "halo s (mdl)",
                     "allgather s (mdl)", "IO s", "total s", "speedup"});
  double t1 = -1;
  int measured = 0;
  for (int ranks : rank_counts) {
    comm::CartesianGrid grid(ranks);
    if (cells % (grid.px() * m) != 0 || cells % (grid.py() * m) != 0) {
      if (launcher.is_root()) {
        std::printf("skipping %d ranks: %ld cells not divisible by "
                    "(grid dim %d x %d) * m=%ld\n",
                    ranks, cells, grid.px(), grid.py(), m);
      }
      continue;
    }
    ++measured;
    Agg agg;
    launcher.run(ranks, [&](comm::Comm& c) {
      bench::RankClock clock(launcher.backend());
      auto r = mosaic::distributed_mosaic_predict(c, grid, solver, cells,
                                                  cells, problem.boundary, opts);
      // One collective over all critical-path metrics; named slots so the
      // pack and unpack cannot silently drift apart.
      enum Slot { kInfer, kHalo, kGather, kIo, kDevice, kWall, kNumSlots };
      double vals[kNumSlots];
      vals[kInfer] = r.timings.inference_seconds;
      vals[kHalo] = r.timings.sendrecv_modeled_seconds;
      vals[kGather] = r.timings.allgather_modeled_seconds;
      vals[kIo] = r.timings.boundary_io_seconds;
      vals[kDevice] = clock.device();
      vals[kWall] = clock.wall();
      c.allreduce_max(vals, kNumSlots);
      if (c.rank() == 0) {
        agg.iterations = r.iterations;
        agg.mae = r.mae;
        agg.infer = vals[kInfer];
        agg.halo = vals[kHalo];
        agg.gather = vals[kGather];
        agg.io = vals[kIo];
        agg.device = vals[kDevice];
        agg.wall = vals[kWall];
      }
    });
    if (!launcher.is_root()) continue;
    const double total = agg.device + agg.halo + agg.gather;
    if (ranks == 1) t1 = total;
    table.add_row({std::to_string(ranks), std::to_string(agg.iterations),
                   util::format_double(agg.infer, 4),
                   util::format_double(agg.halo, 4),
                   util::format_double(agg.gather, 4),
                   util::format_double(agg.io, 4),
                   util::format_double(total, 4),
                   t1 > 0 ? util::format_double(t1 / total, 3) : "-"});
    std::printf("ranks %2d: %ld iterations, MAE %.4f\n", ranks,
                static_cast<long>(agg.iterations), agg.mae);
    // Stable machine-readable line per rank count for BENCH_*.json trend
    // tracking across PRs. Keep the key set append-only.
    std::printf(
        "BENCH_JSON {\"bench\":\"fig9a_strong_scaling\",\"backend\":\"%s\","
        "\"ranks\":%d,\"m\":%lld,\"cells\":%lld,\"iterations\":%lld,"
        "\"mae\":%.6g,\"wall_seconds\":%.6g,\"device_seconds\":%.6g,"
        "\"modeled_comm_seconds\":%.6g}\n",
        launcher.backend_name(), ranks, static_cast<long long>(m),
        static_cast<long long>(cells), static_cast<long long>(agg.iterations),
        agg.mae, agg.wall, agg.device, agg.halo + agg.gather);
  }
  if (launcher.is_root()) {
    std::printf("\n");
    table.print();
    if (measured == 0) {
      std::printf("WARNING: no rank count was measurable — pick --cells "
                  "divisible by (processor grid dims * m) for this launch "
                  "size.\n");
    }
  }

  // Table 4's iteration creep comes from halo staleness. Our per-iteration
  // dirty exchange is exact, so we demonstrate the same staleness tradeoff
  // with the communication-avoiding variant (halo exchange every k
  // iterations — the paper's Sec. 5.3 open problem). Needs a 4-rank world:
  // under MPI it runs only when mpirun provided exactly 4 processes.
  const int t4_ranks = 4;
  if (launcher.fixed_world_size() == 0 ||
      launcher.fixed_world_size() == t4_ranks) {
    if (launcher.is_root()) {
      std::printf("\n-- Table 4 analogue: iterations to MAE %.2f vs halo "
                  "staleness (4 ranks) --\n\n", target_mae);
    }
    util::Table t4({"halo exchange every", "iterations", "halo msgs (max rank)"});
    for (int64_t k : {int64_t{1}, int64_t{2}, int64_t{4}, int64_t{8}}) {
      mosaic::MfpOptions stale = opts;
      stale.halo_every = k;
      stale.target_mae = target_mae / 5;  // tighter target exposes staleness
      stale.check_every = 4;
      stale.init = mosaic::LatticeInit::kZero;
      comm::CartesianGrid grid(t4_ranks);
      int64_t iterations = 0;
      std::uint64_t max_msgs = 0;
      launcher.run(t4_ranks, [&](comm::Comm& c) {
        auto r = mosaic::distributed_mosaic_predict(
            c, grid, solver, cells, cells, problem.boundary, stale);
        const auto msgs = c.stats().sendrecv.messages;
        const auto all_max = static_cast<std::uint64_t>(
            c.allreduce_max(static_cast<double>(msgs)));
        if (c.rank() == 0) {
          iterations = r.iterations;
          max_msgs = all_max;
        }
      });
      if (launcher.is_root()) {
        t4.add_row({std::to_string(k) + " iters", std::to_string(iterations),
                    std::to_string(max_msgs)});
      }
    }
    if (launcher.is_root()) t4.print();
  }

  if (launcher.is_root()) {
    std::printf("\nShape check vs paper: iteration count creeps up slightly "
                "with rank count (Table 4: 3200 at 1 GPU -> 3500 at 32) "
                "because halo values go stale under relaxed synchronization; "
                "compute shrinks ~1/P while communication grows, yielding "
                "~10x speedup at 32 GPUs in the paper.\n");
  }
  return 0;
}

int main(int argc, char** argv) {
  return mf::util::run_main(argc, argv, main_body);
}
