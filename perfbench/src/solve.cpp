// Workloads `solve` and `dist_solve`: one Laplace BVP on 256x256 cells with
// a GP boundary (1,024 copies of the 8x8-cell training subdomain, 3,969
// overlapping positions), solved by Mosaic Flow with one seeded
// random-weight SDNet (m=8, width 64, depth 4, conv encoder: fig8's
// config). `solve` is the plain single-thread baseline of `dist_solve`'s
// problem; `dist_solve` splits it over two threaded ranks.
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "ad/program.hpp"
#include "bench.hpp"
#include "comm/cartesian.hpp"
#include "comm/world.hpp"
#include "gp/dataset.hpp"
#include "mosaic/distributed_predictor.hpp"
#include "mosaic/predictor.hpp"
#include "util/rng.hpp"
#include "util/timing.hpp"

namespace perfbench {

namespace {

using namespace mf;

constexpr std::int64_t kM = 8;
constexpr std::int64_t kCells = 256;
constexpr std::int64_t kIters = 32;  // Schwarz phases per solve (tol 0)
constexpr int kSetupReps = 3;
constexpr std::size_t kMinOps = 3;
constexpr int kRanks = 2;
constexpr std::uint64_t kNetSeedSalt = 0x5d1e7;

mosaic::SdnetConfig net_config() {
  mosaic::SdnetConfig cfg;
  cfg.boundary_size = 4 * kM;
  cfg.hidden_width = 64;
  cfg.mlp_depth = 4;
  return cfg;
}

std::shared_ptr<mosaic::NeuralSubdomainSolver> build_solver(std::uint64_t seed) {
  util::Rng rng(seed ^ kNetSeedSalt);
  auto net = std::make_shared<mosaic::Sdnet>(net_config(), rng);
  return std::make_shared<mosaic::NeuralSubdomainSolver>(net, kM);
}

mosaic::MfpOptions solve_options() {
  mosaic::MfpOptions o;
  o.max_iters = kIters;
  o.tol = 0;  // fixed work: every solve runs all kIters phases
  return o;
}

/// The seeded input: a GP boundary (with its multigrid reference, which
/// generate_global computes alongside).
std::vector<double> make_boundary(const RunOptions& opts, Record& rec) {
  const double t0 = wall();
  gp::LaplaceDatasetGenerator gen(kM, {}, opts.seed);
  std::vector<double> boundary = gen.generate_global(kCells, kCells).boundary;
  rec.dataset_s = wall() - t0;
  return boundary;
}

linalg::Grid2D solve(const mosaic::SubdomainSolver& solver,
                     const std::vector<double>& boundary) {
  return mosaic::mosaic_predict(solver, kCells, kCells, boundary, solve_options())
      .solution;
}

/// Rows and compiled-cache movement seen by the traced re-drive.
struct CacheTally {
  std::int64_t cross_rows = 0;
  std::int64_t interior_rows = 0;
  std::int64_t replayed = 0;
  void count(const mosaic::InferCacheStats& before, std::int64_t rows,
             bool interior) {
    const auto d = cache_delta(before, mosaic::infer_cache_stats());
    (interior ? interior_rows : cross_rows) += rows;
    replayed += replayed_rows(d, rows);
  }
};

/// mosaic_predict re-driven through its public phase steps, with a span
/// around each layer call: phase_corners -> gather_phase_boundaries ->
/// SubdomainSolver::predict -> scatter_phase_predictions, then
/// predict_interior. Must reproduce mosaic_predict bitwise.
linalg::Grid2D redrive(const mosaic::SubdomainSolver& solver,
                       const std::vector<double>& boundary, CacheTally& tally) {
  ScopedSpan root("solve");
  const mosaic::SubdomainGeometry geom(kM);
  mosaic::LatticeWindow window(0, 0, kCells, kCells);
  linalg::apply_perimeter(window.grid(), boundary);
  mosaic::coons_init(window.grid());
  const std::int64_t ci_max = kCells / geom.h;
  std::vector<std::vector<double>> boundaries, predictions;
  for (std::int64_t iter = 0; iter < kIters; ++iter) {
    const auto corners = mosaic::phase_corners(iter % 4, geom.h, geom.m, kCells,
                                               kCells, 0, ci_max, 0, ci_max);
    boundaries.resize(corners.size());
    {
      ScopedSpan s("mosaic.gather");
      mosaic::gather_phase_boundaries(window, geom, corners, boundaries);
    }
    const auto before = mosaic::infer_cache_stats();
    {
      ScopedSpan s("mosaic.predict");
      solver.predict(boundaries, geom.cross_queries, predictions);
    }
    tally.count(before, static_cast<std::int64_t>(corners.size()), false);
    mosaic::PhaseResult pr;
    {
      ScopedSpan s("mosaic.scatter");
      mosaic::scatter_phase_predictions(window, geom, corners, predictions, 0,
                                        1.0, pr);
    }
  }
  linalg::Grid2D solution(kCells + 1, kCells + 1);
  const auto before = mosaic::infer_cache_stats();
  {
    ScopedSpan s("mosaic.interior");
    mosaic::predict_interior(window, solver, geom, kCells, kCells, solution);
  }
  tally.count(before, (kCells / kM) * (kCells / kM), true);
  return solution;
}

std::string fraction_detail(std::int64_t good, std::int64_t total,
                            const std::string& what) {
  std::ostringstream o;
  o << good << "/" << total << " " << what;
  return o.str();
}

}  // namespace

void run_solve(const RunOptions& opts, Record& rec) {
  const std::vector<double> boundary = make_boundary(opts, rec);

  // Set-up: model build plus two warm solves. Phase shapes are captured on
  // their second sight (first solve), the interior pass on the second
  // solve. Each repetition builds a fresh solver, whose plans start cold.
  std::shared_ptr<mosaic::NeuralSubdomainSolver> solver;
  const auto cache0 = mosaic::infer_cache_stats();
  for (int r = 0; r < (opts.trace ? 1 : kSetupReps); ++r) {
    solver.reset();  // purges the previous plans outside the timing
    const double t0 = wall();
    solver = build_solver(opts.seed);
    solve(*solver, boundary);
    solve(*solver, boundary);
    rec.setup_s.push_back(wall() - t0);
  }
  const auto setup_cache = cache_delta(cache0, mosaic::infer_cache_stats());

  // Timed ops: one op is one full solve.
  const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
  std::vector<std::uint64_t> hashes;
  std::vector<bool> finite;
  const double loop0 = wall();
  while (hashes.size() < kMinOps || wall() - loop0 < budget) {
    const double t0 = wall();
    try {
      const linalg::Grid2D sol = solve(*solver, boundary);
      rec.op_s.push_back(wall() - t0);
      rec.timed_wall_s += rec.op_s.back();
      hashes.push_back(grid_hash(sol));
      finite.push_back(all_finite(sol));
    } catch (const std::exception& e) {
      rec.gate("op_exception", false, e.what());
      hashes.push_back(0);
      finite.push_back(false);
    }
  }
  rec.ops = static_cast<std::int64_t>(rec.op_s.size());
  rec.peak_rss_mb = peak_rss_mb();

  // Traced re-drive (separate invocation from the end-to-end runs).
  std::vector<std::uint64_t> traced_hashes;
  CacheTally tally;
  ad::Program::Stats prog0 = solver->thread_program_stats();
  const auto cache1 = mosaic::infer_cache_stats();
  if (opts.trace) {
    rec.untraced_op_s = rec.op_s;
    const double t_loop = wall();
    while (traced_hashes.size() < kMinOps || wall() - t_loop < budget) {
      const double t0 = wall();
      const linalg::Grid2D sol = redrive(*solver, boundary, tally);
      rec.traced_op_s.push_back(wall() - t0);
      traced_hashes.push_back(grid_hash(sol));
    }
  }
  const auto traced_cache = cache_delta(cache1, mosaic::infer_cache_stats());
  const ad::Program::Stats prog1 = solver->thread_program_stats();

  // Correctness gate, outside every timing: each op's solution must equal,
  // bit for bit, the same solve with compiled programs disabled.
  const bool prev = ad::program_set_enabled(false);
  const linalg::Grid2D eager = solve(*solver, boundary);
  ad::program_set_enabled(prev);
  const std::uint64_t eager_hash = grid_hash(eager);
  std::int64_t good = 0;
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    if (finite[i] && hashes[i] == eager_hash) ++good;
  }
  rec.attempted = static_cast<std::int64_t>(hashes.size());
  rec.failed = rec.attempted - good;
  rec.gate("bitwise_vs_eager", rec.failed == 0 && all_finite(eager),
           fraction_detail(good, rec.attempted, "solves bitwise equal to the eager solve"));

  if (!opts.trace) return;
  std::int64_t faithful = 0;
  for (std::uint64_t h : traced_hashes) faithful += h == eager_hash;
  const auto n_traced = static_cast<std::int64_t>(traced_hashes.size());
  rec.attempted += n_traced;
  rec.failed += n_traced - faithful;
  rec.gate("trace_fidelity", faithful == n_traced,
           fraction_detail(faithful, n_traced,
                           "re-driven solves bitwise equal to mosaic_predict"));

  const double n = static_cast<double>(n_traced);
  auto fold = tracer().fold();
  rec.layers["mosaic.gather_s"] = fold["mosaic.gather"].total_s / n;
  rec.layers["mosaic.predict_s"] = fold["mosaic.predict"].total_s / n;
  rec.layers["mosaic.scatter_s"] = fold["mosaic.scatter"].total_s / n;
  rec.layers["mosaic.interior_s"] = fold["mosaic.interior"].total_s / n;
  rec.layers["mosaic.unaccounted_s"] = fold["solve"].self_s / n;
  add_cache_layers(rec, traced_cache, tally.cross_rows + tally.interior_rows,
                   tally.replayed, n);
  rec.layers["mosaic.cache.setup_captures"] =
      static_cast<double>(setup_cache.captures);
  rec.layers["ad.program.replays"] =
      static_cast<double>(prog1.replays - prog0.replays) / n;
  rec.layers["ad.program.plan_steps"] = static_cast<double>(prog1.steps);
  rec.layers["ad.program.fused_steps"] = static_cast<double>(prog1.fused_steps);
  rec.layers["ad.program.capture_ms"] = prog1.capture_ms;

  const mosaic::SdnetConfig cfg = net_config();
  const mosaic::SubdomainGeometry geom(kM);
  const double cross_flops =
      static_cast<double>(tally.cross_rows) / n *
      sdnet_row_flops(cfg, static_cast<std::int64_t>(geom.cross_queries.size()));
  const double interior_flops =
      static_cast<double>(tally.interior_rows) / n *
      sdnet_row_flops(cfg, static_cast<std::int64_t>(geom.interior_queries.size()));
  const double predict_gflops = cross_flops / rec.layers["mosaic.predict_s"] / 1e9;
  add_kernel_reference(rec);
  rec.layers["ad.kernels.flops"] = cross_flops + interior_flops;
  rec.layers["ad.kernels.predict_gflops"] = predict_gflops;
  rec.layers["ad.kernels.peak_frac"] =
      predict_gflops / rec.layers["ad.kernels.peak_gflops"];
}

void run_dist_solve(const RunOptions& opts, Record& rec) {
  const std::vector<double> boundary = make_boundary(opts, rec);
  const comm::CartesianGrid grid(kRanks, 1);
  const mosaic::MfpOptions mfp = solve_options();
  const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;

  // Per-op, per-rank measurements; each vector is written only by its
  // rank's thread and read after World::run has joined them.
  struct RankOp {
    double wall_s = 0, cpu_s = 0;
    mosaic::DistMfpTimings timings;
    comm::CommStats::Entry halo, allreduce, allgather;
    std::int64_t halo_timeouts = 0;
    std::uint64_t hash = 0;
    bool finite = false;
  };
  std::array<std::vector<RankOp>, kRanks> ops;
  std::array<linalg::Grid2D, kRanks> first_solution;
  std::vector<bool> op_traced;  // rank 0 writes

  // Warm-up and timed solves share one World::run: the inference plan
  // cache is thread-local, so a fresh World would re-capture every plan.
  std::shared_ptr<mosaic::NeuralSubdomainSolver> solver;
  const int reps = opts.trace ? 1 : kSetupReps;
  for (int r = 0; r < reps; ++r) {
    const bool timed = r + 1 == reps;
    solver.reset();
    const double t0 = wall();
    solver = build_solver(opts.seed);
    comm::World world(kRanks);
    auto rank_fn = [&](comm::Comm& c) {
      const int rank = c.rank();
      auto solve_dist = [&] {
        return mosaic::distributed_mosaic_predict(c, grid, *solver, kCells,
                                                  kCells, boundary, mfp);
      };
      solve_dist();
      solve_dist();
      c.barrier();
      if (rank == 0) rec.setup_s.push_back(wall() - t0);
      if (!timed) return;

      auto run_ops = [&](bool traced) {
        const double loop0 = wall();
        for (std::size_t n = 0;; ++n) {
          // Rank 0 decides when to stop; the max-allreduce makes both
          // ranks follow it. Outside the op timing.
          double go = rank == 0 && (n < kMinOps || wall() - loop0 < budget);
          c.allreduce_max(&go, 1);
          if (go == 0) break;
          c.barrier();
          RankOp op;
          const double cpu0 = util::thread_cpu_seconds();
          const double w0 = wall();
          mosaic::DistMfpResult res;
          {
            std::optional<ScopedSpan> span;
            if (traced) span.emplace("mosaic.dist.rank");
            res = solve_dist();
          }
          op.wall_s = wall() - w0;
          op.cpu_s = util::thread_cpu_seconds() - cpu0;
          op.timings = res.timings;
          // distributed_mosaic_predict resets the rank's stats on entry, so
          // they hold this solve's traffic alone.
          op.halo = c.stats().sendrecv;
          op.allreduce = c.stats().allreduce;
          op.allgather = c.stats().allgather;
          op.halo_timeouts = res.halo_timeouts;
          op.hash = grid_hash(res.solution);
          op.finite = all_finite(res.solution);
          if (first_solution[static_cast<std::size_t>(rank)].numel() == 0) {
            first_solution[static_cast<std::size_t>(rank)] = res.solution;
          }
          ops[static_cast<std::size_t>(rank)].push_back(op);
          if (rank == 0) op_traced.push_back(traced);
        }
      };
      run_ops(false);
      if (rank == 0) rec.peak_rss_mb = peak_rss_mb();
      if (opts.trace) run_ops(true);
    };
    if (!timed) {
      world.run(rank_fn);
      continue;
    }
    try {
      world.run(rank_fn);
    } catch (const std::exception& e) {
      // A rank failure tears down the World: the op in flight failed.
      rec.gate("op_exception", false, e.what());
      rec.attempted += 1;
      rec.failed += 1;
    }
  }

  // Correctness gate, outside every timing: every rank's solution within
  // 1e-10 of the single-rank solve, identical across ops, no halo timeouts.
  const linalg::Grid2D reference = solve(*solver, boundary);
  std::array<bool, kRanks> rank_ok{};
  std::ostringstream detail;
  for (int r = 0; r < kRanks; ++r) {
    const double d = max_abs_diff(first_solution[static_cast<std::size_t>(r)], reference);
    rank_ok[static_cast<std::size_t>(r)] = d <= 1e-10;
    detail << "rank " << r << " max|diff| vs single-rank " << d << "; ";
  }
  const std::size_t n_ops = op_traced.size();
  std::int64_t good = 0, timeouts = 0;
  for (std::size_t i = 0; i < n_ops; ++i) {
    bool ok = true;
    double wall_max = 0;
    for (int r = 0; r < kRanks; ++r) {
      const RankOp& op = ops[static_cast<std::size_t>(r)][i];
      ok = ok && rank_ok[static_cast<std::size_t>(r)] && op.finite &&
           op.halo_timeouts == 0 &&
           op.hash == ops[static_cast<std::size_t>(r)][0].hash;
      timeouts += op.halo_timeouts;
      wall_max = std::max(wall_max, op.wall_s);
    }
    good += ok;
    (op_traced[i] ? rec.traced_op_s : rec.op_s).push_back(wall_max);
    if (!op_traced[i]) rec.timed_wall_s += wall_max;
  }
  rec.ops = static_cast<std::int64_t>(rec.op_s.size());
  rec.attempted += static_cast<std::int64_t>(n_ops);
  rec.failed += static_cast<std::int64_t>(n_ops) - good;
  detail << good << "/" << n_ops << " solves pass; halo timeouts " << timeouts;
  rec.gate("matches_single_rank", good == static_cast<std::int64_t>(n_ops),
           detail.str());

  if (!opts.trace) return;
  rec.untraced_op_s = rec.op_s;
  // Per traced solve: times are the slowest rank's, counts sum the ranks.
  double n = 0;
  std::map<std::string, double> sum;
  for (std::size_t i = 0; i < n_ops; ++i) {
    if (!op_traced[i]) continue;
    n += 1;
    double wall_max = 0, cpu_max = 0, inf_max = 0, inf_min = INFINITY, io_max = 0;
    double wait_max = 0, gather_max = 0, unacc_max = 0;
    for (int r = 0; r < kRanks; ++r) {
      const RankOp& op = ops[static_cast<std::size_t>(r)][i];
      wall_max = std::max(wall_max, op.wall_s);
      cpu_max = std::max(cpu_max, op.cpu_s);
      inf_max = std::max(inf_max, op.timings.inference_seconds);
      inf_min = std::min(inf_min, op.timings.inference_seconds);
      io_max = std::max(io_max, op.timings.boundary_io_seconds);
      wait_max = std::max(wait_max, op.halo.wall_seconds);
      gather_max = std::max(gather_max, op.allgather.wall_seconds);
      unacc_max = std::max(
          unacc_max, op.wall_s - op.timings.inference_seconds -
                         op.timings.boundary_io_seconds - op.halo.wall_seconds -
                         op.allreduce.wall_seconds - op.allgather.wall_seconds);
      sum["comm.halo_messages"] += static_cast<double>(op.halo.messages);
      sum["comm.halo_bytes"] += static_cast<double>(op.halo.bytes);
      sum["comm.allreduce_messages"] += static_cast<double>(op.allreduce.messages);
      sum["comm.allgather_bytes"] += static_cast<double>(op.allgather.bytes);
      sum["comm.halo_timeouts"] += static_cast<double>(op.halo_timeouts);
    }
    sum["mosaic.dist.rank_wall_s"] += wall_max;
    sum["mosaic.dist.rank_cpu_s"] += cpu_max;
    sum["mosaic.dist.inference_s"] += inf_max;
    sum["mosaic.dist.boundary_io_s"] += io_max;
    sum["mosaic.dist.unaccounted_s"] += unacc_max;
    sum["comm.halo_wait_s"] += wait_max;
    sum["comm.allgather_s"] += gather_max;
    sum["comm.rank_imbalance"] += inf_min > 0 ? inf_max / inf_min : 0;
  }
  for (const auto& [name, v] : sum) rec.layers[name] = v / n;
  add_kernel_reference(rec);
}

}  // namespace perfbench
