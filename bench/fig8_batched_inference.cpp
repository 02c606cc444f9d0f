// Figure 8: time per MFP iteration, batched vs unbatched atomic
// subdomains, as the domain grows (paper: 64x128 ... 1024x1024 pixels on
// a single GPU; batching wins up to ~100x by keeping the device busy).
//
// On CPU the batching advantage comes from amortizing per-call overhead
// and boundary-embedding reuse rather than occupancy, so the gap is
// smaller but the *shape* is identical: unbatched time grows linearly
// with subdomain count, batched time grows with a much smaller slope.
#include <cstdio>
#include <memory>
#include <vector>

#include "ad/kernels.hpp"
#include "ad/program.hpp"
#include "gp/dataset.hpp"
#include "mosaic/predictor.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

static int main_body(int argc, char** argv) {
  using namespace mf;
  util::CliArgs args(argc, argv);
  const bool paper = args.get_bool("paper-scale");
  const int64_t m = args.get_int("m", 8);
  const int64_t iters = args.get_int("iters", 8);
  // Domain sizes in cells (x, y).
  std::vector<std::pair<int64_t, int64_t>> sizes;
  if (paper) {
    sizes = {{32, 64}, {64, 64}, {64, 128}, {128, 128}, {128, 256}, {256, 256}};
  } else {
    sizes = {{16, 32}, {32, 32}, {32, 64}, {64, 64}, {64, 128}};
  }

  std::printf("== Figure 8: batched vs unbatched atomic subdomain inference ==\n");
  std::printf("time per MFP iteration (averaged over %ld iterations), SDNet "
              "solver\n\n", iters);

  util::Rng rng(8);
  mosaic::SdnetConfig cfg;
  cfg.boundary_size = 4 * m;
  cfg.hidden_width = 64;
  cfg.mlp_depth = 4;
  auto net = std::make_shared<mosaic::Sdnet>(cfg, rng);
  mosaic::NeuralSubdomainSolver solver(net, m);
  gp::LaplaceDatasetGenerator gen(m, {}, 17);

  util::Table table({"domain (cells)", "subdomains", "unbatched s/iter",
                     "batched s/iter", "compiled s/iter", "speedup"});
  const bool prog_available = ad::program_enabled();
  double total_sub_updates = 0, total_unbatched_s = 0, total_batched_s = 0;
  double total_compiled_s = 0;
  for (const auto& [cx, cy] : sizes) {
    auto problem_boundary = gen.generate_global(cx, cy).boundary;
    auto run = [&](bool batched, bool compiled) {
      mosaic::MfpOptions opts;
      opts.max_iters = iters;
      opts.tol = 0;
      opts.batched = batched;
      // Honor MF_DISABLE_PROGRAM: with the hatch set, the "compiled"
      // window must stay eager too.
      const bool prev = ad::program_set_enabled(compiled && prog_available);
      // Wall clock, not the per-thread CPU clock: the kernels may spread
      // work across OpenMP workers whose cycles a thread-CPU timer would
      // miss, and elapsed time is the quantity batching is meant to cut.
      const double t0 = util::wall_seconds();
      mosaic::mosaic_predict(solver, cx, cy, problem_boundary, opts);
      const double dt = (util::wall_seconds() - t0) / static_cast<double>(iters);
      ad::program_set_enabled(prev);
      return dt;
    };
    const double tu = run(false, false);
    const double tb = run(true, false);
    // Batched inference through captured programs. The solver keeps one
    // plan per query set (cross and interior), captured at batch 1 on
    // the first size's untimed pass and widened to every batch after
    // that. Each untimed pass builds this size's widened contexts and
    // grows the plans' stores, so the timed pass only replays.
    run(true, true);
    const double tc = run(true, true);
    const int64_t h = m / 2;
    const int64_t n_sub = (cx / h - 1) * (cy / h - 1);
    // phase_corners visits roughly a quarter of the subdomain positions per
    // iteration (4-phase coloring), so n_sub/4 updates per iteration.
    total_sub_updates += static_cast<double>(n_sub) / 4.0;
    total_unbatched_s += tu;
    total_batched_s += tb;
    total_compiled_s += tc;
    table.add_row({std::to_string(cx) + " x " + std::to_string(cy),
                   std::to_string(n_sub), util::format_double(tu),
                   util::format_double(tb), util::format_double(tc),
                   util::format_double(tu / tb, 3)});
  }
  table.print();
  std::printf("\nShape check vs paper (Fig. 8): unbatched time grows linearly "
              "with domain size; batching flattens the curve (up to ~100x on "
              "GPUs where occupancy dominates; smaller but same-shaped gains "
              "on CPU).\n");
  const auto prog = solver.thread_program_stats();
  // Stable machine-readable line for BENCH_*.json trend tracking: aggregate
  // subdomain updates per second over the whole size ladder. Add keys
  // rather than rename them, so downstream parsers never break. The gated
  // `batched_sub_updates_per_sec` is the production path — compiled
  // replay with batch widening; the plain eager batched column keeps its
  // own key (`eager_batched_sub_updates_per_sec`) so the trend of both
  // survives the rewiring. `gelu_lanes` names the GELU tier the rates were
  // measured on (8 AVX-512F, 4 AVX2+FMA, 1 std::tanh functor): it moves
  // them by about 1.5x, so a change of runner type shows in the line.
  std::printf(
      "\nBENCH_JSON {\"bench\":\"fig8_batched_inference\",\"m\":%lld,"
      "\"threads\":%d,\"openmp\":%s,\"clock\":\"wall\","
      "\"batched_sub_updates_per_sec\":%.6g,"
      "\"unbatched_sub_updates_per_sec\":%.6g,\"speedup\":%.4g,"
      "\"replay_sub_updates_per_sec\":%.6g,\"replay_steps_per_sec\":%.6g,"
      "\"capture_ms\":%.6g,\"plan_steps\":%zu,\"program_captures\":%llu,"
      "\"program_replays\":%llu,\"fused_steps\":%zu,\"fused_ops\":%zu,"
      "\"eager_batched_sub_updates_per_sec\":%.6g,"
      "\"batch_width\":%lld,\"widened_replays\":%llu,"
      "\"compute_dtype\":\"%s\",\"cast_steps\":%zu,\"gelu_lanes\":%d}\n",
      static_cast<long long>(m), ad::kernels::max_threads(),
      ad::kernels::openmp_enabled() ? "true" : "false",
      total_sub_updates / total_compiled_s,
      total_sub_updates / total_unbatched_s,
      total_unbatched_s / total_compiled_s,
      total_sub_updates / total_compiled_s,
      static_cast<double>(sizes.size()) / total_compiled_s,
      prog.capture_ms, prog.steps,
      static_cast<unsigned long long>(prog.captures),
      static_cast<unsigned long long>(prog.replays),
      prog.fused_steps, prog.fused_ops,
      total_sub_updates / total_batched_s,
      static_cast<long long>(prog.max_widen_batch),
      static_cast<unsigned long long>(prog.widened_replays),
      ad::dtype_name(ad::compute_dtype()), prog.cast_steps,
      ad::kernels::gelu_lanes());
  return 0;
}

int main(int argc, char** argv) {
  return mf::util::run_main(argc, argv, main_body);
}
