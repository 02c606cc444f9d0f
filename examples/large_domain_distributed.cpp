// Distributed Mosaic Flow on a large domain (the paper's headline
// experiment, scaled to this machine): solve the Laplace equation on a
// domain far larger than the training subdomain using only subdomain
// inferences, distributed across a grid of ranks.
//
// Uses the exact harmonic-kernel subdomain solver by default (a perfectly
// trained SDNet stand-in) so accuracy reflects the *algorithm*; pass a
// trained model with --model to use a neural solver.
//
// Run:  ./large_domain_distributed [--ranks 4] [--cells 128] [--m 16]
//       [--target-mae 0.05] [--model path.bin]
// or, built with -DMF_WITH_MPI=ON, on real processes:
//       mpirun -np 4 ./example_large_domain_distributed --cells 128
#include <cstdio>
#include <memory>

#include "comm/cartesian.hpp"
#include "comm/runtime.hpp"
#include "gp/dataset.hpp"
#include "mosaic/distributed_predictor.hpp"
#include "nn/serialize.hpp"
#include "util/cli.hpp"
#include "util/image.hpp"

static int main_body(int argc, char** argv) {
  using namespace mf;
  util::CliArgs args(argc, argv);
  comm::RankLauncher launcher(argc, argv);
  const int ranks = launcher.fixed_world_size() > 0
                        ? launcher.fixed_world_size()
                        : static_cast<int>(args.get_int("ranks", 4));
  const int64_t m = args.get_int("m", 16);
  const int64_t cells = args.get_int("cells", 128);
  const double target_mae = args.get_double("target-mae", 0.05);

  comm::CartesianGrid grid(ranks);
  if (launcher.is_root()) {
    std::printf("=== distributed Mosaic Flow (%s backend) ===\n",
                launcher.backend_name());
    std::printf("domain: %ld x %ld cells (%.1fx the training area), "
                "%d ranks as %d x %d grid\n",
                cells, cells,
                static_cast<double>(cells * cells) / static_cast<double>(m * m),
                ranks, grid.px(), grid.py());
  }

  gp::LaplaceDatasetGenerator gen(m, {}, /*seed=*/7);
  auto problem = gen.generate_global(cells, cells);
  if (launcher.is_root())
    std::printf("reference solved by multigrid (pyAMG substitute)\n");

  std::shared_ptr<mosaic::SubdomainSolver> solver;
  if (args.has("model")) {
    util::Rng rng(0);
    mosaic::SdnetConfig cfg;
    cfg.boundary_size = 4 * m;
    auto net = std::make_shared<mosaic::Sdnet>(cfg, rng);
    nn::load_parameters(*net, args.get("model", ""));
    solver = std::make_shared<mosaic::NeuralSubdomainSolver>(net, m);
    if (launcher.is_root())
      std::printf("subdomain solver: SDNet from %s\n", args.get("model", "").c_str());
  } else {
    solver = std::make_shared<mosaic::HarmonicKernelSolver>(m);
    if (launcher.is_root())
      std::printf("subdomain solver: exact harmonic kernel (ideal SDNet)\n");
  }

  mosaic::MfpOptions opts;
  opts.max_iters = args.get_int("max-iters", 4000);
  opts.tol = 0;
  opts.reference = &problem.solution;
  opts.target_mae = target_mae;
  opts.check_every = 10;

  mosaic::DistMfpResult root_result;
  std::vector<std::vector<double>> rank_timings;
  launcher.run(ranks, [&](comm::Comm& c) {
    auto r = mosaic::distributed_mosaic_predict(c, grid, *solver, cells, cells,
                                                problem.boundary, opts);
    // Gather every rank's timing breakdown so the root can print the
    // per-rank table no matter whether ranks are threads or processes.
    const auto& t = r.timings;
    std::vector<double> mine = {t.inference_seconds,
                                t.sendrecv_modeled_seconds,
                                t.allgather_modeled_seconds,
                                t.boundary_io_seconds};
    auto all = c.allgatherv(mine);
    if (c.rank() == 0) {
      root_result = std::move(r);
      rank_timings = std::move(all);
    }
  });
  if (!launcher.is_root()) return 0;

  std::printf("\nconverged to MAE %.4f (target %.3f) in %ld iterations\n",
              root_result.mae, target_mae,
              static_cast<long>(root_result.iterations));
  std::printf("%-6s %-12s %-12s %-12s %-12s\n", "rank", "infer (s)", "halo (s,mdl)",
              "gather(s,mdl)", "IO (s)");
  for (int r = 0; r < ranks; ++r) {
    const auto& t = rank_timings[static_cast<std::size_t>(r)];
    std::printf("%-6d %-12.3f %-12.6f %-12.6f %-12.3f\n", r, t[0], t[1], t[2],
                t[3]);
  }

  util::write_pgm(problem.solution, "reference.pgm");
  util::write_pgm(root_result.solution, "mosaic_flow.pgm");
  linalg::Grid2D diff(problem.solution.nx(), problem.solution.ny());
  for (int64_t k = 0; k < diff.numel(); ++k) {
    diff.vec()[static_cast<std::size_t>(k)] =
        std::abs(problem.solution.vec()[static_cast<std::size_t>(k)] -
                 root_result.solution.vec()[static_cast<std::size_t>(k)]);
  }
  util::write_pgm(diff, "abs_difference.pgm");
  std::printf("\nwrote reference.pgm, mosaic_flow.pgm, abs_difference.pgm "
              "(Fig. 1 style)\n");
  return 0;
}

int main(int argc, char** argv) {
  return mf::util::run_main(argc, argv, main_body);
}
