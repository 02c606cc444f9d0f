// Figure 1: distributed Mosaic Flow prediction vs the numerical (pyAMG-
// substitute) solution of the Laplace equation on a 2x2 spatial domain
// with a Gaussian-process boundary condition; reports the absolute
// difference and writes the three panels as PGM images.
//
// Paper setup: 2x2 spatial domain at 128x128 resolution (0.5 x 0.5
// subdomains at 32x32). Default here: m=16 cells per subdomain, domain
// 4x4 subdomains = 64x64 cells; --paper-scale uses m=32, 128x128 cells.
#include <cmath>
#include <cstdio>

#include "comm/world.hpp"
#include "gp/dataset.hpp"
#include "mosaic/distributed_predictor.hpp"
#include "util/cli.hpp"
#include "util/image.hpp"
#include "util/table.hpp"

static int main_body(int argc, char** argv) {
  using namespace mf;
  util::CliArgs args(argc, argv);
  const bool paper = args.get_bool("paper-scale");
  const int64_t m = args.get_int("m", paper ? 32 : 16);
  const int64_t cells = args.get_int("cells", paper ? 128 : 64);
  const int ranks = static_cast<int>(args.get_int("ranks", 4));

  std::printf("== Figure 1: Mosaic Flow prediction vs numerical solution ==\n");
  std::printf("domain %ld x %ld cells (2x2 spatial units), subdomain m=%ld, "
              "%d ranks\n\n", cells, cells, m, ranks);

  gp::LaplaceDatasetGenerator gen(m, {}, /*seed=*/2023);
  auto problem = gen.generate_global(cells, cells);

  mosaic::HarmonicKernelSolver solver(m);
  mosaic::MfpOptions opts;
  opts.max_iters = 6000;
  opts.tol = 1e-8;

  comm::CartesianGrid grid(ranks);
  comm::World world(ranks);
  std::vector<mosaic::DistMfpResult> results(static_cast<std::size_t>(ranks));
  world.run([&](comm::Comm& c) {
    results[static_cast<std::size_t>(c.rank())] = mosaic::distributed_mosaic_predict(
        c, grid, solver, cells, cells, problem.boundary, opts);
  });
  const auto& mf_solution = results[0].solution;

  double max_diff = linalg::Grid2D::max_abs_diff(mf_solution, problem.solution);
  double mae = linalg::Grid2D::mean_abs_diff(mf_solution, problem.solution);

  util::Table table({"quantity", "value"});
  table.add_row({"iterations", std::to_string(results[0].iterations)});
  table.add_row({"MAE (abs difference mean)", util::format_double(mae)});
  table.add_row({"max abs difference", util::format_double(max_diff)});
  table.add_row({"paper reference (Fig. 1 scale)", "abs diff in [0, 0.04]"});
  table.print();

  linalg::Grid2D diff(mf_solution.nx(), mf_solution.ny());
  for (int64_t k = 0; k < diff.numel(); ++k) {
    diff.vec()[static_cast<std::size_t>(k)] = std::abs(
        mf_solution.vec()[static_cast<std::size_t>(k)] -
        problem.solution.vec()[static_cast<std::size_t>(k)]);
  }
  util::write_pgm(problem.solution, "fig1_pyamg_substitute.pgm");
  util::write_pgm(mf_solution, "fig1_mosaic_flow.pgm");
  util::write_pgm(diff, "fig1_abs_difference.pgm");
  std::printf("\nwrote fig1_{pyamg_substitute,mosaic_flow,abs_difference}.pgm\n");
  std::printf(
      "\nBENCH_JSON {\"bench\":\"fig1_mfp_vs_amg\",\"m\":%lld,"
      "\"cells\":%lld,\"ranks\":%d,\"iterations\":%lld,"
      "\"mae\":%.6g,\"max_abs_diff\":%.6g}\n",
      static_cast<long long>(m), static_cast<long long>(cells), ranks,
      static_cast<long long>(results[0].iterations), mae, max_diff);
  return 0;
}

int main(int argc, char** argv) {
  return mf::util::run_main(argc, argv, main_body);
}
