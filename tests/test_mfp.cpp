// Mosaic Flow predictor tests: subdomain solvers, lattice geometry, the
// sequential/batched predictor against multigrid ground truth, the
// distributed predictor's equivalence to the single-rank algorithm, and
// the classical Schwarz baseline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "ad/dtype.hpp"
#include "comm/world.hpp"
#include "gp/dataset.hpp"
#include "linalg/multigrid.hpp"
#include "mosaic/distributed_predictor.hpp"
#include "mosaic/predictor.hpp"
#include "mosaic/scenario_predictor.hpp"
#include "mosaic/schwarz.hpp"

namespace la = mf::linalg;
namespace mosaic = mf::mosaic;

namespace {

/// Multigrid reference for a GP boundary on an (nx_cells x ny_cells) domain.
mf::gp::SolvedBvp make_problem(int64_t nx_cells, int64_t ny_cells, int64_t m,
                               std::uint64_t seed = 3) {
  mf::gp::LaplaceDatasetGenerator gen(m, {}, seed);
  return gen.generate_global(nx_cells, ny_cells);
}

bool bitwise_equal(const la::Grid2D& a, const la::Grid2D& b) {
  return a.nx() == b.nx() && a.ny() == b.ny() &&
         std::memcmp(a.vec().data(), b.vec().data(),
                     a.vec().size() * sizeof(double)) == 0;
}

struct ReferenceSolve {
  la::Grid2D solution;
  int64_t iterations = 0;
  double final_delta = 0;
};

/// The Schwarz loop written out from the public phase primitives: one
/// batched solver call per phase, the tol test on each full cycle, then
/// the interior pass.
ReferenceSolve reference_loop(const mosaic::SubdomainSolver& solver,
                              int64_t nx, int64_t ny,
                              const std::vector<double>& boundary,
                              int64_t max_iters, double tol) {
  const mosaic::SubdomainGeometry geom(solver.m());
  mosaic::LatticeWindow window(0, 0, nx, ny);
  la::apply_perimeter(window.grid(), boundary);
  mosaic::coons_init(window.grid());
  ReferenceSolve out{la::Grid2D(nx + 1, ny + 1)};
  std::vector<std::vector<double>> rows, predictions;
  double num = 0, den = 0;
  for (int64_t iter = 0; iter < max_iters; ++iter) {
    const auto corners = mosaic::phase_corners(iter % 4, geom.h, geom.m, nx, ny,
                                               0, nx / geom.h, 0, ny / geom.h);
    rows.resize(corners.size());
    mosaic::gather_phase_boundaries(window, geom, corners, rows);
    solver.predict(rows, geom.cross_queries, predictions);
    mosaic::PhaseResult pr;
    mosaic::scatter_phase_predictions(window, geom, corners, predictions, 0,
                                      1.0, pr);
    num += pr.delta_num;
    den += pr.delta_den;
    out.iterations = iter + 1;
    if (iter % 4 == 3) {
      out.final_delta = den > 0 ? std::sqrt(num / den) : 0.0;
      num = den = 0;
      if (out.final_delta < tol) break;
    }
  }
  mosaic::predict_interior(window, solver, geom, nx, ny, out.solution);
  return out;
}

}  // namespace

// ---- geometry ----

TEST(SubdomainGeometry, CountsAndOffsets) {
  mosaic::SubdomainGeometry geom(8);
  EXPECT_EQ(geom.h, 4);
  // Cross: (m-1) vertical + (m-2) horizontal (center excluded once).
  EXPECT_EQ(geom.cross_queries.size(), 13u);
  EXPECT_EQ(geom.cross_offsets.size(), 13u);
  EXPECT_EQ(geom.interior_queries.size(), 49u);
  // Offsets within the open subdomain square.
  for (const auto& [di, dj] : geom.cross_offsets) {
    EXPECT_GT(di, 0);
    EXPECT_LT(di, 8);
    EXPECT_GT(dj, 0);
    EXPECT_LT(dj, 8);
    EXPECT_TRUE(di == 4 || dj == 4);  // on the center cross
  }
  EXPECT_THROW(mosaic::SubdomainGeometry(7), std::invalid_argument);
  EXPECT_THROW(mosaic::SubdomainGeometry(2), std::invalid_argument);
}

TEST(SubdomainGeometry, QueriesMatchOffsets) {
  mosaic::SubdomainGeometry geom(8);
  for (std::size_t k = 0; k < geom.cross_queries.size(); ++k) {
    EXPECT_NEAR(geom.cross_queries[k].first * 8,
                static_cast<double>(geom.cross_offsets[k].first), 1e-12);
    EXPECT_NEAR(geom.cross_queries[k].second * 8,
                static_cast<double>(geom.cross_offsets[k].second), 1e-12);
  }
}

TEST(PhaseCorners, DisjointWithinPhaseAndFullCoverage) {
  const int64_t h = 4, m = 8, cells = 32;
  std::set<std::pair<int64_t, int64_t>> all;
  for (int64_t phase = 0; phase < 4; ++phase) {
    auto corners = mosaic::phase_corners(phase, h, m, cells, cells, 0,
                                         cells / h, 0, cells / h);
    // Subdomains within one phase must not overlap (corner spacing >= m).
    for (std::size_t a = 0; a < corners.size(); ++a)
      for (std::size_t b = a + 1; b < corners.size(); ++b) {
        const bool overlap_x = std::abs(corners[a].first - corners[b].first) < m;
        const bool overlap_y = std::abs(corners[a].second - corners[b].second) < m;
        EXPECT_FALSE(overlap_x && overlap_y);
      }
    for (const auto& c : corners) EXPECT_TRUE(all.insert(c).second);
  }
  // All positions covered across the 4 phases: (cells/h - 1)^2.
  EXPECT_EQ(all.size(), 49u);
}

TEST(LatticeWindow, GlobalIndexing) {
  mosaic::LatticeWindow w(4, 8, 12, 16);
  EXPECT_TRUE(w.contains(4, 8));
  EXPECT_TRUE(w.contains(12, 16));
  EXPECT_FALSE(w.contains(3, 8));
  EXPECT_FALSE(w.contains(4, 17));
  w.at(5, 9) = 3.25;
  EXPECT_EQ(w.at(5, 9), 3.25);
  EXPECT_EQ(w.grid().at(1, 1), 3.25);
}

TEST(CoonsInit, ReproducesBilinearExactly) {
  // Transfinite interpolation is exact for bilinear boundary data.
  la::Grid2D g(17, 9);
  auto f = [](double x, double y) { return 2 + 3 * x - y + 0.5 * x * y; };
  for (int64_t i = 0; i < 17; ++i) {
    g.at(i, 0) = f(i / 16.0, 0);
    g.at(i, 8) = f(i / 16.0, 1);
  }
  for (int64_t j = 0; j < 9; ++j) {
    g.at(0, j) = f(0, j / 8.0);
    g.at(16, j) = f(1, j / 8.0);
  }
  mosaic::coons_init(g);
  for (int64_t j = 0; j < 9; ++j)
    for (int64_t i = 0; i < 17; ++i)
      EXPECT_NEAR(g.at(i, j), f(i / 16.0, j / 8.0), 1e-12);
}

// ---- subdomain solvers ----

TEST(HarmonicKernelSolver, MatchesMultigridOnRandomBoundary) {
  const int64_t m = 8;
  mosaic::HarmonicKernelSolver kernel(m);
  mosaic::MultigridSubdomainSolver mg(m);
  mf::gp::LaplaceDatasetGenerator gen(m);
  auto bvp = gen.generate();
  mosaic::SubdomainGeometry geom(m);
  auto a = kernel.predict_one(bvp.boundary, geom.interior_queries);
  auto b = mg.predict_one(bvp.boundary, geom.interior_queries);
  for (std::size_t k = 0; k < a.size(); ++k) EXPECT_NEAR(a[k], b[k], 1e-7);
}

TEST(HarmonicKernelSolver, LinearityInBoundary) {
  const int64_t m = 8;
  mosaic::HarmonicKernelSolver solver(m);
  mf::gp::LaplaceDatasetGenerator gen(m);
  auto b1 = gen.generate().boundary;
  auto b2 = gen.generate().boundary;
  std::vector<double> combo(b1.size());
  for (std::size_t i = 0; i < b1.size(); ++i) combo[i] = 2 * b1[i] - 0.5 * b2[i];
  mosaic::SubdomainGeometry geom(m);
  auto p1 = solver.predict_one(b1, geom.cross_queries);
  auto p2 = solver.predict_one(b2, geom.cross_queries);
  auto pc = solver.predict_one(combo, geom.cross_queries);
  for (std::size_t k = 0; k < pc.size(); ++k) {
    EXPECT_NEAR(pc[k], 2 * p1[k] - 0.5 * p2[k], 1e-10);
  }
}

TEST(SampleBilinear, ExactAtGridPointsAndLinearBetween) {
  la::Grid2D g(3, 3);
  for (int64_t j = 0; j < 3; ++j)
    for (int64_t i = 0; i < 3; ++i) g.at(i, j) = i + 10.0 * j;
  EXPECT_NEAR(mosaic::sample_bilinear(g, 0.5, 0.5), 1 + 10.0, 1e-12);
  EXPECT_NEAR(mosaic::sample_bilinear(g, 0.25, 0.0), 0.5, 1e-12);
  EXPECT_NEAR(mosaic::sample_bilinear(g, 1.0, 1.0), 2 + 20.0, 1e-12);
}

TEST(NeuralSubdomainSolver, BatchSplitInvariance) {
  mf::util::Rng rng(31);
  mosaic::SdnetConfig cfg;
  cfg.boundary_size = 32;
  cfg.hidden_width = 16;
  cfg.mlp_depth = 2;
  auto net = std::make_shared<mosaic::Sdnet>(cfg, rng);
  mosaic::NeuralSubdomainSolver solver(net, 8);
  mf::gp::LaplaceDatasetGenerator gen(8);
  auto b1 = gen.generate().boundary;
  auto b2 = gen.generate().boundary;
  mosaic::SubdomainGeometry geom(8);
  std::vector<std::vector<double>> batched;
  solver.predict({b1, b2}, geom.cross_queries, batched);
  auto s1 = solver.predict_one(b1, geom.cross_queries);
  auto s2 = solver.predict_one(b2, geom.cross_queries);
  for (std::size_t k = 0; k < s1.size(); ++k) {
    EXPECT_NEAR(batched[0][k], s1[k], 1e-12);
    EXPECT_NEAR(batched[1][k], s2[k], 1e-12);
  }
}

TEST(NeuralSubdomainSolver, BoundarySizeMismatchThrows) {
  mf::util::Rng rng(32);
  mosaic::SdnetConfig cfg;
  cfg.boundary_size = 32;
  auto net = std::make_shared<mosaic::Sdnet>(cfg, rng);
  EXPECT_THROW(mosaic::NeuralSubdomainSolver(net, 16), std::invalid_argument);
}

// ---- the Mosaic Flow predictor ----

TEST(MosaicPredictor, ConvergesToMultigridWithExactSolver) {
  // With the exact subdomain solver, the MFP is a pure Schwarz-type
  // iteration and must converge to the global discrete solution.
  const int64_t m = 8;
  auto problem = make_problem(32, 32, m);
  mosaic::HarmonicKernelSolver solver(m);
  mosaic::MfpOptions opts;
  opts.max_iters = 2000;
  opts.tol = 1e-9;
  auto result = mosaic::mosaic_predict(solver, 32, 32, problem.boundary, opts);
  EXPECT_LT(result.iterations, 2000);
  const double mae = la::Grid2D::mean_abs_diff(result.solution, problem.solution);
  EXPECT_LT(mae, 2e-4) << "iterations " << result.iterations;
}

TEST(MosaicPredictor, RectangularDomain) {
  const int64_t m = 8;
  auto problem = make_problem(32, 16, m);
  mosaic::HarmonicKernelSolver solver(m);
  mosaic::MfpOptions opts;
  opts.max_iters = 1500;
  opts.tol = 1e-9;
  auto result = mosaic::mosaic_predict(solver, 32, 16, problem.boundary, opts);
  EXPECT_LT(la::Grid2D::mean_abs_diff(result.solution, problem.solution), 2e-4);
}

TEST(MosaicPredictor, BatchedEqualsUnbatched) {
  const int64_t m = 8;
  auto problem = make_problem(16, 16, m);
  mosaic::HarmonicKernelSolver solver(m);
  mosaic::MfpOptions opts;
  opts.max_iters = 60;
  opts.tol = 0;  // run a fixed number of iterations
  opts.batched = true;
  auto a = mosaic::mosaic_predict(solver, 16, 16, problem.boundary, opts);
  opts.batched = false;
  auto b = mosaic::mosaic_predict(solver, 16, 16, problem.boundary, opts);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_LT(la::Grid2D::max_abs_diff(a.solution, b.solution), 1e-12);
}

TEST(MosaicPredictor, InitSchemesConvergeToSameSolution) {
  // The fixed point is independent of the initial lattice state.
  const int64_t m = 8;
  auto problem = make_problem(32, 32, m, 5);
  mosaic::HarmonicKernelSolver solver(m);
  mosaic::MfpOptions opts;
  opts.max_iters = 3000;
  opts.tol = 1e-10;
  opts.init = mosaic::LatticeInit::kCoons;
  auto coons = mosaic::mosaic_predict(solver, 32, 32, problem.boundary, opts);
  opts.init = mosaic::LatticeInit::kZero;
  auto zero = mosaic::mosaic_predict(solver, 32, 32, problem.boundary, opts);
  EXPECT_LT(la::Grid2D::max_abs_diff(coons.solution, zero.solution), 1e-6);
  EXPECT_LT(la::Grid2D::mean_abs_diff(coons.solution, problem.solution), 1e-4);
}

TEST(MosaicPredictor, MaeTargetStopsIteration) {
  const int64_t m = 8;
  auto problem = make_problem(16, 16, m, 7);
  mosaic::HarmonicKernelSolver solver(m);
  mosaic::MfpOptions opts;
  opts.max_iters = 4000;
  opts.tol = 0;
  opts.reference = &problem.solution;
  opts.target_mae = 0.05;
  opts.check_every = 4;
  auto result = mosaic::mosaic_predict(solver, 16, 16, problem.boundary, opts);
  EXPECT_LT(result.iterations, 4000);
  EXPECT_LT(result.lattice_mae, 0.05 + 1e-9);
}

TEST(MosaicPredictor, DomainNotMultipleOfSubdomainThrows) {
  mosaic::HarmonicKernelSolver solver(8);
  std::vector<double> boundary(static_cast<std::size_t>(la::perimeter_size(21, 17)), 0.0);
  EXPECT_THROW(mosaic::mosaic_predict(solver, 20, 16, boundary), std::invalid_argument);
}

TEST(MosaicPredictor, TimingBreakdownPopulated) {
  const int64_t m = 8;
  auto problem = make_problem(16, 16, m, 9);
  mosaic::HarmonicKernelSolver solver(m);
  mosaic::MfpOptions opts;
  opts.max_iters = 16;
  opts.tol = 0;
  auto result = mosaic::mosaic_predict(solver, 16, 16, problem.boundary, opts);
  EXPECT_GT(result.inference_seconds, 0.0);
  EXPECT_GT(result.boundary_io_seconds, 0.0);
}

// ---- distributed predictor (Algorithm 2) ----

class DistributedMfp : public ::testing::TestWithParam<int> {};

TEST_P(DistributedMfp, MatchesSingleRankResult) {
  const int ranks = GetParam();
  const int64_t m = 8;
  const int64_t cells = 32;
  auto problem = make_problem(cells, cells, m, 11);
  mosaic::HarmonicKernelSolver solver(m);

  mosaic::MfpOptions opts;
  opts.max_iters = 120;
  opts.tol = 0;  // fixed iteration count for exact comparison
  auto single = mosaic::mosaic_predict(solver, cells, cells, problem.boundary, opts);

  mf::comm::CartesianGrid grid(ranks);
  mf::comm::World world(ranks);
  std::vector<la::Grid2D> solutions(static_cast<std::size_t>(ranks));
  world.run([&](mf::comm::Comm& c) {
    auto result = mosaic::distributed_mosaic_predict(c, grid, solver, cells,
                                                     cells, problem.boundary, opts);
    solutions[static_cast<std::size_t>(c.rank())] = result.solution;
  });

  for (int r = 0; r < ranks; ++r) {
    // Relaxed synchronization delivers every fresh write before the next
    // phase reads it, so the distributed iterates match the sequential
    // algorithm exactly (up to floating-point associativity).
    EXPECT_LT(la::Grid2D::max_abs_diff(solutions[static_cast<std::size_t>(r)],
                                       single.solution),
              1e-10)
        << "rank " << r << " of " << ranks;
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistributedMfp, ::testing::Values(1, 2, 4));

TEST(DistributedMfpChecks, ConvergesToReferenceAndReportsTimings) {
  const int64_t m = 8, cells = 32;
  auto problem = make_problem(cells, cells, m, 13);
  mosaic::HarmonicKernelSolver solver(m);
  mosaic::MfpOptions opts;
  opts.max_iters = 2000;
  opts.tol = 1e-9;
  opts.reference = &problem.solution;

  mf::comm::CartesianGrid grid(4);
  mf::comm::World world(4);
  std::vector<mosaic::DistMfpResult> results(4);
  world.run([&](mf::comm::Comm& c) {
    results[static_cast<std::size_t>(c.rank())] = mosaic::distributed_mosaic_predict(
        c, grid, solver, cells, cells, problem.boundary, opts);
  });
  for (const auto& r : results) {
    EXPECT_LT(r.mae, 2e-4);
    EXPECT_GT(r.timings.inference_seconds, 0.0);
    EXPECT_GT(r.timings.sendrecv_modeled_seconds, 0.0);
    EXPECT_GT(r.timings.allgather_modeled_seconds, 0.0);
  }
}

TEST(DistributedMfpChecks, BadDecompositionThrows) {
  mosaic::HarmonicKernelSolver solver(8);
  mf::comm::CartesianGrid grid(4);
  mf::comm::World world(4);
  std::vector<double> boundary(static_cast<std::size_t>(la::perimeter_size(25, 25)), 0.0);
  EXPECT_THROW(world.run([&](mf::comm::Comm& c) {
    mosaic::distributed_mosaic_predict(c, grid, solver, 24, 24, boundary, {});
  }),
               std::invalid_argument);
}

// A malformed MF_HALO_TIMEOUT_MS must not silently become a 0 ms
// deadline (stale halos on most iterations): every rank throws before
// its first exchange.
TEST(DistributedMfpChecks, MalformedHaloTimeoutThrows) {
  const char* old = std::getenv("MF_HALO_TIMEOUT_MS");
  const std::string saved = old ? old : "";
  mosaic::HarmonicKernelSolver solver(8);
  const auto problem = make_problem(16, 16, 8);
  mf::comm::CartesianGrid grid(2);
  for (const char* bad : {"abc", "5ms", "-1", "nan", ""}) {
    setenv("MF_HALO_TIMEOUT_MS", bad, 1);
    mf::comm::World world(2);
    const auto run = [&] {
      world.run([&](mf::comm::Comm& c) {
        mosaic::MfpOptions opts;
        opts.max_iters = 8;
        mosaic::distributed_mosaic_predict(c, grid, solver, 16, 16,
                                           problem.boundary, opts);
      });
    };
    if (*bad == '\0') {
      EXPECT_NO_THROW(run());  // empty counts as unset: blocking exchange
    } else {
      EXPECT_THROW(run(), std::invalid_argument) << bad;
    }
  }
  if (old) {
    setenv("MF_HALO_TIMEOUT_MS", saved.c_str(), 1);
  } else {
    unsetenv("MF_HALO_TIMEOUT_MS");
  }
}

// ---- one iteration engine behind every driver ----

// Every driver must reproduce the textbook loop above bit for bit:
// single-rank batched and unbatched, the scenario driver on a plain
// Poisson field, and the distributed driver on 1x1, 2x1 and 2x2 rank
// grids. The multi-rank cycle delta differs in its last bits (allreduce
// order), so those run a fixed iteration count (tol 0).
TEST(SolveEngine, EveryDriverMatchesTheReferenceLoopBitwise) {
  const mf::ad::DType prev = mf::ad::set_compute_dtype(mf::ad::DType::kF64);
  const int64_t m = 8, nx = 64, ny = 32;
  auto problem = make_problem(nx, ny, m, 21);
  mf::util::Rng rng(5);
  mosaic::SdnetConfig cfg;
  cfg.boundary_size = 4 * m;
  cfg.hidden_width = 16;
  cfg.mlp_depth = 2;
  const mosaic::NeuralSubdomainSolver sdnet(
      std::make_shared<mosaic::Sdnet>(cfg, rng), m);
  const mosaic::HarmonicKernelSolver harmonic(m);

  for (const mosaic::SubdomainSolver* solver :
       {static_cast<const mosaic::SubdomainSolver*>(&sdnet),
        static_cast<const mosaic::SubdomainSolver*>(&harmonic)}) {
    SCOPED_TRACE(solver == &sdnet ? "random-weight sdnet" : "harmonic kernel");
    mosaic::MfpOptions opts;
    opts.max_iters = 160;
    opts.tol = 1e-3;
    const ReferenceSolve ref = reference_loop(*solver, nx, ny, problem.boundary,
                                              opts.max_iters, opts.tol);
    // The exact solver stops on tol, the random net on the budget.
    EXPECT_EQ(ref.iterations < opts.max_iters, solver == &harmonic);
    for (const bool batched : {true, false}) {
      opts.batched = batched;
      const auto r = mosaic::mosaic_predict(*solver, nx, ny, problem.boundary, opts);
      EXPECT_TRUE(bitwise_equal(r.solution, ref.solution)) << "batched " << batched;
      EXPECT_EQ(r.iterations, ref.iterations) << "batched " << batched;
      EXPECT_EQ(r.final_delta, ref.final_delta) << "batched " << batched;
    }
    opts.batched = true;
    const auto s = mosaic::mosaic_predict_scenario(
        *solver, mf::scenario::Field{}, nx, ny, problem.boundary,
        {opts, nullptr, {}});
    EXPECT_TRUE(bitwise_equal(s.solution, ref.solution));
    EXPECT_EQ(s.iterations, ref.iterations);
    EXPECT_EQ(s.final_delta, ref.final_delta);

    opts.max_iters = 40;
    opts.tol = 0;
    const ReferenceSolve fixed = reference_loop(*solver, nx, ny, problem.boundary,
                                                opts.max_iters, opts.tol);
    for (const auto& [px, py] :
         std::initializer_list<std::pair<int, int>>{{1, 1}, {2, 1}, {2, 2}}) {
      SCOPED_TRACE(std::to_string(px) + "x" + std::to_string(py) + " ranks");
      mf::comm::CartesianGrid grid(px, py);
      mf::comm::World world(px * py);
      std::vector<mosaic::DistMfpResult> results(static_cast<std::size_t>(px * py));
      world.run([&](mf::comm::Comm& c) {
        results[static_cast<std::size_t>(c.rank())] =
            mosaic::distributed_mosaic_predict(c, grid, *solver, nx, ny,
                                               problem.boundary, opts);
      });
      for (const auto& r : results) {
        EXPECT_TRUE(bitwise_equal(r.solution, fixed.solution));
        EXPECT_EQ(r.iterations, fixed.iterations);
      }
    }
  }
  mf::ad::set_compute_dtype(prev);
}

// ---- classical Schwarz baseline ----

TEST(Schwarz, AlternatingConvergesToGlobalSolution) {
  const int64_t m = 8;
  auto problem = make_problem(32, 32, m, 15);
  la::Grid2D start(33, 33);
  la::apply_perimeter(start, problem.boundary);
  mosaic::SchwarzOptions opts;
  opts.block_cells = 8;
  opts.overlap = 4;
  opts.max_iters = 100;
  opts.tol = 1e-9;
  auto result = mosaic::schwarz_solve(start, 1.0 / m, opts);
  EXPECT_LT(result.iterations, 100);
  EXPECT_LT(la::Grid2D::mean_abs_diff(result.solution, problem.solution), 1e-5);
}

TEST(Schwarz, AdditiveNeedsMoreIterationsThanAlternating) {
  const int64_t m = 8;
  auto problem = make_problem(16, 16, m, 17);
  la::Grid2D start(17, 17);
  la::apply_perimeter(start, problem.boundary);
  mosaic::SchwarzOptions opts;
  opts.block_cells = 8;
  opts.overlap = 2;
  opts.max_iters = 200;
  opts.tol = 1e-8;
  opts.variant = mosaic::SchwarzVariant::kAlternating;
  auto alt = mosaic::schwarz_solve(start, 1.0 / m, opts);
  opts.variant = mosaic::SchwarzVariant::kAdditive;
  auto add = mosaic::schwarz_solve(start, 1.0 / m, opts);
  EXPECT_LE(alt.iterations, add.iterations);
  EXPECT_LT(la::Grid2D::mean_abs_diff(add.solution, problem.solution), 1e-5);
}

TEST(Schwarz, MoreOverlapConvergesFaster) {
  // The classical Schwarz property quoted in Sec. 2.3 of the paper.
  const int64_t m = 8;
  auto problem = make_problem(32, 32, m, 19);
  la::Grid2D start(33, 33);
  la::apply_perimeter(start, problem.boundary);
  mosaic::SchwarzOptions opts;
  opts.block_cells = 8;
  opts.max_iters = 300;
  opts.tol = 1e-8;
  opts.overlap = 2;
  auto small = mosaic::schwarz_solve(start, 1.0 / m, opts);
  opts.overlap = 6;
  auto large = mosaic::schwarz_solve(start, 1.0 / m, opts);
  EXPECT_LT(large.iterations, small.iterations);
}

TEST(DistributedMfpChecks, CommunicationAvoidingVariantStillConverges) {
  // halo_every > 1 (the paper's Sec. 5.3 communication-avoiding proposal)
  // trades staleness for fewer messages: it must still converge, possibly
  // needing more iterations, with fewer halo messages.
  const int64_t m = 8, cells = 32;
  auto problem = make_problem(cells, cells, m, 23);
  mosaic::HarmonicKernelSolver solver(m);
  mosaic::MfpOptions opts;
  opts.max_iters = 4000;
  opts.tol = 0;
  opts.reference = &problem.solution;
  opts.target_mae = 0.01;
  opts.check_every = 4;

  auto run = [&](int64_t halo_every) {
    opts.halo_every = halo_every;
    mf::comm::CartesianGrid grid(4);
    mf::comm::World world(4);
    std::vector<mosaic::DistMfpResult> results(4);
    std::vector<std::uint64_t> msgs(4);
    world.run([&](mf::comm::Comm& c) {
      results[static_cast<std::size_t>(c.rank())] =
          mosaic::distributed_mosaic_predict(c, grid, solver, cells, cells,
                                             problem.boundary, opts);
      msgs[static_cast<std::size_t>(c.rank())] = c.stats().sendrecv.messages;
    });
    return std::make_pair(results[0], msgs[0]);
  };

  auto [exact, exact_msgs] = run(1);
  auto [stale, stale_msgs] = run(4);
  EXPECT_LT(exact.mae, 0.01 + 1e-12);
  EXPECT_LT(stale.mae, 0.01 + 1e-12);
  EXPECT_GE(stale.iterations, exact.iterations);       // staleness costs iterations
  EXPECT_LT(stale_msgs, exact_msgs);                   // but saves messages
}
