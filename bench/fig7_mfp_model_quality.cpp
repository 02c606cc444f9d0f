// Figure 7: MAE of the MF predictor using SDNet models trained with
// varying rank counts, on test domains of increasing size with the
// analytic boundary condition g(x) = sin(2*pi*x).
//
// The paper's finding: despite small validation-MSE differences between
// models trained at different rank counts (Fig. 6a), all models yield
// MFP predictions of equivalent quality. We train one model per rank
// count (data-parallel), run the MFP on each test domain, and add the
// exact harmonic-kernel solver as the ideal-SDNet reference row.
// With --scenario varcoef|convdiff|masked the same harness measures the
// scenario family instead: training data, conditioning width, reference
// solves (stencil operator) and the predictor (mosaic_predict_scenario)
// all follow the scenario, and the BENCH_JSON line carries a "scenario"
// key so per-scenario CI gates filter their own committed baseline.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "ad/dtype.hpp"
#include "ad/kernels.hpp"
#include "comm/world.hpp"
#include "linalg/stencil.hpp"
#include "mosaic/distributed_predictor.hpp"
#include "linalg/multigrid.hpp"
#include "mosaic/scenario_predictor.hpp"
#include "mosaic/trainer.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

static int main_body(int argc, char** argv) {
  using namespace mf;
  util::CliArgs args(argc, argv);
  const bool paper = args.get_bool("paper-scale");
  const int64_t m = args.get_int("m", 8);
  const int64_t epochs = args.get_int("epochs", paper ? 500 : 12);
  const int64_t n_bvps = args.get_int("bvps", 96);
  const scenario::Kind kind =
      scenario::kind_from_name(args.get("scenario", "poisson"));
  // CI smoke cap: --max-ranks 1 trains only the single-rank model, which
  // keeps the run deterministic under OMP_NUM_THREADS=1 (the committed
  // BENCH_fig7.json quality baseline is recorded at that config).
  const int64_t max_ranks = args.get_int("max-ranks", 0);
  std::vector<int> rank_counts = paper ? std::vector<int>{1, 2, 4, 8, 16, 32}
                                       : std::vector<int>{1, 2, 4};
  if (max_ranks > 0) {
    std::erase_if(rank_counts,
                  [&](int r) { return static_cast<int64_t>(r) > max_ranks; });
  }
  std::vector<int64_t> domain_sizes{2 * m, 4 * m, 8 * m};  // cells per side

  std::printf("== Figure 7: MFP MAE with models trained at each rank count ==\n");
  std::printf("boundary g(x) = sin(2 pi x) on the bottom edge, zero elsewhere; "
              "scenario %s\n\n",
              scenario::kind_name(kind));

  gp::LaplaceDatasetGenerator gen(m, {}, 31, kind);
  auto all = gen.generate_many(n_bvps);
  auto val = gen.generate_many(8);

  mosaic::SdnetConfig net_cfg;
  net_cfg.boundary_size = scenario::conditioning_size(kind, m);
  net_cfg.hidden_width = 64;
  net_cfg.mlp_depth = 4;

  // Train one replica set per rank count; keep the rank-0 model.
  std::vector<std::shared_ptr<mosaic::Sdnet>> models;
  std::vector<double> val_mses;
  for (int ranks : rank_counts) {
    util::Rng init_rng(42);  // placeholder init; overwritten after training
    auto model = std::make_shared<mosaic::Sdnet>(net_cfg, init_rng);
    comm::World world(ranks);
    std::vector<double> mses(static_cast<std::size_t>(ranks));
    world.run([&](comm::Comm& c) {
      util::Rng rng(42);
      mosaic::Sdnet net(net_cfg, rng);
      std::vector<gp::SolvedBvp> shard;
      for (std::size_t i = static_cast<std::size_t>(c.rank()); i < all.size();
           i += static_cast<std::size_t>(ranks)) {
        shard.push_back(all[i]);
      }
      mosaic::TrainConfig cfg;
      cfg.epochs = epochs;
      cfg.batch_size = 8;
      cfg.q_data = 32;
      cfg.q_colloc = 16;
      cfg.max_lr = 5e-3;
      cfg.pde_loss_weight = 0.3;
      cfg.optimizer = mosaic::OptimizerKind::kLamb;
      gp::LaplaceDatasetGenerator local_gen(
          m, {}, 7 + static_cast<unsigned>(c.rank()), kind);
      auto history = mosaic::train_sdnet(net, shard, val, cfg, local_gen,
                                         ranks > 1 ? &c : nullptr);
      mses[static_cast<std::size_t>(c.rank())] = history.back().val_mse;
      if (c.rank() == 0) model->copy_parameters_from(net);
    });
    models.push_back(model);
    val_mses.push_back(mses[0]);
    std::printf("trained with %2d ranks: val MSE %.5f\n", ranks, mses[0]);
  }

  // Evaluate the MFP per model per domain size.
  std::vector<std::string> headers{"domain (cells)", "reference row: exact solver"};
  util::Table table({"model", "val MSE", "MAE " + std::to_string(domain_sizes[0]),
                     "MAE " + std::to_string(domain_sizes[1]),
                     "MAE " + std::to_string(domain_sizes[2])});
  mosaic::HarmonicKernelSolver exact(m);

  // One deterministic scenario field per domain size (seeded by the
  // size), shared between the reference solve and every model row. The
  // mask is snapped to the half-subdomain lattice pitch h = m/2 so cut
  // edges land on lattice lines.
  auto make_field = [&](int64_t cells) {
    util::Rng field_rng(static_cast<std::uint64_t>(77 + cells));
    return scenario::sample_field(kind, cells, cells, field_rng,
                                  std::max<int64_t>(1, m / 2));
  };
  auto run_mfp = [&](const mosaic::SubdomainSolver& solver, int64_t cells,
                     double relaxation) {
    linalg::Grid2D ref(cells + 1, cells + 1);
    auto boundary = gp::sin_boundary(cells + 1, cells + 1);
    const scenario::Field field = make_field(cells);
    scenario::zero_masked_boundary(boundary, field.mask);
    linalg::apply_perimeter(ref, boundary);
    if (kind == scenario::Kind::kPoisson) {
      linalg::solve_laplace_mg(ref, 1.0 / static_cast<double>(m));
    } else {
      const linalg::StencilOperator op =
          scenario::field_operator(field, 1.0 / static_cast<double>(m));
      const linalg::Grid2D zero_rhs(cells + 1, cells + 1);
      if (linalg::stencil_solve(op, ref, zero_rhs, 1e-10, 40000) < 0) {
        std::fprintf(stderr, "fig7: reference stencil solve diverged\n");
        std::exit(1);
      }
    }
    mosaic::ScenarioSolveOptions opts;
    opts.mfp.max_iters = 1200;
    opts.mfp.tol = 1e-7;
    opts.mfp.relaxation = relaxation;
    auto result = mosaic::mosaic_predict_scenario(solver, field, cells, cells,
                                                  boundary, opts);
    return linalg::Grid2D::mean_abs_diff(result.solution, ref);
  };

  std::vector<double> model0_maes;
  for (std::size_t k = 0; k < models.size(); ++k) {
    mosaic::NeuralSubdomainSolver solver(models[k], m);
    std::vector<std::string> row{
        std::to_string(rank_counts[k]) + " ranks",
        util::format_double(val_mses[k])};
    for (int64_t cells : domain_sizes) {
      const double mae = run_mfp(solver, cells, 0.5);
      if (k == 0) model0_maes.push_back(mae);
      row.push_back(util::format_double(mae));
    }
    table.add_row(row);
  }
  // The harmonic-kernel reference solves the Laplace operator only, so
  // the ideal-solver row exists for the poisson/masked scenarios alone.
  if (kind == scenario::Kind::kPoisson || kind == scenario::Kind::kMasked) {
    std::vector<std::string> exact_row{"exact kernel", "0"};
    for (int64_t cells : domain_sizes) {
      exact_row.push_back(util::format_double(run_mfp(exact, cells, 1.0)));
    }
    table.add_row(exact_row);
  }
  std::printf("\n");
  table.print();
  std::printf("\nShape check vs paper: MAE is consistent across models trained "
              "at different rank counts (rows differ far less than their val "
              "MSE might suggest); absolute MAE tracks SDNet quality, with the "
              "exact-solver row as the algorithmic floor.\n");
  // Machine-readable quality line for BENCH_fig7.json: the single-rank
  // model's validation MSE and its MFP MAE per domain size, lower is
  // better. CI re-runs this at the smoke config under MF_PRECISION=f32
  // and gates the fresh MAE against the committed f64 baseline, so a
  // precision policy (or kernel change) that degrades solution quality
  // fails the job even when it speeds the bench up.
  double mae_mean = 0;
  for (double v : model0_maes) mae_mean += v;
  mae_mean /= static_cast<double>(model0_maes.size());
  std::printf(
      "\nBENCH_JSON {\"bench\":\"fig7_mfp_model_quality\",\"scenario\":\"%s\","
      "\"m\":%lld,"
      "\"epochs\":%lld,\"bvps\":%lld,\"threads\":%d,\"openmp\":%s,"
      "\"compute_dtype\":\"%s\",\"val_mse\":%.6g,"
      "\"mae_small\":%.6g,\"mae_medium\":%.6g,\"mae_large\":%.6g,"
      "\"mae_mean\":%.6g}\n",
      scenario::kind_name(kind), static_cast<long long>(m),
      static_cast<long long>(epochs),
      static_cast<long long>(n_bvps), ad::kernels::max_threads(),
      ad::kernels::openmp_enabled() ? "true" : "false",
      ad::dtype_name(ad::compute_dtype()), val_mses[0], model0_maes[0],
      model0_maes[1], model0_maes[2], mae_mean);
  return 0;
}

int main(int argc, char** argv) {
  return mf::util::run_main(argc, argv, main_body);
}
