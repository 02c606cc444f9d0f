// Quickstart: the full Mosaic Flow workflow in one file.
//
//   1. Generate training data (GP boundary conditions + multigrid ground
//      truth) on a small 0.5 x 0.5 subdomain.
//   2. Train SDNet, the physics-informed neural subdomain solver.
//   3. Use the Mosaic Flow predictor to solve a brand new BVP on a domain
//      4x larger than anything the network saw in training — inference
//      only, no retraining.
//   4. Compare against the numerical reference.
//
// Run:  ./quickstart [--epochs N] [--m M] [--train-bvps N]
#include <cmath>
#include <cstdio>
#include <memory>

#include "gp/dataset.hpp"
#include "linalg/multigrid.hpp"
#include "mosaic/predictor.hpp"
#include "mosaic/trainer.hpp"
#include "util/cli.hpp"

static int main_body(int argc, char** argv) {
  using namespace mf;
  util::CliArgs args(argc, argv);
  const int64_t m = args.get_int("m", 8);             // subdomain cells
  const int64_t epochs = args.get_int("epochs", 30);
  const int64_t n_train = args.get_int("train-bvps", 64);

  std::printf("=== Mosaic Flow quickstart ===\n");
  std::printf("subdomain: %ld x %ld cells (boundary %ld values)\n\n", m, m, 4 * m);

  // 1. Data.
  gp::LaplaceDatasetGenerator gen(m);
  auto train = gen.generate_many(n_train);
  auto val = gen.generate_many(8);
  std::printf("generated %ld training BVPs + 8 validation BVPs\n",
              static_cast<long>(train.size()));

  // 2. Train SDNet.
  util::Rng rng(42);
  mosaic::SdnetConfig net_cfg;
  net_cfg.boundary_size = 4 * m;
  net_cfg.hidden_width = 64;
  net_cfg.mlp_depth = 4;
  auto net = std::make_shared<mosaic::Sdnet>(net_cfg, rng);
  std::printf("SDNet parameters: %ld\n", static_cast<long>(net->parameter_count()));

  mosaic::TrainConfig train_cfg;
  train_cfg.epochs = epochs;
  train_cfg.batch_size = 8;
  train_cfg.q_data = 48;
  train_cfg.q_colloc = 16;
  train_cfg.max_lr = 1e-2;
  train_cfg.pde_loss_weight = 0.3;
  train_cfg.optimizer = mosaic::OptimizerKind::kAdamW;
  auto history = mosaic::train_sdnet(*net, train, val, train_cfg, gen,
                                     /*comm=*/nullptr,
                                     [](const mosaic::EpochStats& s) {
                                       if (s.epoch % 5 == 0) {
                                         std::printf(
                                             "  epoch %3ld  train loss %.4f  val "
                                             "MSE %.5f\n",
                                             static_cast<long>(s.epoch),
                                             s.train_loss, s.val_mse);
                                       }
                                     });
  std::printf("training done: val MSE %.5f in %.1fs\n\n",
              history.back().val_mse, history.back().wall_seconds);

  // 3. Solve a 2 x 2 (unit) domain = 4x the training area, new boundary.
  const int64_t cells = 4 * m;
  auto problem = gen.generate_global(cells, cells);
  mosaic::NeuralSubdomainSolver solver(net, m);
  mosaic::MfpOptions mfp;
  mfp.max_iters = 400;
  mfp.tol = 1e-5;
  // Damp updates: a CPU-budget-trained SDNet is far less accurate than the
  // paper's (MSE 2.5e-6 after 500 GPU epochs); relaxation keeps the
  // Schwarz-style iteration stable at this accuracy level.
  mfp.relaxation = 0.5;
  auto result = mosaic::mosaic_predict(solver, cells, cells, problem.boundary, mfp);

  // 4. Compare.
  const double mae =
      linalg::Grid2D::mean_abs_diff(result.solution, problem.solution);
  const double maxe =
      linalg::Grid2D::max_abs_diff(result.solution, problem.solution);
  std::printf("Mosaic Flow predictor on %ld x %ld cells:\n", cells, cells);
  std::printf("  iterations: %ld   final delta: %.2e\n",
              static_cast<long>(result.iterations), result.final_delta);
  std::printf("  MAE vs multigrid:  %.4f\n", mae);
  std::printf("  max error:         %.4f\n", maxe);
  std::printf("  inference time:    %.2fs   boundary IO: %.2fs\n",
              result.inference_seconds, result.boundary_io_seconds);
  std::printf("  SDNet per-point RMSE: %.4f (MFP error tracks this floor)\n",
              std::sqrt(history.back().val_mse));
  std::printf("\nNote: accuracy tracks SDNet quality; raise --epochs and\n"
              "--train-bvps (the paper trains 500 epochs on 18k BVPs to\n"
              "MSE 2.5e-6). Swap in mosaic::HarmonicKernelSolver — an exact\n"
              "subdomain solver — to see the predictor converge to 1e-4.\n");
  return 0;
}

int main(int argc, char** argv) {
  return mf::util::run_main(argc, argv, main_body);
}
