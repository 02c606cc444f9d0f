// Full SDNet training driver with data-parallel ranks (Algorithm 1).
// Produces a model file consumable by large_domain_distributed --model.
//
// Run:  ./train_sdnet [--ranks 4] [--epochs 100] [--m 8] [--bvps 256]
//       [--width 64] [--depth 4] [--lr 1e-2] [--out sdnet.bin]
//       [--optimizer lamb|adamw|sgd]
//       [--scenario poisson|varcoef|convdiff]  (PDE family; non-Poisson
//                                 scenarios widen the conditioning vector
//                                 and train against stencil ground truth)
//       [--zoo DIR]              (also save the model into DIR and upsert
//                                 its entry in DIR/zoo.manifest, the
//                                 CRC-verified manifest the solve server
//                                 loads via MF_SERVE_ZOO)
//       [--checkpoint ckpt.bin] [--checkpoint-every 5] [--resume]
//       [--kill-after-epoch N]   (fault-injection: SIGKILL the process
//                                 right after epoch N's checkpoint lands,
//                                 for kill/resume recovery tests)
// or, built with -DMF_WITH_MPI=ON, data-parallel over real processes:
//       mpirun -np 4 ./example_train_sdnet --epochs 100
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>

#include "comm/runtime.hpp"
#include "mosaic/trainer.hpp"
#include "nn/serialize.hpp"
#include "scenario/scenario.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"

/// The --optimizer value: lamb, adamw or sgd, and nothing else.
static mf::mosaic::OptimizerKind optimizer_from_name(const std::string& name) {
  using mf::mosaic::OptimizerKind;
  if (name == "lamb") return OptimizerKind::kLamb;
  if (name == "adamw") return OptimizerKind::kAdamW;
  if (name == "sgd") return OptimizerKind::kSgd;
  throw std::invalid_argument("--optimizer='" + name +
                              "': want lamb, adamw or sgd");
}

static int main_body(int argc, char** argv) {
  using namespace mf;
  util::CliArgs args(argc, argv);
  comm::RankLauncher launcher(argc, argv);
  const int ranks = launcher.fixed_world_size() > 0
                        ? launcher.fixed_world_size()
                        : static_cast<int>(args.get_int("ranks", 1));
  const int64_t m = args.get_int("m", 8);
  const int64_t epochs = args.get_int("epochs", 60);
  const int64_t n_bvps = args.get_int("bvps", 128);
  const std::string out = args.get("out", "sdnet.bin");
  const mosaic::OptimizerKind optimizer =
      optimizer_from_name(args.get("optimizer", "adamw"));
  const scenario::Kind kind =
      scenario::kind_from_name(args.get("scenario", "poisson"));
  const std::string zoo_dir = args.get("zoo", "");

  if (launcher.is_root()) {
    std::printf("=== SDNet data-parallel training (%s backend) ===\n",
                launcher.backend_name());
    std::printf("ranks %d, epochs %ld, %ld BVPs, subdomain %ld cells, "
                "scenario %s\n",
                ranks, epochs, n_bvps, m, scenario::kind_name(kind));
  }

  // Shared dataset generated once; ranks take strided shards.
  gp::LaplaceDatasetGenerator gen(m, {}, 1234, kind);
  auto all = gen.generate_many(n_bvps);
  auto val = gen.generate_many(16);

  mosaic::SdnetConfig net_cfg;
  net_cfg.boundary_size = scenario::conditioning_size(kind, m);
  net_cfg.hidden_width = args.get_int("width", 64);
  net_cfg.mlp_depth = args.get_int("depth", 4);
  mosaic::TrainConfig cfg;
  cfg.epochs = epochs;
  cfg.batch_size = args.get_int("batch", 8);
  cfg.q_data = args.get_int("q-data", 48);
  cfg.q_colloc = args.get_int("q-colloc", 16);
  cfg.max_lr = args.get_double("lr", 1e-2);
  cfg.pde_loss_weight = args.get_double("pde-weight", 0.3);
  cfg.optimizer = optimizer;
  cfg.checkpoint_path = args.get("checkpoint", "");
  cfg.checkpoint_every = args.get_int("checkpoint-every", 0);
  cfg.resume = args.get_bool("resume");
  const int64_t kill_after = args.get_int("kill-after-epoch", -1);

  mosaic::EpochStats root_stats;
  launcher.run(ranks, [&](comm::Comm& c) {
    util::Rng rng(42);  // identical replica initialization on every rank
    mosaic::Sdnet net(net_cfg, rng);
    // Strided shard: rank r takes BVPs r, r+P, r+2P, ...
    std::vector<gp::SolvedBvp> shard;
    for (std::size_t i = static_cast<std::size_t>(c.rank()); i < all.size();
         i += static_cast<std::size_t>(ranks)) {
      shard.push_back(all[i]);
    }
    gp::LaplaceDatasetGenerator local_gen(
        m, {}, 99 + static_cast<unsigned>(c.rank()), kind);
    auto history = mosaic::train_sdnet(
        net, shard, val, cfg, local_gen, ranks > 1 ? &c : nullptr,
        [&](const mosaic::EpochStats& s) {
          if (c.rank() == 0 && s.epoch % 10 == 0) {
            std::printf("  epoch %3ld  loss %.4f  val MSE %.6f  (%.1fs)\n",
                        static_cast<long>(s.epoch), s.train_loss, s.val_mse,
                        s.wall_seconds);
          }
          if (kill_after >= 0 && s.epoch == kill_after) {
            // Crash test: the trainer checkpoints before this callback,
            // so the snapshot for this epoch is already durable. Die the
            // hard way — no destructors, no flushes — like a real
            // preemption.
            std::fflush(stdout);
            std::raise(SIGKILL);
          }
        });
    if (c.rank() == 0) {
      root_stats = history.back();
      nn::save_parameters(net, out);
      if (!zoo_dir.empty()) {
        std::filesystem::create_directories(zoo_dir);
        const std::string fname =
            std::string(scenario::kind_name(kind)) + ".params";
        const std::string fpath = zoo_dir + "/" + fname;
        nn::save_parameters(net, fpath);
        nn::ZooManifest manifest;
        try {
          // Existing entries survive; skip per-file CRC verification so a
          // stale sibling checkpoint can't block updating this one.
          manifest = nn::load_zoo_manifest(zoo_dir, /*verify_params=*/false);
        } catch (const std::exception&) {
          // No manifest yet (or an unreadable one being rebuilt).
        }
        nn::ZooEntry entry;
        entry.scenario = scenario::kind_name(kind);
        const char* prec = std::getenv("MF_PRECISION");
        entry.precision = (prec && prec == std::string("f32")) ? "f32" : "f64";
        entry.params_file = fname;
        char fp[160];
        std::snprintf(fp, sizeof(fp), "seed=42 epochs=%ld bvps=%ld m=%ld",
                      static_cast<long>(epochs), static_cast<long>(n_bvps),
                      static_cast<long>(m));
        entry.fingerprint = fp;
        entry.params_crc = nn::file_crc32(fpath);
        entry.config = serve::zoo_entry_config(net_cfg, m);
        bool replaced = false;
        for (auto& e : manifest.entries) {
          if (e.scenario == entry.scenario) {
            e = entry;
            replaced = true;
          }
        }
        if (!replaced) manifest.entries.push_back(entry);
        nn::save_zoo_manifest(manifest, zoo_dir);
        std::printf("zoo: wrote %s, updated %s/zoo.manifest\n", fpath.c_str(),
                    zoo_dir.c_str());
      }
    }
  });

  if (launcher.is_root()) {
    std::printf("\nfinal val MSE %.6f; model saved to %s\n",
                root_stats.val_mse, out.c_str());
    std::printf("rank-0 device time %.1fs, modeled allreduce %.4fs\n",
                root_stats.cpu_seconds, root_stats.comm_seconds);
  }
  return 0;
}

int main(int argc, char** argv) {
  return mf::util::run_main(argc, argv, main_body);
}
