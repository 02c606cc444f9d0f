// Table 3: memory allocated during a training step with and without the
// PDE loss, as a function of the number of domains (boundary conditions)
// in the batch. The PDE loss retains the autograd graph needed for the
// three backward passes, inflating peak memory by a large factor — this
// is the paper's motivation for data-parallel training.
//
// Paper rows: 5 / 320 / 640 domains on a 16 GB V100; 640 with PDE loss is
// OOM. We print measured payload bytes of the autodiff engine and mark
// rows exceeding a configurable budget (--budget-gb, default 16) as OOM.
#include <cstdio>
#include <vector>

#include "gp/dataset.hpp"
#include "mosaic/trainer.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

static int main_body(int argc, char** argv) {
  using namespace mf;
  util::CliArgs args(argc, argv);
  const bool paper = args.get_bool("paper-scale");
  const int64_t m = args.get_int("m", paper ? 16 : 8);
  const double budget_gb = args.get_double("budget-gb", 16.0);
  std::vector<int64_t> domain_counts =
      paper ? std::vector<int64_t>{5, 320, 640} : std::vector<int64_t>{5, 40, 80};

  std::printf("== Table 3: training-step memory, with vs without PDE loss ==\n");
  std::printf("(per-domain points: %ld data + %ld collocation; paper rows "
              "5/320/640 on a 16 GB V100 with the 640-domain PDE row OOM)\n\n",
              paper ? int64_t{128} : int64_t{64}, paper ? int64_t{128} : int64_t{64});

  util::Rng rng(5);
  mosaic::SdnetConfig cfg;
  cfg.boundary_size = 4 * m;
  cfg.hidden_width = paper ? 128 : 64;
  cfg.mlp_depth = 4;
  mosaic::Sdnet net(cfg, rng);
  gp::LaplaceDatasetGenerator gen(m);
  const int64_t q = paper ? 128 : 64;

  auto measure = [&](int64_t domains, bool pde) -> std::size_t {
    auto bvps = gen.generate_many(domains);
    auto batch = gen.make_batch(bvps, q, q);
    mosaic::TrainConfig tc;
    tc.use_pde_loss = pde;
    net.zero_grad();
    auto& mt = ad::MemoryTracker::instance();
    mt.reset_peak();
    const std::size_t base = mt.peak_bytes();
    mosaic::training_step(net, batch, tc);
    return mt.peak_bytes() - base;
  };

  util::Table table({"# domains", "no PDE loss", "with PDE loss", "ratio"});
  int64_t last_domains = 0;
  std::size_t last_without = 0, last_with = 0;
  for (int64_t d : domain_counts) {
    const std::size_t without = measure(d, false);
    const std::size_t with = measure(d, true);
    last_domains = d;
    last_without = without;
    last_with = with;
    const double gb = static_cast<double>(with) / (1024.0 * 1024.0 * 1024.0);
    std::string with_str = util::format_double(
        static_cast<double>(with) / (1024.0 * 1024.0), 4) + " MB";
    if (gb > budget_gb) with_str = "OOM (" + with_str + ")";
    table.add_row({std::to_string(d),
                   util::format_double(static_cast<double>(without) / (1024.0 * 1024.0), 4) + " MB",
                   with_str,
                   util::format_double(static_cast<double>(with) /
                                       static_cast<double>(without), 3)});
  }
  table.print();
  std::printf("\nShape check vs paper: ratio should be ~5-6x (paper: 0.503/0.05 "
              "= 10x at 5 domains, 15.11/2.77 = 5.5x at 320).\n");
  std::printf(
      "\nBENCH_JSON {\"bench\":\"table3_pde_loss_memory\",\"m\":%lld,"
      "\"domains\":%lld,\"peak_bytes_no_pde\":%zu,\"peak_bytes_pde\":%zu,"
      "\"pde_memory_ratio\":%.4g}\n",
      static_cast<long long>(m), static_cast<long long>(last_domains),
      last_without, last_with,
      static_cast<double>(last_with) / static_cast<double>(last_without));
  return 0;
}

int main(int argc, char** argv) {
  return mf::util::run_main(argc, argv, main_body);
}
