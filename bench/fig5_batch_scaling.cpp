// Figure 5: SDNet inference (a) and training-step (b) performance vs
// batch size, comparing the input-concat baseline (eq. (6)) with the
// split-layer optimized model (eq. (8)).
//
// The paper's finding: the optimized model is faster at every batch size
// and scales to much larger batches before exhausting memory (baseline
// OOMs at 10k points on a V100; optimized reaches 50k). We report
// points/second and the peak autodiff memory per configuration.
#include <cstdio>
#include <vector>

#include "gp/dataset.hpp"
#include "mosaic/trainer.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

namespace {

using namespace mf;

struct Measurement {
  double seconds;
  std::size_t peak_bytes;
};

Measurement time_inference(const mosaic::Sdnet& net, const ad::Tensor& g,
                           const ad::Tensor& x, int trials) {
  auto& mt = ad::MemoryTracker::instance();
  mt.reset_peak();
  const std::size_t base = mt.peak_bytes();
  const double t0 = util::thread_cpu_seconds();
  for (int t = 0; t < trials; ++t) net.predict(g, x);
  return {(util::thread_cpu_seconds() - t0) / trials, mt.peak_bytes() - base};
}

Measurement time_training_step(mosaic::Sdnet& net, const gp::SdnetBatch& batch,
                               int trials) {
  auto& mt = ad::MemoryTracker::instance();
  mt.reset_peak();
  const std::size_t base = mt.peak_bytes();
  mosaic::TrainConfig tc;
  const double t0 = util::thread_cpu_seconds();
  for (int t = 0; t < trials; ++t) {
    net.zero_grad();
    mosaic::training_step(net, batch, tc);
  }
  return {(util::thread_cpu_seconds() - t0) / trials, mt.peak_bytes() - base};
}

}  // namespace

static int main_body(int argc, char** argv) {
  using namespace mf;
  util::CliArgs args(argc, argv);
  const bool paper = args.get_bool("paper-scale");
  const int64_t m = args.get_int("m", 16);
  const int trials = static_cast<int>(args.get_int("trials", 3));
  std::vector<int64_t> inference_batches =
      paper ? std::vector<int64_t>{100, 1000, 10000, 50000}
            : std::vector<int64_t>{100, 1000, 5000, 20000};
  std::vector<int64_t> training_batches =
      paper ? std::vector<int64_t>{100, 320, 1000} : std::vector<int64_t>{64, 160, 320};

  util::Rng rng(6);
  mosaic::SdnetConfig cfg;
  cfg.boundary_size = 4 * m;
  cfg.hidden_width = 64;
  cfg.mlp_depth = 4;
  cfg.use_split_embedding = true;
  mosaic::Sdnet optimized(cfg, rng);
  cfg.use_split_embedding = false;
  mosaic::Sdnet baseline(cfg, rng);

  gp::LaplaceDatasetGenerator gen(m);
  auto bvp = gen.generate();

  std::printf("== Figure 5a: inference time vs batch size (points) ==\n\n");
  util::Table ta({"points", "baseline s", "optimized s", "speedup",
                  "baseline MB", "optimized MB"});
  int64_t infer_points = 0;
  Measurement infer_base{}, infer_opt{};
  for (int64_t q : inference_batches) {
    ad::Tensor g = ad::Tensor::zeros({1, 4 * m});
    for (int64_t k = 0; k < 4 * m; ++k) g.flat(k) = bvp.boundary[static_cast<std::size_t>(k)];
    ad::Tensor x = ad::Tensor::zeros({1, q, 2});
    util::Rng qr(7);
    for (int64_t k = 0; k < x.numel(); ++k) x.flat(k) = qr.uniform(0, 1);
    auto mb = time_inference(baseline, g, x, trials);
    auto mo = time_inference(optimized, g, x, trials);
    infer_points = q;
    infer_base = mb;
    infer_opt = mo;
    ta.add_row({std::to_string(q), util::format_double(mb.seconds),
                util::format_double(mo.seconds),
                util::format_double(mb.seconds / mo.seconds, 3),
                util::format_double(static_cast<double>(mb.peak_bytes) / 1048576.0, 4),
                util::format_double(static_cast<double>(mo.peak_bytes) / 1048576.0, 4)});
  }
  ta.print();

  std::printf("\n== Figure 5b: training-step time vs batch size ==\n");
  std::printf("(batch = domains x 32 points; PDE loss on)\n\n");
  util::Table tb({"points", "baseline s", "optimized s", "speedup",
                  "baseline MB", "optimized MB"});
  int64_t train_points = 0;
  Measurement train_base{}, train_opt{};
  for (int64_t pts : training_batches) {
    const int64_t domains = std::max<int64_t>(1, pts / 32);
    auto bvps = gen.generate_many(domains);
    auto batch = gen.make_batch(bvps, 16, 16);
    auto mb = time_training_step(baseline, batch, trials);
    auto mo = time_training_step(optimized, batch, trials);
    train_points = domains * 32;
    train_base = mb;
    train_opt = mo;
    tb.add_row({std::to_string(domains * 32), util::format_double(mb.seconds),
                util::format_double(mo.seconds),
                util::format_double(mb.seconds / mo.seconds, 3),
                util::format_double(static_cast<double>(mb.peak_bytes) / 1048576.0, 4),
                util::format_double(static_cast<double>(mo.peak_bytes) / 1048576.0, 4)});
  }
  tb.print();
  std::printf("\nShape check vs paper: optimized faster at every batch size, "
              "gap widening with batch; optimized peak memory ~O(N + q) vs "
              "baseline ~O(N*q).\n");
  // Largest-batch points of both panels, for trend tracking in
  // BENCH_fig5.json (higher optimized points/s, lower peak bytes = good).
  std::printf(
      "\nBENCH_JSON {\"bench\":\"fig5_batch_scaling\",\"m\":%lld,"
      "\"trials\":%d,\"infer_points\":%lld,"
      "\"infer_baseline_pts_per_sec\":%.6g,"
      "\"infer_optimized_pts_per_sec\":%.6g,\"infer_speedup\":%.4g,"
      "\"infer_baseline_peak_bytes\":%zu,\"infer_optimized_peak_bytes\":%zu,"
      "\"train_points\":%lld,\"train_baseline_pts_per_sec\":%.6g,"
      "\"train_optimized_pts_per_sec\":%.6g,\"train_speedup\":%.4g,"
      "\"train_baseline_peak_bytes\":%zu,\"train_optimized_peak_bytes\":%zu}\n",
      static_cast<long long>(m), trials, static_cast<long long>(infer_points),
      static_cast<double>(infer_points) / infer_base.seconds,
      static_cast<double>(infer_points) / infer_opt.seconds,
      infer_base.seconds / infer_opt.seconds, infer_base.peak_bytes,
      infer_opt.peak_bytes, static_cast<long long>(train_points),
      static_cast<double>(train_points) / train_base.seconds,
      static_cast<double>(train_points) / train_opt.seconds,
      train_base.seconds / train_opt.seconds, train_base.peak_bytes,
      train_opt.peak_bytes);
  return 0;
}

int main(int argc, char** argv) {
  return mf::util::run_main(argc, argv, main_body);
}
