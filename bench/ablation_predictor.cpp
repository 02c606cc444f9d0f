// Ablation of Mosaic Flow predictor design choices (DESIGN.md §5):
//   1. lattice initialization: zero vs transfinite (Coons) interpolation
//   2. subdomain size m at fixed resolution (the paper's Sec. 2.3
//      observation: many small subdomains with little overlap converge
//      slower than fewer large ones)
//   3. update relaxation under a noisy subdomain solver (our stabilizer
//      for imperfectly trained SDNets)
#include <cstdio>
#include <vector>

#include "gp/dataset.hpp"
#include "mosaic/predictor.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace mf;

/// HarmonicKernelSolver with additive uniform noise — a controllable model
/// of neural prediction error.
class NoisySolver final : public mosaic::SubdomainSolver {
 public:
  NoisySolver(int64_t m, double noise) : exact_(m), noise_(noise) {}
  int64_t m() const override { return exact_.m(); }
  void predict(const std::vector<std::vector<double>>& boundaries,
               const mosaic::QueryList& queries,
               std::vector<std::vector<double>>& out) const override {
    exact_.predict(boundaries, queries, out);
    for (auto& row : out)
      for (auto& v : row) v += rng_.uniform(-noise_, noise_);
  }

 private:
  mosaic::HarmonicKernelSolver exact_;
  double noise_;
  mutable util::Rng rng_{77};
};

}  // namespace

static int main_body(int argc, char** argv) {
  using namespace mf;
  util::CliArgs args(argc, argv);
  const int64_t cells = args.get_int("cells", 64);

  std::printf("== Ablation: Mosaic Flow predictor design choices ==\n\n");

  // --- 1. initialization scheme ---
  {
    gp::LaplaceDatasetGenerator gen(8, {}, 41);
    auto problem = gen.generate_global(cells, cells);
    mosaic::HarmonicKernelSolver solver(8);
    util::Table t({"init", "iterations to tol 1e-7", "final MAE"});
    for (auto init : {mosaic::LatticeInit::kZero, mosaic::LatticeInit::kCoons}) {
      mosaic::MfpOptions opts;
      opts.max_iters = 20000;
      opts.tol = 1e-7;
      opts.init = init;
      opts.reference = &problem.solution;
      auto r = mosaic::mosaic_predict(solver, cells, cells, problem.boundary, opts);
      t.add_row({init == mosaic::LatticeInit::kZero ? "zero" : "Coons patch",
                 std::to_string(r.iterations), util::format_double(r.lattice_mae)});
    }
    std::printf("-- 1. lattice initialization (%ld x %ld cells) --\n\n", cells, cells);
    t.print();
  }

  // --- 2. subdomain size at fixed resolution ---
  {
    std::printf("\n-- 2. subdomain size m (fixed %ld x %ld grid) --\n", cells, cells);
    std::printf("   (Sec. 2.3: smaller subdomains/less overlap => more "
                "iterations)\n\n");
    util::Table t({"m", "subdomain positions", "iterations to tol 1e-7",
                   "final MAE"});
    for (int64_t m : {int64_t{8}, int64_t{16}, int64_t{32}}) {
      if (cells % m != 0) continue;
      gp::LaplaceDatasetGenerator gen(m, {}, 41);
      auto problem = gen.generate_global(cells, cells);
      mosaic::HarmonicKernelSolver solver(m);
      mosaic::MfpOptions opts;
      opts.max_iters = 40000;
      opts.tol = 1e-7;
      opts.reference = &problem.solution;
      auto r = mosaic::mosaic_predict(solver, cells, cells, problem.boundary, opts);
      const int64_t pos = (2 * cells / m - 1) * (2 * cells / m - 1);
      t.add_row({std::to_string(m), std::to_string(pos),
                 std::to_string(r.iterations), util::format_double(r.lattice_mae)});
    }
    t.print();
  }

  // --- 3. relaxation under solver noise ---
  {
    std::printf("\n-- 3. update relaxation with a noisy solver (noise 0.05) --\n");
    std::printf("   (stabilizer for CPU-budget-trained SDNets; 1.0 = paper)\n\n");
    gp::LaplaceDatasetGenerator gen(8, {}, 43);
    auto problem = gen.generate_global(cells, cells);
    NoisySolver noisy(8, 0.05);
    util::Table t({"relaxation", "final MAE", "final delta"});
    for (double w : {1.0, 0.7, 0.5, 0.3}) {
      mosaic::MfpOptions opts;
      opts.max_iters = 600;
      opts.tol = 0;
      opts.relaxation = w;
      opts.reference = &problem.solution;
      auto r = mosaic::mosaic_predict(noisy, cells, cells, problem.boundary, opts);
      t.add_row({util::format_double(w, 2), util::format_double(r.lattice_mae),
                 util::format_double(r.final_delta)});
    }
    t.print();
    std::printf("\nLower relaxation damps noise amplification (smaller MAE "
                "floor) at the cost of slower information propagation.\n");
  }
  return 0;
}

int main(int argc, char** argv) {
  return mf::util::run_main(argc, argv, main_body);
}
