#include "mosaic/predictor.hpp"

#include "mosaic/scenario_predictor.hpp"
#include "mosaic/solve_job.hpp"

namespace mf::mosaic {

std::vector<std::pair<int64_t, int64_t>> phase_corners(
    int64_t phase, int64_t h, int64_t m, int64_t nx_cells, int64_t ny_cells,
    int64_t cx0, int64_t cx1, int64_t cy0, int64_t cy1) {
  const int64_t px = phase & 1;
  const int64_t py = (phase >> 1) & 1;
  std::vector<std::pair<int64_t, int64_t>> corners;
  for (int64_t j = cy0; j < cy1; ++j) {
    if ((j & 1) != py) continue;
    const int64_t gy = j * h;
    if (gy + m > ny_cells) continue;
    for (int64_t i = cx0; i < cx1; ++i) {
      if ((i & 1) != px) continue;
      const int64_t gx = i * h;
      if (gx + m > nx_cells) continue;
      corners.emplace_back(gx, gy);
    }
  }
  return corners;
}

void predict_interior(const LatticeWindow& window,
                      const SubdomainSolver& solver,
                      const SubdomainGeometry& geom, int64_t nx_cells,
                      int64_t ny_cells, linalg::Grid2D& solution,
                      double* inference_seconds, double* boundary_io_seconds) {
  SolveTimes times;
  {
    util::ScopedCpuTimer t(times.boundary_io);
    for (int64_t gy = 0; gy <= ny_cells; ++gy)
      for (int64_t gx = 0; gx <= nx_cells; ++gx) solution.at(gx, gy) = window.at(gx, gy);
  }
  predict_tile_interiors(window, solver, geom,
                         phase_corners(0, geom.h, geom.m, nx_cells, ny_cells, 0,
                                       nx_cells / geom.h, 0, ny_cells / geom.h),
                         nullptr, solution, 0, 0, times);
  if (inference_seconds) *inference_seconds += times.inference.total();
  if (boundary_io_seconds) *boundary_io_seconds += times.boundary_io.total();
}

MfpResult mosaic_predict(const SubdomainSolver& solver, int64_t nx_cells,
                         int64_t ny_cells,
                         const std::vector<double>& global_boundary,
                         const MfpOptions& options) {
  return mosaic_predict_scenario(solver, scenario::Field{}, nx_cells, ny_cells,
                                 global_boundary, {options, nullptr, {}});
}

}  // namespace mf::mosaic
