#include "mosaic/scenario_predictor.hpp"

#include "mosaic/solve_job.hpp"

namespace mf::mosaic {

MfpResult mosaic_predict_scenario(const SubdomainSolver& solver,
                                  const scenario::Field& field,
                                  int64_t nx_cells, int64_t ny_cells,
                                  const std::vector<double>& global_boundary,
                                  const ScenarioSolveOptions& options) {
  const SubdomainGeometry geom(solver.m());
  SolveJob job(solver, geom, nx_cells, ny_cells,
               initial_lattice(nx_cells, ny_cells, global_boundary,
                               options.mfp.init, field.mask),
               options.mfp, {0, nx_cells / geom.h, 0, ny_cells / geom.h},
               {&field, options.classical, options.use_classical});
  SolveTimes times;
  while (!job.done()) {
    job.step_alone(times);
    job.end_iteration();
  }
  job.finish(times);
  MfpResult result{std::move(job.window().grid()), job.iterations(),
                   job.final_delta(), 0, times.inference.total(),
                   times.boundary_io.total()};
  if (options.mfp.reference) {
    result.lattice_mae = linalg::Grid2D::mean_abs_diff(result.solution,
                                                       *options.mfp.reference);
  }
  return result;
}

}  // namespace mf::mosaic
