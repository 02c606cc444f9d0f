// Scenario-generalized Mosaic Flow predictor: masked (non-rectangular)
// domains, variable-coefficient/convection–diffusion operators, and
// heterogeneous lattices mixing neural and classical subdomain solvers
// per region.
//
// It drives one solve job (solve_job.hpp) alone; mosaic_predict is this
// function with a plain-Poisson field. The job classifies each lattice
// subdomain once:
//   - fully active + neural region   → SDNet inference, with the
//     scenario conditioning suffix appended to the gathered boundary;
//   - fully active + classical region→ the caller-provided classical
//     SubdomainSolver (multigrid/CG), batched like the neural path;
//   - cut by the mask                → a local masked stencil solve
//     (CG/Gauss–Seidel on the subdomain with inactive points pinned 0);
//   - fully masked                   → skipped.
// Masked lattice points are excluded from residual/delta accounting,
// smoothing updates, and the final interior pass.
#pragma once

#include <functional>

#include "mosaic/predictor.hpp"
#include "scenario/scenario.hpp"

namespace mf::mosaic {

struct ScenarioSolveOptions {
  MfpOptions mfp;
  /// Heterogeneous lattices: subdomains whose corner satisfies
  /// use_classical(gx, gy) are solved by `classical` (any SubdomainSolver,
  /// e.g. MultigridSubdomainSolver) instead of the neural solver. Only
  /// valid when `classical` matches the field's operator (multigrid
  /// solves -Δ, so poisson/masked kinds).
  const SubdomainSolver* classical = nullptr;
  std::function<bool(int64_t, int64_t)> use_classical;
};

/// Solve the field's BVP on nx_cells x ny_cells grid cells with
/// `global_boundary` in canonical perimeter order (masked segments are
/// zeroed internally). Cell counts must be multiples of solver.m(), and
/// for masked fields the mask must be snapped to the half-subdomain
/// lattice pitch h = m/2 so cut edges land on lattice lines.
MfpResult mosaic_predict_scenario(const SubdomainSolver& solver,
                                  const scenario::Field& field,
                                  int64_t nx_cells, int64_t ny_cells,
                                  const std::vector<double>& global_boundary,
                                  const ScenarioSolveOptions& options = {});

}  // namespace mf::mosaic
