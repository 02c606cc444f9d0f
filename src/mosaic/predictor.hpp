// The Mosaic Flow predictor (single device): iterate SDNet center-cross
// inferences over the overlapping subdomain lattice until the boundary
// values converge, then predict full subdomain interiors (Sec. 2.4, 4.1).
// The iteration itself is the solve engine's (solve_job.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "mosaic/lattice.hpp"

namespace mf::mosaic {

enum class LatticeInit {
  kZero,   // zero interior (pure Schwarz start)
  kCoons,  // transfinite interpolation of the global boundary
};

struct MfpOptions {
  int64_t max_iters = 4000;
  /// Convergence threshold on delta = ||g_i - g_{i-1}|| / ||g_{i-1}||.
  double tol = 1e-6;
  /// Batch all subdomains of a phase into one solver call (Sec. 4.1);
  /// false reproduces the unbatched baseline.
  bool batched = true;
  LatticeInit init = LatticeInit::kCoons;
  /// Damping of center-cross updates (1 = paper's plain update). Values
  /// below 1 stabilize iteration with imperfectly trained solvers.
  double relaxation = 1.0;
  /// Distributed only: exchange halos every k iterations instead of every
  /// iteration — the communication-avoiding variant the paper proposes in
  /// its "Open problems" (Sec. 5.3). k > 1 trades halo staleness (more
  /// iterations to converge) for fewer, larger messages.
  int64_t halo_every = 1;
  /// Optional reference solution; when set together with target_mae > 0,
  /// iteration stops once the lattice MAE falls below the target (the
  /// stopping rule of the paper's scaling experiments).
  const linalg::Grid2D* reference = nullptr;
  double target_mae = 0.0;
  int64_t check_every = 25;  // cadence of the MAE check
  /// Distributed only: per-direction deadline for each halo message, in
  /// milliseconds. A neighbor missing the deadline contributes its
  /// last-known boundary values for that iteration (degraded mode; the
  /// late message is applied when it arrives). Negative (the default)
  /// reads MF_HALO_TIMEOUT_MS, and when that is unset too the exchange
  /// blocks — bitwise identical to the pre-deadline behavior.
  double halo_timeout_ms = -1;
};

struct MfpResult {
  linalg::Grid2D solution;
  int64_t iterations = 0;
  double final_delta = 0;
  double lattice_mae = 0;  // vs reference (if provided)
  double inference_seconds = 0;
  double boundary_io_seconds = 0;
};

/// Solve the Laplace BVP on a domain of nx_cells x ny_cells grid cells
/// with `global_boundary` (canonical perimeter order) using pre-trained
/// subdomain inferences only. Cell counts must be multiples of the
/// subdomain size solver.m().
MfpResult mosaic_predict(const SubdomainSolver& solver, int64_t nx_cells,
                         int64_t ny_cells,
                         const std::vector<double>& global_boundary,
                         const MfpOptions& options = {});

/// Final MFP pass over a full-domain window, for callers that drive the
/// phase steps themselves: the solution grid gets the solver's interiors
/// of the non-overlapping tiling and the window's lattice lines
/// (including the global boundary), exactly as mosaic_predict assembles
/// it. `solution` must be (nx_cells+1) x (ny_cells+1); the timing
/// accumulators may be null.
void predict_interior(const LatticeWindow& window,
                      const SubdomainSolver& solver,
                      const SubdomainGeometry& geom, int64_t nx_cells,
                      int64_t ny_cells, linalg::Grid2D& solution,
                      double* inference_seconds = nullptr,
                      double* boundary_io_seconds = nullptr);

/// The subdomain corner positions of parity phase (`phase` in 0..3) whose
/// corners lie in [cx0, cx1) x [cy0, cy1) (corner indices in units of h)
/// and whose subdomain fits inside the global domain.
std::vector<std::pair<int64_t, int64_t>> phase_corners(
    int64_t phase, int64_t h, int64_t m, int64_t nx_cells, int64_t ny_cells,
    int64_t cx0, int64_t cx1, int64_t cy0, int64_t cy1);

}  // namespace mf::mosaic
