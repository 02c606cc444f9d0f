// Lattice bookkeeping for the Mosaic Flow predictor (paper Sec. 2.4, 4.2).
//
// Geometry. The global domain is a grid of (Nx+1) x (Ny+1) points. Atomic
// subdomains are m x m cells; their corners sit on the lattice of lines
// spaced h = m/2 apart (the paper's 1/(2m) spacing in physical units,
// d = 2). Subdomain positions overlap by half a subdomain in each
// direction; positions whose corner indices (i, j) = (gx/h, gy/h) share
// the same parity form one *phase* — the non-overlapping tiling the paper
// batches within a single iteration (Sec. 4.1). Iterations cycle through
// the four parity phases.
//
// Each iteration, SDNet maps a subdomain's perimeter values (4m) to the
// values on its center cross (the two half-spacing lattice lines through
// its middle), which are the boundaries of the half-offset neighboring
// subdomains.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/grid2d.hpp"
#include "mosaic/subdomain_solver.hpp"

namespace mf::mosaic {

/// Precomputed query coordinates / grid offsets for one subdomain size.
struct SubdomainGeometry {
  explicit SubdomainGeometry(int64_t m);

  int64_t m;  // cells per side (even)
  int64_t h;  // lattice spacing m/2

  /// Center-cross points, relative coords: vertical line x=1/2 (y interior)
  /// then horizontal line y=1/2 (x interior, center excluded).
  QueryList cross_queries;
  /// Same points as grid offsets from the subdomain corner.
  std::vector<std::pair<int64_t, int64_t>> cross_offsets;

  /// Full interior, row-major (m-1)^2 points.
  QueryList interior_queries;
  std::vector<std::pair<int64_t, int64_t>> interior_offsets;
};

/// A rank's view of the global point grid: global point indices
/// [x0, x1] x [y0, y1], inclusive. A single-rank predictor uses the whole
/// domain as its window; distributed ranks use owned region + halo.
class LatticeWindow {
 public:
  LatticeWindow(int64_t x0, int64_t y0, int64_t x1, int64_t y1);

  bool contains(int64_t gx, int64_t gy) const {
    return gx >= x0_ && gx <= x1_ && gy >= y0_ && gy <= y1_;
  }
  double& at(int64_t gx, int64_t gy) { return grid_.at(gx - x0_, gy - y0_); }
  double at(int64_t gx, int64_t gy) const { return grid_.at(gx - x0_, gy - y0_); }

  int64_t x0() const { return x0_; }
  int64_t y0() const { return y0_; }
  int64_t x1() const { return x1_; }
  int64_t y1() const { return y1_; }

  linalg::Grid2D& grid() { return grid_; }
  const linalg::Grid2D& grid() const { return grid_; }

 private:
  int64_t x0_, y0_, x1_, y1_;
  linalg::Grid2D grid_;
};

/// One write performed by a phase update (global coordinates).
struct DirtyWrite {
  int64_t gx, gy;
  double value;
};

/// Convergence sums of one phase update.
struct PhaseResult {
  double delta_num = 0;  // sum (new - old)^2 over written points
  double delta_den = 0;  // sum old^2 over written points
};

/// Perimeter values of the subdomain with corner (gx, gy), canonical
/// order, into `out` (resized to 4m without surrendering its capacity, so
/// per-iteration gather loops reuse one buffer per slot).
void subdomain_boundary_into(const LatticeWindow& window,
                             const SubdomainGeometry& geom, int64_t gx,
                             int64_t gy, std::vector<double>& out);

/// Reusable gather/scatter buffers for the phase-update and interior
/// prediction loops of the solve engine (solve_job.hpp). Thread-local:
/// each comm rank thread gets its own, and buffer capacities persist
/// across iterations / Schwarz cycles so the steady state performs no
/// allocations in the boundary-I/O path.
struct PhaseScratch {
  std::vector<std::vector<double>> boundaries;
  std::vector<std::vector<double>> predictions;
};
PhaseScratch& phase_scratch();

/// Gather half of a phase update: fill `boundaries[offset + i]` with the
/// perimeter of `corners[i]` (the vector grows to at least offset +
/// corners.size() rows, earlier rows untouched). Offsets let the serve
/// scheduler pack several requests' subdomains into one shared batch.
void gather_phase_boundaries(
    const LatticeWindow& window, const SubdomainGeometry& geom,
    const std::vector<std::pair<int64_t, int64_t>>& corners,
    std::vector<std::vector<double>>& boundaries, std::size_t offset = 0);

/// Scatter half of a phase update: write `predictions[offset + i]` back
/// onto the center cross of `corners[i]`, accumulating the convergence
/// deltas in corner order (so the sums are bitwise identical however the
/// batch was formed).
/// `writes` collects the touched points when non-null.
void scatter_phase_predictions(
    LatticeWindow& window, const SubdomainGeometry& geom,
    const std::vector<std::pair<int64_t, int64_t>>& corners,
    const std::vector<std::vector<double>>& predictions, std::size_t offset,
    double relaxation, PhaseResult& result,
    std::vector<DirtyWrite>* writes = nullptr);

/// Transfinite (Coons-patch) interpolation of the global boundary into the
/// domain interior — the predictor's initial lattice state.
void coons_init(linalg::Grid2D& grid);

}  // namespace mf::mosaic
