// Classical overlapping Schwarz methods on the grid (paper Sec. 2.3) —
// the numerical baseline the MFP is contrasted against: every iteration
// solves full subdomain interiors, whereas the MFP only infers subdomain
// center lines until the final pass.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/grid2d.hpp"

namespace mf::mosaic {

enum class SchwarzVariant {
  kAlternating,  // multiplicative: blocks solved in sequence, immediate updates
  kAdditive,     // parallel: all blocks solved from the same previous iterate
};

struct SchwarzOptions {
  int64_t block_cells = 16;   // block size (cells) before extension
  int64_t overlap = 4;        // overlap in grid cells on each side
  int64_t max_iters = 200;
  double tol = 1e-8;          // max-abs change threshold
  SchwarzVariant variant = SchwarzVariant::kAlternating;
};

struct SchwarzResult {
  linalg::Grid2D solution;
  int64_t iterations = 0;
  double final_change = 0;
  int64_t subdomain_solves = 0;
  /// Health sentinel: true when the residual went non-finite (the loop
  /// stops immediately instead of iterating on NaNs until max_iters).
  bool diverged = false;
};

/// Solve the Laplace BVP (boundary held on the edges of `boundary_grid`)
/// by overlapping block Schwarz iteration with multigrid subdomain solves.
SchwarzResult schwarz_solve(const linalg::Grid2D& boundary_grid, double h_phys,
                            const SchwarzOptions& options = {});

}  // namespace mf::mosaic
