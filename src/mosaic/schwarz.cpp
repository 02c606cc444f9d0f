#include "mosaic/schwarz.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/multigrid.hpp"

namespace mf::mosaic {

namespace {

struct Block {
  int64_t x0, y0, x1, y1;  // closed point ranges including overlap
};

std::vector<Block> make_blocks(int64_t nx_cells, int64_t ny_cells,
                               int64_t block_cells, int64_t overlap) {
  std::vector<Block> blocks;
  for (int64_t by = 0; by < ny_cells; by += block_cells) {
    for (int64_t bx = 0; bx < nx_cells; bx += block_cells) {
      Block b;
      b.x0 = std::max<int64_t>(0, bx - overlap);
      b.y0 = std::max<int64_t>(0, by - overlap);
      b.x1 = std::min<int64_t>(nx_cells, bx + block_cells + overlap);
      b.y1 = std::min<int64_t>(ny_cells, by + block_cells + overlap);
      blocks.push_back(b);
    }
  }
  return blocks;
}

/// Solve the block's Dirichlet problem using `source` for boundary values
/// and write the interior into `target`.
void solve_block(const Block& b, const linalg::Grid2D& source,
                 linalg::Grid2D& target, double h_phys) {
  const int64_t nx = b.x1 - b.x0 + 1, ny = b.y1 - b.y0 + 1;
  linalg::Grid2D local(nx, ny);
  for (int64_t j = 0; j < ny; ++j)
    for (int64_t i = 0; i < nx; ++i)
      local.at(i, j) = source.at(b.x0 + i, b.y0 + j);
  linalg::solve_laplace_mg(local, h_phys);
  for (int64_t j = 1; j < ny - 1; ++j)
    for (int64_t i = 1; i < nx - 1; ++i)
      target.at(b.x0 + i, b.y0 + j) = local.at(i, j);
}

}  // namespace

SchwarzResult schwarz_solve(const linalg::Grid2D& boundary_grid, double h_phys,
                            const SchwarzOptions& options) {
  const int64_t nx_cells = boundary_grid.nx() - 1;
  const int64_t ny_cells = boundary_grid.ny() - 1;
  auto blocks = make_blocks(nx_cells, ny_cells, options.block_cells,
                            options.overlap);

  SchwarzResult result{boundary_grid, 0, 0, 0};
  result.solution.zero_interior();

  for (int64_t iter = 0; iter < options.max_iters; ++iter) {
    linalg::Grid2D previous = result.solution;
    if (options.variant == SchwarzVariant::kAlternating) {
      for (const Block& b : blocks) {
        solve_block(b, result.solution, result.solution, h_phys);
        ++result.subdomain_solves;
      }
    } else {
      // Additive: all blocks read the previous iterate.
      linalg::Grid2D next = result.solution;
      for (const Block& b : blocks) {
        solve_block(b, previous, next, h_phys);
        ++result.subdomain_solves;
      }
      result.solution = next;
    }
    result.iterations = iter + 1;
    result.final_change = linalg::Grid2D::max_abs_diff(previous, result.solution);
    if (!std::isfinite(result.final_change)) {
      // A NaN/Inf residual only contaminates further: stop and report
      // instead of burning the remaining iterations on poisoned data.
      result.diverged = true;
      break;
    }
    if (result.final_change < options.tol) break;
  }
  return result;
}

}  // namespace mf::mosaic
