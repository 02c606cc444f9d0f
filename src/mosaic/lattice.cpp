#include "mosaic/lattice.hpp"

#include <stdexcept>

#include "ad/kernels.hpp"

namespace mf::mosaic {

SubdomainGeometry::SubdomainGeometry(int64_t m_in) : m(m_in), h(m_in / 2) {
  if (m < 4 || m % 2 != 0) {
    throw std::invalid_argument("SubdomainGeometry: m must be even and >= 4");
  }
  const double inv_m = 1.0 / static_cast<double>(m);
  // Vertical center line x = 1/2, y interior.
  for (int64_t k = 1; k < m; ++k) {
    cross_queries.emplace_back(0.5, k * inv_m);
    cross_offsets.emplace_back(h, k);
  }
  // Horizontal center line y = 1/2, x interior, center point excluded.
  for (int64_t k = 1; k < m; ++k) {
    if (k == h) continue;
    cross_queries.emplace_back(k * inv_m, 0.5);
    cross_offsets.emplace_back(k, h);
  }
  // Full interior.
  for (int64_t j = 1; j < m; ++j) {
    for (int64_t i = 1; i < m; ++i) {
      interior_queries.emplace_back(i * inv_m, j * inv_m);
      interior_offsets.emplace_back(i, j);
    }
  }
}

LatticeWindow::LatticeWindow(int64_t x0, int64_t y0, int64_t x1, int64_t y1)
    : x0_(x0), y0_(y0), x1_(x1), y1_(y1), grid_(x1 - x0 + 1, y1 - y0 + 1) {
  if (x1 <= x0 || y1 <= y0) throw std::invalid_argument("LatticeWindow: empty");
}

void subdomain_boundary_into(const LatticeWindow& window,
                             const SubdomainGeometry& geom, int64_t gx,
                             int64_t gy, std::vector<double>& out) {
  const int64_t m = geom.m;
  out.resize(static_cast<std::size_t>(4 * m));
  double* b = out.data();
  int64_t k = 0;
  for (int64_t i = 0; i < m; ++i) b[k++] = window.at(gx + i, gy);
  for (int64_t j = 0; j < m; ++j) b[k++] = window.at(gx + m, gy + j);
  for (int64_t i = m; i > 0; --i) b[k++] = window.at(gx + i, gy + m);
  for (int64_t j = m; j > 0; --j) b[k++] = window.at(gx, gy + j);
}

PhaseScratch& phase_scratch() {
  thread_local PhaseScratch scratch;
  return scratch;
}

void gather_phase_boundaries(
    const LatticeWindow& window, const SubdomainGeometry& geom,
    const std::vector<std::pair<int64_t, int64_t>>& corners,
    std::vector<std::vector<double>>& boundaries, std::size_t offset) {
  if (boundaries.size() < offset + corners.size()) {
    boundaries.resize(offset + corners.size());
  }
  // Read-only gather from the shared window; subdomains are independent.
  ad::kernels::parallel_for(
      static_cast<int64_t>(corners.size()), 4 * geom.m,
      [&](int64_t begin, int64_t end) {
        for (int64_t b = begin; b < end; ++b) {
          const auto [gx, gy] = corners[static_cast<std::size_t>(b)];
          subdomain_boundary_into(window, geom, gx, gy,
                                  boundaries[offset + static_cast<std::size_t>(b)]);
        }
      });
}

void scatter_phase_predictions(
    LatticeWindow& window, const SubdomainGeometry& geom,
    const std::vector<std::pair<int64_t, int64_t>>& corners,
    const std::vector<std::vector<double>>& predictions, std::size_t offset,
    double relaxation, PhaseResult& result, std::vector<DirtyWrite>* writes) {
  for (std::size_t b = 0; b < corners.size(); ++b) {
    const auto [gx, gy] = corners[b];
    const std::vector<double>& pred = predictions[offset + b];
    for (std::size_t k = 0; k < geom.cross_offsets.size(); ++k) {
      const auto [di, dj] = geom.cross_offsets[k];
      const int64_t px = gx + di, py = gy + dj;
      double& slot = window.at(px, py);
      // Under-relaxation damps error amplification when the subdomain
      // solver is an imperfectly trained network; relaxation = 1 is the
      // paper's plain update.
      const double nv = relaxation * pred[k] + (1 - relaxation) * slot;
      result.delta_num += (nv - slot) * (nv - slot);
      result.delta_den += slot * slot;
      slot = nv;
      if (writes) writes->push_back({px, py, nv});
    }
  }
}

void coons_init(linalg::Grid2D& grid) {
  const int64_t nx = grid.nx(), ny = grid.ny();
  const double c00 = grid.at(0, 0), c10 = grid.at(nx - 1, 0);
  const double c01 = grid.at(0, ny - 1), c11 = grid.at(nx - 1, ny - 1);
  for (int64_t j = 1; j < ny - 1; ++j) {
    const double t = static_cast<double>(j) / static_cast<double>(ny - 1);
    for (int64_t i = 1; i < nx - 1; ++i) {
      const double s = static_cast<double>(i) / static_cast<double>(nx - 1);
      const double bottom = grid.at(i, 0), top = grid.at(i, ny - 1);
      const double left = grid.at(0, j), right = grid.at(nx - 1, j);
      grid.at(i, j) = (1 - t) * bottom + t * top + (1 - s) * left + s * right -
                      ((1 - s) * (1 - t) * c00 + s * (1 - t) * c10 +
                       (1 - s) * t * c01 + s * t * c11);
    }
  }
}

}  // namespace mf::mosaic
