#include "mosaic/solve_job.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ad/kernels.hpp"
#include "linalg/stencil.hpp"

namespace mf::mosaic {

namespace {

/// gather_phase_boundaries, then the scenario suffix appended per row.
void gather_rows(const LatticeWindow& window, const SubdomainGeometry& geom,
                 const Corners& corners, const scenario::Field* suffix,
                 Rows& rows, std::size_t offset) {
  gather_phase_boundaries(window, geom, corners, rows, offset);
  if (!suffix) return;
  for (std::size_t b = 0; b < corners.size(); ++b) {
    scenario::conditioning_suffix_into(*suffix, geom.m, corners[b].first,
                                       corners[b].second, rows[offset + b]);
  }
}

/// One batched solver call, or one call per row (the paper's unbatched
/// baseline, Fig. 8).
void predict_rows(const SubdomainSolver& solver, const Rows& rows,
                  const QueryList& queries, Rows& out, bool batched) {
  if (batched) {
    solver.predict(rows, queries, out);
    return;
  }
  out.resize(rows.size());
  for (std::size_t b = 0; b < rows.size(); ++b) {
    solver.predict_one_into(rows[b], queries, out[b]);
  }
}

/// The field's operator restricted to the subdomain at (gx, gy), with
/// its masked points pinned.
linalg::StencilOperator local_operator(const scenario::Field& field,
                                       int64_t m, int64_t gx, int64_t gy) {
  const double h = 1.0 / static_cast<double>(m);
  linalg::Grid2D kw(m + 1, m + 1, 1.0);
  if (field.k.numel() > 0) {
    for (int64_t j = 0; j <= m; ++j)
      for (int64_t i = 0; i <= m; ++i) kw.at(i, j) = field.k.at(gx + i, gy + j);
  }
  linalg::StencilOperator op =
      field.kind == scenario::Kind::kConvDiff
          ? linalg::StencilOperator::convection_diffusion(kw, field.vx,
                                                          field.vy, h)
          : (field.kind == scenario::Kind::kVarCoef
                 ? linalg::StencilOperator::variable_diffusion(kw, h)
                 : linalg::StencilOperator::laplace(m + 1, m + 1, h));
  if (field.mask.defined()) {
    std::vector<std::uint8_t> local(static_cast<std::size_t>((m + 1) * (m + 1)));
    for (int64_t j = 0; j <= m; ++j)
      for (int64_t i = 0; i <= m; ++i)
        local[static_cast<std::size_t>(j * (m + 1) + i)] =
            field.mask.point_active(gx + i, gy + j) ? 1 : 0;
    op.apply_mask(local);
  }
  return op;
}

}  // namespace

LatticeWindow initial_lattice(int64_t nx_cells, int64_t ny_cells,
                              const std::vector<double>& global_boundary,
                              LatticeInit init,
                              const scenario::DomainMask& mask) {
  LatticeWindow window(0, 0, nx_cells, ny_cells);
  if (mask.defined()) {
    std::vector<double> boundary = global_boundary;
    scenario::zero_masked_boundary(boundary, mask);
    linalg::apply_perimeter(window.grid(), boundary);
  } else {
    linalg::apply_perimeter(window.grid(), global_boundary);
  }
  if (init == LatticeInit::kCoons) coons_init(window.grid());
  if (mask.defined()) {
    // Masked points are Dirichlet pins at 0 for the whole solve: clear
    // whatever the Coons extension put there.
    for (int64_t gy = 0; gy <= ny_cells; ++gy)
      for (int64_t gx = 0; gx <= nx_cells; ++gx)
        if (!mask.point_active(gx, gy)) window.at(gx, gy) = 0.0;
  }
  return window;
}

SolveJob::SolveJob(const SubdomainSolver& solver, const SubdomainGeometry& geom,
                   int64_t nx_cells, int64_t ny_cells, LatticeWindow window,
                   const MfpOptions& options, CornerRange owned,
                   const TileRules& rules)
    : solver_(&solver),
      classical_(rules.classical && rules.use_classical ? rules.classical
                                                        : nullptr),
      geom_(&geom),
      field_(rules.field),
      suffix_(rules.field && scenario::conditioning_size(rules.field->kind,
                                                         geom.m) > 4 * geom.m
                  ? rules.field
                  : nullptr),
      window_(std::move(window)),
      options_(options),
      done_(options.max_iters <= 0) {
  const int64_t m = geom.m, h = geom.h;
  if (nx_cells % m != 0 || ny_cells % m != 0) {
    throw std::invalid_argument(
        "SolveJob: domain cells must be a multiple of the subdomain size");
  }
  const scenario::DomainMask* mask =
      field_ && field_->mask.defined() ? &field_->mask : nullptr;
  if (mask && (mask->nx_cells != nx_cells || mask->ny_cells != ny_cells)) {
    throw std::invalid_argument("SolveJob: mask extents do not match the domain");
  }
  // Owned lattice points for the MAE: half-open toward neighbours so
  // shared border lines count once.
  ox0_ = owned.cx0 * h;
  oy0_ = owned.cy0 * h;
  ox1_ = owned.cx1 * h == nx_cells ? nx_cells : owned.cx1 * h - 1;
  oy1_ = owned.cy1 * h == ny_cells ? ny_cells : owned.cy1 * h - 1;
  for (int64_t p = 0; p < 4; ++p) {
    Phase& ph = phases_[p];
    for (const auto& [gx, gy] :
         phase_corners(p, h, m, nx_cells, ny_cells, owned.cx0, owned.cx1,
                       owned.cy0, owned.cy1)) {
      if (mask && mask->subdomain_dead(gx, gy, m)) continue;
      if (mask && !mask->subdomain_active(gx, gy, m)) {
        ph.cut.emplace_back(gx, gy);
        ph.cut_ops.push_back(local_operator(*field_, m, gx, gy));
      } else if (classical_ && rules.use_classical(gx, gy)) {
        ph.classical.emplace_back(gx, gy);
      } else {
        ph.neural.emplace_back(gx, gy);
      }
    }
  }
}

void SolveJob::gather(Rows& batch, std::size_t offset) const {
  gather_rows(window_, *geom_, phase().neural, suffix_, batch, offset);
}

void SolveJob::scatter(const Rows& predictions, std::size_t offset,
                       std::vector<DirtyWrite>* writes) {
  scatter_phase_predictions(window_, *geom_, phase().neural, predictions,
                            offset, options_.relaxation, phase_sums_, writes);
}

linalg::Grid2D SolveJob::solve_cut(int64_t gx, int64_t gy,
                                   const linalg::StencilOperator& op) const {
  // Perimeter (and pinned masked points) from the window, interior from a
  // zero start, so the result depends only on the current lattice state.
  const int64_t m = geom_->m;
  linalg::Grid2D u(m + 1, m + 1);
  for (int64_t i = 0; i <= m; ++i) {
    u.at(i, 0) = window_.at(gx + i, gy);
    u.at(i, m) = window_.at(gx + i, gy + m);
  }
  for (int64_t j = 0; j <= m; ++j) {
    u.at(0, j) = window_.at(gx, gy + j);
    u.at(m, j) = window_.at(gx + m, gy + j);
  }
  if (linalg::stencil_solve(op, u, linalg::Grid2D(m + 1, m + 1)) < 0) {
    throw std::runtime_error("SolveJob: local stencil solve diverged");
  }
  return u;
}

void SolveJob::solve_local(std::vector<DirtyWrite>* writes) {
  const Phase& ph = phase();
  const SubdomainGeometry& geom = *geom_;
  if (!ph.classical.empty()) {
    local_rows_.resize(ph.classical.size());
    gather_rows(window_, geom, ph.classical, nullptr, local_rows_, 0);
    predict_rows(*classical_, local_rows_, geom.cross_queries,
                 local_predictions_, options_.batched);
    scatter_phase_predictions(window_, geom, ph.classical, local_predictions_,
                              0, options_.relaxation, phase_sums_, writes);
  }
  if (ph.cut.empty()) return;
  local_predictions_.resize(ph.cut.size());
  for (std::size_t b = 0; b < ph.cut.size(); ++b) {
    const auto [gx, gy] = ph.cut[b];
    const linalg::Grid2D u = solve_cut(gx, gy, ph.cut_ops[b]);
    std::vector<double>& pred = local_predictions_[b];
    pred.resize(geom.cross_offsets.size());
    for (std::size_t k = 0; k < geom.cross_offsets.size(); ++k) {
      const auto [di, dj] = geom.cross_offsets[k];
      // Inactive cross points stay pinned: predicting the current window
      // value makes their scatter a no-op with zero delta.
      pred[k] = field_->mask.point_active(gx + di, gy + dj)
                    ? u.at(di, dj)
                    : window_.at(gx + di, gy + dj);
    }
  }
  scatter_phase_predictions(window_, geom, ph.cut, local_predictions_, 0,
                            options_.relaxation, phase_sums_, writes);
}

void SolveJob::end_iteration(const Reduce& reduce) {
  const int64_t phase = iter_ % 4;
  ++iter_;
  cycle_num_ += phase_sums_.delta_num;
  cycle_den_ += phase_sums_.delta_den;
  phase_sums_ = {};
  // Convergence is judged on a full 4-phase cycle: a single phase can
  // touch very few subdomains (near domain corners) and report a
  // misleadingly small delta.
  if (phase == 3) {
    double sums[2] = {cycle_num_, cycle_den_};
    if (reduce) reduce(sums, 2);
    final_delta_ = sums[1] > 0 ? std::sqrt(sums[0] / sums[1]) : 0.0;
    cycle_num_ = cycle_den_ = 0;
    // Health sentinel: a NaN/Inf delta (solver blowup, corrupted halo)
    // must never satisfy `< tol`; fresh updates can still wash it out.
    if (!std::isfinite(final_delta_)) {
      ++health_events_;
    } else if (final_delta_ < options_.tol) {
      converged_ = done_ = true;
      return;
    }
  }
  if (options_.reference && options_.target_mae > 0 &&
      iter_ % options_.check_every == 0) {
    double sums[2] = {0, 0};  // |error| and count over owned lattice points
    for (int64_t gy = oy0_; gy <= oy1_; ++gy)
      for (int64_t gx = ox0_; gx <= ox1_; ++gx) {
        if (gx % geom_->h != 0 && gy % geom_->h != 0) continue;
        sums[0] += std::abs(window_.at(gx, gy) - options_.reference->at(gx, gy));
        sums[1] += 1;
      }
    if (reduce) reduce(sums, 2);
    const double mae = sums[0] / std::max(1.0, sums[1]);
    if (!std::isfinite(mae)) {
      ++health_events_;
    } else if (mae < options_.target_mae) {
      done_ = true;
      return;
    }
  }
  if (iter_ >= options_.max_iters) done_ = true;
}

void SolveJob::step_alone(SolveTimes& times, std::vector<DirtyWrite>* writes) {
  PhaseScratch& scratch = phase_scratch();
  if (const std::size_t n = rows(); n > 0) {
    {
      util::ScopedCpuTimer t(times.boundary_io);
      scratch.boundaries.resize(n);
      gather(scratch.boundaries, 0);
    }
    {
      util::ScopedCpuTimer t(times.inference);
      predict_rows(*solver_, scratch.boundaries, geom_->cross_queries,
                   scratch.predictions, options_.batched);
    }
    util::ScopedCpuTimer t(times.boundary_io);
    scatter(scratch.predictions, 0, writes);
  }
  if (!phase().classical.empty() || !phase().cut.empty()) {
    util::ScopedCpuTimer t(times.inference);
    solve_local(writes);
  }
}

void SolveJob::finish(SolveTimes& times) {
  // The non-overlapping tiling is phase 0's corner set.
  const Phase& tiles = phases_[0];
  linalg::Grid2D& out = window_.grid();
  predict_tile_interiors(window_, *solver_, *geom_, tiles.neural, suffix_, out,
                         window_.x0(), window_.y0(), times);
  if (classical_) {
    predict_tile_interiors(window_, *classical_, *geom_, tiles.classical,
                           nullptr, out, window_.x0(), window_.y0(), times);
  }
  util::ScopedCpuTimer t(times.inference);
  const int64_t h = geom_->h;
  for (std::size_t b = 0; b < tiles.cut.size(); ++b) {
    const auto [gx, gy] = tiles.cut[b];
    const linalg::Grid2D u = solve_cut(gx, gy, tiles.cut_ops[b]);
    for (const auto& [di, dj] : geom_->interior_offsets) {
      const int64_t px = gx + di, py = gy + dj;
      if (px % h == 0 || py % h == 0) continue;
      window_.at(px, py) = field_->mask.point_active(px, py) ? u.at(di, dj) : 0.0;
    }
  }
}

void predict_tile_interiors(const LatticeWindow& window,
                            const SubdomainSolver& solver,
                            const SubdomainGeometry& geom, const Corners& tiles,
                            const scenario::Field* suffix, linalg::Grid2D& out,
                            int64_t ox, int64_t oy, SolveTimes& times) {
  if (tiles.empty()) return;
  PhaseScratch& scratch = phase_scratch();
  {
    util::ScopedCpuTimer t(times.boundary_io);
    scratch.boundaries.resize(tiles.size());
    gather_rows(window, geom, tiles, suffix, scratch.boundaries, 0);
  }
  {
    util::ScopedCpuTimer t(times.inference);
    solver.predict(scratch.boundaries, geom.interior_queries, scratch.predictions);
  }
  util::ScopedCpuTimer t(times.boundary_io);
  const Rows& interiors = scratch.predictions;
  const int64_t h = geom.h;
  // Tiles step by m, so each writes a disjoint interior block.
  ad::kernels::parallel_for(
      static_cast<int64_t>(tiles.size()),
      static_cast<int64_t>(geom.interior_offsets.size()),
      [&](int64_t begin, int64_t end) {
        for (int64_t b = begin; b < end; ++b) {
          const auto [gx, gy] = tiles[static_cast<std::size_t>(b)];
          for (std::size_t k = 0; k < geom.interior_offsets.size(); ++k) {
            const auto [di, dj] = geom.interior_offsets[k];
            const int64_t px = gx + di, py = gy + dj;
            if (px % h == 0 || py % h == 0) continue;  // lattice line
            out.at(px - ox, py - oy) = interiors[static_cast<std::size_t>(b)][k];
          }
        }
      });
}

}  // namespace mf::mosaic
