#include "gp/dataset.hpp"

#include <cmath>

#include "linalg/multigrid.hpp"
#include "linalg/stencil.hpp"

namespace mf::gp {

using ad::Tensor;

LaplaceDatasetGenerator::LaplaceDatasetGenerator(int64_t m, GpBoundaryConfig cfg,
                                                 std::uint64_t seed,
                                                 scenario::Kind kind)
    : m_(m), cfg_(cfg), rng_(seed + 0x5eed), kind_(kind) {
  if (m < 2) throw std::invalid_argument("subdomain needs >= 2 cells per side");
}

PeriodicRbfKernel LaplaceDatasetGenerator::next_kernel() {
  const auto p = sobol_.next();
  PeriodicRbfKernel k;
  k.length_scale = cfg_.min_length_scale +
                   p[0] * (cfg_.max_length_scale - cfg_.min_length_scale);
  k.variance = cfg_.min_variance + p[1] * (cfg_.max_variance - cfg_.min_variance);
  return k;
}

SolvedBvp LaplaceDatasetGenerator::generate() {
  const int64_t n = m_ + 1;
  GpSampler sampler(next_kernel(), unit_circle_points(4 * m_));
  SolvedBvp bvp;
  bvp.boundary = sampler.sample(rng_);
  bvp.solution = linalg::Grid2D(n, n);
  linalg::apply_perimeter(bvp.solution, bvp.boundary);
  // kMasked trains no dedicated net: masked lattices reuse the Poisson
  // checkpoint for fully-interior subdomains and solve cut subdomains
  // classically, so its training samples are plain Poisson too.
  if (kind_ == scenario::Kind::kPoisson || kind_ == scenario::Kind::kMasked) {
    linalg::solve_laplace_mg(bvp.solution, 1.0 / static_cast<double>(m_));
    return bvp;
  }
  bvp.field = scenario::sample_field(kind_, m_, m_, rng_);
  const double h = 1.0 / static_cast<double>(m_);
  const linalg::StencilOperator op = scenario::field_operator(bvp.field, h);
  const linalg::Grid2D zero_rhs(n, n);
  if (linalg::stencil_solve(op, bvp.solution, zero_rhs) < 0) {
    throw std::runtime_error("dataset: scenario ground-truth solve diverged");
  }
  scenario::conditioning_suffix_into(bvp.field, m_, 0, 0, bvp.extra);
  return bvp;
}

std::vector<SolvedBvp> LaplaceDatasetGenerator::generate_many(int64_t count) {
  std::vector<SolvedBvp> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int64_t i = 0; i < count; ++i) out.push_back(generate());
  return out;
}

SdnetBatch LaplaceDatasetGenerator::make_batch(const std::vector<SolvedBvp>& bvps,
                                               int64_t q_data, int64_t q_colloc) {
  const int64_t B = static_cast<int64_t>(bvps.size());
  const int64_t Gb = boundary_size();
  const int64_t G = conditioning_size();
  const bool has_coeffs = G != Gb || kind_ == scenario::Kind::kConvDiff;
  SdnetBatch batch;
  batch.g = Tensor::zeros({B, G});
  batch.x_data = Tensor::zeros({B, q_data, 2});
  batch.y_data = Tensor::zeros({B, q_data, 1});
  batch.x_colloc = Tensor::zeros({B, q_colloc, 2});
  if (has_coeffs) batch.coeffs = Tensor::zeros({B, q_colloc, 5});
  const double inv_m = 1.0 / static_cast<double>(m_);
  for (int64_t b = 0; b < B; ++b) {
    const SolvedBvp& bvp = bvps[static_cast<std::size_t>(b)];
    for (int64_t k = 0; k < Gb; ++k) {
      batch.g.flat(b * G + k) = bvp.boundary[static_cast<std::size_t>(k)];
    }
    for (int64_t k = Gb; k < G; ++k) {
      batch.g.flat(b * G + k) = bvp.extra[static_cast<std::size_t>(k - Gb)];
    }
    for (int64_t q = 0; q < q_data; ++q) {
      const int64_t i = rng_.randint(0, m_);
      const int64_t j = rng_.randint(0, m_);
      batch.x_data.flat((b * q_data + q) * 2 + 0) = i * inv_m;
      batch.x_data.flat((b * q_data + q) * 2 + 1) = j * inv_m;
      batch.y_data.flat(b * q_data + q) = bvp.solution.at(i, j);
    }
    for (int64_t q = 0; q < q_colloc; ++q) {
      const double x = rng_.uniform(0.02, 0.98);
      const double y = rng_.uniform(0.02, 0.98);
      batch.x_colloc.flat((b * q_colloc + q) * 2 + 0) = x;
      batch.x_colloc.flat((b * q_colloc + q) * 2 + 1) = y;
      if (has_coeffs) {
        const std::array<double, 5> c = scenario::coeffs_at(bvp.field, x, y);
        for (int64_t d = 0; d < 5; ++d) {
          batch.coeffs.flat((b * q_colloc + q) * 5 + d) =
              c[static_cast<std::size_t>(d)];
        }
      }
    }
  }
  return batch;
}

SolvedBvp LaplaceDatasetGenerator::generate_global(int64_t nx_cells,
                                                   int64_t ny_cells) {
  const int64_t nx = nx_cells + 1, ny = ny_cells + 1;
  const int64_t perim = linalg::perimeter_size(nx, ny);
  GpSampler sampler(next_kernel(), unit_circle_points(perim));
  SolvedBvp bvp{sampler.sample(rng_), linalg::Grid2D(nx, ny), {}, {}};
  linalg::apply_perimeter(bvp.solution, bvp.boundary);
  // Physical spacing matches the training subdomain: m_ cells per unit.
  linalg::solve_laplace_mg(bvp.solution, 1.0 / static_cast<double>(m_));
  return bvp;
}

SolvedBvp LaplaceDatasetGenerator::generate_global(
    int64_t nx_cells, int64_t ny_cells, const scenario::Field& field) {
  const int64_t nx = nx_cells + 1, ny = ny_cells + 1;
  const int64_t perim = linalg::perimeter_size(nx, ny);
  GpSampler sampler(next_kernel(), unit_circle_points(perim));
  SolvedBvp bvp;
  bvp.boundary = sampler.sample(rng_);
  bvp.field = field;
  scenario::zero_masked_boundary(bvp.boundary, field.mask);
  bvp.solution = linalg::Grid2D(nx, ny);
  linalg::apply_perimeter(bvp.solution, bvp.boundary);
  if (field.kind == scenario::Kind::kPoisson && !field.mask.defined()) {
    linalg::solve_laplace_mg(bvp.solution, 1.0 / static_cast<double>(m_));
    return bvp;
  }
  scenario::Field sized = field;
  if (sized.k.numel() == 0 && !sized.mask.defined()) {
    sized.mask = scenario::DomainMask::full_mask(nx_cells, ny_cells);
  }
  const linalg::StencilOperator op =
      scenario::field_operator(sized, 1.0 / static_cast<double>(m_));
  const linalg::Grid2D zero_rhs(nx, ny);
  if (linalg::stencil_solve(op, bvp.solution, zero_rhs) < 0) {
    throw std::runtime_error("dataset: global scenario solve diverged");
  }
  return bvp;
}

std::vector<double> sin_boundary(int64_t nx, int64_t ny, double frequency) {
  std::vector<double> b(static_cast<std::size_t>(linalg::perimeter_size(nx, ny)), 0.0);
  // Bottom edge: indices [0, nx-1), parameterized by x in [0, 1).
  for (int64_t i = 0; i < nx - 1; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(nx - 1);
    b[static_cast<std::size_t>(i)] = std::sin(2 * M_PI * frequency * x);
  }
  return b;
}

}  // namespace mf::gp
