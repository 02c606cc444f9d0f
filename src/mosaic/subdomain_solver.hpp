// Subdomain solver abstraction used by the Mosaic Flow predictor.
//
// The MFP only needs "given a subdomain's discretized boundary, predict
// values at query points inside it". Three implementations:
//  * NeuralSubdomainSolver  — a trained SDNet (the paper's solver)
//  * HarmonicKernelSolver   — exact discrete Poisson-kernel superposition
//    (the Laplace solution operator is linear in the boundary data), a
//    "perfectly trained SDNet" used to isolate algorithmic convergence of
//    the predictor from neural approximation error
//  * MultigridSubdomainSolver — per-call numerical solve; the classical
//    Schwarz subdomain solver for baseline comparisons
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ad/program.hpp"
#include "linalg/grid2d.hpp"
#include "mosaic/sdnet.hpp"

namespace mf::mosaic {

/// Query positions are relative coordinates in the unit subdomain square.
using QueryList = std::vector<std::pair<double, double>>;

/// Process-wide observability counters for the compiled-inference caches
/// (the per-thread geometry-keyed program caches behind
/// NeuralSubdomainSolver::predict), aggregated across threads and solvers.
/// bench_serve_load's BENCH_JSON line reports these so cross-request
/// batching effectiveness — shared plans vs eager fallbacks — is
/// visible, and tests assert them.
struct InferCacheStats {
  std::uint64_t exact_hits = 0;    // plan replays of one-row batches
  std::uint64_t widened_hits = 0;  // plan replays of wider batches
  // Always 0: every batch replays whole, none is split into a replayed
  // cover and an eager remainder. The perfbench cache metrics still read
  // both fields.
  std::uint64_t chunked_hits = 0;
  std::uint64_t widen_remainder_rows = 0;
  std::uint64_t misses = 0;    // eager batches (no widenable plan, or a trip)
  std::uint64_t captures = 0;  // successful plan captures
  std::uint64_t evictions = 0;  // cache-bound evictions
  std::uint64_t retired = 0;    // health-sentinel plan retirements
};
InferCacheStats infer_cache_stats();
void infer_cache_stats_reset();

/// Current per-thread plan-cache capacity (process-global setting).
std::size_t infer_cache_capacity();
/// Raise the plan-cache capacity to at least `min_entries` (never
/// shrinks; default is 8). Multi-tenant serving calls this so every
/// tenant's two plans (cross and interior queries) stay resident.
void infer_cache_reserve(std::size_t min_entries);

class SubdomainSolver {
 public:
  virtual ~SubdomainSolver() = default;

  /// Grid cells per subdomain side; boundary vectors carry 4m values in
  /// the canonical perimeter order (neural scenario solvers may accept a
  /// longer vector: 4m boundary values followed by a conditioning
  /// suffix — see scenario::conditioning_size).
  virtual int64_t m() const = 0;

  /// Predict values at `queries` for every boundary in the batch.
  /// out[b][k] = u(queries[k]; boundaries[b]). Implementations may batch
  /// internally; results must not depend on the batch split. `out` is
  /// resized, not reassigned, so callers can recycle its buffers across
  /// iterations.
  virtual void predict(const std::vector<std::vector<double>>& boundaries,
                       const QueryList& queries,
                       std::vector<std::vector<double>>& out) const = 0;

  /// Single-subdomain call writing into a reusable buffer. The default
  /// wraps predict(); NeuralSubdomainSolver overrides it to reuse its
  /// input/output tensors across calls (the paper's unbatched baseline
  /// stays one-network-call-per-subdomain, just without tensor churn).
  virtual void predict_one_into(const std::vector<double>& boundary,
                                const QueryList& queries,
                                std::vector<double>& out) const;

  /// Convenience single-subdomain call.
  std::vector<double> predict_one(const std::vector<double>& boundary,
                                  const QueryList& queries) const;
};

/// SDNet-backed solver.
class NeuralSubdomainSolver final : public SubdomainSolver {
 public:
  /// `net` must accept conditioning vectors of >= 4m values (4m boundary
  /// values, then any scenario suffix the checkpoint was trained with).
  NeuralSubdomainSolver(std::shared_ptr<const Sdnet> net, int64_t m);
  /// Purges this solver's captured programs from the calling thread's
  /// cache (they pin the network weights); entries captured by other
  /// threads age out of their bounded caches instead.
  ~NeuralSubdomainSolver() override;

  int64_t m() const override { return m_; }
  /// Batched inference runs through one captured Program per geometry
  /// (query count, boundary width and compute dtype): on the geometry's
  /// first call the network forward is traced at batch 1 and widened
  /// (Program::widen on its {g, x, pred} tensors), and every batch of B
  /// rows, the first one included, is one dispatch-free replay at factor
  /// B. Programs are per-thread and read the network weights live, so a
  /// retrained net needs no invalidation. Under MF_HEALTH_CHECKS a
  /// tripped replay reruns its batch eagerly in f64; the geometry's f32
  /// plan is recaptured at f64, an f64 plan retires the geometry to
  /// eager. A plan that does not widen leaves its geometry eager too.
  /// MF_DISABLE_PROGRAM=1 restores the eager path.
  void predict(const std::vector<std::vector<double>>& boundaries,
               const QueryList& queries,
               std::vector<std::vector<double>>& out) const override;
  void predict_one_into(const std::vector<double>& boundary,
                        const QueryList& queries,
                        std::vector<double>& out) const override;

  /// Aggregate capture/replay stats of this solver's inference programs
  /// on the calling thread (programs are thread-local and keyed by
  /// geometry), including plans the bounded cache has since evicted.
  ad::Program::Stats thread_program_stats() const;

 private:
  std::shared_ptr<const Sdnet> net_;
  int64_t m_;
  std::uint64_t serial_;  // keys the per-thread program cache safely
};

/// Exact solver by superposition of precomputed discrete harmonic basis
/// functions: u(q) = sum_k g_k * B_k(q) where B_k solves the Laplace
/// equation with the k-th unit boundary condition.
class HarmonicKernelSolver final : public SubdomainSolver {
 public:
  explicit HarmonicKernelSolver(int64_t m);

  int64_t m() const override { return m_; }
  void predict(const std::vector<std::vector<double>>& boundaries,
               const QueryList& queries,
               std::vector<std::vector<double>>& out) const override;

  /// Value of basis function k at relative coordinates (qx, qy)
  /// (bilinear interpolation between grid points).
  double basis_value(int64_t k, double qx, double qy) const;

 private:
  int64_t m_;
  std::vector<linalg::Grid2D> basis_;  // 4m grids of (m+1)^2 points
};

/// Classical numerical subdomain solve (multigrid) per call.
class MultigridSubdomainSolver final : public SubdomainSolver {
 public:
  explicit MultigridSubdomainSolver(int64_t m, double tol = 1e-10);

  int64_t m() const override { return m_; }
  void predict(const std::vector<std::vector<double>>& boundaries,
               const QueryList& queries,
               std::vector<std::vector<double>>& out) const override;

 private:
  int64_t m_;
  double tol_;
};

/// Bilinear sample of a unit-square grid field at relative coordinates.
double sample_bilinear(const linalg::Grid2D& g, double qx, double qy);

}  // namespace mf::mosaic
