#include "mosaic/subdomain_solver.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "ad/kernels.hpp"
#include "linalg/multigrid.hpp"

namespace mf::mosaic {

namespace {

/// The one captured inference plan of a (solver, query count, boundary
/// width, dtype) geometry: the network forward traced at batch 1 on the
/// geometry's first call and widened (Program::widen on {g, x, pred}), so
/// a batch of any size B is one widened replay — the io buffers hold the B
/// instances, and the plan runs over them in cache-sized row tiles whose
/// batch-carrying slots have their leading dimension scaled, turning many
/// skinny GEMMs into few wide ones.
struct InferEntry {
  std::uint64_t solver_serial = 0;
  int64_t q = -1, G = -1;
  // Part of the cache key: a process that flips MF_PRECISION (tests,
  // mixed pipelines) must not replay a plan lowered at the other width.
  ad::DType dt = ad::DType::kF64;
  // Dtype the plan is actually (re)captured at. Starts equal to `dt`;
  // the health-sentinel ladder forces it to kF64 after an f32 trip.
  ad::DType capture_dt = ad::DType::kF64;
  // The geometry runs eager: its plan did not capture or widen, or the
  // sentinel tripped an f64 plan too (the bad values come from the data
  // or the weights, not the precision policy).
  bool eager_only = false;
  ad::Tensor g, x, pred;
  ad::Program program;
};

// Per-thread geometry-keyed cache. Keyed by a per-solver serial number
// — not the solver pointer — so a new solver constructed at a recycled
// address can never replay a dead solver's captured weights. Bounded: the oldest
// entry is evicted, dropping its pinned buffers (its capture/replay
// counters are folded into a per-thread tally so stats survive eviction).
thread_local std::vector<InferEntry> t_infer_cache;
thread_local std::vector<std::pair<std::uint64_t, ad::Program::Stats>>
    t_evicted_stats;
// Capacity is process-global (each thread's cache honours it at insert
// time). 8 covers the cross and interior plans of a few solvers;
// multi-tenant serving raises it via infer_cache_reserve so every
// tenant's plans stay resident.
constexpr std::size_t kDefaultInferEntries = 8;
std::atomic<std::size_t> g_infer_capacity{kDefaultInferEntries};

void fold_stats(ad::Program::Stats& agg, const ad::Program::Stats& s) {
  agg.steps += s.steps;
  agg.slots += s.slots;
  agg.external_slots += s.external_slots;
  agg.arena_bytes += s.arena_bytes;
  agg.pinned_bytes += s.pinned_bytes;
  agg.fused_steps += s.fused_steps;
  agg.fused_ops += s.fused_ops;
  agg.cast_steps += s.cast_steps;
  agg.optim_steps += s.optim_steps;
  agg.wide_instances += s.wide_instances;
  agg.max_widen_batch = std::max(agg.max_widen_batch, s.max_widen_batch);
  agg.tile_batch = std::max(agg.tile_batch, s.tile_batch);
  agg.wide_bytes += s.wide_bytes;
  agg.capture_ms += s.capture_ms;
  agg.captures += s.captures;
  agg.replays += s.replays;
  agg.widened_replays += s.widened_replays;
}

// Process-wide cache observability. Relaxed atomics: the counters are
// monotone tallies, never used for synchronization.
struct AtomicInferStats {
  std::atomic<std::uint64_t> exact_hits{0};
  std::atomic<std::uint64_t> widened_hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> captures{0};
  std::atomic<std::uint64_t> evictions{0};
  std::atomic<std::uint64_t> retired{0};
};
AtomicInferStats g_infer_stats;

void bump(std::atomic<std::uint64_t>& c, std::uint64_t n = 1) {
  c.fetch_add(n, std::memory_order_relaxed);
}

// The cache is kept in LRU order: hits rotate the used entry to the
// back (see touch_entry), so the front is the least-recently-useful
// geometry. Under mixed serve traffic this keeps the hot plans (hit
// every tick) pinned while the plans of dead solvers age out.
void evict_oldest_entry() {
  bump(g_infer_stats.evictions);
  const InferEntry& victim = t_infer_cache.front();
  if (victim.program.captured()) {
    bool folded = false;
    for (auto& [serial, tally] : t_evicted_stats) {
      if (serial == victim.solver_serial) {
        fold_stats(tally, victim.program.stats());
        folded = true;
        break;
      }
    }
    if (!folded) {
      // Bounded best-effort: a long-lived thread cycling through many
      // solvers must not accumulate tallies for dead serials forever.
      constexpr std::size_t kMaxTallies = 64;
      if (t_evicted_stats.size() >= kMaxTallies) {
        t_evicted_stats.erase(t_evicted_stats.begin());
      }
      t_evicted_stats.emplace_back(victim.solver_serial,
                                   victim.program.stats());
    }
  }
  t_infer_cache.erase(t_infer_cache.begin());
}

std::atomic<std::uint64_t> g_solver_serial{1};

// LRU maintenance: rotate the entry just used to the back of the cache.
// Invalidates every InferEntry pointer into the cache — call only after
// the last use of such pointers on the current path.
void touch_entry(InferEntry* e) {
  const std::size_t idx = static_cast<std::size_t>(e - t_infer_cache.data());
  if (idx + 1 < t_infer_cache.size()) {
    std::rotate(t_infer_cache.begin() + static_cast<std::ptrdiff_t>(idx),
                t_infer_cache.begin() + static_cast<std::ptrdiff_t>(idx) + 1,
                t_infer_cache.end());
  }
}

}  // namespace

InferCacheStats infer_cache_stats() {
  InferCacheStats s;
  s.exact_hits = g_infer_stats.exact_hits.load(std::memory_order_relaxed);
  s.widened_hits = g_infer_stats.widened_hits.load(std::memory_order_relaxed);
  s.misses = g_infer_stats.misses.load(std::memory_order_relaxed);
  s.captures = g_infer_stats.captures.load(std::memory_order_relaxed);
  s.evictions = g_infer_stats.evictions.load(std::memory_order_relaxed);
  s.retired = g_infer_stats.retired.load(std::memory_order_relaxed);
  return s;
}

std::size_t infer_cache_capacity() {
  return g_infer_capacity.load(std::memory_order_relaxed);
}

void infer_cache_reserve(std::size_t min_entries) {
  std::size_t cur = g_infer_capacity.load(std::memory_order_relaxed);
  while (cur < min_entries &&
         !g_infer_capacity.compare_exchange_weak(cur, min_entries,
                                                 std::memory_order_relaxed)) {
  }
}

void infer_cache_stats_reset() {
  g_infer_stats.exact_hits.store(0, std::memory_order_relaxed);
  g_infer_stats.widened_hits.store(0, std::memory_order_relaxed);
  g_infer_stats.misses.store(0, std::memory_order_relaxed);
  g_infer_stats.captures.store(0, std::memory_order_relaxed);
  g_infer_stats.evictions.store(0, std::memory_order_relaxed);
  g_infer_stats.retired.store(0, std::memory_order_relaxed);
}

void SubdomainSolver::predict_one_into(const std::vector<double>& boundary,
                                       const QueryList& queries,
                                       std::vector<double>& out) const {
  std::vector<std::vector<double>> batch_out;
  predict({boundary}, queries, batch_out);
  out = std::move(batch_out[0]);
}

std::vector<double> SubdomainSolver::predict_one(
    const std::vector<double>& boundary, const QueryList& queries) const {
  std::vector<double> out;
  predict_one_into(boundary, queries, out);
  return out;
}

double sample_bilinear(const linalg::Grid2D& g, double qx, double qy) {
  const double fx = qx * static_cast<double>(g.nx() - 1);
  const double fy = qy * static_cast<double>(g.ny() - 1);
  const int64_t i0 = std::clamp<int64_t>(static_cast<int64_t>(fx), 0, g.nx() - 2);
  const int64_t j0 = std::clamp<int64_t>(static_cast<int64_t>(fy), 0, g.ny() - 2);
  const double tx = fx - static_cast<double>(i0);
  const double ty = fy - static_cast<double>(j0);
  return (1 - tx) * (1 - ty) * g.at(i0, j0) + tx * (1 - ty) * g.at(i0 + 1, j0) +
         (1 - tx) * ty * g.at(i0, j0 + 1) + tx * ty * g.at(i0 + 1, j0 + 1);
}

NeuralSubdomainSolver::NeuralSubdomainSolver(std::shared_ptr<const Sdnet> net,
                                             int64_t m)
    : net_(std::move(net)),
      m_(m),
      serial_(g_solver_serial.fetch_add(1, std::memory_order_relaxed)) {
  // Scenario nets condition on the 4m boundary plus a suffix (k
  // perimeter, drift, ...), so anything >= 4m is a valid input width.
  if (net_->config().boundary_size < 4 * m) {
    throw std::invalid_argument(
        "NeuralSubdomainSolver: network boundary size < 4m");
  }
}

NeuralSubdomainSolver::~NeuralSubdomainSolver() {
  // Release this thread's captured plans (and their pinned weight
  // payloads) now rather than waiting for FIFO eviction; stats tallies
  // for the dead serial can never be queried again either.
  auto dead = [this](const auto& e) { return e.solver_serial == serial_; };
  t_infer_cache.erase(
      std::remove_if(t_infer_cache.begin(), t_infer_cache.end(), dead),
      t_infer_cache.end());
  auto dead_tally = [this](const auto& e) { return e.first == serial_; };
  t_evicted_stats.erase(std::remove_if(t_evicted_stats.begin(),
                                       t_evicted_stats.end(), dead_tally),
                        t_evicted_stats.end());
}

namespace {

// Raw pointers, so the same packing serves eager tensors and a widened
// replay's batch-scaled buffers (identical layout: instance-major rows,
// so packing B instances into a widened buffer lays them out exactly as
// B batch-1 replays of the plan would see them). Packs rows [0, B) of
// `boundaries`.
void pack_batch(const std::vector<std::vector<double>>& boundaries,
                const QueryList& queries, int64_t B, int64_t G, int64_t q,
                ad::real* g, ad::real* x) {
  // Batch packing threads over subdomains; each batch row is disjoint.
  ad::kernels::parallel_for(B, G + 2 * q, [&](int64_t begin, int64_t end) {
    for (int64_t b = begin; b < end; ++b) {
      const auto& bd = boundaries[static_cast<std::size_t>(b)];
      for (int64_t k = 0; k < G; ++k) g[b * G + k] = bd[static_cast<std::size_t>(k)];
      for (int64_t k = 0; k < q; ++k) {
        x[(b * q + k) * 2 + 0] = queries[static_cast<std::size_t>(k)].first;
        x[(b * q + k) * 2 + 1] = queries[static_cast<std::size_t>(k)].second;
      }
    }
  });
}

// Writes `out` from a contiguous prediction buffer of B instances.
void unpack_batch(const ad::real* pred, int64_t B, int64_t q,
                  std::vector<std::vector<double>>& out) {
  // Resize (not assign) so caller-recycled buffers keep their capacity.
  out.resize(static_cast<std::size_t>(B));
  ad::kernels::parallel_for(B, q, [&](int64_t begin, int64_t end) {
    for (int64_t b = begin; b < end; ++b) {
      auto& row = out[static_cast<std::size_t>(b)];
      row.resize(static_cast<std::size_t>(q));
      for (int64_t k = 0; k < q; ++k)
        row[static_cast<std::size_t>(k)] = pred[b * q + k];
    }
  });
}

}  // namespace

void NeuralSubdomainSolver::predict(
    const std::vector<std::vector<double>>& boundaries, const QueryList& queries,
    std::vector<std::vector<double>>& out) const {
  const int64_t B = static_cast<int64_t>(boundaries.size());
  const int64_t G = net_->config().boundary_size;
  const int64_t q = static_cast<int64_t>(queries.size());
  for (const auto& bd : boundaries) {
    if (static_cast<int64_t>(bd.size()) != G) {
      throw std::invalid_argument("predict: boundary size mismatch");
    }
  }
  // Compiled path: one plan per geometry, captured at batch 1 on first
  // sight and replayed widened at every batch size. Skipped inside an
  // enclosing capture (the outer program records this call's kernels
  // itself).
  if (ad::program_enabled() && !ad::prog::capturing() && B > 0 && q > 0) {
    const ad::DType dt = ad::compute_dtype();
    InferEntry* e = nullptr;
    for (auto& entry : t_infer_cache) {
      if (entry.solver_serial == serial_ && entry.q == q && entry.G == G &&
          entry.dt == dt) {
        e = &entry;
        break;
      }
    }
    if (!e) {
      while (t_infer_cache.size() >=
             g_infer_capacity.load(std::memory_order_relaxed)) {
        evict_oldest_entry();
      }
      e = &t_infer_cache.emplace_back();
      e->solver_serial = serial_;
      e->q = q;
      e->G = G;
      e->dt = dt;
      e->capture_dt = dt;
    }
    ad::Program& p = e->program;
    if (!e->eager_only && !p.captured()) {
      // Trace the forward on the first row; capture_dt (not dt) so a
      // sentinel-downgraded geometry recaptures at f64.
      e->g = ad::Tensor::zeros({1, G});
      e->x = ad::Tensor::zeros({1, q, 2});
      pack_batch(boundaries, queries, 1, G, q, e->g.data(), e->x.data());
      p.set_compute_dtype(e->capture_dt);
      p.capture([&] { e->pred = net_->predict(e->g, e->x); });
      if (p.captured()) bump(g_infer_stats.captures);
      if (!p.captured() || !p.widen({e->g, e->x, e->pred})) {
        p.reset();
        e->eager_only = true;
      }
    }
    if (p.captured()) {
      pack_batch(boundaries, queries, B, G, q, p.widened_buffer(e->g, B),
                 p.widened_buffer(e->x, B));
      p.replay_widened(B);
      if (p.last_replay_healthy()) {
        bump(B == 1 ? g_infer_stats.exact_hits : g_infer_stats.widened_hits);
        unpack_batch(p.widened_buffer(e->pred, B), B, q, out);
        touch_entry(e);
        return;
      }
      // Health-sentinel ladder (a post-replay scan tripped, so only under
      // MF_HEALTH_CHECKS): the poisoned plan is dropped; an f32 plan is
      // recaptured at f64 on the geometry's next call, an f64 trip retires
      // the geometry to eager. This batch reruns eagerly in f64 below, so
      // tripped garbage never reaches the caller.
      bump(g_infer_stats.retired);
      p.reset();
      const bool to_eager = e->capture_dt != ad::DType::kF32;
      if (to_eager) {
        e->eager_only = true;
      } else {
        e->capture_dt = ad::DType::kF64;
      }
      ad::health_note_fallback(to_eager);
    }
    bump(g_infer_stats.misses);
  }
  ad::Tensor g = ad::Tensor::zeros({B, G});
  ad::Tensor x = ad::Tensor::zeros({B, q, 2});
  pack_batch(boundaries, queries, B, G, q, g.data(), x.data());
  ad::Tensor pred = net_->predict(g, x);  // [B, q, 1]
  unpack_batch(pred.data(), B, q, out);
}

ad::Program::Stats NeuralSubdomainSolver::thread_program_stats() const {
  ad::Program::Stats agg;
  for (const auto& entry : t_infer_cache) {
    if (entry.solver_serial == serial_) fold_stats(agg, entry.program.stats());
  }
  for (const auto& [serial, tally] : t_evicted_stats) {
    if (serial == serial_) fold_stats(agg, tally);
  }
  return agg;
}

void NeuralSubdomainSolver::predict_one_into(const std::vector<double>& boundary,
                                             const QueryList& queries,
                                             std::vector<double>& out) const {
  const int64_t G = net_->config().boundary_size;
  const int64_t q = static_cast<int64_t>(queries.size());
  if (static_cast<int64_t>(boundary.size()) != G) {
    throw std::invalid_argument("predict: boundary size mismatch");
  }
  // The unbatched (atomic) baseline calls the network once per subdomain;
  // rebuilding the [1,G] / [1,q,2] input tensors per call was pure churn.
  // Keep one pair per thread and refill in place — still exactly one
  // network call per subdomain. Safe to mutate between calls: predict()
  // runs under NoGradGuard, so no graph retains these tensors.
  struct Scratch {
    int64_t G = -1, q = -1;
    ad::Tensor g, x;
  };
  thread_local Scratch s;
  if (s.G != G || s.q != q) {
    s.g = ad::Tensor::zeros({1, G});
    s.x = ad::Tensor::zeros({1, q, 2});
    s.G = G;
    s.q = q;
  }
  for (int64_t k = 0; k < G; ++k) s.g.flat(k) = boundary[static_cast<std::size_t>(k)];
  for (int64_t k = 0; k < q; ++k) {
    s.x.flat(k * 2 + 0) = queries[static_cast<std::size_t>(k)].first;
    s.x.flat(k * 2 + 1) = queries[static_cast<std::size_t>(k)].second;
  }
  ad::Tensor pred = net_->predict(s.g, s.x);  // [1, q, 1]
  out.resize(static_cast<std::size_t>(q));
  for (int64_t k = 0; k < q; ++k) out[static_cast<std::size_t>(k)] = pred.flat(k);
}

HarmonicKernelSolver::HarmonicKernelSolver(int64_t m) : m_(m) {
  const int64_t G = 4 * m;
  basis_.reserve(static_cast<std::size_t>(G));
  std::vector<double> e(static_cast<std::size_t>(G), 0.0);
  for (int64_t k = 0; k < G; ++k) {
    e[static_cast<std::size_t>(k)] = 1.0;
    linalg::Grid2D u(m + 1, m + 1);
    linalg::apply_perimeter(u, e);
    linalg::solve_laplace_mg(u, 1.0 / static_cast<double>(m));
    basis_.push_back(std::move(u));
    e[static_cast<std::size_t>(k)] = 0.0;
  }
}

double HarmonicKernelSolver::basis_value(int64_t k, double qx, double qy) const {
  return sample_bilinear(basis_[static_cast<std::size_t>(k)], qx, qy);
}

void HarmonicKernelSolver::predict(
    const std::vector<std::vector<double>>& boundaries, const QueryList& queries,
    std::vector<std::vector<double>>& out) const {
  const std::size_t B = boundaries.size();
  const std::size_t q = queries.size();
  const std::size_t G = static_cast<std::size_t>(4 * m_);
  // Precompute basis values at the query points once per call.
  std::vector<double> bq(G * q);
  for (std::size_t k = 0; k < G; ++k)
    for (std::size_t j = 0; j < q; ++j)
      bq[k * q + j] = basis_value(static_cast<int64_t>(k), queries[j].first,
                                  queries[j].second);
  out.resize(B);
  for (auto& row : out) row.assign(q, 0.0);  // reuse capacity, zero-fill
  // Superposition is independent per subdomain: thread over the batch.
  ad::kernels::parallel_for(
      static_cast<int64_t>(B), static_cast<int64_t>(G * q),
      [&](int64_t begin, int64_t end) {
        for (int64_t b = begin; b < end; ++b) {
          const auto& bd = boundaries[static_cast<std::size_t>(b)];
          auto& row = out[static_cast<std::size_t>(b)];
          for (std::size_t k = 0; k < G; ++k) {
            const double gk = bd[k];
            if (gk == 0) continue;
            const double* basis_row = &bq[k * q];
            for (std::size_t j = 0; j < q; ++j) row[j] += gk * basis_row[j];
          }
        }
      });
}

MultigridSubdomainSolver::MultigridSubdomainSolver(int64_t m, double tol)
    : m_(m), tol_(tol) {}

void MultigridSubdomainSolver::predict(
    const std::vector<std::vector<double>>& boundaries, const QueryList& queries,
    std::vector<std::vector<double>>& out) const {
  out.resize(boundaries.size());
  for (auto& row : out) row.resize(queries.size());
  for (std::size_t b = 0; b < boundaries.size(); ++b) {
    linalg::Grid2D u(m_ + 1, m_ + 1);
    linalg::apply_perimeter(u, boundaries[b]);
    linalg::MultigridOptions opts;
    opts.tol = tol_;
    linalg::solve_laplace_mg(u, 1.0 / static_cast<double>(m_), opts);
    for (std::size_t j = 0; j < queries.size(); ++j) {
      out[b][j] = sample_bilinear(u, queries[j].first, queries[j].second);
    }
  }
}

}  // namespace mf::mosaic
