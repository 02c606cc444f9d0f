#include "mosaic/subdomain_solver.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "ad/kernels.hpp"
#include "linalg/multigrid.hpp"

namespace mf::mosaic {

namespace {

/// One captured batched-inference plan: leaf tensors + program for a
/// specific (solver, batch size, query count) geometry. A geometry is
/// captured on its *second* occurrence: one-shot shapes (a phase that
/// never recurs) stay eager and pay nothing, recurring shapes (the 4
/// Schwarz phases of a convergence run) replay from their third call on.
/// When the captured plan widens (Program::widen on {g, x, pred}), one
/// entry additionally serves every batch size that is a multiple of its
/// capture batch — the widened replay packs B instances into batch-scaled
/// buffers and runs the same plan with every batch-carrying slot's
/// leading dimension scaled, turning many skinny GEMMs into few wide
/// ones. Batch sizes that are not multiples of a widened entry's base
/// still get their own per-shape entry, exactly as before.
struct InferEntry {
  std::uint64_t solver_serial = 0;
  int64_t B = -1, q = -1, G = -1;
  bool wide = false;  // widening analysis succeeded for this plan
  // Part of the cache key: a process that flips MF_PRECISION (tests,
  // mixed pipelines) must not replay a plan lowered at the other width.
  ad::DType dt = ad::DType::kF64;
  // Dtype the plan is actually (re)captured at. Starts equal to `dt`;
  // the health-sentinel ladder forces it to kF64 after an f32 trip.
  ad::DType capture_dt = ad::DType::kF64;
  // Terminal ladder rung: the sentinel tripped on an f64 plan too, so
  // this geometry stays eager (the bad values come from the data or the
  // weights, not the precision policy).
  bool eager_only = false;
  ad::Tensor g, x, pred;
  ad::Program program;
};

// Per-thread shape-keyed cache. Keyed by a per-solver serial number — not
// the solver pointer — so a new solver constructed at a recycled address
// can never replay a dead solver's captured weights. Bounded: the oldest
// entry is evicted, dropping its pinned buffers (its capture/replay
// counters are folded into a per-thread tally so stats survive eviction).
thread_local std::vector<InferEntry> t_infer_cache;
thread_local std::vector<std::pair<std::uint64_t, ad::Program::Stats>>
    t_evicted_stats;
// Capacity is process-global (each thread's cache honours it at insert
// time). 8 covers a single solve's working set; multi-tenant serving
// raises it via infer_cache_reserve so per-tenant hot plans survive the
// interior-batch churn at job retirement.
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
  std::atomic<std::uint64_t> chunked_hits{0};
  std::atomic<std::uint64_t> widen_remainder_rows{0};
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
// shape. Under mixed serve traffic this keeps the hot widened plans
// (hit every tick) pinned while one-shot batch shapes age out.
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
  s.chunked_hits = g_infer_stats.chunked_hits.load(std::memory_order_relaxed);
  s.widen_remainder_rows =
      g_infer_stats.widen_remainder_rows.load(std::memory_order_relaxed);
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
  g_infer_stats.chunked_hits.store(0, std::memory_order_relaxed);
  g_infer_stats.widen_remainder_rows.store(0, std::memory_order_relaxed);
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

// Raw-pointer forms so the same packing serves the master tensors and a
// widened replay's batch-scaled buffers (identical layout: instance-major
// rows, so packing B instances into a widened buffer lays them out
// exactly as B0-sized chunks of the base plan would see them).
void pack_batch(const std::vector<std::vector<double>>& boundaries,
                const QueryList& queries, int64_t B, int64_t G, int64_t q,
                ad::real* g, ad::real* x, int64_t first = 0) {
  // Batch packing threads over subdomains; each batch row is disjoint.
  // `first` selects a row range [first, first + B) of `boundaries` so
  // chunked widen dispatch can pack the covered prefix and the eager
  // remainder through the same code.
  ad::kernels::parallel_for(B, G + 2 * q, [&](int64_t begin, int64_t end) {
    for (int64_t b = begin; b < end; ++b) {
      const auto& bd = boundaries[static_cast<std::size_t>(first + b)];
      for (int64_t k = 0; k < G; ++k) g[b * G + k] = bd[static_cast<std::size_t>(k)];
      for (int64_t k = 0; k < q; ++k) {
        x[(b * q + k) * 2 + 0] = queries[static_cast<std::size_t>(k)].first;
        x[(b * q + k) * 2 + 1] = queries[static_cast<std::size_t>(k)].second;
      }
    }
  });
}

void pack_batch(const std::vector<std::vector<double>>& boundaries,
                const QueryList& queries, int64_t B, int64_t G, int64_t q,
                ad::Tensor& g, ad::Tensor& x) {
  pack_batch(boundaries, queries, B, G, q, g.data(), x.data());
}

// Writes rows [first, first + B) of `out` (which must already be sized)
// from a contiguous prediction buffer of B instances.
void unpack_rows(const ad::real* pred, int64_t B, int64_t q,
                 std::vector<std::vector<double>>& out, int64_t first) {
  ad::kernels::parallel_for(B, q, [&](int64_t begin, int64_t end) {
    for (int64_t b = begin; b < end; ++b) {
      auto& row = out[static_cast<std::size_t>(first + b)];
      row.resize(static_cast<std::size_t>(q));
      for (int64_t k = 0; k < q; ++k)
        row[static_cast<std::size_t>(k)] = pred[b * q + k];
    }
  });
}

void unpack_batch(const ad::real* pred, int64_t B, int64_t q,
                  std::vector<std::vector<double>>& out) {
  // Resize (not assign) so caller-recycled buffers keep their capacity.
  out.resize(static_cast<std::size_t>(B));
  unpack_rows(pred, B, q, out, /*first=*/0);
}

void unpack_batch(const ad::Tensor& pred, int64_t B, int64_t q,
                  std::vector<std::vector<double>>& out) {
  unpack_batch(pred.data(), B, q, out);
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
  // Compiled path: trace the network forward once per geometry, replay it
  // for every later batch of the same shape. Skipped inside an enclosing
  // capture (the outer program records this call's kernels itself).
  if (ad::program_enabled() && !ad::prog::capturing() && B > 0 && q > 0) {
    const ad::DType dt = ad::compute_dtype();
    InferEntry* exact = nullptr;
    InferEntry* wide = nullptr;
    InferEntry* cover = nullptr;  // widest partial cover of a non-multiple B
    int64_t cover_rows = 0;
    for (auto& entry : t_infer_cache) {
      if (entry.solver_serial != serial_ || entry.q != q || entry.G != G ||
          entry.dt != dt)
        continue;
      if (entry.B == B) {
        exact = &entry;
      } else if (entry.wide && B % entry.B == 0) {
        wide = &entry;
      } else if (entry.wide && entry.B < B) {
        const int64_t c = entry.program.widen_cover(B);
        if (c > cover_rows) {
          cover_rows = c;
          cover = &entry;
        }
      }
    }
    // Health-sentinel fallback ladder (only ever taken when a post-replay
    // scan trips, i.e. under MF_HEALTH_CHECKS): the poisoned plan is
    // dropped, an f32 plan is recaptured at f64 on the geometry's next
    // recurrence, an f64 trip retires the geometry to eager — and the
    // current batch is always recomputed eagerly in f64 below, so tripped
    // garbage never reaches the caller.
    const auto retire = [](InferEntry& e) {
      bump(g_infer_stats.retired);
      e.program.reset();
      e.wide = false;
      if (e.capture_dt == ad::DType::kF32) {
        e.capture_dt = ad::DType::kF64;
        ad::health_note_fallback(/*to_eager=*/false);
      } else {
        e.eager_only = true;
        ad::health_note_fallback(/*to_eager=*/true);
      }
    };
    if (exact && exact->eager_only) {
      // Sentinel-retired geometry: straight to the eager path below.
      bump(g_infer_stats.misses);
    } else if (exact && exact->program.captured()) {
      pack_batch(boundaries, queries, B, G, q, exact->g, exact->x);
      exact->program.replay();
      if (exact->program.last_replay_healthy()) {
        bump(g_infer_stats.exact_hits);
        unpack_batch(exact->pred, B, q, out);
        touch_entry(exact);
        return;
      }
      retire(*exact);
      bump(g_infer_stats.misses);
    } else if (wide) {
      // No captured plan at exactly B, but a widened entry's plan covers
      // it: pack all B instances into the batch-scaled buffers and replay
      // with every batch-carrying slot's leading dimension multiplied.
      // One plan, one wide GEMM sequence — no per-shape capture needed.
      pack_batch(boundaries, queries, B, G, q,
                 wide->program.widened_buffer(wide->g, B),
                 wide->program.widened_buffer(wide->x, B));
      wide->program.replay_widened(B);
      if (wide->program.last_replay_healthy()) {
        bump(g_infer_stats.widened_hits);
        unpack_batch(wide->program.widened_buffer(wide->pred, B), B, q, out);
        touch_entry(wide);
        return;
      }
      retire(*wide);
      bump(g_infer_stats.misses);
    } else if (cover) {
      // Chunked widen dispatch: B is not a multiple of any widened plan's
      // base, but one covers a prefix of widen_cover(B) rows. Replay that
      // prefix wide and run only the odd remainder eagerly — no per-shape
      // entry is created, so transient batch sizes from cross-request
      // scheduling cannot churn the cache.
      pack_batch(boundaries, queries, cover_rows, G, q,
                 cover->program.widened_buffer(cover->g, cover_rows),
                 cover->program.widened_buffer(cover->x, cover_rows));
      cover->program.replay_widened(cover_rows);
      if (cover->program.last_replay_healthy()) {
        const int64_t rem = B - cover_rows;
        out.resize(static_cast<std::size_t>(B));
        unpack_rows(cover->program.widened_buffer(cover->pred, cover_rows),
                    cover_rows, q, out, /*first=*/0);
        ad::Tensor g_r = ad::Tensor::zeros({rem, G});
        ad::Tensor x_r = ad::Tensor::zeros({rem, q, 2});
        pack_batch(boundaries, queries, rem, G, q, g_r.data(), x_r.data(),
                   /*first=*/cover_rows);
        ad::Tensor pred_r = net_->predict(g_r, x_r);  // [rem, q, 1]
        unpack_rows(pred_r.data(), rem, q, out, /*first=*/cover_rows);
        bump(g_infer_stats.chunked_hits);
        bump(g_infer_stats.widen_remainder_rows,
             static_cast<std::uint64_t>(rem));
        touch_entry(cover);
        return;
      }
      retire(*cover);
      bump(g_infer_stats.misses);
    } else if (!exact) {
      // First sight of this geometry: note it and run eagerly below —
      // capture only pays off if the shape comes back.
      while (t_infer_cache.size() >=
             g_infer_capacity.load(std::memory_order_relaxed)) {
        evict_oldest_entry();
      }
      t_infer_cache.emplace_back();
      exact = &t_infer_cache.back();
      exact->solver_serial = serial_;
      exact->B = B;
      exact->q = q;
      exact->G = G;
      exact->dt = dt;
      exact->capture_dt = dt;
      bump(g_infer_stats.misses);
    } else {
      // Second sight: the geometry recurs — trace it, then try to widen
      // so this one plan also serves every multiple of B (fail-closed:
      // on refusal the entry just keeps exact-shape replay). capture_dt
      // (not dt) so a sentinel-downgraded geometry recaptures at f64.
      exact->g = ad::Tensor::zeros({B, G});
      exact->x = ad::Tensor::zeros({B, q, 2});
      pack_batch(boundaries, queries, B, G, q, exact->g, exact->x);
      exact->program.set_compute_dtype(exact->capture_dt);
      exact->program.capture(
          [&] { exact->pred = net_->predict(exact->g, exact->x); });
      if (exact->program.captured()) {
        exact->wide = exact->program.widen({exact->g, exact->x, exact->pred});
        bump(g_infer_stats.captures);
      } else {
        bump(g_infer_stats.misses);
      }
      unpack_batch(exact->pred, B, q, out);
      touch_entry(exact);
      return;
    }
  }
  ad::Tensor g = ad::Tensor::zeros({B, G});
  ad::Tensor x = ad::Tensor::zeros({B, q, 2});
  pack_batch(boundaries, queries, B, G, q, g, x);
  ad::Tensor pred = net_->predict(g, x);  // [B, q, 1]
  unpack_batch(pred, B, q, out);
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
