// Workload `serve`: the multi-tenant SolveServer under a closed loop (the
// next request is admitted as soon as a slot frees; deadlines off). Six
// seeded random-weight tenants at m=4, width 16, depth 2: four Poisson,
// one varcoef and one convdiff (conditioning width from
// scenario::conditioning_size), over serve_load's 12x12 to 20x12-cell
// geometries with 3-4 Schwarz cycles per request. Here the scheduler,
// cross-request batching and the plan cache are the hot layers, with no
// comm and little FLOP work per dispatch.
//
// The stream is cut into fixed chunks of requests, each served by one
// SolveServer::run; chunks repeat until the time budget is spent. Plans
// live in the worker thread's cache, so they stay warm across chunks.
#include <algorithm>
#include <map>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "mosaic/predictor.hpp"
#include "scenario/scenario.hpp"
#include "serve/request_gen.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace mf;

constexpr std::int64_t kM = 4;
constexpr std::size_t kChunk = 512;      // requests per SolveServer::run
constexpr std::size_t kPoolChunks = 8;   // distinct chunks, then they repeat
constexpr std::size_t kWarmRequests = 64;
constexpr std::size_t kMinChunks = 2;
constexpr int kSetupReps = 9;
constexpr std::size_t kSampleEvery = 61;  // Poisson requests checked vs solo
constexpr std::uint64_t kNetSeedSalt = 0x5e7e;

mosaic::SdnetConfig tenant_config(scenario::Kind kind) {
  mosaic::SdnetConfig cfg;
  cfg.boundary_size = scenario::conditioning_size(kind, kM);
  cfg.hidden_width = 16;
  cfg.mlp_depth = 2;
  return cfg;
}

const std::vector<serve::GeometrySpec>& specs() {
  using scenario::Kind;
  static const std::vector<serve::GeometrySpec> s = {
      {0, kM, 16, 16, Kind::kPoisson},  {1, kM, 12, 12, Kind::kPoisson},
      {2, kM, 16, 12, Kind::kPoisson},  {3, kM, 12, 16, Kind::kPoisson},
      {4, kM, 20, 12, Kind::kVarCoef},  {5, kM, 16, 16, Kind::kConvDiff},
  };
  return s;
}

std::vector<serve::ServeModel> make_zoo(std::uint64_t seed) {
  std::vector<serve::ServeModel> zoo;
  for (const serve::GeometrySpec& spec : specs()) {
    serve::ServeModel model;
    model.m = spec.m;
    model.scenario = spec.scenario;
    util::Rng rng((seed ^ kNetSeedSalt) + static_cast<std::uint64_t>(spec.zoo_index));
    model.net = std::make_shared<mosaic::Sdnet>(tenant_config(spec.scenario), rng);
    model.solver = std::make_shared<mosaic::NeuralSubdomainSolver>(model.net, kM);
    zoo.push_back(std::move(model));
  }
  return zoo;
}

/// ServeOptions built in code (no MF_SERVE_* lookup): the defaults, one
/// worker, closed loop.
serve::ServeOptions serve_options() {
  serve::ServeOptions o;
  o.threads = 1;
  o.realtime = false;
  return o;
}

std::vector<serve::SolveRequest> make_requests(std::uint64_t seed, std::size_t n) {
  serve::RequestGenConfig cfg;
  cfg.seed = seed;
  cfg.min_cycles = 3;
  cfg.max_cycles = 4;
  serve::RequestGenerator gen(specs(), cfg);
  std::vector<serve::SolveRequest> reqs = gen.generate(static_cast<std::int64_t>(n));
  for (auto& r : reqs) r.deadline_ms = 0;  // deadlines off
  return reqs;
}

bool is_sampled(std::size_t pool_index, const serve::SolveRequest& req) {
  return pool_index % kSampleEvery == 0 &&
         req.field.kind == scenario::Kind::kPoisson;
}

/// Cross-query rows a job of `iters` Schwarz phases sends to its solver.
std::int64_t cross_rows(const serve::SolveRequest& req, std::int64_t iters) {
  const std::int64_t h = kM / 2;
  std::int64_t rows = 0;
  for (std::int64_t it = 0; it < iters; ++it) {
    rows += static_cast<std::int64_t>(
        mosaic::phase_corners(it % 4, h, kM, req.nx_cells, req.ny_cells, 0,
                              req.nx_cells / h, 0, req.ny_cells / h)
            .size());
  }
  return rows;
}

/// Counters of the traced re-drive, summed over its chunks.
struct ServeTally {
  std::int64_t requests = 0;
  std::int64_t ticks = 0;
  double inflight_sum = 0;
  std::int64_t rows = 0;
  std::int64_t replayed = 0;
  double cross_flops = 0, interior_flops = 0;
  serve::SchedulerCounters counters;
};

/// SolveServer::run's single-worker closed loop re-driven through the
/// scheduler's public API (admit -> tick -> take_finished), with spans.
/// Returns each request's solution fingerprint in chunk order.
std::vector<std::uint64_t> redrive_chunk(const std::vector<serve::ServeModel>& zoo,
                                         std::vector<serve::SolveRequest> reqs,
                                         ServeTally& tally) {
  const serve::ServeOptions opts = serve_options();
  const mosaic::SubdomainGeometry geom(kM);
  ScopedSpan root("serve.chunk");
  std::map<std::int64_t, std::size_t> slot;
  for (std::size_t i = 0; i < reqs.size(); ++i) slot[reqs[i].id] = i;
  std::stable_sort(reqs.begin(), reqs.end(),
                   [](const serve::SolveRequest& a, const serve::SolveRequest& b) {
                     return a.arrival_s < b.arrival_s;
                   });
  serve::SchedulerOptions so;
  so.batching = opts.batching;
  so.pad_to = opts.pad_to;
  so.relaxation = opts.relaxation;
  so.deadline_action = opts.deadline_action;
  serve::IterationScheduler sched(zoo, so);
  {
    ScopedSpan s("serve.warm");
    sched.warm(opts.warm_batch);
  }
  std::vector<std::uint64_t> hashes(reqs.size(), 0);
  std::vector<std::int64_t> inflight;
  std::size_t next = 0;
  while (true) {
    const double now = wall();
    while (next < reqs.size() &&
           sched.inflight() < static_cast<std::size_t>(opts.max_inflight)) {
      ScopedSpan s("serve.admit", reqs[next].id);
      inflight.push_back(reqs[next].id);
      sched.admit(reqs[next], now);
      ++next;
    }
    if (sched.inflight() == 0) {
      if (next >= reqs.size()) break;
      continue;
    }
    const auto cache0 = mosaic::infer_cache_stats();
    const std::uint64_t rows0 = sched.counters().batched_rows;
    tally.inflight_sum += static_cast<double>(sched.inflight());
    ++tally.ticks;
    {
      ScopedSpan s("serve.tick");
      s.set_reqs(inflight);
      sched.tick(now);
    }
    std::int64_t rows = static_cast<std::int64_t>(sched.counters().batched_rows - rows0);
    {
      ScopedSpan s("serve.take_finished");
      for (serve::ServeJob& job : sched.take_finished()) {
        hashes[slot.at(job.req.id)] = all_finite(job.solution) ? grid_hash(job.solution) : 0;
        inflight.erase(std::find(inflight.begin(), inflight.end(), job.req.id));
        const auto& cfg = zoo[static_cast<std::size_t>(job.req.zoo_index)].net->config();
        const std::int64_t tiles = (job.req.nx_cells / kM) * (job.req.ny_cells / kM);
        rows += tiles;
        tally.cross_flops += static_cast<double>(cross_rows(job.req, job.iter)) *
                             sdnet_row_flops(cfg, std::ssize(geom.cross_queries));
        tally.interior_flops += static_cast<double>(tiles) *
                                sdnet_row_flops(cfg, std::ssize(geom.interior_queries));
        ++tally.requests;
      }
    }
    // Judged per tick: a tick with a cache miss counts all its rows eager.
    tally.rows += rows;
    tally.replayed += replayed_rows(cache_delta(cache0, mosaic::infer_cache_stats()), rows);
  }
  tally.counters.merge(sched.counters());
  return hashes;
}

}  // namespace

void run_serve(const RunOptions& opts, Record& rec) {
  std::vector<serve::SolveRequest> pool;
  {
    const double t0 = wall();
    pool = make_requests(opts.seed, kWarmRequests + kChunk * kPoolChunks);
    rec.dataset_s = wall() - t0;
  }
  const std::vector<serve::SolveRequest> warm(pool.begin(),
                                              pool.begin() + kWarmRequests);
  pool.erase(pool.begin(), pool.begin() + kWarmRequests);
  auto chunk = [&](std::size_t c) {
    const auto begin = pool.begin() + static_cast<std::ptrdiff_t>((c % kPoolChunks) * kChunk);
    return std::vector<serve::SolveRequest>(begin, begin + kChunk);
  };

  // Set-up: tenant build and a warm-up run whose scheduler captures and
  // widens the per-tenant plans.
  std::vector<serve::ServeModel> zoo;
  for (int r = 0; r < (opts.trace ? 1 : kSetupReps); ++r) {
    zoo.clear();  // purges the previous tenants' plans outside the timing
    const double t0 = wall();
    zoo = make_zoo(opts.seed);
    serve::SolveServer(zoo, serve_options()).run(warm);
    rec.setup_s.push_back(wall() - t0);
  }

  // Timed closed loop.
  const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
  std::vector<std::vector<std::uint64_t>> chunk_hashes;  // 0: failed request
  const double loop0 = wall();
  while (chunk_hashes.size() < kMinChunks || wall() - loop0 < budget) {
    std::vector<serve::SolveRequest> reqs = chunk(chunk_hashes.size());
    // A server per chunk: its request records would otherwise pile up and
    // tie peak RSS to the run length.
    serve::SolveServer server(zoo, serve_options());
    const double t0 = wall();
    std::vector<serve::ServeResult> results;
    try {
      results = server.run(std::move(reqs));
    } catch (const std::exception& e) {
      rec.gate("op_exception", false, e.what());
      chunk_hashes.emplace_back(kChunk, 0);
      continue;
    }
    const double dt = wall() - t0;
    rec.timed_wall_s += dt;
    if (opts.trace) rec.untraced_op_s.push_back(dt / kChunk);
    std::vector<std::uint64_t> hashes;
    for (const serve::ServeResult& res : results) {
      rec.op_s.push_back(res.record.finish_s - res.record.admit_s);
      const bool ok = res.solution.numel() > 0 && all_finite(res.solution);
      hashes.push_back(ok ? grid_hash(res.solution) : 0);
    }
    chunk_hashes.push_back(std::move(hashes));
  }
  rec.ops = static_cast<std::int64_t>(chunk_hashes.size() * kChunk);
  rec.peak_rss_mb = peak_rss_mb();

  // Traced re-drive of the same chunks, in the same order.
  ServeTally tally;
  std::int64_t faithful = 0, compared = 0;
  const auto cache0 = mosaic::infer_cache_stats();
  const double t_loop = wall();
  for (std::size_t c = 0; opts.trace && c < chunk_hashes.size(); ++c) {
    if (c >= kMinChunks && wall() - t_loop >= budget) break;
    const double t0 = wall();
    const std::vector<std::uint64_t> hashes = redrive_chunk(zoo, chunk(c), tally);
    rec.traced_op_s.push_back((wall() - t0) / kChunk);
    for (std::size_t k = 0; k < kChunk; ++k) {
      ++compared;
      faithful += hashes[k] != 0 && hashes[k] == chunk_hashes[c][k];
    }
  }
  const auto traced_cache = cache_delta(cache0, mosaic::infer_cache_stats());

  // Correctness gate, outside every timing: finite solutions for every
  // request, and sampled Poisson requests bitwise equal to solving them
  // alone through mosaic_predict (the server's documented contract).
  std::map<std::size_t, std::uint64_t> solo;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (!is_sampled(i, pool[i])) continue;
    const serve::SolveRequest& req = pool[i];
    mosaic::MfpOptions mfp;
    mfp.max_iters = req.max_iters;
    mfp.tol = req.tol;
    solo[i] = grid_hash(mosaic::mosaic_predict(
                            *zoo[static_cast<std::size_t>(req.zoo_index)].solver,
                            req.nx_cells, req.ny_cells, req.boundary, mfp)
                            .solution);
  }
  std::int64_t bad = 0, checked = 0, mismatched = 0;
  for (std::size_t c = 0; c < chunk_hashes.size(); ++c) {
    for (std::size_t k = 0; k < kChunk; ++k) {
      const std::uint64_t h = chunk_hashes[c][k];
      bool ok = h != 0;
      if (auto it = solo.find((c % kPoolChunks) * kChunk + k); it != solo.end()) {
        ++checked;
        mismatched += h != it->second;
        ok = ok && h == it->second;
      }
      bad += !ok;
    }
  }
  rec.attempted = rec.ops;
  rec.failed = bad;
  std::ostringstream detail;
  detail << rec.ops - bad << "/" << rec.ops << " requests finite and correct; "
         << checked - mismatched << "/" << checked
         << " sampled Poisson requests bitwise equal to solo mosaic_predict";
  rec.gate("finite_and_matches_solo", bad == 0, detail.str());

  if (!opts.trace) return;
  rec.attempted += compared;
  rec.failed += compared - faithful;
  rec.gate("trace_fidelity", faithful == compared,
           std::to_string(faithful) + "/" + std::to_string(compared) +
               " re-driven requests bitwise equal to SolveServer::run");

  const double n = static_cast<double>(tally.requests);
  const serve::SchedulerCounters& k = tally.counters;
  auto fold = tracer().fold();
  const double batches = static_cast<double>(k.batches);
  const double phases = k.gather_seconds + k.predict_seconds + k.scatter_seconds +
                        k.finalize_seconds;
  std::vector<double> tick_ms = tracer().durations("serve.tick");
  for (double& t : tick_ms) t *= 1e3;
  rec.layers["serve.ticks"] = static_cast<double>(k.ticks) / n;
  rec.layers["serve.tick_ms"] = median_of(tick_ms);
  rec.layers["serve.inflight_mean"] = tally.inflight_sum / static_cast<double>(tally.ticks);
  rec.layers["serve.rows_per_batch"] = static_cast<double>(k.batched_rows) / batches;
  rec.layers["serve.shared_batch_frac"] = static_cast<double>(k.shared_batches) / batches;
  rec.layers["serve.pad_frac"] =
      static_cast<double>(k.pad_rows) / static_cast<double>(k.batched_rows + k.pad_rows);
  rec.layers["serve.gather_s"] = k.gather_seconds / n;
  rec.layers["serve.predict_s"] = k.predict_seconds / n;
  rec.layers["serve.scatter_s"] = k.scatter_seconds / n;
  rec.layers["serve.finalize_s"] = k.finalize_seconds / n;
  rec.layers["serve.tick_other_s"] = (fold["serve.tick"].total_s - phases) / n;
  rec.layers["serve.warm_s"] = fold["serve.warm"].total_s / n;
  rec.layers["serve.unaccounted_s"] = fold["serve.chunk"].self_s / n;
  add_cache_layers(rec, traced_cache, tally.rows, tally.replayed, n);
  const double predict_gflops = tally.cross_flops / k.predict_seconds / 1e9;
  add_kernel_reference(rec);
  rec.layers["ad.kernels.flops"] = (tally.cross_flops + tally.interior_flops) / n;
  rec.layers["ad.kernels.predict_gflops"] = predict_gflops;
  rec.layers["ad.kernels.peak_frac"] =
      predict_gflops / rec.layers["ad.kernels.peak_gflops"];
}

}  // namespace perfbench
