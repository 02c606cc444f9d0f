// Serve load benchmark: sustained throughput and latency of the
// multi-tenant solve server under a seeded request stream, against the
// serial job-at-a-time baseline (each request solved alone through
// mosaic_predict, the pre-serving way).
//
// Three measurements feed BENCH_serve.json:
//  * closed-loop batched throughput at 1..N worker threads. The
//    headline req_per_sec is the 1-worker point, compared against TWO
//    job-at-a-time baselines run on the same core: the paper's serial
//    per-subdomain predictor (speedup_vs_serial, the acceptance
//    metric) and the PR 6 within-job batched predictor
//    (speedup_vs_serial_batched, reported for transparency — on a
//    single core it is already near the per-row compute floor);
//  * an open-loop Poisson/burst sweep at fractions of the measured
//    capacity, reporting p50/p99 latency vs offered load;
//  * a determinism check: the same seed must reproduce identical
//    per-request iteration counts (cross-request batching is
//    result-invariant, so scheduling cannot change convergence).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "ad/kernels.hpp"
#include "ad/program.hpp"
#include "mosaic/scenario_predictor.hpp"
#include "mosaic/subdomain_solver.hpp"
#include "serve/request_gen.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

using namespace mf;

namespace {

serve::RequestGenConfig gen_config(std::uint64_t seed, double rate_hz) {
  serve::RequestGenConfig cfg;
  cfg.seed = seed;
  cfg.rate_hz = rate_hz;
  cfg.burst_factor = 4.0;
  cfg.burst_period_s = 1.0;
  cfg.burst_duty = 0.25;
  cfg.deadline_ms_min = 50;
  cfg.deadline_ms_max = 500;
  cfg.min_cycles = 3;
  cfg.max_cycles = 4;
  return cfg;
}

/// FNV-1a over the raw solution bytes of every result, in request order —
/// the bitwise-identity fingerprint the zoo round-trip CI step compares
/// across server restarts.
std::uint64_t solutions_hash(const std::vector<serve::ServeResult>& results) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&](const void* p, std::size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  for (const auto& r : results) {
    mix(r.solution.data(),
        static_cast<std::size_t>(r.solution.numel()) * sizeof(double));
  }
  return h;
}

}  // namespace

static int main_body(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  const bool smoke = args.get_bool("smoke");
  const int64_t n_requests = args.get_int("requests", smoke ? 96 : 256);
  const int max_workers = static_cast<int>(args.get_int("threads", 2));
  const int max_inflight = static_cast<int>(args.get_int("inflight", 8));
  const int64_t pad_to = args.get_int("pad", 8);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 20260807));

  // Six tenants (independently seeded SDNets, all m=4) over a geometry
  // zoo of small mixed domains. The m=4 / width-16 regime is where
  // serving economics bite: per-subdomain inference is dispatch-bound
  // (the fixed per-call overhead rivals the GEMM work at this size), so
  // the serial per-subdomain predictor pays ~2x the per-row price of a
  // batched widened replay. On top of that, job-at-a-time serving
  // replays one skinny batch per phase per request, while the server
  // funnels every in-flight request's rows through the tenant's one plan
  // in shared, wider batches.
  mosaic::SdnetConfig base;
  base.hidden_width = 16;
  base.mlp_depth = 2;
  // MF_SERVE_ZOO: serve trained checkpoints from an on-disk manifest
  // instead of the synthetic random-weight tenants; the geometry specs
  // then carry each model's scenario, so the generated stream is a
  // per-request-sampled scenario mix.
  const char* zoo_env = std::getenv("MF_SERVE_ZOO");
  const bool zoo_from_disk = zoo_env != nullptr && zoo_env[0] != '\0';
  auto make_zoo = [&]() {
    return zoo_from_disk ? serve::make_model_zoo_from_dir(zoo_env)
                         : serve::make_model_zoo({4, 4, 4, 4, 4, 4}, base,
                                                 seed);
  };
  auto zoo = make_zoo();
  std::vector<serve::GeometrySpec> specs;
  if (zoo_from_disk) {
    const int64_t dims[][2] = {{4, 4}, {3, 3}, {4, 3}, {3, 4}, {5, 3}};
    for (std::size_t i = 0; i < zoo.size(); ++i) {
      const auto& d = dims[i % 5];
      specs.push_back({static_cast<int>(i), zoo[i].m, d[0] * zoo[i].m,
                       d[1] * zoo[i].m, zoo[i].scenario});
    }
  } else {
    specs = {
        {0, 4, 16, 16}, {1, 4, 12, 12}, {2, 4, 16, 12},
        {3, 4, 12, 16}, {4, 4, 20, 12}, {5, 4, 16, 16},
    };
  }

  auto make_requests = [&](double rate_hz) {
    serve::RequestGenerator gen(specs, gen_config(seed, rate_hz));
    return gen.generate(n_requests);
  };
  const std::vector<serve::SolveRequest> requests = make_requests(200.0);

  std::printf("== serve_load: multi-tenant solve server ==\n");
  std::printf("requests=%lld tenants=%zu specs=%zu inflight=%d\n\n",
              static_cast<long long>(n_requests), zoo.size(), specs.size(),
              max_inflight);

  // The baselines solve with a zoo of their own, built once outside every
  // timed window: plans are cached per solver, so a fresh zoo per window
  // would recapture each plan inside it. The main thread serves both
  // zoos' tenants (the one-worker servers run on it too), so it keeps two
  // plans (cross and interior queries) per tenant of each zoo resident,
  // as a server's scheduler does for its own zoo.
  const auto solo_zoo = make_zoo();
  mosaic::infer_cache_reserve(2 * (zoo.size() + solo_zoo.size()));

  // --- Job-at-a-time baselines: each request alone, in order. Two
  // flavours of the pre-serving status quo:
  //  * serial: the paper's per-subdomain predictor (one network call per
  //    subdomain, MfpOptions::batched = false) — the headline
  //    speedup_vs_serial baseline;
  //  * batched: within-job phase batching (PR 6) but still one job at a
  //    time, reported as speedup_vs_serial_batched. On a single core
  //    this one is already near the per-row compute floor, so the gap
  //    over it isolates cross-request batching alone.
  auto run_job_at_a_time = [&](bool batched, std::size_t limit) {
    const std::size_t n = std::min(limit, requests.size());
    const double t0 = util::wall_seconds();
    for (std::size_t i = 0; i < n; ++i) {
      const auto& req = requests[i];
      mosaic::ScenarioSolveOptions opts;
      opts.mfp.max_iters = req.max_iters;
      opts.mfp.tol = req.tol;
      opts.mfp.batched = batched;
      const auto& solver =
          *solo_zoo[static_cast<std::size_t>(req.zoo_index)].solver;
      // One driver for every tenant: a Poisson field is mosaic_predict
      // exactly; scenario requests condition on req.field.
      mosaic::mosaic_predict_scenario(solver, req.field, req.nx_cells,
                                      req.ny_cells, req.boundary, opts);
    }
    return static_cast<double>(n) / (util::wall_seconds() - t0);
  };
  // Closed loop: every request is admitted as soon as a slot frees, so
  // this measures throughput; the open-loop runs measure latency.
  auto run_server = [&](int workers, serve::SchedulerCounters* out_counters) {
    serve::ServeOptions opts = serve::serve_options_from_env();
    opts.pad_to = pad_to;
    opts.threads = workers;
    opts.max_inflight = max_inflight;
    opts.realtime = false;
    serve::SolveServer server(zoo, opts);
    server.run(requests);
    // The window is the server's own, first admit to last finish: each
    // worker's warm-up captures run before its clock starts.
    double first_admit = std::numeric_limits<double>::infinity();
    double last_finish = -first_admit;
    for (const serve::RequestRecord& r : server.stats().records()) {
      first_admit = std::min(first_admit, r.admit_s);
      last_finish = std::max(last_finish, r.finish_s);
    }
    const double dt = last_finish - first_admit;
    if (out_counters) *out_counters = server.stats().counters();
    return static_cast<double>(n_requests) / dt;
  };

  // Untimed warm-up: page in the allocator/kernels before any timed
  // window (the measured windows are short enough that first-touch costs
  // would otherwise skew whichever baseline runs first).
  run_job_at_a_time(true, 16);
  run_job_at_a_time(false, 16);

  // The timed windows are short (~0.1 s), so a machine-speed wobble in
  // one window can distort a throughput ratio badly. Interleave repeated
  // windows of all three measurements and take per-measurement medians:
  // each repetition sees roughly the same machine conditions, and the
  // median discards a throttled outlier window.
  const int reps = static_cast<int>(args.get_int("reps", 3));
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  std::vector<double> serial_samples, serial_batched_samples, server_samples;
  serve::SchedulerCounters c1;
  for (int rep = 0; rep < reps; ++rep) {
    serial_samples.push_back(run_job_at_a_time(false, requests.size()));
    serial_batched_samples.push_back(
        run_job_at_a_time(true, requests.size()));
    server_samples.push_back(run_server(1, &c1));
  }
  const double serial_rps = median(serial_samples);
  const double serial_batched_rps = median(serial_batched_samples);
  std::printf(
      "job-at-a-time (median of %d): serial %.1f req/s, batched %.1f req/s\n",
      reps, serial_rps, serial_batched_rps);

  // Rates print with one fixed decimal: format_double counts significant
  // digits, so at one digit 14,208 req/s would print as "1e+04".
  auto rate_cell = [](double rps) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", rps);
    return std::string(buf);
  };

  // --- Closed-loop batched server, 1..N worker threads. ---
  util::Table table({"workers", "req/s", "speedup vs serial", "shared batches",
                     "batched rows"});
  struct Point {
    std::string kind;
    double x = 0, rps = 0, p50 = 0, p99 = 0;
    std::uint64_t shared = 0;
  };
  std::vector<Point> points;
  const double batched_rps = median(server_samples);
  const std::uint64_t shared_batches = c1.shared_batches;
  const std::uint64_t batched_rows = c1.batched_rows;
  std::printf(
      "  [1w breakdown] gather %.3fs predict %.3fs scatter %.3fs "
      "finalize %.3fs | batches %llu pad_rows %llu ticks %llu\n",
      c1.gather_seconds, c1.predict_seconds, c1.scatter_seconds,
      c1.finalize_seconds, static_cast<unsigned long long>(c1.batches),
      static_cast<unsigned long long>(c1.pad_rows),
      static_cast<unsigned long long>(c1.ticks));
  points.push_back({"closed_loop", 1.0, batched_rps, 0, 0, shared_batches});
  table.add_row({"1", rate_cell(batched_rps),
                 util::format_double(batched_rps / serial_rps, 3),
                 std::to_string(c1.shared_batches),
                 std::to_string(c1.batched_rows)});
  for (int workers = 2; workers <= max_workers; ++workers) {
    serve::SchedulerCounters c;
    const double rps = run_server(workers, &c);
    points.push_back({"closed_loop", static_cast<double>(workers), rps, 0, 0,
                      c.shared_batches});
    table.add_row({std::to_string(workers), rate_cell(rps),
                   util::format_double(rps / serial_rps, 3),
                   std::to_string(c.shared_batches),
                   std::to_string(c.batched_rows)});
  }
  table.print();
  std::printf("\n");

  // --- Open-loop latency vs offered load (1 worker). ---
  double p50_ms = 0, p99_ms = 0;
  {
    util::Table lt({"offered (x capacity)", "req/s offered", "p50 ms", "p99 ms",
                    "deadline misses"});
    for (const double frac : {0.5, 0.9, 1.5}) {
      const double rate = frac * batched_rps;
      auto open_requests = make_requests(rate);
      serve::ServeOptions opts = serve::serve_options_from_env();
      opts.pad_to = pad_to;
      opts.threads = 1;
      opts.max_inflight = max_inflight;
      opts.realtime = true;
      serve::SolveServer server(zoo, opts);
      server.run(open_requests);
      const double p50 = server.stats().latency_percentile_ms(50);
      const double p99 = server.stats().latency_percentile_ms(99);
      if (frac == 0.9) {
        p50_ms = p50;
        p99_ms = p99;
      }
      points.push_back({"open_loop", frac, rate, p50, p99,
                        server.stats().counters().shared_batches});
      lt.add_row({util::format_double(frac, 2), rate_cell(rate),
                  util::format_double(p50, 2), util::format_double(p99, 2),
                  std::to_string(server.stats().counters().deadline_misses)});
    }
    lt.print();
    std::printf("\n");
  }

  // --- Determinism: same seed, twice, identical iteration counts AND
  // bitwise-identical solutions (hash over every solution grid — the
  // fingerprint the zoo round-trip CI step compares across restarts). ---
  bool deterministic = true;
  std::uint64_t solution_hash = 0;
  {
    auto run_once = [&]() {
      serve::ServeOptions opts = serve::serve_options_from_env();
      opts.pad_to = pad_to;
      opts.threads = max_workers;
      opts.max_inflight = max_inflight;
      opts.realtime = false;
      serve::SolveServer server(zoo, opts);
      auto results = server.run(requests);
      std::vector<int64_t> iters;
      iters.reserve(results.size());
      for (const auto& r : results) iters.push_back(r.record.iterations);
      return std::make_pair(std::move(iters), solutions_hash(results));
    };
    const auto a = run_once();
    const auto b = run_once();
    deterministic = a == b;
    solution_hash = a.second;
    std::printf("deterministic rerun (workers=%d): %s (solutions %016llx)\n",
                max_workers,
                deterministic ? "identical iterations and solutions"
                              : "MISMATCH",
                static_cast<unsigned long long>(solution_hash));
  }

  // Every measured point: closed-loop rate per worker count (x; p50 and
  // p99 0, not measured), and the open-loop rate, p50 and p99 (ms) per
  // offered fraction of capacity (x).
  std::string points_json;
  for (const Point& pt : points) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"kind\":\"%s\",\"x\":%.6g,\"rps\":%.6g,"
                  "\"p50\":%.6g,\"p99\":%.6g,\"shared\":%llu}",
                  points_json.empty() ? "" : ",", pt.kind.c_str(), pt.x, pt.rps,
                  pt.p50, pt.p99, static_cast<unsigned long long>(pt.shared));
    points_json += buf;
  }

  const mosaic::InferCacheStats ic = mosaic::infer_cache_stats();
  std::printf(
      "\nBENCH_JSON {\"bench\":\"serve_load\",\"requests\":%lld,"
      "\"tenants\":%zu,\"inflight\":%d,\"threads\":%d,\"openmp\":%s,"
      "\"smoke\":%s,\"req_per_sec\":%.6g,\"serial_req_per_sec\":%.6g,"
      "\"serial_batched_req_per_sec\":%.6g,"
      "\"speedup_vs_serial\":%.4g,\"speedup_vs_serial_batched\":%.4g,"
      "\"p50_ms\":%.6g,\"p99_ms\":%.6g,"
      "\"shared_batches\":%llu,\"batched_rows\":%llu,\"deterministic\":%s,"
      "\"zoo_source\":\"%s\",\"solution_hash\":\"%016llx\","
      "\"cache_exact_hits\":%llu,\"cache_widened_hits\":%llu,"
      "\"cache_chunked_hits\":%llu,\"cache_widen_remainder_rows\":%llu,"
      "\"cache_misses\":%llu,\"cache_captures\":%llu,"
      "\"cache_evictions\":%llu,\"cache_retired\":%llu,\"gelu_lanes\":%d,"
      "\"points\":[%s]}\n",
      static_cast<long long>(n_requests), zoo.size(), max_inflight,
      ad::kernels::max_threads(),
      ad::kernels::openmp_enabled() ? "true" : "false",
      smoke ? "true" : "false", batched_rps, serial_rps, serial_batched_rps,
      batched_rps / serial_rps, batched_rps / serial_batched_rps, p50_ms,
      p99_ms,
      static_cast<unsigned long long>(shared_batches),
      static_cast<unsigned long long>(batched_rows),
      deterministic ? "true" : "false",
      zoo_from_disk ? "disk" : "synthetic",
      static_cast<unsigned long long>(solution_hash),
      static_cast<unsigned long long>(ic.exact_hits),
      static_cast<unsigned long long>(ic.widened_hits),
      static_cast<unsigned long long>(ic.chunked_hits),
      static_cast<unsigned long long>(ic.widen_remainder_rows),
      static_cast<unsigned long long>(ic.misses),
      static_cast<unsigned long long>(ic.captures),
      static_cast<unsigned long long>(ic.evictions),
      static_cast<unsigned long long>(ic.retired), ad::kernels::gelu_lanes(),
      points_json.c_str());
  return deterministic ? 0 : 1;
}

int main(int argc, char** argv) {
  return mf::util::run_main(argc, argv, main_body);
}
