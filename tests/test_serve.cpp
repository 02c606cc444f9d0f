// Multi-tenant solve server tests: batch-composition invariance (server
// results bitwise-identical to solo mosaic_predict runs, scenario tenants
// included), deterministic scheduling, concurrent plan-cache use with
// seeded health retirement, inference-cache observability counters,
// deadline enforcement with an injected clock, and loud failure on
// malformed MF_SERVE_* values.
#include <gtest/gtest.h>

#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "ad/dtype.hpp"
#include "ad/program.hpp"
#include "mosaic/predictor.hpp"
#include "mosaic/scenario_predictor.hpp"
#include "mosaic/subdomain_solver.hpp"
#include "serve/request_gen.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "env_guard.hpp"

namespace ad = mf::ad;
namespace mosaic = mf::mosaic;
namespace serve = mf::serve;

namespace {

/// The bitwise server-vs-solo guarantee only holds in full f64: under
/// f32 compute the eager and replayed paths round differently, so pin
/// the dtype for every test in this file.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override { prev_ = ad::set_compute_dtype(ad::DType::kF64); }
  void TearDown() override { ad::set_compute_dtype(prev_); }

 private:
  ad::DType prev_ = ad::DType::kF64;
};

/// Re-enable (or disable) the health sentinel for one test body.
struct HealthGuard {
  explicit HealthGuard(bool on) : prev_(ad::health_checks_set_enabled(on)) {}
  ~HealthGuard() { ad::health_checks_set_enabled(prev_); }

 private:
  bool prev_;
};

mosaic::SdnetConfig tiny_config() {
  mosaic::SdnetConfig cfg;
  cfg.hidden_width = 8;
  cfg.mlp_depth = 2;
  return cfg;
}

std::vector<serve::GeometrySpec> tiny_specs(std::size_t tenants) {
  std::vector<serve::GeometrySpec> specs;
  for (std::size_t i = 0; i < tenants; ++i) {
    serve::GeometrySpec s;
    s.zoo_index = static_cast<int>(i);
    s.m = 4;
    s.nx_cells = (i % 2 == 0) ? 8 : 12;
    s.ny_cells = 8;
    specs.push_back(s);
  }
  return specs;
}

/// A random-weight tenant for `kind`: the net's input width is the
/// scenario's conditioning size.
serve::ServeModel scenario_tenant(mf::scenario::Kind kind, std::uint64_t seed) {
  serve::ServeModel model;
  model.m = 4;
  model.scenario = kind;
  mosaic::SdnetConfig cfg = tiny_config();
  cfg.boundary_size = mf::scenario::conditioning_size(kind, model.m);
  mf::util::Rng rng(seed);
  model.net = std::make_shared<mosaic::Sdnet>(cfg, rng);
  model.solver =
      std::make_shared<mosaic::NeuralSubdomainSolver>(model.net, model.m);
  return model;
}

std::vector<serve::SolveRequest> tiny_requests(
    const std::vector<serve::GeometrySpec>& specs, int64_t n,
    std::uint64_t seed) {
  serve::RequestGenConfig cfg;
  cfg.seed = seed;
  cfg.rate_hz = 1000;
  cfg.min_cycles = 2;
  cfg.max_cycles = 3;
  cfg.deadline_ms_min = 1e6;  // effectively no deadline
  cfg.deadline_ms_max = 1e6;
  serve::RequestGenerator gen(specs, cfg);
  return gen.generate(n);
}

std::vector<serve::SolveRequest> tiny_requests(std::size_t tenants,
                                               int64_t n,
                                               std::uint64_t seed = 99) {
  return tiny_requests(tiny_specs(tenants), n, seed);
}

bool grids_bitwise_equal(const mf::linalg::Grid2D& a,
                         const mf::linalg::Grid2D& b) {
  if (a.nx() != b.nx() || a.ny() != b.ny()) return false;
  return std::memcmp(a.vec().data(), b.vec().data(),
                     a.vec().size() * sizeof(double)) == 0;
}

}  // namespace

// The acceptance property: serving a request in a shared cross-request
// batch must produce exactly the bits that running it alone through
// mosaic_predict (mosaic_predict_scenario for the varcoef and convdiff
// tenants) produces, iteration count included.
TEST_F(ServeTest, ServerMatchesSoloRunBitwise) {
  auto zoo = serve::make_model_zoo({4, 4}, tiny_config(), 7);
  zoo.push_back(scenario_tenant(mf::scenario::Kind::kVarCoef, 8));
  zoo.push_back(scenario_tenant(mf::scenario::Kind::kConvDiff, 9));
  auto specs = tiny_specs(zoo.size());
  specs[2].scenario = mf::scenario::Kind::kVarCoef;
  specs[3].scenario = mf::scenario::Kind::kConvDiff;
  auto requests = tiny_requests(specs, 16, 99);

  serve::ServeOptions opts;
  opts.threads = 1;
  opts.max_inflight = 6;
  opts.pad_to = 4;
  opts.realtime = false;
  serve::SolveServer server(zoo, opts);
  auto results = server.run(requests);
  ASSERT_EQ(results.size(), requests.size());

  int scenario_requests = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& req = requests[i];
    const auto& solver = *zoo[static_cast<std::size_t>(req.zoo_index)].solver;
    mosaic::MfpOptions solo;
    solo.max_iters = req.max_iters;
    solo.tol = req.tol;
    const bool poisson = req.field.kind == mf::scenario::Kind::kPoisson;
    scenario_requests += poisson ? 0 : 1;
    auto ref = poisson ? mosaic::mosaic_predict(solver, req.nx_cells,
                                                req.ny_cells, req.boundary, solo)
                       : mosaic::mosaic_predict_scenario(
                             solver, req.field, req.nx_cells, req.ny_cells,
                             req.boundary, {solo, nullptr, {}});
    EXPECT_EQ(results[i].record.id, req.id);
    EXPECT_EQ(results[i].record.iterations, ref.iterations)
        << "request " << i;
    EXPECT_TRUE(grids_bitwise_equal(results[i].solution, ref.solution))
        << "request " << i;
  }
  EXPECT_GT(scenario_requests, 0);
}

// Disabling batching (the per-job hatch) must not change a single bit.
TEST_F(ServeTest, BatchingHatchBitwiseIdentical) {
  auto zoo = serve::make_model_zoo({4, 4}, tiny_config(), 7);
  auto requests = tiny_requests(zoo.size(), 8);

  auto run = [&](bool batching) {
    serve::ServeOptions opts;
    opts.threads = 1;
    opts.batching = batching;
    opts.realtime = false;
    serve::SolveServer server(zoo, opts);
    return server.run(requests);
  };
  auto batched = run(true);
  auto hatch = run(false);
  ASSERT_EQ(batched.size(), hatch.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i].record.iterations, hatch[i].record.iterations);
    EXPECT_TRUE(grids_bitwise_equal(batched[i].solution, hatch[i].solution));
  }
}

// Same seed, same config, two runs with multiple workers: identical
// per-request iteration counts and solutions regardless of thread
// timing (jobs are partitioned dynamically, but every job's trajectory
// is independent of its batch-mates).
TEST_F(ServeTest, DeterministicAcrossRerunsAndWorkers) {
  auto zoo = serve::make_model_zoo({4, 4, 4}, tiny_config(), 11);
  auto requests = tiny_requests(zoo.size(), 18);

  auto run = [&](int threads) {
    serve::ServeOptions opts;
    opts.threads = threads;
    opts.max_inflight = 4;
    opts.realtime = false;
    serve::SolveServer server(zoo, opts);
    return server.run(requests);
  };
  auto a = run(2);
  auto b = run(2);
  auto serial = run(1);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].record.iterations, b[i].record.iterations) << i;
    EXPECT_EQ(a[i].record.iterations, serial[i].record.iterations) << i;
    EXPECT_TRUE(grids_bitwise_equal(a[i].solution, b[i].solution)) << i;
    EXPECT_TRUE(grids_bitwise_equal(a[i].solution, serial[i].solution)) << i;
  }
}

// Concurrent plan-cache hammer: several worker threads, mixed
// geometries, and one tenant whose net is poisoned so the health
// sentinel retires its plans mid-run. Results must still match the
// serial run bitwise, and the retirement must show up in the
// process-global cache counters.
TEST_F(ServeTest, ConcurrentCacheWithHealthRetirementMatchesSerial) {
  HealthGuard health(true);
  auto zoo = serve::make_model_zoo({4, 4, 4}, tiny_config(), 13);
  {
    // Poison tenant 1: an output bias of 1e120 pushes every prediction
    // past the sentinel's 1e100 divergence bound (still finite in f64),
    // so the first replay of each of its plans trips and retires.
    mf::util::Rng rng(13 + 1);
    mosaic::SdnetConfig cfg = tiny_config();
    cfg.boundary_size = 4 * 4;
    auto poisoned = std::make_shared<mosaic::Sdnet>(cfg, rng);
    auto params = poisoned->parameters();
    ASSERT_FALSE(params.empty());
    ad::Tensor out_bias = params.back();
    for (int64_t k = 0; k < out_bias.numel(); ++k) out_bias.flat(k) = 1e120;
    zoo[1].net = poisoned;
    zoo[1].solver =
        std::make_shared<mosaic::NeuralSubdomainSolver>(zoo[1].net, zoo[1].m);
  }
  auto requests = tiny_requests(zoo.size(), 24, /*seed=*/5);

  mosaic::infer_cache_stats_reset();
  auto run = [&](int threads) {
    serve::ServeOptions opts;
    opts.threads = threads;
    opts.max_inflight = 4;
    opts.realtime = false;
    serve::SolveServer server(zoo, opts);
    return server.run(requests);
  };
  auto concurrent = run(4);
  const auto stats = mosaic::infer_cache_stats();
  EXPECT_GT(stats.retired, 0u);

  auto serial = run(1);
  ASSERT_EQ(concurrent.size(), serial.size());
  for (std::size_t i = 0; i < concurrent.size(); ++i) {
    EXPECT_EQ(concurrent[i].record.iterations, serial[i].record.iterations)
        << i;
    EXPECT_TRUE(grids_bitwise_equal(concurrent[i].solution,
                                    serial[i].solution))
        << i;
  }
}

// Observability: a batched server run must account its traffic in the
// inference-cache counters and the scheduler counters.
TEST_F(ServeTest, CacheAndSchedulerCountersObserved) {
  auto zoo = serve::make_model_zoo({4, 4}, tiny_config(), 17);
  auto requests = tiny_requests(zoo.size(), 12);

  mosaic::infer_cache_stats_reset();
  serve::ServeOptions opts;
  opts.threads = 1;
  opts.max_inflight = 6;
  opts.warm_batch = 4;
  opts.realtime = false;
  serve::SolveServer server(zoo, opts);
  server.run(requests);

  // Scheduler construction must have reserved room for every tenant's
  // two plans (cross and interior queries).
  EXPECT_GE(mosaic::infer_cache_capacity(), 2 * zoo.size());

  const auto stats = mosaic::infer_cache_stats();
  // The warm-up captured each tenant's two plans, once each, and every
  // batch size the traffic produced replayed one of them: no eager batch.
  EXPECT_EQ(stats.captures, 2 * zoo.size());
  EXPECT_GT(stats.widened_hits + stats.exact_hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.retired, 0u);

  const auto& c = server.stats().counters();
  EXPECT_EQ(c.admitted, static_cast<std::uint64_t>(requests.size()));
  EXPECT_EQ(c.retired, static_cast<std::uint64_t>(requests.size()));
  EXPECT_GT(c.shared_batches, 0u);
  EXPECT_GT(c.batched_rows, 0u);
  EXPECT_GT(c.ticks, 0u);
}

// Deadline enforcement at iteration boundaries, driven by an injected
// clock: kRetire ships the current state immediately, kAccount keeps
// iterating and counts degraded iterations (PR 8 semantics).
TEST_F(ServeTest, DeadlineRetireAndAccountWithInjectedClock) {
  auto zoo = serve::make_model_zoo({4}, tiny_config(), 23);
  auto requests = tiny_requests(zoo.size(), 2, /*seed=*/3);
  for (auto& req : requests) {
    req.arrival_s = 0;
    req.deadline_ms = 5;
    req.max_iters = 40;
    req.tol = 0;  // never converges: only the deadline can stop it early
  }

  for (const bool retire : {true, false}) {
    double now = 0.0;
    serve::ServeOptions opts;
    opts.threads = 1;
    opts.realtime = false;
    opts.deadline_action =
        retire ? serve::DeadlineAction::kRetire : serve::DeadlineAction::kAccount;
    // Each clock() call advances time 2 ms, so the 5 ms deadline blows
    // a few ticks in.
    opts.clock = [&now] {
      now += 2e-3;
      return now;
    };
    serve::SolveServer server(zoo, opts);
    auto results = server.run(requests);
    ASSERT_EQ(results.size(), requests.size());
    for (const auto& res : results) {
      EXPECT_TRUE(res.record.deadline_missed);
      EXPECT_FALSE(res.record.converged);
      if (retire) {
        EXPECT_LT(res.record.iterations, 40);
      } else {
        EXPECT_EQ(res.record.iterations, 40);
        EXPECT_GT(res.record.degraded_iterations, 0);
      }
    }
    const auto& c = server.stats().counters();
    EXPECT_EQ(c.deadline_misses, static_cast<std::uint64_t>(requests.size()));
  }
}

// A closed loop admits each request as soon as a slot frees, ahead of its
// offered arrival: the request arrives when it is admitted, so no latency
// is negative. 24 requests 50 ms apart on one worker, with one in flight,
// queue behind each other far faster than they were offered.
TEST_F(ServeTest, ClosedLoopRequestsArriveWhenAdmitted) {
  auto zoo = serve::make_model_zoo({4}, tiny_config(), 29);
  auto requests = tiny_requests(zoo.size(), 24, /*seed=*/5);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].arrival_s = 0.05 * static_cast<double>(i);
  }
  serve::ServeOptions opts;
  opts.threads = 1;
  opts.max_inflight = 1;
  opts.realtime = false;
  serve::SolveServer server(zoo, opts);
  server.run(requests);
  const auto& records = server.stats().records();
  ASSERT_EQ(records.size(), requests.size());
  for (const serve::RequestRecord& r : records) {
    EXPECT_EQ(r.arrival_s, r.admit_s) << "request " << r.id;
    EXPECT_GE(r.latency_ms(), 0.0) << "request " << r.id;
  }
}

// Every worker's thread-local plan cache starts empty, and its warm-up
// captures each tenant's two plans. The server clock must start after all
// of them: at its first read, every worker's captures have happened.
TEST_F(ServeTest, ClockStartsAfterEveryWorkerWarms) {
  auto zoo = serve::make_model_zoo({4, 4}, tiny_config(), 41);
  auto requests = tiny_requests(zoo.size(), 8);
  const std::uint64_t workers = 2;
  const std::uint64_t before = mosaic::infer_cache_stats().captures;
  std::mutex mu;
  bool first_read = true;
  std::uint64_t captures_at_start = 0;
  double now = 0.0;
  serve::ServeOptions opts;
  opts.threads = static_cast<int>(workers);
  opts.realtime = false;
  // Both workers read the clock, so it locks.
  opts.clock = [&] {
    std::lock_guard<std::mutex> lock(mu);
    if (first_read) {
      first_read = false;
      captures_at_start = mosaic::infer_cache_stats().captures - before;
    }
    now += 1e-4;
    return now;
  };
  serve::SolveServer server(zoo, opts);
  server.run(requests);
  EXPECT_EQ(captures_at_start, 2 * zoo.size() * workers);
  EXPECT_EQ(server.stats().counters().retired, requests.size());
}

// Malformed MF_SERVE_* values fail loudly instead of falling back to a
// silent default; the values CI uses stay valid.
TEST(ServeOptionsFromEnv, MalformedValuesThrow) {
  const std::pair<const char*, const char*> bad[] = {
      {"MF_SERVE_THREADS", "two"},
      {"MF_SERVE_THREADS", "0"},
      {"MF_SERVE_THREADS", "3x"},
      {"MF_SERVE_MAX_INFLIGHT", "-1"},
      {"MF_SERVE_DISABLE_BATCHING", "false"},
      {"MF_SERVE_DISABLE_BATCHING", "2"},
      {"MF_SERVE_WARM_BATCH", "1.5"},
      {"MF_SERVE_PAD_TO", "-4"},
      {"MF_SERVE_PAD_TO", "99999999999999999999"},
      {"MF_SERVE_DEADLINE_ACTION", "retrie"},
  };
  for (const auto& [name, value] : bad) {
    EnvGuard env(name, value);
    try {
      serve::serve_options_from_env();
      ADD_FAILURE() << name << "=" << value << " did not throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find(value), std::string::npos) << e.what();
    }
  }
  {
    EnvGuard env("MF_SERVE_DISABLE_BATCHING", "1");
    EXPECT_FALSE(serve::serve_options_from_env().batching);
  }
  {
    EnvGuard threads("MF_SERVE_THREADS", "2");
    EnvGuard action("MF_SERVE_DEADLINE_ACTION", "retire");
    const serve::ServeOptions o = serve::serve_options_from_env();
    EXPECT_EQ(o.threads, 2);
    EXPECT_EQ(o.deadline_action, serve::DeadlineAction::kRetire);
  }
}
