#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <limits>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "ad/kernels.hpp"
#include "nn/serialize.hpp"
#include "util/timing.hpp"

namespace mf::serve {

namespace {

[[noreturn]] void bad_env(const char* name, const char* value,
                          const char* want) {
  throw std::invalid_argument(std::string(name) + "='" + value + "': want " +
                              want);
}

/// The integer value of `name` in [lo, hi]; `fallback` when unset or
/// empty. Anything else throws.
int64_t env_int(const char* name, int64_t fallback, int64_t lo, int64_t hi,
                const char* want) {
  const char* v = std::getenv(name);
  if (!v || *v == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long x = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || x < lo || x > hi) {
    bad_env(name, v, want);
  }
  return x;
}

}  // namespace

ServeOptions serve_options_from_env() {
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();
  ServeOptions opts;
  opts.threads = static_cast<int>(env_int("MF_SERVE_THREADS", opts.threads, 1,
                                          kIntMax, "an integer >= 1"));
  opts.max_inflight = static_cast<int>(env_int(
      "MF_SERVE_MAX_INFLIGHT", opts.max_inflight, 1, kIntMax, "an integer >= 1"));
  opts.batching = env_int("MF_SERVE_DISABLE_BATCHING", 0, 0, 1, "0 or 1") == 0;
  opts.warm_batch = env_int("MF_SERVE_WARM_BATCH", opts.warm_batch, 0, kI64Max,
                            "an integer >= 0");
  opts.pad_to =
      env_int("MF_SERVE_PAD_TO", opts.pad_to, 0, kI64Max, "an integer >= 0");
  if (const char* v = std::getenv("MF_SERVE_DEADLINE_ACTION"); v && *v) {
    if (std::strcmp(v, "retire") == 0) {
      opts.deadline_action = DeadlineAction::kRetire;
    } else if (std::strcmp(v, "account") != 0) {
      bad_env("MF_SERVE_DEADLINE_ACTION", v, "account or retire");
    }
  }
  return opts;
}

std::vector<ServeModel> make_model_zoo(const std::vector<int64_t>& ms,
                                       const mosaic::SdnetConfig& base,
                                       std::uint64_t seed) {
  std::vector<ServeModel> zoo;
  zoo.reserve(ms.size());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    ServeModel model;
    model.m = ms[i];
    mosaic::SdnetConfig cfg = base;
    cfg.boundary_size = 4 * model.m;
    util::Rng rng(seed + i);
    model.net = std::make_shared<mosaic::Sdnet>(cfg, rng);
    model.solver =
        std::make_shared<mosaic::NeuralSubdomainSolver>(model.net, model.m);
    zoo.push_back(std::move(model));
  }
  return zoo;
}

std::vector<std::pair<std::string, std::int64_t>> zoo_entry_config(
    const mosaic::SdnetConfig& cfg, int64_t m) {
  return {
      {"m", m},
      {"boundary_size", cfg.boundary_size},
      {"hidden_width", cfg.hidden_width},
      {"mlp_depth", cfg.mlp_depth},
      {"activation", static_cast<std::int64_t>(cfg.activation)},
      {"use_conv_encoder", cfg.use_conv_encoder ? 1 : 0},
      {"conv_channels", cfg.conv_channels},
      {"conv_depth", cfg.conv_depth},
      {"conv_kernel", cfg.conv_kernel},
      {"use_split_embedding", cfg.use_split_embedding ? 1 : 0},
  };
}

std::vector<ServeModel> make_model_zoo_from_dir(const std::string& dir) {
  const nn::ZooManifest manifest = nn::load_zoo_manifest(dir);
  if (manifest.entries.empty()) {
    throw std::runtime_error("make_model_zoo_from_dir: empty manifest in " +
                             dir);
  }
  std::vector<ServeModel> zoo;
  zoo.reserve(manifest.entries.size());
  for (const nn::ZooEntry& entry : manifest.entries) {
    ServeModel model;
    model.m = entry.need_config("m");
    model.scenario = scenario::kind_from_name(entry.scenario);
    mosaic::SdnetConfig cfg;
    cfg.boundary_size = entry.need_config("boundary_size");
    cfg.hidden_width = entry.need_config("hidden_width");
    cfg.mlp_depth = entry.need_config("mlp_depth");
    cfg.activation =
        static_cast<nn::Activation>(entry.need_config("activation"));
    cfg.use_conv_encoder = entry.need_config("use_conv_encoder") != 0;
    cfg.conv_channels = entry.need_config("conv_channels");
    cfg.conv_depth = entry.need_config("conv_depth");
    cfg.conv_kernel = entry.need_config("conv_kernel");
    cfg.use_split_embedding = entry.need_config("use_split_embedding") != 0;
    // Seeded init only sizes the tensors; the checkpoint overwrites every
    // parameter, so the RNG seed here cannot affect served results.
    util::Rng rng(0);
    auto net = std::make_shared<mosaic::Sdnet>(cfg, rng);
    nn::load_parameters(*net, dir + "/" + entry.params_file);
    model.net = net;
    model.solver =
        std::make_shared<mosaic::NeuralSubdomainSolver>(net, model.m);
    zoo.push_back(std::move(model));
  }
  return zoo;
}

SolveServer::SolveServer(std::vector<ServeModel> zoo, ServeOptions opts)
    : zoo_(std::move(zoo)), opts_(std::move(opts)) {
  if (zoo_.empty()) throw std::invalid_argument("SolveServer: empty zoo");
  if (!opts_.clock) opts_.clock = [] { return util::wall_seconds(); };
}

namespace {

/// Admission state shared by the workers: requests sorted by arrival,
/// handed out under a mutex so each job lands on exactly one worker's
/// scheduler (workers own disjoint job sets; ticks never lock).
struct AdmissionQueue {
  std::vector<SolveRequest>* requests = nullptr;
  std::vector<std::size_t> order;  // request indices sorted by arrival_s
  std::vector<std::size_t> slot;   // order[i] -> original request index
  std::size_t next = 0;
  std::mutex mu;
};

}  // namespace

std::vector<ServeResult> SolveServer::run(std::vector<SolveRequest> requests) {
  const int workers = std::max(opts_.threads, 1);
  AdmissionQueue queue;
  queue.requests = &requests;
  // The clock starts once every worker has warmed: a worker's thread-local
  // plan cache starts empty, and its warm-up captures every tenant's
  // plans, which must not land inside any request's latency or deadline.
  std::latch warmed(workers);
  std::once_flag started;
  auto start_clock = [&] {
    // Arrival offsets -> absolute server-clock times (deadlines and
    // latency are measured from these).
    const double t0 = opts_.clock();
    for (auto& req : requests) req.arrival_s += t0;
    queue.order.resize(requests.size());
    std::iota(queue.order.begin(), queue.order.end(), std::size_t{0});
    std::stable_sort(queue.order.begin(), queue.order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return requests[a].arrival_s < requests[b].arrival_s;
                     });
  };

  std::vector<ServeResult> results(requests.size());
  std::mutex results_mu;

  SchedulerOptions sched_opts;
  sched_opts.batching = opts_.batching;
  sched_opts.pad_to = opts_.batching ? opts_.pad_to : 0;
  sched_opts.relaxation = opts_.relaxation;
  sched_opts.deadline_action = opts_.deadline_action;

  auto worker = [&](int worker_id) {
    // Several workers would oversubscribe the OpenMP pool (and wreck the
    // per-thread CPU-clock accounting); each worker computes serially
    // and parallelism comes from the worker count itself.
    std::unique_ptr<ad::kernels::SerialRegionGuard> guard;
    if (opts_.threads > 1) {
      guard = std::make_unique<ad::kernels::SerialRegionGuard>();
    }
    (void)worker_id;
    IterationScheduler sched(zoo_, sched_opts);
    sched.warm(opts_.warm_batch);
    warmed.arrive_and_wait();
    std::call_once(started, start_clock);
    // Job -> original request index, to place results.
    std::vector<std::pair<int64_t, std::size_t>> id_slots;
    while (true) {
      const double now = opts_.clock();
      bool drained = false;
      {
        std::lock_guard<std::mutex> lock(queue.mu);
        while (queue.next < queue.order.size() &&
               sched.inflight() <
                   static_cast<std::size_t>(opts_.max_inflight)) {
          const std::size_t ri = queue.order[queue.next];
          SolveRequest& req = requests[ri];
          if (opts_.realtime && req.arrival_s > now) break;
          // A closed loop admits as soon as a slot frees, ahead of the
          // offered arrival: the request arrives when it is admitted, and
          // its latency and deadline start there.
          if (!opts_.realtime) req.arrival_s = now;
          ++queue.next;
          id_slots.emplace_back(req.id, ri);
          sched.admit(req, now);
        }
        drained = queue.next >= queue.order.size();
      }
      if (sched.inflight() == 0) {
        if (drained) break;
        // Open loop, nothing in flight: wait for the next arrival.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        continue;
      }
      sched.tick(now);
      for (ServeJob& job : sched.take_finished()) {
        RequestRecord rec;
        rec.id = job.req.id;
        rec.zoo_index = job.req.zoo_index;
        rec.iterations = job.iter;
        rec.converged = job.converged;
        rec.deadline_missed = job.deadline_missed;
        rec.degraded_iterations = job.degraded_iterations;
        rec.arrival_s = job.req.arrival_s;
        rec.admit_s = job.admit_s;
        rec.finish_s = job.finish_s;
        stats_.add_record(rec);
        std::size_t ri = static_cast<std::size_t>(-1);
        for (const auto& [id, slot] : id_slots) {
          if (id == job.req.id) {
            ri = slot;
            break;
          }
        }
        std::lock_guard<std::mutex> lock(results_mu);
        ServeResult& res = results[ri];
        res.record = rec;
        res.final_delta = job.final_delta;
        res.solution = std::move(job.solution);
      }
    }
    stats_.merge_counters(sched.counters());
  };

  if (workers == 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers));
    for (int t = 0; t < workers; ++t) threads.emplace_back(worker, t);
    for (auto& th : threads) th.join();
  }
  return results;
}

}  // namespace mf::serve
