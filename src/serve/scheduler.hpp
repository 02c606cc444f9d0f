// Iteration-level cross-request batching (the serve tentpole). Each
// in-flight request is one solve job of the Schwarz engine
// (mosaic/solve_job.hpp); every tick the scheduler advances ALL in-flight
// jobs by one iteration, gathering each job's current-phase rows into one
// shared batch per zoo model and dispatching a single solver call for the
// whole group.
// Same-geometry requests therefore share GEMMs (the compiled-program
// cache widens the tenant's one captured plan to the combined batch,
// whatever its size); converged jobs retire immediately at the
// iteration boundary where their cycle delta crosses tol, and new jobs
// join the batch at the next tick. Because the batched kernels compute
// rows independently and every job runs the engine's steps in the same
// order as a solo solve, every job's trajectory is bitwise identical to
// running it alone through mosaic_predict_scenario — batching changes
// wall-clock, never results.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "mosaic/solve_job.hpp"
#include "serve/request_gen.hpp"
#include "serve/stats.hpp"

namespace mf::serve {

/// One tenant model: an SDNet-backed subdomain solver serving all
/// requests with zoo_index equal to its position in the zoo vector.
/// `scenario` names the PDE family the net was trained for; admitted
/// requests must carry the same kind, and the net's conditioning width
/// (net->config().boundary_size) is 4m plus the scenario suffix.
struct ServeModel {
  int64_t m = 8;
  scenario::Kind scenario = scenario::Kind::kPoisson;
  std::shared_ptr<const mosaic::Sdnet> net;
  std::shared_ptr<const mosaic::NeuralSubdomainSolver> solver;
};

/// What to do when a request blows its deadline (checked at iteration
/// boundaries, mirroring the distributed predictor's degraded mode).
enum class DeadlineAction {
  /// Keep iterating to the budget; count degraded iterations (default —
  /// keeps per-request iteration counts independent of timing).
  kAccount,
  /// Retire the job immediately with its current lattice state
  /// (converged=false). Latency-bounded, timing-dependent results.
  kRetire,
};

struct SchedulerOptions {
  bool batching = true;  // false = per-job solver calls (hatch/baseline)
  /// Pad cross-request batches with zero rows (results discarded) up to
  /// a multiple of this, so wandering group sizes replay through fewer
  /// distinct widening factors. 0 = no padding: every size already
  /// replays whole. Rows are computed independently, so padding never
  /// changes any real row's bits.
  int64_t pad_to = 0;
  double relaxation = 1.0;
  mosaic::LatticeInit init = mosaic::LatticeInit::kCoons;
  DeadlineAction deadline_action = DeadlineAction::kAccount;
};

/// In-flight (or finished) solve job.
struct ServeJob {
  SolveRequest req;
  std::optional<mosaic::SolveJob> solve;  // released at retirement
  // Outcome, set at retirement.
  int64_t iter = 0;
  double final_delta = 0;
  bool done = false;
  bool converged = false;
  bool deadline_missed = false;
  int64_t degraded_iterations = 0;
  double admit_s = 0, finish_s = 0;
  linalg::Grid2D solution;
};

/// Single-worker scheduler: owns its in-flight jobs (no locking inside a
/// tick; the server gives each worker thread its own scheduler).
class IterationScheduler {
 public:
  IterationScheduler(const std::vector<ServeModel>& zoo,
                     const SchedulerOptions& opts);

  /// Prime the calling thread's compiled-program cache: one call of
  /// `warm_batch` rows per zoo model and query set (cross, interior)
  /// captures and widens its plan and sizes its store, so the first
  /// traffic batches only replay. No-op when warm_batch <= 0.
  void warm(int64_t warm_batch);

  /// Admit a request (jobs join at iteration boundaries: call between
  /// ticks). `now_s` stamps the admission time.
  void admit(SolveRequest req, double now_s);

  /// Advance every in-flight job by one Schwarz iteration; retire jobs
  /// that converged, exhausted their budget, or (kRetire) missed their
  /// deadline. Returns the number of jobs still in flight.
  std::size_t tick(double now_s);

  std::size_t inflight() const { return jobs_.size(); }
  /// Move out jobs finished since the last call.
  std::vector<ServeJob> take_finished();
  const SchedulerCounters& counters() const { return counters_; }

 private:
  const mosaic::SubdomainGeometry& geometry(int64_t m);
  /// Gather, predict and scatter one batch over `group` (same tenant).
  void dispatch(const ServeModel& model, const std::vector<ServeJob*>& group);
  void finalize(ServeJob& job, double now_s);

  const std::vector<ServeModel>& zoo_;
  SchedulerOptions opts_;
  std::map<int64_t, mosaic::SubdomainGeometry> geoms_;  // keyed by m
  std::vector<std::unique_ptr<ServeJob>> jobs_;
  std::vector<ServeJob> finished_;
  SchedulerCounters counters_;
  // Reused batch buffers (scheduler-owned, not the thread-local phase
  // scratch: retirement's interior pass uses that underneath us).
  mosaic::Rows batch_boundaries_;
  mosaic::Rows batch_predictions_;
  std::vector<ServeJob*> group_;
  std::vector<std::size_t> offsets_;
};

}  // namespace mf::serve
