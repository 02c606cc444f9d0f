// Multi-tenant solve server: a model zoo plus per-worker iteration
// schedulers behind one admission queue. Requests are admitted at
// iteration boundaries up to a per-worker in-flight cap; each worker
// advances all of its jobs one Schwarz iteration per tick with
// cross-request batching (see scheduler.hpp). Configuration comes from
// MF_SERVE_* environment variables by default:
//   MF_SERVE_THREADS           worker threads (default 1)
//   MF_SERVE_MAX_INFLIGHT      concurrent jobs per worker (default 8)
//   MF_SERVE_DISABLE_BATCHING  1 = per-job solver calls (hatch), 0 = off
//   MF_SERVE_WARM_BATCH        plan-priming batch size, 0 = off (default 4)
//   MF_SERVE_PAD_TO            pad shared batches to a multiple (default 0)
//   MF_SERVE_DEADLINE_ACTION   "account" (default) or "retire"
// A malformed or out-of-range value throws std::invalid_argument naming
// the variable; an empty one counts as unset. bench_serve_load also reads
//   MF_SERVE_ZOO               directory with a versioned on-disk model
//                              zoo (zoo.manifest + parameter files); when
//                              set the server loads trained checkpoints
//                              instead of building random-weight models
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serve/request_gen.hpp"
#include "serve/scheduler.hpp"
#include "serve/stats.hpp"

namespace mf::serve {

struct ServeOptions {
  int threads = 1;
  int max_inflight = 8;
  bool batching = true;
  int64_t warm_batch = 4;
  /// Pad shared batches with zero rows to a multiple of this (0 = off).
  /// Every size already replays through the tenant's one plan, so
  /// padding only helps when wide-context reuse matters more than the
  /// wasted rows.
  int64_t pad_to = 0;
  /// true: honor request arrival_s offsets (open loop); false: admit as
  /// fast as capacity allows (closed loop).
  bool realtime = false;
  double relaxation = 1.0;
  DeadlineAction deadline_action = DeadlineAction::kAccount;
  /// Injectable time source (seconds); null = steady wall clock. Tests
  /// drive deadlines with a synthetic clock through this.
  std::function<double()> clock;
};

/// Options with the MF_SERVE_* environment applied over the defaults;
/// throws std::invalid_argument on a malformed value.
ServeOptions serve_options_from_env();

/// One per-request outcome: completion record + solution grid.
struct ServeResult {
  RequestRecord record;
  double final_delta = 0;
  linalg::Grid2D solution;
};

/// Build a zoo of seeded random-weight SDNet solvers, one per subdomain
/// size in `ms` (base.boundary_size is overridden to 4m per model).
std::vector<ServeModel> make_model_zoo(const std::vector<int64_t>& ms,
                                       const mosaic::SdnetConfig& base,
                                       std::uint64_t seed);

/// The named-integer configuration a zoo manifest entry must carry so
/// make_model_zoo_from_dir can rebuild the model: subdomain size plus
/// every SdnetConfig field. Kept next to the reader so the key sets
/// cannot drift apart.
std::vector<std::pair<std::string, std::int64_t>> zoo_entry_config(
    const mosaic::SdnetConfig& cfg, int64_t m);

/// Load a model zoo from an on-disk directory written by
/// `train_sdnet --zoo`: one ServeModel per manifest entry, in manifest
/// order (zoo_index = entry position). The manifest container and every
/// referenced parameter file are CRC-verified; any corruption, swap or
/// truncation throws std::runtime_error naming the file.
std::vector<ServeModel> make_model_zoo_from_dir(const std::string& dir);

class SolveServer {
 public:
  SolveServer(std::vector<ServeModel> zoo,
              ServeOptions opts = serve_options_from_env());

  /// Serve `requests` to completion (arrival_s offsets are relative to
  /// the start of the run). Returns results in request order. Worker
  /// threads > 1 pin their compute to one core each (SerialRegionGuard)
  /// so schedulers don't oversubscribe the OpenMP pool.
  std::vector<ServeResult> run(std::vector<SolveRequest> requests);

  const ServeStats& stats() const { return stats_; }
  const std::vector<ServeModel>& zoo() const { return zoo_; }

 private:
  std::vector<ServeModel> zoo_;
  ServeOptions opts_;
  ServeStats stats_;
};

}  // namespace mf::serve
