// Serve-side observability: per-request latency records and scheduler
// batching counters.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace mf::serve {

/// Completed-request record (times in seconds on the server clock).
struct RequestRecord {
  int64_t id = 0;
  int zoo_index = 0;
  int64_t iterations = 0;
  bool converged = false;
  bool deadline_missed = false;
  int64_t degraded_iterations = 0;  // iterations run past the deadline
  double arrival_s = 0, admit_s = 0, finish_s = 0;

  double latency_ms() const { return (finish_s - arrival_s) * 1e3; }
};

/// Per-scheduler batching counters (merged across workers by ServeStats).
struct SchedulerCounters {
  std::uint64_t ticks = 0;
  std::uint64_t admitted = 0;
  std::uint64_t retired = 0;
  std::uint64_t batches = 0;         // solver dispatches from phase updates
  std::uint64_t shared_batches = 0;  // dispatches mixing >= 2 requests
  std::uint64_t batched_rows = 0;    // subdomain rows through those batches
  std::uint64_t pad_rows = 0;        // zero rows appended to reach pad_to
  std::uint64_t deadline_misses = 0;
  // Same degraded-mode accounting as the distributed predictor's
  // degraded_iterations (PR 8): progress made outside the SLO, not lost.
  std::uint64_t degraded_iterations = 0;
  // Where tick time goes (per-worker wall seconds, summed on merge).
  double gather_seconds = 0;
  double predict_seconds = 0;
  double scatter_seconds = 0;
  double finalize_seconds = 0;

  void merge(const SchedulerCounters& o);
};

/// Thread-safe sink for request records + counters.
class ServeStats {
 public:
  void add_record(const RequestRecord& r);
  void merge_counters(const SchedulerCounters& c);

  std::vector<RequestRecord> records() const;
  SchedulerCounters counters() const;

  /// Latency percentile in milliseconds (p in [0, 100]); 0 when empty.
  double latency_percentile_ms(double p) const;

 private:
  mutable std::mutex mu_;
  std::vector<RequestRecord> records_;
  SchedulerCounters counters_;
};

/// p-th percentile (nearest-rank) of a sample; 0 on empty input.
double percentile(std::vector<double> xs, double p);

}  // namespace mf::serve
