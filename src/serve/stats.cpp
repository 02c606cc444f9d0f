#include "serve/stats.hpp"

#include <algorithm>
#include <cmath>

namespace mf::serve {

void SchedulerCounters::merge(const SchedulerCounters& o) {
  ticks += o.ticks;
  admitted += o.admitted;
  retired += o.retired;
  batches += o.batches;
  shared_batches += o.shared_batches;
  batched_rows += o.batched_rows;
  pad_rows += o.pad_rows;
  deadline_misses += o.deadline_misses;
  degraded_iterations += o.degraded_iterations;
  gather_seconds += o.gather_seconds;
  predict_seconds += o.predict_seconds;
  scatter_seconds += o.scatter_seconds;
  finalize_seconds += o.finalize_seconds;
}

void ServeStats::add_record(const RequestRecord& r) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(r);
}

void ServeStats::merge_counters(const SchedulerCounters& c) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.merge(c);
}

std::vector<RequestRecord> ServeStats::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

SchedulerCounters ServeStats::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double ServeStats::latency_percentile_ms(double p) const {
  std::vector<double> lat;
  {
    std::lock_guard<std::mutex> lock(mu_);
    lat.reserve(records_.size());
    for (const auto& r : records_) lat.push_back(r.latency_ms());
  }
  return percentile(std::move(lat), p);
}

}  // namespace mf::serve
