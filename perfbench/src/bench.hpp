// Shared plumbing of the perfbench workloads: run options, the raw result
// record handed to run.py, the in-memory span tracer, and small helpers.
//
// The binary measures and folds its spans into per-layer values; run.py
// turns the raw end-to-end samples into medians, percentiles and the
// failure fraction, so those statistics live in one tested place.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "linalg/grid2d.hpp"
#include "mosaic/sdnet.hpp"
#include "mosaic/subdomain_solver.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  // Chrome trace-event JSON, written by traced runs
};

/// One correctness gate's verdict.
struct Gate {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Raw measurements of one invocation. Times are wall-clock seconds.
struct Record {
  std::int64_t attempted = 0;  // timed ops (solves, epochs, requests)
  std::int64_t failed = 0;     // exception, non-finite output or failed gate
  std::vector<Gate> gates;
  std::vector<double> setup_s;  // one sample per repeated set-up
  /// One sample per op: a solve, an epoch, or (serve) one request's
  /// admission-to-completion latency.
  std::vector<double> op_s;
  std::int64_t ops = 0;     // ops completed in the timed loop
  double timed_wall_s = 0;  // summed wall time of the timed ops
  double peak_rss_mb = 0;   // process peak RSS when the timed loop ended
  double dataset_s = 0;     // input generation (before any set-up timing)
  // Traced runs only: per-op seconds of the plain entry point and of the
  // span-instrumented re-drive, measured in the same process.
  std::vector<double> untraced_op_s;
  std::vector<double> traced_op_s;
  std::map<std::string, double> layers;

  void gate(const std::string& name, bool ok, const std::string& detail);
  std::string to_json() const;
};

/// In-memory span recorder. Spans are kept until exit and written as
/// Chrome trace-event JSON. Disabled (untraced runs) it records nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    double t0 = 0, t1 = 0;  // seconds since the tracer epoch
    int parent = -1;        // enclosing span on the same thread
    int tid = 0;
    std::int64_t req = -1;              // serve: request id
    std::vector<std::int64_t> reqs;     // serve ticks: requests advanced
  };
  struct Totals {
    double total_s = 0;  // sum of durations
    double self_s = 0;   // sum of durations minus direct children
  };

  /// Set once at start-up, before any span.
  void set_enabled(bool on) { enabled_ = on; }
  int begin(const char* name, std::int64_t req = -1);
  void end(int id, std::vector<std::int64_t> reqs = {});
  /// Durations and self times folded by span name.
  std::map<std::string, Totals> fold() const;
  /// Durations (seconds) of every span named `name`, in start order.
  std::vector<double> durations(const std::string& name) const;
  void write_chrome(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};
Tracer& tracer();

/// RAII: spans begun on the calling thread while alive are not recorded
/// (warm-up work inside a traced run).
class SpanPause {
 public:
  SpanPause();
  ~SpanPause();
  SpanPause(const SpanPause&) = delete;
  SpanPause& operator=(const SpanPause&) = delete;
};

/// RAII span on the global tracer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::int64_t req = -1)
      : id_(tracer().begin(name, req)) {}
  ~ScopedSpan() { tracer().end(id_, std::move(reqs_)); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_reqs(std::vector<std::int64_t> reqs) { reqs_ = std::move(reqs); }

 private:
  int id_;
  std::vector<std::int64_t> reqs_;
};

double wall();
double peak_rss_mb();
/// FNV-1a over the grid's bytes: a bitwise fingerprint of a solution.
std::uint64_t grid_hash(const mf::linalg::Grid2D& g);
bool all_finite(const mf::linalg::Grid2D& g);
double max_abs_diff(const mf::linalg::Grid2D& a, const mf::linalg::Grid2D& b);

/// Computed (not measured) multiply-add FLOPs of one SDNet forward for one
/// boundary row with `queries` query points: convolutions, the boundary
/// and coordinate projections and the MLP GEMMs, 2 FLOPs per multiply-add.
double sdnet_row_flops(const mf::mosaic::SdnetConfig& cfg, std::int64_t queries);

/// Change in the process-wide compiled-inference cache counters.
mf::mosaic::InferCacheStats cache_delta(const mf::mosaic::InferCacheStats& a,
                                        const mf::mosaic::InferCacheStats& b);
/// Rows of one predict call served by a compiled plan, judged from the
/// cache counters that call moved: whole-batch hits replay every row, a
/// chunked hit replays all but its eager remainder, a miss replays none.
std::int64_t replayed_rows(const mf::mosaic::InferCacheStats& delta,
                           std::int64_t rows);
/// Adds the mosaic.cache.* layer metrics (per op) from a counter delta.
void add_cache_layers(Record& rec, const mf::mosaic::InferCacheStats& delta,
                      std::int64_t rows, std::int64_t replayed, double ops);

/// Box reference for the kernel layer, measured in the calling run:
/// ad.kernels.peak_gflops from an AVX2 FMA loop and ad.kernels.matmul_gflops
/// from ad::kernels::matmul at the SDNet's dominant GEMM shape
/// ([13,312 x 64] x [64 x 64]: a 1,024-subdomain phase of 13 cross queries).
void add_kernel_reference(Record& rec);

/// Middle element (upper middle for even sizes); 0 for an empty sample.
double median_of(std::vector<double> xs);

void run_solve(const RunOptions& opts, Record& rec);
void run_dist_solve(const RunOptions& opts, Record& rec);
void run_train(const RunOptions& opts, Record& rec);
void run_serve(const RunOptions& opts, Record& rec);

}  // namespace perfbench
