#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PERFBENCH_X86 1
#endif

#include "ad/kernels.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ",";
    out += json_number(xs[i]);
  }
  return out + "]";
}

int thread_index() {
  static std::atomic<int> next{0};
  thread_local int id = next++;
  return id;
}

// Open spans of the calling thread, innermost last.
thread_local std::vector<int> t_open;
thread_local int t_paused = 0;

const double kEpoch = std::chrono::duration<double>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count();

}  // namespace

double wall() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::uint64_t grid_hash(const mf::linalg::Grid2D& g) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* b = reinterpret_cast<const unsigned char*>(g.data());
  const std::size_t n = static_cast<std::size_t>(g.numel()) * sizeof(double);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ULL;
  }
  return h;
}

bool all_finite(const mf::linalg::Grid2D& g) {
  return std::all_of(g.data(), g.data() + g.numel(),
                     [](double v) { return std::isfinite(v); });
}

double max_abs_diff(const mf::linalg::Grid2D& a, const mf::linalg::Grid2D& b) {
  if (a.nx() != b.nx() || a.ny() != b.ny()) return INFINITY;
  double d = 0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    d = std::max(d, std::abs(a.data()[i] - b.data()[i]));
  }
  return d;
}

double median_of(std::vector<double> xs) {
  if (xs.empty()) return 0;
  auto mid = xs.begin() + static_cast<std::ptrdiff_t>(xs.size() / 2);
  std::nth_element(xs.begin(), mid, xs.end());
  return *mid;
}

void Record::gate(const std::string& name, bool ok, const std::string& detail) {
  gates.push_back({name, ok, detail});
}

std::string Record::to_json() const {
  std::ostringstream o;
  o << "{\"attempted\":" << attempted << ",\"failed\":" << failed
    << ",\"gates\":[";
  for (std::size_t i = 0; i < gates.size(); ++i) {
    if (i) o << ",";
    o << "{\"name\":" << json_string(gates[i].name)
      << ",\"ok\":" << (gates[i].ok ? "true" : "false")
      << ",\"detail\":" << json_string(gates[i].detail) << "}";
  }
  o << "],\"setup_s\":" << json_array(setup_s)
    << ",\"op_s\":" << json_array(op_s) << ",\"ops\":" << ops
    << ",\"timed_wall_s\":" << json_number(timed_wall_s)

    << ",\"peak_rss_mb\":" << json_number(peak_rss_mb)
    << ",\"dataset_s\":" << json_number(dataset_s)
    << ",\"untraced_op_s\":" << json_array(untraced_op_s)
    << ",\"traced_op_s\":" << json_array(traced_op_s) << ",\"layers\":{";
  bool first = true;
  for (const auto& [name, value] : layers) {
    if (!first) o << ",";
    first = false;
    o << json_string(name) << ":" << json_number(value);
  }
  o << "}}";
  return o.str();
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

SpanPause::SpanPause() { ++t_paused; }
SpanPause::~SpanPause() { --t_paused; }

int Tracer::begin(const char* name, std::int64_t req) {
  if (!enabled_ || t_paused > 0) return -1;
  Span s;
  s.name = name;
  s.t0 = wall() - kEpoch;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.tid = thread_index();
  s.req = req;
  int id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
  }
  t_open.push_back(id);
  return id;
}

void Tracer::end(int id, std::vector<std::int64_t> reqs) {
  if (id < 0) return;
  const double t1 = wall() - kEpoch;
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.t1 = t1;
  s.reqs = std::move(reqs);
}

std::map<std::string, Tracer::Totals> Tracer::fold() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    const double d = spans_[i].t1 - spans_[i].t0;
    t.total_s += d;
    t.self_s += d - child_s[i];
  }
  return out;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.t1 - s.t0);
  }
  return out;
}

void Tracer::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i) f << ",\n";
    f << "{\"name\":" << json_string(s.name)
      << ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid;
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f", s.t0 * 1e6,
                  (s.t1 - s.t0) * 1e6);
    f << buf << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent;
    if (s.req >= 0) f << ",\"req\":" << s.req;
    if (!s.reqs.empty()) {
      f << ",\"reqs\":[";
      for (std::size_t k = 0; k < s.reqs.size(); ++k) {
        if (k) f << ",";
        f << s.reqs[k];
      }
      f << "]";
    }
    f << "}}";
  }
  f << "]}\n";
}

double sdnet_row_flops(const mf::mosaic::SdnetConfig& cfg, std::int64_t queries) {
  const double L = static_cast<double>(cfg.boundary_size);
  const double d = static_cast<double>(cfg.hidden_width);
  const double q = static_cast<double>(queries);
  double per_row = 0;
  double g_features = L;
  if (cfg.use_conv_encoder) {
    const double C = static_cast<double>(cfg.conv_channels);
    const double K = static_cast<double>(cfg.conv_kernel);
    for (std::int64_t i = 0; i < cfg.conv_depth; ++i) {
      per_row += 2 * L * (i == 0 ? 1 : C) * C * K;
    }
    g_features = L * C;
  }
  per_row += 2 * g_features * d + q * 2 * 2 * d;  // boundary + coordinate proj
  const double hidden = static_cast<double>(cfg.mlp_depth - 1);
  per_row += q * (hidden * 2 * d * d + 2 * d);  // MLP: depth-1 d->d, then d->1
  return per_row;
}

mf::mosaic::InferCacheStats cache_delta(const mf::mosaic::InferCacheStats& a,
                                        const mf::mosaic::InferCacheStats& b) {
  mf::mosaic::InferCacheStats d;
  d.exact_hits = b.exact_hits - a.exact_hits;
  d.widened_hits = b.widened_hits - a.widened_hits;
  d.chunked_hits = b.chunked_hits - a.chunked_hits;
  d.widen_remainder_rows = b.widen_remainder_rows - a.widen_remainder_rows;
  d.misses = b.misses - a.misses;
  d.captures = b.captures - a.captures;
  d.evictions = b.evictions - a.evictions;
  d.retired = b.retired - a.retired;
  return d;
}

std::int64_t replayed_rows(const mf::mosaic::InferCacheStats& delta,
                           std::int64_t rows) {
  if (delta.misses > 0) return 0;
  if (delta.chunked_hits > 0) {
    return rows - static_cast<std::int64_t>(delta.widen_remainder_rows);
  }
  return delta.exact_hits + delta.widened_hits > 0 ? rows : 0;
}

void add_cache_layers(Record& rec, const mf::mosaic::InferCacheStats& delta,
                      std::int64_t rows, std::int64_t replayed, double ops) {
  auto per_op = [&](std::uint64_t v) { return static_cast<double>(v) / ops; };
  rec.layers["mosaic.rows"] = static_cast<double>(rows) / ops;
  rec.layers["mosaic.cache.exact_hits"] = per_op(delta.exact_hits);
  rec.layers["mosaic.cache.widened_hits"] = per_op(delta.widened_hits);
  rec.layers["mosaic.cache.chunked_hits"] = per_op(delta.chunked_hits);
  rec.layers["mosaic.cache.remainder_rows"] = per_op(delta.widen_remainder_rows);
  rec.layers["mosaic.cache.misses"] = per_op(delta.misses);
  rec.layers["mosaic.cache.captures"] = per_op(delta.captures);
  rec.layers["mosaic.cache.evictions"] = per_op(delta.evictions);
  rec.layers["mosaic.cache.replay_row_frac"] =
      rows > 0 ? static_cast<double>(replayed) / static_cast<double>(rows) : 0;
}

namespace {

constexpr int kFmaChains = 12;  // independent chains: 2 FMA ports x 4-6 cycles

#ifdef PERFBENCH_X86
// Twelve named accumulators keep every chain in a register; an array of
// vectors may be spilled to memory at -O2, which measures store latency.
__attribute__((target("avx2,fma"))) double fma_block_avx2(std::int64_t iters) {
  const __m256d mul = _mm256_set1_pd(0.999999);
  const __m256d add = _mm256_set1_pd(1e-6);
  __m256d a0 = _mm256_set1_pd(1.00), a1 = _mm256_set1_pd(1.01), a2 = _mm256_set1_pd(1.02);
  __m256d a3 = _mm256_set1_pd(1.03), a4 = _mm256_set1_pd(1.04), a5 = _mm256_set1_pd(1.05);
  __m256d a6 = _mm256_set1_pd(1.06), a7 = _mm256_set1_pd(1.07), a8 = _mm256_set1_pd(1.08);
  __m256d a9 = _mm256_set1_pd(1.09), a10 = _mm256_set1_pd(1.10), a11 = _mm256_set1_pd(1.11);
  for (std::int64_t it = 0; it < iters; ++it) {
    a0 = _mm256_fmadd_pd(a0, mul, add);
    a1 = _mm256_fmadd_pd(a1, mul, add);
    a2 = _mm256_fmadd_pd(a2, mul, add);
    a3 = _mm256_fmadd_pd(a3, mul, add);
    a4 = _mm256_fmadd_pd(a4, mul, add);
    a5 = _mm256_fmadd_pd(a5, mul, add);
    a6 = _mm256_fmadd_pd(a6, mul, add);
    a7 = _mm256_fmadd_pd(a7, mul, add);
    a8 = _mm256_fmadd_pd(a8, mul, add);
    a9 = _mm256_fmadd_pd(a9, mul, add);
    a10 = _mm256_fmadd_pd(a10, mul, add);
    a11 = _mm256_fmadd_pd(a11, mul, add);
  }
  const __m256d s = _mm256_add_pd(
      _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(a0, a1), _mm256_add_pd(a2, a3)),
                    _mm256_add_pd(_mm256_add_pd(a4, a5), _mm256_add_pd(a6, a7))),
      _mm256_add_pd(_mm256_add_pd(a8, a9), _mm256_add_pd(a10, a11)));
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, s);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}
#endif

// Portable stand-in where AVX2/FMA is missing: scalar chains, 2 FLOPs each.
double fma_block_scalar(std::int64_t iters) {
  double acc[kFmaChains];
  for (int i = 0; i < kFmaChains; ++i) acc[i] = 1.0 + 0.01 * i;
  for (std::int64_t it = 0; it < iters; ++it) {
    for (double& a : acc) a = std::fma(a, 0.999999, 1e-6);
  }
  double sum = 0;
  for (double a : acc) sum += a;
  return sum;
}

// Best of several short blocks: a peak is the rate the core reaches when
// nothing else holds it back.
template <typename F>
double best_rate(F&& block, double flops_per_block, int blocks) {
  double best = 0;
  for (int b = 0; b < blocks; ++b) {
    const double t0 = wall();
    block();
    best = std::max(best, flops_per_block / (wall() - t0));
  }
  return best;
}

volatile double g_sink = 0;

bool have_avx2_fma() {
#ifdef PERFBENCH_X86
  static const bool yes = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return yes;
#else
  return false;
#endif
}

double fma_peak_gflops() {
  constexpr std::int64_t kIters = 4'000'000;
#ifdef PERFBENCH_X86
  if (have_avx2_fma()) {
    const double flops = static_cast<double>(kIters) * kFmaChains * 4 * 2;
    return best_rate([&] { g_sink = g_sink + fma_block_avx2(kIters); }, flops, 7) / 1e9;
  }
#endif
  const double flops = static_cast<double>(kIters) * kFmaChains * 2;
  return best_rate([&] { g_sink = g_sink + fma_block_scalar(kIters); }, flops, 7) / 1e9;
}

double matmul_gflops(std::int64_t m, std::int64_t k, std::int64_t n) {
  mf::util::Rng rng(7);
  std::vector<double> a(static_cast<std::size_t>(m * k));
  std::vector<double> b(static_cast<std::size_t>(k * n));
  std::vector<double> bias(static_cast<std::size_t>(n));
  std::vector<double> out(static_cast<std::size_t>(m * n));
  for (double& v : a) v = rng.uniform(-1, 1);
  for (double& v : b) v = rng.uniform(-1, 1);
  for (double& v : bias) v = rng.uniform(-1, 1);
  constexpr int kCalls = 8;
  auto block = [&] {
    for (int c = 0; c < kCalls; ++c) {
      mf::ad::kernels::matmul(a.data(), b.data(), bias.data(), out.data(), m, k, n);
    }
    g_sink = g_sink + out[0];
  };
  block();  // first touch
  const double flops = 2.0 * static_cast<double>(m * k * n) * kCalls;
  return best_rate(block, flops, 7) / 1e9;
}

}  // namespace

void add_kernel_reference(Record& rec) {
  rec.layers["ad.kernels.peak_gflops"] = fma_peak_gflops();
  rec.layers["ad.kernels.matmul_gflops"] = matmul_gflops(1024 * 13, 64, 64);
}

}  // namespace perfbench
