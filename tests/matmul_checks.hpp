// Matmul tier conformance checks shared by test_kernels (f64) and
// test_precision (f32): each FMA tier's micro-kernel against the naive
// std::fma loop over a generated shape sweep, and the public entry point
// serial vs threaded against the widest tier.
#pragma once

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "ad/kernels.hpp"
#include "gelu_checks.hpp"
#include "util/rng.hpp"

namespace matmul_checks {

namespace kernels = mf::ad::kernels;

/// n elements that end where an inaccessible page begins, so a kernel that
/// reads or writes one element past the end faults instead of passing.
template <typename T>
class GuardedBuffer {
 public:
  explicit GuardedBuffer(int64_t n) {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(T);
    span_ = (bytes + page - 1) / page * page + page;
    void* base = mmap(nullptr, span_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw std::bad_alloc();
    base_ = static_cast<char*>(base);
    if (mprotect(base_ + span_ - page, page, PROT_NONE) != 0) {
      munmap(base_, span_);
      throw std::bad_alloc();
    }
    data_ = reinterpret_cast<T*>(base_ + span_ - page - bytes);
    size_ = n;
  }
  ~GuardedBuffer() { munmap(base_, span_); }
  GuardedBuffer(const GuardedBuffer&) = delete;
  GuardedBuffer& operator=(const GuardedBuffer&) = delete;

  T* begin() { return data_; }
  T* end() { return data_ + size_; }

 private:
  char* base_ = nullptr;
  std::size_t span_ = 0;
  T* data_ = nullptr;
  int64_t size_ = 0;
};

/// Random operands for a sweep. A case of shape (m, k, n) takes the last
/// m·k, k·n, n and m·n elements of these pools, so each of its four
/// buffers ends at a guard page.
template <typename T>
struct Pools {
  Pools(int64_t mk, int64_t kn, int64_t n, int64_t mn, unsigned seed)
      : a(mk), b(kn), bias(n), out(mn) {
    mf::util::Rng rng(seed);
    for (GuardedBuffer<T>* buf : {&a, &b, &bias}) {
      for (T& v : *buf) v = static_cast<T>(rng.uniform(-1, 1));
    }
  }
  GuardedBuffer<T> a, b, bias, out;
};

/// One generated case over the pools.
template <typename T>
struct Case {
  Case(Pools<T>& p, int64_t m_, int64_t k_, int64_t n_, bool with_bias)
      : m(m_), k(k_), n(n_), a(p.a.end() - m * k), b(p.b.end() - k * n),
        bias(with_bias ? p.bias.end() - n : nullptr), out(p.out.end() - m * n) {}
  /// Fills out with NaN, so an element a kernel never writes shows.
  void clear() {
    std::fill(out, out + m * n, std::numeric_limits<T>::quiet_NaN());
  }
  std::string name() const {
    return "m=" + std::to_string(m) + " k=" + std::to_string(k) +
           " n=" + std::to_string(n) + (bias ? " bias" : " no bias");
  }

  int64_t m, k, n;
  const T* a;
  const T* b;
  const T* bias;
  T* out;
};

/// The naive loop: out[i][j] = bias[j] (or 0), then std::fma(a[i][kk],
/// b[kk][j], out[i][j]) for kk ascending. Compiled for FMA so std::fma is
/// one instruction instead of a libm call; it runs only after a tier (which
/// implies FMA) has.
template <typename T>
__attribute__((target("fma"))) std::vector<T> naive(const Case<T>& c) {
  std::vector<T> out(static_cast<std::size_t>(c.m * c.n));
  for (int64_t i = 0; i < c.m; ++i) {
    T* row = out.data() + i * c.n;
    for (int64_t j = 0; j < c.n; ++j) row[j] = c.bias ? c.bias[j] : T(0);
    for (int64_t kk = 0; kk < c.k; ++kk) {
      const T av = c.a[i * c.k + kk];
      const T* brow = c.b + kk * c.n;
      for (int64_t j = 0; j < c.n; ++j) row[j] = std::fma(av, brow[j], row[j]);
    }
  }
  return out;
}

/// Empty when out equals want bitwise, else the first mismatch.
template <typename T>
std::string first_mismatch(const T* out, const std::vector<T>& want) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::memcmp(&out[i], &want[i], sizeof(T)) != 0) {
      return "flat index " + std::to_string(i) + ": " +
             std::to_string(out[i]) + " vs " + std::to_string(want[i]);
    }
  }
  return "";
}

/// The rows, column counts and depths the sweeps run: every row remainder
/// of 8- and 4-row blocks, every column tail and strip of 4-, 8- and
/// 16-lane vectors, SDNet's width 64 (and one past it) and a b wider than
/// the scalar tier's 512-column tile.
inline std::vector<int64_t> sweep_rows() {
  std::vector<int64_t> v;
  for (int64_t m = 1; m <= 17; ++m) v.push_back(m);
  v.push_back(1003);
  return v;
}
inline std::vector<int64_t> sweep_cols() {
  std::vector<int64_t> v;
  for (int64_t n = 1; n <= 33; ++n) v.push_back(n);
  for (int64_t n : {64, 65, 513}) v.push_back(n);
  return v;
}
inline const std::vector<int64_t> kSweepDepths = {1, 2, 5, 64, 1024};

/// Runs the serial micro-kernel of the tier with `lanes` f64 lanes (8:
/// AVX-512F, 4: AVX2+FMA) on c; false when the CPU lacks it.
template <typename T>
bool run_tier(int lanes, Case<T>& c) {
  c.clear();
  return lanes == 8 ? kernels::detail::matmul_avx512f(c.a, c.b, c.bias, c.out,
                                                      c.m, c.k, c.n)
                    : kernels::detail::matmul_avx2_fma(c.a, c.b, c.bias, c.out,
                                                       c.m, c.k, c.n);
}

inline const char* tier_name(int lanes) {
  return lanes == 8 ? "AVX-512F" : "AVX2+FMA";
}

/// The serial micro-kernel of the tier with `lanes` f64 lanes against the
/// naive std::fma loop, and the other tier against it where the CPU has
/// both, over m × k × n × bias. m = 1,003 runs at k <= 64 only: its k =
/// 1,024 cases would cost more than the rest of the sweep together and
/// exercise no other code. Skips when the CPU lacks the tier, after
/// checking that it wrote nothing.
template <typename T>
void expect_tier_matches_naive(int lanes) {
  const int other = lanes == 8 ? 4 : 8;
  Pools<T> pools(1003 * 64, 1024 * 513, 513, 1003 * 513, 1000);
  Case<T> probe(pools, 3, 2, 5, true);
  if (!run_tier(lanes, probe)) {
    for (int64_t i = 0; i < 15; ++i) {
      ASSERT_TRUE(std::isnan(probe.out[i])) << "wrote output";
    }
    GTEST_SKIP() << "CPU lacks " << tier_name(lanes);
  }
  for (const int64_t m : sweep_rows()) {
    for (const int64_t k : kSweepDepths) {
      if (m > 17 && k > 64) continue;
      for (const int64_t n : sweep_cols()) {
        for (const bool with_bias : {false, true}) {
          Case<T> c(pools, m, k, n, with_bias);
          const std::vector<T> want = naive(c);
          ASSERT_TRUE(run_tier(lanes, c));
          std::string bad = first_mismatch(c.out, want);
          ASSERT_TRUE(bad.empty()) << tier_name(lanes) << " vs naive std::fma, "
                                   << c.name() << ", " << bad;
          if (!run_tier(other, c)) continue;
          bad = first_mismatch(c.out, want);
          ASSERT_TRUE(bad.empty()) << tier_name(other) << " vs "
                                   << tier_name(lanes) << ", " << c.name()
                                   << ", " << bad;
        }
      }
    }
  }
}

/// kernels::matmul at m = 1,003, serial and on 4 threads with grain 1 (so
/// OpenMP splits the rows at offsets that are not multiples of the row
/// block), gives the same bits, and those of the widest tier's serial
/// micro-kernel when the CPU has an FMA tier.
template <typename T>
void expect_entry_serial_threaded_and_tier_agree() {
  gelu_checks::ThreadingGuard guard;
  const int lanes = kernels::gelu_lanes();
  Pools<T> pools(1003 * 1024, 1024 * 513, 513, 1003 * 513, 5000);
  for (const int64_t k : kSweepDepths) {
    for (const int64_t n : sweep_cols()) {
      Case<T> c(pools, 1003, k, n, true);
      kernels::set_grain(std::numeric_limits<int64_t>::max());
      c.clear();
      kernels::matmul(c.a, c.b, c.bias, c.out, c.m, k, n);
      const std::vector<T> serial(c.out, c.out + c.m * n);
      kernels::set_grain(1);
      kernels::set_num_threads(4);
      c.clear();
      kernels::matmul(c.a, c.b, c.bias, c.out, c.m, k, n);
      std::string bad = first_mismatch(c.out, serial);
      ASSERT_TRUE(bad.empty()) << "threaded vs serial, " << c.name() << ", "
                               << bad;
      if (lanes == 1) continue;
      ASSERT_TRUE(run_tier(lanes, c));
      bad = first_mismatch(c.out, serial);
      ASSERT_TRUE(bad.empty()) << tier_name(lanes) << " vs entry, "
                               << c.name() << ", " << bad;
    }
  }
}

}  // namespace matmul_checks
