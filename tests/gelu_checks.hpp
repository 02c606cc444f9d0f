// GELU kernel conformance checks shared by test_kernels (f64) and
// test_precision (f32): accuracy against a long-double reference, chunk
// and tail invariance of every entry point, the special values, and
// bitwise agreement of the AVX2+FMA and AVX-512F lanes.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "ad/kernels.hpp"
#include "ad/scalar_fns.hpp"
#include "util/rng.hpp"

namespace gelu_checks {

namespace kernels = mf::ad::kernels;
namespace sfn = mf::ad::sfn;

/// gelu(x) = x / (1 + e^(-2u)), u = sqrt(2/pi) (x + 0.044715 x^3), in long
/// double: the identity avoids 1 + tanh(u)'s cancellation for x << 0.
inline long double reference(long double x) {
  const long double pi = 3.141592653589793238462643383279502884L;
  const long double u = std::sqrt(2.0L / pi) * (x + 0.044715L * x * x * x);
  return x / (1.0L + std::exp(-2.0L * u));
}

template <typename T>
bool same_bits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

template <typename T>
std::vector<T> random_inputs(int64_t n, unsigned seed) {
  mf::util::Rng rng(seed);
  std::vector<T> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = static_cast<T>(rng.uniform(-12.0, 12.0));
  return x;
}

template <typename T>
void expect_bitwise(const std::vector<T>& got, const std::vector<T>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(same_bits(got[i], want[i]))
        << what << " i=" << i << ": " << got[i] << " vs " << want[i];
  }
}

/// Max |gelu - reference| over a dense grid of [lo, hi], through the
/// public entry point (the widest tier the CPU has).
template <typename T>
double max_abs_error(double lo, double hi, int64_t points) {
  std::vector<T> x(static_cast<std::size_t>(points));
  for (int64_t i = 0; i < points; ++i) {
    const double f = static_cast<double>(i) / static_cast<double>(points - 1);
    x[static_cast<std::size_t>(i)] = static_cast<T>(lo + (hi - lo) * f);
  }
  std::vector<T> y(x.size());
  kernels::map_unary(x.data(), y.data(), points, sfn::Gelu{});
  long double worst = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const long double err =
        std::fabs(static_cast<long double>(y[i]) - reference(x[i]));
    worst = std::max(worst, err);
  }
  return static_cast<double>(worst);
}

/// One element at a time, through gelu_block_inplace.
template <typename T>
std::vector<T> per_element(const std::vector<T>& x) {
  std::vector<T> y = x;
  for (auto& v : y) kernels::gelu_block_inplace(&v, 1);
  return y;
}

/// Restores the kernel grain and thread count on every exit path.
class ThreadingGuard {
 public:
  ThreadingGuard()
      : grain_(kernels::grain()), threads_(kernels::max_threads()) {}
  ~ThreadingGuard() {
    kernels::set_grain(grain_);
    kernels::set_num_threads(threads_);
  }
  ThreadingGuard(const ThreadingGuard&) = delete;
  ThreadingGuard& operator=(const ThreadingGuard&) = delete;

 private:
  int64_t grain_;
  int threads_;
};

/// For n = 1..17 and 1,003: a whole-array call of map_unary (serial, and
/// on 4 threads with grain 1 so OpenMP splits it) and of
/// gelu_block_inplace equals per-element calls and odd chunk splits,
/// bitwise.
template <typename T>
void expect_chunk_invariant() {
  ThreadingGuard guard;
  const int64_t saved_grain = kernels::grain();
  std::vector<int64_t> sizes;
  for (int64_t n = 1; n <= 17; ++n) sizes.push_back(n);
  sizes.push_back(1003);
  for (const int64_t n : sizes) {
    const auto seed = 100 + static_cast<unsigned>(n);
    const std::vector<T> x = random_inputs<T>(n, seed);
    const std::vector<T> want = per_element(x);
    const std::string at = "n=" + std::to_string(n);

    std::vector<T> whole(x.size());
    kernels::set_grain(std::numeric_limits<int64_t>::max());
    kernels::map_unary(x.data(), whole.data(), n, sfn::Gelu{});
    expect_bitwise(whole, want, "map_unary serial " + at);
    kernels::set_grain(1);
    kernels::set_num_threads(4);
    kernels::map_unary(x.data(), whole.data(), n, sfn::Gelu{});
    expect_bitwise(whole, want, "map_unary threaded " + at);
    kernels::set_grain(saved_grain);

    std::vector<T> inplace = x;
    kernels::gelu_block_inplace(inplace.data(), n);
    expect_bitwise(inplace, want, "gelu_block_inplace " + at);

    // Odd splits: 1, 3, 5, 7, ... so chunks start at every lane offset.
    std::vector<T> split = x;
    std::vector<T> split_map(x.size());
    int64_t off = 0;
    for (int64_t c = 1; off < n; c += 2) {
      const int64_t len = std::min(c, n - off);
      const auto u = static_cast<std::size_t>(off);
      kernels::gelu_block_inplace(split.data() + u, len);
      kernels::map_unary(x.data() + u, split_map.data() + u, len, sfn::Gelu{});
      off += len;
    }
    expect_bitwise(split, want, "gelu_block_inplace odd chunks " + at);
    expect_bitwise(split_map, want, "map_unary odd chunks " + at);
  }
}

/// +inf -> +inf, -inf -> NaN, NaN -> NaN, ±0 -> ±0, x <= -30 -> -0 and a
/// huge finite x -> x, on both entry points.
template <typename T>
void expect_special_values(T huge) {
  const T inf = std::numeric_limits<T>::infinity();
  const std::vector<T> x = {inf, -inf, std::numeric_limits<T>::quiet_NaN(),
                            T(0), -T(0), T(-30), T(-100), huge, -huge};
  std::vector<T> mapped(x.size());
  kernels::map_unary(x.data(), mapped.data(), static_cast<int64_t>(x.size()),
                     sfn::Gelu{});
  std::vector<T> inplace = x;
  kernels::gelu_block_inplace(inplace.data(), static_cast<int64_t>(x.size()));
  for (const auto* y : {&mapped, &inplace}) {
    const auto& v = *y;
    EXPECT_EQ(v[0], inf);
    EXPECT_TRUE(std::isnan(v[1]));
    EXPECT_TRUE(std::isnan(v[2]));
    EXPECT_TRUE(same_bits(v[3], T(0)));
    EXPECT_TRUE(same_bits(v[4], -T(0)));
    EXPECT_TRUE(same_bits(v[5], -T(0)));
    EXPECT_TRUE(same_bits(v[6], -T(0)));
    EXPECT_EQ(v[7], huge);
    EXPECT_TRUE(same_bits(v[8], -T(0)));
  }
}

/// The AVX2+FMA and AVX-512F lanes give the same bits, tails included,
/// and the public entry point gives the bits of one of them.
template <typename T>
void expect_tiers_agree() {
  std::vector<int64_t> sizes;
  for (int64_t n = 1; n <= 17; ++n) sizes.push_back(n);
  sizes.push_back(1003);
  for (const int64_t n : sizes) {
    std::vector<T> x = random_inputs<T>(n, 200 + static_cast<unsigned>(n));
    x[0] = T(-25);  // an upper-clamp lane in every size
    std::vector<T> avx2(x.size()), avx512(x.size()), entry(x.size());
    if (!kernels::detail::gelu_avx2_fma(x.data(), avx2.data(), n)) {
      GTEST_SKIP() << "CPU lacks AVX2+FMA";
    }
    if (!kernels::detail::gelu_avx512f(x.data(), avx512.data(), n)) {
      GTEST_SKIP() << "CPU lacks AVX-512F";
    }
    const std::string at = "n=" + std::to_string(n);
    expect_bitwise(avx512, avx2, "AVX-512F vs AVX2+FMA " + at);
    kernels::map_unary(x.data(), entry.data(), n, sfn::Gelu{});
    expect_bitwise(entry, avx512, "entry point vs tiers " + at);
  }
}

}  // namespace gelu_checks
