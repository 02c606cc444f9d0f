// Matmul tier conformance checks shared by test_kernels (f64) and
// test_precision (f32): each operand form of each tier's serial kernel
// against its naive loop (std::fma on the FMA tiers, acc + a·b on the
// scalar tier) over explicitly transposed copies, on a generated shape
// sweep and a 0·inf case, and the public entry point serial vs threaded
// against the widest tier.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "ad/kernels.hpp"
#include "elementwise_checks.hpp"
#include "util/rng.hpp"

namespace matmul_checks {

namespace kernels = mf::ad::kernels;
using elementwise_checks::GuardedBuffer;
using Form = kernels::MatmulForm;

inline constexpr Form kForms[] = {Form::kNN, Form::kTN, Form::kNT};

inline const char* form_name(Form f) {
  return f == Form::kNN ? "NN" : f == Form::kTN ? "TN" : "NT";
}

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

/// One generated case over the pools. The form's operands take the same
/// element counts as NN's (a is m·k, b is k·n) in their stored layouts:
/// TN's a is k × m, NT's b is n × k.
template <typename T>
struct Case {
  Case(Pools<T>& p, Form form_, int64_t m_, int64_t k_, int64_t n_,
       bool with_bias)
      : form(form_), m(m_), k(k_), n(n_), a(p.a.end() - m * k),
        b(p.b.end() - k * n), bias(with_bias ? p.bias.end() - n : nullptr),
        out(p.out.end() - m * n) {}
  /// Fills out with NaN, so an element a kernel never writes shows.
  void clear() {
    std::fill(out, out + m * n, std::numeric_limits<T>::quiet_NaN());
  }
  std::string name() const {
    return std::string(form_name(form)) + " m=" + std::to_string(m) +
           " k=" + std::to_string(k) + " n=" + std::to_string(n) +
           (bias ? " bias" : " no bias");
  }

  Form form;
  int64_t m, k, n;
  const T* a;
  const T* b;
  const T* bias;
  T* out;
};

/// The rows × cols matrix whose element (r, c) is src[c·rows + r].
template <typename T>
std::vector<T> transposed(const T* src, int64_t rows, int64_t cols) {
  std::vector<T> t(static_cast<std::size_t>(rows * cols));
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) t[r * cols + c] = src[c * rows + r];
  }
  return t;
}

/// The naive loop of the tier with `lanes` f64 lanes over explicitly
/// transposed copies of the form's operands: out[i][j] = bias[j] (or 0),
/// then, for kk ascending, std::fma(a[i][kk], b[kk][j], out[i][j]) on the
/// FMA tiers and out[i][j] + a[i][kk]·b[kk][j] on the scalar tier.
template <typename T, typename Acc>
std::vector<T> naive_loop(const Case<T>& c, Acc acc) {
  const std::vector<T> a = c.form == Form::kTN
                               ? transposed(c.a, c.m, c.k)
                               : std::vector<T>(c.a, c.a + c.m * c.k);
  const std::vector<T> b = c.form == Form::kNT
                               ? transposed(c.b, c.k, c.n)
                               : std::vector<T>(c.b, c.b + c.k * c.n);
  std::vector<T> out(static_cast<std::size_t>(c.m * c.n));
  for (int64_t i = 0; i < c.m; ++i) {
    T* row = out.data() + i * c.n;
    for (int64_t j = 0; j < c.n; ++j) row[j] = c.bias ? c.bias[j] : T(0);
    for (int64_t kk = 0; kk < c.k; ++kk) {
      const T av = a[i * c.k + kk];
      const T* brow = b.data() + kk * c.n;
      for (int64_t j = 0; j < c.n; ++j) row[j] = acc(av, brow[j], row[j]);
    }
  }
  return out;
}

/// The FMA tiers' naive loop, compiled for FMA so std::fma is one
/// instruction instead of a libm call; it runs only after a tier (which
/// implies FMA) has.
template <typename T>
__attribute__((target("fma"))) std::vector<T> naive_fma(const Case<T>& c) {
  return naive_loop(c, [](T x, T y, T z) { return std::fma(x, y, z); });
}

template <typename T>
std::vector<T> naive(int lanes, const Case<T>& c) {
  if (lanes > 1) return naive_fma(c);
  return naive_loop(c, [](T x, T y, T z) { return z + x * y; });
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

/// Runs the serial kernel of the tier with `lanes` f64 lanes (8:
/// AVX-512F, 4: AVX2+FMA, 1: scalar) on c; false when the CPU lacks it.
template <typename T>
bool run_tier(int lanes, Case<T>& c) {
  c.clear();
  return kernels::detail::matmul_on_tier(lanes, c.form, c.a, c.b, c.bias,
                                         c.out, c.m, c.k, c.n);
}

/// Runs the public (serial or threaded) entry on c.
template <typename T>
void run_entry(Case<T>& c) {
  c.clear();
  kernels::matmul(c.a, c.b, c.bias, c.out, c.m, c.k, c.n, c.form);
}

inline const char* tier_name(int lanes) {
  return lanes == 8 ? "AVX-512F" : lanes == 4 ? "AVX2+FMA" : "scalar";
}

/// Each form of the serial kernel of the tier with `lanes` f64 lanes
/// against its naive loop, and the other FMA tier against it where the CPU
/// has both, over m × k × n, and × bias on NN (the one form that takes a
/// bias). m = 1,003 runs at k <= 64 only: its k = 1,024 cases would cost
/// more than the rest of the sweep together and exercise no other code.
/// Then each of the shapes below runs once more per form with a(0, 0) = 0
/// and b(0, 0) = +inf (the first stored element of each, in any form),
/// whose product is NaN in every naive loop: a kernel that skips zero
/// a-elements leaves out[0][0] finite. Its rows cover the row block and
/// the remainder rows, its columns whole and partial strips, and its k·n
/// both sides of the scalar tier's tiling gate. Skips when the CPU lacks
/// the tier, after checking that it wrote nothing.
template <typename T>
void expect_tier_matches_naive(int lanes) {
  const int other = lanes == 8 ? 4 : lanes == 4 ? 8 : 0;
  Pools<T> pools(1003 * 64, 1024 * 513, 513, 1003 * 513, 1000);
  Case<T> probe(pools, Form::kNN, 3, 2, 5, true);
  if (!run_tier(lanes, probe)) {
    for (int64_t i = 0; i < 15; ++i) {
      ASSERT_TRUE(std::isnan(probe.out[i])) << "wrote output";
    }
    GTEST_SKIP() << "CPU lacks " << tier_name(lanes);
  }
  auto check = [&](Case<T>& c, const std::string& what) {
    const std::vector<T> want = naive(lanes, c);
    ASSERT_TRUE(run_tier(lanes, c));
    std::string bad = first_mismatch(c.out, want);
    ASSERT_TRUE(bad.empty()) << tier_name(lanes) << " vs naive loop, "
                             << c.name() << what << ", " << bad;
    if (other == 0 || !run_tier(other, c)) return;
    bad = first_mismatch(c.out, want);
    ASSERT_TRUE(bad.empty()) << tier_name(other) << " vs " << tier_name(lanes)
                             << ", " << c.name() << what << ", " << bad;
  };
  for (const Form form : kForms) {
    for (const int64_t m : sweep_rows()) {
      for (const int64_t k : kSweepDepths) {
        if (m > 17 && k > 64) continue;
        for (const int64_t n : sweep_cols()) {
          for (const bool with_bias : {false, true}) {
            if (with_bias && form != Form::kNN) continue;
            Case<T> c(pools, form, m, k, n, with_bias);
            check(c, "");
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
    for (const int64_t m : {1, 3, 4, 9}) {
      for (const int64_t k : {1, 5, 64, 1024}) {
        for (const int64_t n : {1, 7, 16, 513}) {
          Case<T> c(pools, form, m, k, n, form == Form::kNN);
          T* a = pools.a.end() - m * k;
          T* b = pools.b.end() - k * n;
          const T a0 = a[0], b0 = b[0];
          a[0] = 0;
          b[0] = std::numeric_limits<T>::infinity();
          check(c, " 0*inf");
          if (::testing::Test::HasFatalFailure()) return;
          a[0] = a0;
          b[0] = b0;
        }
      }
    }
  }
}

/// Each form of kernels::matmul at m = 1,003, serial and on 4 threads
/// with grain 1 (so OpenMP splits the rows at offsets that are not
/// multiples of the row block, and TN's at columns of a), gives the same
/// bits, and those of the widest tier's serial kernel. A bias with a
/// transposed form is refused.
template <typename T>
void expect_entry_serial_threaded_and_tier_agree() {
  elementwise_checks::KernelConfigGuard guard;
  const int lanes = kernels::gelu_lanes();
  Pools<T> pools(1003 * 1024, 1024 * 513, 513, 1003 * 513, 5000);
  for (const Form form : kForms) {
    for (const int64_t k : kSweepDepths) {
      for (const int64_t n : sweep_cols()) {
        Case<T> c(pools, form, 1003, k, n, form == Form::kNN);
        guard.serial();
        run_entry(c);
        const std::vector<T> serial(c.out, c.out + c.m * n);
        guard.threaded();
        run_entry(c);
        std::string bad = first_mismatch(c.out, serial);
        ASSERT_TRUE(bad.empty()) << "threaded vs serial, " << c.name() << ", "
                                 << bad;
        ASSERT_TRUE(run_tier(lanes, c));
        bad = first_mismatch(c.out, serial);
        ASSERT_TRUE(bad.empty()) << tier_name(lanes) << " vs entry, "
                                 << c.name() << ", " << bad;
      }
    }
    if (form == Form::kNN) continue;
    Case<T> c(pools, form, 3, 2, 5, true);
    EXPECT_THROW(run_entry(c), std::invalid_argument) << form_name(form);
  }
}

}  // namespace matmul_checks
