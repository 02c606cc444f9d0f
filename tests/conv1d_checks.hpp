// conv1d kernel conformance checks shared by test_kernels (f64) and
// test_precision (f32):
//  * each kernel (forward, grad_input, grad_weight) on each tier
//    (kernels::detail::conv1d_*_on_tier: 1 scalar, 4 AVX2+FMA, 8
//    AVX-512F) against the direct loop below, bitwise, over a generated
//    B × Cin × Cout × K × padding × L grid whose operands end at guard
//    pages; the public entries, serial and threaded, on part of it;
//  * the border rule: an infinite factor that meets the zero padding
//    gives NaN on every tier;
//  * each gradient multiplies zero gradients in (0·inf is NaN).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "ad/kernels.hpp"
#include "elementwise_checks.hpp"
#include "util/rng.hpp"

namespace conv1d_checks {

namespace kernels = mf::ad::kernels;
using elementwise_checks::GuardedBuffer;
using elementwise_checks::KernelConfigGuard;
using elementwise_checks::kTiers;

/// input [B, Cin, L], weight [Cout, Cin, K], out [B, Cout, lout()].
struct ConvShape {
  int64_t B, Cin, L, Cout, K, P;
  int64_t lout() const { return L + 2 * P - K + 1; }
  std::string name() const {
    return "B=" + std::to_string(B) + " Cin=" + std::to_string(Cin) +
           " L=" + std::to_string(L) + " Cout=" + std::to_string(Cout) +
           " K=" + std::to_string(K) + " padding=" + std::to_string(P);
  }
};

// ---- the direct loops: the reference every tier must reproduce ----

/// out[b][co][t] = bias[co] (or +0), then per input channel ci a sum that
/// starts at +0 and takes w·x over the in-range taps k ascending is added.
template <typename T>
void direct_forward(const ConvShape& s, const T* x, const T* w, const T* bias,
                    T* out) {
  const int64_t Lout = s.lout();
  for (int64_t b = 0; b < s.B; ++b) {
    for (int64_t co = 0; co < s.Cout; ++co) {
      T* orow = out + (b * s.Cout + co) * Lout;
      for (int64_t t = 0; t < Lout; ++t) orow[t] = bias ? bias[co] : T(0);
      for (int64_t ci = 0; ci < s.Cin; ++ci) {
        const T* xrow = x + (b * s.Cin + ci) * s.L;
        const T* wrow = w + (co * s.Cin + ci) * s.K;
        for (int64_t t = 0; t < Lout; ++t) {
          T acc = 0;
          const int64_t k0 = std::max<int64_t>(0, s.P - t);
          const int64_t k1 = std::min<int64_t>(s.K, s.L + s.P - t);
          for (int64_t k = k0; k < k1; ++k) acc += wrow[k] * xrow[t + k - s.P];
          orow[t] += acc;
        }
      }
    }
  }
}

/// gi (zeroed by the caller) += g·w over (co, t) ascending, in-range taps.
template <typename T>
void direct_grad_input(const ConvShape& s, const T* g, const T* w, T* gi) {
  const int64_t Lout = s.lout();
  for (int64_t b = 0; b < s.B; ++b) {
    for (int64_t co = 0; co < s.Cout; ++co) {
      for (int64_t t = 0; t < Lout; ++t) {
        const T gv = g[(b * s.Cout + co) * Lout + t];
        for (int64_t ci = 0; ci < s.Cin; ++ci) {
          for (int64_t k = 0; k < s.K; ++k) {
            const int64_t src = t + k - s.P;
            if (src < 0 || src >= s.L) continue;
            gi[(b * s.Cin + ci) * s.L + src] +=
                gv * w[(co * s.Cin + ci) * s.K + k];
          }
        }
      }
    }
  }
}

/// gw (zeroed by the caller) += g·x over (b, t) ascending, in-range taps.
template <typename T>
void direct_grad_weight(const ConvShape& s, const T* g, const T* x, T* gw) {
  const int64_t Lout = s.lout();
  for (int64_t co = 0; co < s.Cout; ++co) {
    for (int64_t b = 0; b < s.B; ++b) {
      for (int64_t t = 0; t < Lout; ++t) {
        const T gv = g[(b * s.Cout + co) * Lout + t];
        for (int64_t ci = 0; ci < s.Cin; ++ci) {
          for (int64_t k = 0; k < s.K; ++k) {
            const int64_t src = t + k - s.P;
            if (src < 0 || src >= s.L) continue;
            gw[(co * s.Cin + ci) * s.K + k] +=
                gv * x[(b * s.Cin + ci) * s.L + src];
          }
        }
      }
    }
  }
}

// ---- the kernels under test ----

enum class Pass { kForward, kGradInput, kGradWeight };
inline constexpr Pass kPasses[] = {Pass::kForward, Pass::kGradInput,
                                   Pass::kGradWeight};

inline const char* pass_name(Pass p) {
  return p == Pass::kForward     ? "forward"
         : p == Pass::kGradInput ? "grad_input"
                                 : "grad_weight";
}

/// The operands of every pass: x [B, Cin, L], w [Cout, Cin, K], bias
/// [Cout] and g [B, Cout, Lout] (grad_out), each ending at a guard page.
template <typename T>
struct Operands {
  const T* x;
  const T* w;
  const T* bias;
  const T* g;
};

/// Elements of the pass's output.
inline int64_t out_size(Pass p, const ConvShape& s) {
  switch (p) {
    case Pass::kForward: return s.B * s.Cout * s.lout();
    case Pass::kGradInput: return s.B * s.Cin * s.L;
    case Pass::kGradWeight: return s.Cout * s.Cin * s.K;
  }
  return 0;
}

/// The direct loop of pass p into a fresh vector.
template <typename T>
std::vector<T> direct(Pass p, const ConvShape& s, const Operands<T>& o) {
  std::vector<T> out(static_cast<std::size_t>(out_size(p, s)), T(0));
  switch (p) {
    case Pass::kForward: direct_forward(s, o.x, o.w, o.bias, out.data()); break;
    case Pass::kGradInput: direct_grad_input(s, o.g, o.w, out.data()); break;
    case Pass::kGradWeight: direct_grad_weight(s, o.g, o.x, out.data()); break;
  }
  return out;
}

/// Fills out as the pass expects it (NaN for the forward pass, so an
/// element it never writes shows; +0 for the gradients, which add into
/// it), then runs the serial kernel of the tier with `lanes` lanes, or the
/// public entry when lanes is 0. False when the CPU lacks the tier.
template <typename T>
bool run(int lanes, Pass p, const ConvShape& s, const Operands<T>& o, T* out) {
  std::fill(out, out + out_size(p, s),
            p == Pass::kForward ? std::numeric_limits<T>::quiet_NaN() : T(0));
  namespace d = kernels::detail;
  const auto [B, Cin, L, Cout, K, P] = s;
  switch (p) {
    case Pass::kForward:
      if (lanes) {
        return d::conv1d_forward_on_tier(lanes, o.x, o.w, o.bias, out, B, Cin,
                                         L, Cout, K, P);
      }
      kernels::conv1d_forward(o.x, o.w, o.bias, out, B, Cin, L, Cout, K, P);
      return true;
    case Pass::kGradInput:
      if (lanes) {
        return d::conv1d_grad_input_on_tier(lanes, o.g, o.w, out, B, Cin, L,
                                            Cout, K, P);
      }
      kernels::conv1d_grad_input(o.g, o.w, out, B, Cin, L, Cout, K, P);
      return true;
    case Pass::kGradWeight:
      if (lanes) {
        return d::conv1d_grad_weight_on_tier(lanes, o.g, o.x, out, B, Cin, L,
                                             Cout, K, P);
      }
      kernels::conv1d_grad_weight(o.g, o.x, out, B, Cin, L, Cout, K, P);
      return true;
  }
  return false;
}

inline const char* tier_name(int lanes) {
  return lanes == 8 ? "AVX-512F" : lanes == 4 ? "AVX2+FMA" : "scalar";
}

/// The grid: B in {1, 2, 17, 30}, Cin and Cout in {1, 2, 3}, K in {1, 3,
/// 5}, padding in {0, K/2, K − 1}, and every L from the shortest with
/// Lout >= 1 up to 33 (each tail of the 4-, 8- and 16-lane vectors around
/// serve's 16, 18 and 32).
inline std::vector<ConvShape> grid() {
  std::vector<ConvShape> shapes;
  for (const int64_t K : {1, 3, 5}) {
    std::vector<int64_t> pads = {0, K / 2, K - 1};
    pads.erase(std::unique(pads.begin(), pads.end()), pads.end());
    for (const int64_t P : pads) {
      for (int64_t L = std::max<int64_t>(1, K - 2 * P); L <= 33; ++L) {
        for (const int64_t B : {1, 2, 17, 30}) {
          for (const int64_t Cin : {1, 2, 3}) {
            for (const int64_t Cout : {1, 2, 3}) {
              shapes.push_back({B, Cin, L, Cout, K, P});
            }
          }
        }
      }
    }
  }
  return shapes;
}

/// Guarded pools as large as the grid's largest operands, filled with
/// values uniform in [-1, 1] and every fifth one ±0. A case takes the last
/// elements of each pool, so every operand ends at a guard page.
template <typename T>
struct Pools {
  static constexpr int64_t kX = 30 * 3 * 33, kW = 3 * 3 * 5, kG = 30 * 3 * 37;
  Pools() : x(kX), w(kW), bias(3), g(kG), out(std::max(kX, kG)) {
    mf::util::Rng rng(26);
    for (GuardedBuffer<T>* buf : {&x, &w, &bias, &g}) {
      int64_t i = 0;
      for (T& v : *buf) {
        v = static_cast<T>(rng.uniform(-1, 1));
        if (i++ % 5 == 2) v = i % 2 ? T(0) : -T(0);
      }
    }
  }
  Operands<T> operands(const ConvShape& s) {
    return {x.end() - s.B * s.Cin * s.L, w.end() - s.Cout * s.Cin * s.K,
            bias.end() - s.Cout, g.end() - s.B * s.Cout * s.lout()};
  }
  T* output(Pass p, const ConvShape& s) { return out.end() - out_size(p, s); }
  GuardedBuffer<T> x, w, bias, g, out;
};

/// The grid shapes the public entries run too: B = 17 and 30, whose rows
/// split unevenly over 4 threads, at the shortest L, 16, 18 and 33. (Each
/// threaded call forks a team, which costs far more than the kernel when
/// ctest runs suites in parallel; every element is one thread's serial
/// kernel, so the split, not the shape, is what these add.)
inline bool entry_shape(const ConvShape& s) {
  const int64_t shortest = std::max<int64_t>(1, s.K - 2 * s.P);
  return s.B >= 17 &&
         (s.L == shortest || s.L == 16 || s.L == 18 || s.L == 33);
}

/// Every kernel on every tier the CPU has against the direct loop,
/// bitwise, over the grid, and on the entry shapes the public entry too,
/// serial and on 4 threads with grain 1. A tier the CPU lacks must return
/// false and write nothing.
template <typename T>
void expect_tiers_match_direct_loop() {
  KernelConfigGuard guard;
  Pools<T> pools;
  for (const ConvShape& s : grid()) {
    const Operands<T> o = pools.operands(s);
    for (const Pass p : kPasses) {
      const std::vector<T> want = direct(p, s, o);
      T* out = pools.output(p, s);
      const int64_t n = out_size(p, s);
      const std::string at = std::string(pass_name(p)) + ", " + s.name();
      auto expect_want = [&](const std::string& who) {
        const std::string bad =
            elementwise_checks::first_mismatch(out, want.data(), n);
        ASSERT_TRUE(bad.empty()) << who << " vs direct loop, " << at << ", "
                                 << bad;
      };
      for (const int lanes : kTiers) {
        if (run(lanes, p, s, o, out)) {
          expect_want(tier_name(lanes));
        } else if (p == Pass::kForward) {
          for (int64_t i = 0; i < n; ++i) {
            ASSERT_TRUE(std::isnan(out[i])) << tier_name(lanes) << " wrote";
          }
        }
        if (::testing::Test::HasFatalFailure()) return;
      }
      if (!entry_shape(s)) continue;
      guard.serial();
      run(0, p, s, o, out);
      expect_want("serial entry");
      guard.threaded();
      run(0, p, s, o, out);
      expect_want("threaded entry");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// The border rule on every tier and both entries, at B = 2, Cin = 2, L =
/// 7, Cout = 3, K = 3, padding 1: w[1][0][0] = +inf meets the left padding
/// at out[b][1][0] and the right padding of grad_out at grad_input[b][0][6]
/// (t = 7 = Lout), and grad_out[b][1][0] = +inf meets the left padding of
/// the input at grad_weight[1][ci][0]. The direct loop skips those taps
/// and stays finite there.
template <typename T>
void expect_infinite_factor_at_padding_gives_nan() {
  const ConvShape s{2, 2, 7, 3, 3, 1};
  KernelConfigGuard guard;
  Pools<T> pools;
  const Operands<T> o = pools.operands(s);
  const T inf = std::numeric_limits<T>::infinity();
  T* w = pools.w.end() - s.Cout * s.Cin * s.K;
  T* g = pools.g.end() - s.B * s.Cout * s.lout();
  w[(1 * s.Cin + 0) * s.K + 0] = inf;
  for (int64_t b = 0; b < s.B; ++b) g[(b * s.Cout + 1) * s.lout()] = inf;
  struct Border {
    Pass pass;
    std::vector<int64_t> at;  // flat output indices that must be NaN
  };
  const Border borders[] = {
      {Pass::kForward,
       {(0 * s.Cout + 1) * s.lout(), (1 * s.Cout + 1) * s.lout()}},
      {Pass::kGradInput,
       {(0 * s.Cin + 0) * s.L + 6, (1 * s.Cin + 0) * s.L + 6}},
      {Pass::kGradWeight, {(1 * s.Cin + 0) * s.K, (1 * s.Cin + 1) * s.K}},
  };
  for (const Border& border : borders) {
    T* out = pools.output(border.pass, s);
    const std::vector<T> direct_out = direct(border.pass, s, o);
    for (const int64_t i : border.at) {
      EXPECT_TRUE(std::isfinite(direct_out[i])) << pass_name(border.pass);
    }
    for (const int lanes : {1, 4, 8, 0, -1}) {
      if (lanes == 0) guard.serial();
      if (lanes == -1) guard.threaded();
      if (!run(std::max(lanes, 0), border.pass, s, o, out)) continue;
      const std::string who = lanes > 0 ? tier_name(lanes)
                              : lanes == 0 ? "serial entry"
                                           : "threaded entry";
      for (const int64_t i : border.at) {
        EXPECT_TRUE(std::isnan(out[i]))
            << pass_name(border.pass) << " " << who << " at " << i << ": "
            << out[i];
      }
    }
  }
}

/// Each gradient kernel multiplies every grad_out element in, zeros
/// included: a zero grad_out element against an infinite weight (for
/// grad_input) or input (for grad_weight) makes the element it feeds NaN,
/// as the IEEE product 0·inf is, where a kernel that skips zero gradients
/// leaves it finite. B = 2, Cin = 2, L = 7, Cout = 3, K = 3, padding 1;
/// grad_out[1][1][3] = 0 meets w[1][0][1] = +inf at grad_input[1][0][3],
/// and input[1][0][3] = +inf at grad_weight[1][0][1].
template <typename T>
void expect_grads_propagate_zero_times_inf() {
  constexpr int64_t B = 2, Cin = 2, L = 7, Cout = 3, K = 3, P = 1;
  constexpr int64_t Lout = L + 2 * P - K + 1;
  mf::util::Rng rng(61);
  auto fill = [&](int64_t n) {
    std::vector<T> v(static_cast<std::size_t>(n));
    for (auto& e : v) e = static_cast<T>(rng.uniform(0.5, 1.5));
    return v;
  };
  std::vector<T> grad_out = fill(B * Cout * Lout);
  std::vector<T> weight = fill(Cout * Cin * K);
  std::vector<T> input = fill(B * Cin * L);
  const T inf = std::numeric_limits<T>::infinity();
  grad_out[(1 * Cout + 1) * Lout + 3] = T(0);

  std::vector<T> w_inf = weight;
  w_inf[(1 * Cin + 0) * K + 1] = inf;
  std::vector<T> grad_input(static_cast<std::size_t>(B * Cin * L), T(0));
  kernels::conv1d_grad_input(grad_out.data(), w_inf.data(), grad_input.data(),
                             B, Cin, L, Cout, K, P);
  EXPECT_TRUE(std::isnan(grad_input[(1 * Cin + 0) * L + 3]))
      << "grad_input: " << grad_input[(1 * Cin + 0) * L + 3];

  std::vector<T> in_inf = input;
  in_inf[(1 * Cin + 0) * L + 3] = inf;
  std::vector<T> grad_weight(static_cast<std::size_t>(Cout * Cin * K), T(0));
  kernels::conv1d_grad_weight(grad_out.data(), in_inf.data(),
                              grad_weight.data(), B, Cin, L, Cout, K, P);
  EXPECT_TRUE(std::isnan(grad_weight[(1 * Cin + 0) * K + 1]))
      << "grad_weight: " << grad_weight[(1 * Cin + 0) * K + 1];
}

}  // namespace conv1d_checks
