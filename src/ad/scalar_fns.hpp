// Scalar functors shared by the eager ops (ops.cpp), the compiled program
// replay (program.cpp) and the kernels (kernels.cpp).
//
// Bitwise parity between an eagerly executed step and its replay comes
// from one opcode entry per elementwise family: eager ops, plain replay
// and fused regions all call kernels::map_unary / unary_block or
// map_binary / binary_block with the same opcode, and each entry has one
// body per tier. These functors are the scalar tier's body, the body of
// the ops with no lane formula (pow_scalar, exp, log, sign) on every tier,
// the bitwise reference of the IEEE-exact lanes, and what map_broadcast
// runs for the broadcast binary step.
#pragma once

#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "ad/tensor.hpp"

namespace mf::ad::sfn {

// Typed via the element type at every use site: an f32 path must evaluate
// float(0.7978845608028654), not round a double intermediate — see the
// gelu_coeff<T> usage in Gelu below.
constexpr real kGeluCoeff = 0.7978845608028654;  // sqrt(2/pi)

template <typename T>
inline constexpr T gelu_coeff = T(0.7978845608028654);
template <typename T>
inline constexpr T gelu_cubic = T(0.044715);

// The p-form of GELU and its derivatives: with u = c·(x + a·x³),
// c = √(2/π) and a = 0.044715, t = −2u = x·(gelu_ta + gelu_tb·x²) and
// p = 1/(1 + e^t), gelu = x·p. |t| is clamped to gelu_clamp, where e^t
// stays finite at the element width.
template <typename T>
inline constexpr T gelu_ta = -2 * gelu_coeff<T>;
template <typename T>
inline constexpr T gelu_tb = gelu_ta<T> * gelu_cubic<T>;
template <typename T>
inline constexpr T gelu_clamp = std::is_same_v<T, float> ? T(87) : T(708);
// 3ac and 12ac, narrowed once from double.
template <typename T>
inline constexpr T gelu_3ac = T(3 * gelu_cubic<double> * gelu_coeff<double>);
template <typename T>
inline constexpr T gelu_12ac = T(12 * gelu_cubic<double> * gelu_coeff<double>);

// ---- binary ----
//
// Functors are templated over the element type; every eager call site
// instantiates T = real (double), so the f64 expressions are unchanged.
// The compiled-plan replay instantiates float for f32-colored steps.
struct Add {
  template <typename T>
  T operator()(T x, T y) const { return x + y; }
};
struct Sub {
  template <typename T>
  T operator()(T x, T y) const { return x - y; }
};
struct Mul {
  template <typename T>
  T operator()(T x, T y) const { return x * y; }
};
struct Div {
  template <typename T>
  T operator()(T x, T y) const { return x / y; }
};

// ---- unary (the scalar-parameterized ones carry their parameter) ----
//
// Parameters are stored at the tape's native f64 width and narrowed once
// per application, so f32 steps compute x + float(s), never through a
// double intermediate.
struct AddScalar {
  real s;
  template <typename T>
  T operator()(T x) const { return x + T(s); }
};
struct MulScalar {
  real s;
  template <typename T>
  T operator()(T x) const { return x * T(s); }
};
struct PowScalar {
  real e;
  template <typename T>
  T operator()(T x) const { return std::pow(x, T(e)); }
};
struct Neg {
  template <typename T>
  T operator()(T x) const { return -x; }
};
struct Exp {
  template <typename T>
  T operator()(T x) const { return std::exp(x); }
};
struct Log {
  template <typename T>
  T operator()(T x) const { return std::log(x); }
};
struct Sqrt {
  template <typename T>
  T operator()(T x) const { return std::sqrt(x); }
};
struct Tanh {
  template <typename T>
  T operator()(T x) const { return std::tanh(x); }
};
struct Abs {
  template <typename T>
  T operator()(T x) const { return std::abs(x); }
};
struct Sign {
  template <typename T>
  T operator()(T x) const {
    return x > 0 ? T{1} : (x < 0 ? T{-1} : T{0});
  }
};
struct Gelu {
  template <typename T>
  T operator()(T x) const {
    const T u = gelu_coeff<T> * (x + gelu_cubic<T> * x * x * x);
    return T(0.5) * x * (T(1) + std::tanh(u));
  }
};
/// gelu⁽ᴷ⁾, K = 1, 2, 3, in the p-form with e = e^t, tanh u = T = 2p − 1,
/// sech² u = 4q with q = e·p² (not p·(1 − p), whose 1 − p cancels once
/// |t| > ~30) and v = du/dx = c·(1 + 3a·x²):
///   gelu′ = p + 2x·v·q,  gelu″ = 4q·h with h = v − x·T·v² + 3ac·x²,
///   gelu‴ = 4q·(12ac·x − T·v² − 4x·q·v³ − 12ac·x²·T·v − 2T·v·h).
/// Where t reaches ∓gelu_clamp they return the limits at ±∞ (gelu′: 1 and
/// 0, gelu″ = gelu‴ = 0); NaN gives NaN. The vector tiers run the same
/// terms (kernels.cpp, gelu_deriv_lane), with GELU's exp.
template <int K>
struct GeluDeriv {
  static_assert(K >= 1 && K <= 3);
  template <typename T>
  T operator()(T x) const {
    const T x2 = x * x;
    const T t = x * (gelu_ta<T> + gelu_tb<T> * x2);
    if (t >= gelu_clamp<T>) return T(0);
    if (t <= -gelu_clamp<T>) return K == 1 ? T(1) : T(0);
    const T e = std::exp(t);
    const T p = T(1) / (T(1) + e);
    const T q = e * p * p;
    const T v = gelu_coeff<T> + gelu_3ac<T> * x2;
    if constexpr (K == 1) {
      return p + T(2) * x * v * q;
    } else {
      const T tv = (T(2) * p - T(1)) * v;
      const T h = v - x * v * tv + gelu_3ac<T> * x2;
      if constexpr (K == 2) {
        return T(4) * q * h;
      } else {
        const T inner = gelu_12ac<T> * x - tv * v -
                        gelu_12ac<T> * x2 * tv - T(2) * tv * h -
                        T(4) * q * (x * v) * (v * v);
        return T(4) * q * inner;
      }
    }
  }
};

// ---- optimizer element updates ----
//
// The Adam/AdamW update for one parameter element: the body of the
// kAdamParam step, which optim::Adam::step runs and compiled plans replay.
// `bc1` / `bc2` are the bias corrections 1 - beta^t for the current step.
inline void adam_update(real& p, real g, double& m, double& v, double lr,
                        double beta1, double beta2, double bc1, double bc2,
                        double eps, double weight_decay, bool decoupled) {
  double gj = g;
  if (!decoupled) gj += weight_decay * p;
  m = beta1 * m + (1 - beta1) * gj;
  v = beta2 * v + (1 - beta2) * gj * gj;
  const double mhat = m / bc1;
  const double vhat = v / bc2;
  double update = mhat / (std::sqrt(vhat) + eps);
  if (decoupled) update += weight_decay * p;
  p -= lr * update;
}

/// The LAMB update for one whole parameter tensor (You et al., 2020): the
/// body of the kLambParam step, which optim::Lamb::step runs and compiled
/// plans replay. LAMB is always decoupled: the weight decay joins the
/// Adam direction, not the gradient. The trust ratio is a whole-tensor
/// reduction, which is why LAMB replays as one plan step per parameter
/// instead of an elementwise chain. `dir` is caller-owned scratch (reused
/// across parameters to avoid reallocation).
inline void lamb_param_update(real* p, const real* g, double* m, double* v,
                              int64_t n, std::vector<double>& dir, double lr,
                              double beta1, double beta2, double bc1,
                              double bc2, double eps, double weight_decay) {
  dir.assign(static_cast<std::size_t>(n), 0.0);
  for (int64_t j = 0; j < n; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    const double gj = g[j];
    m[j] = beta1 * m[j] + (1 - beta1) * gj;
    v[j] = beta2 * v[j] + (1 - beta2) * gj * gj;
    const double mhat = m[j] / bc1;
    const double vhat = v[j] / bc2;
    dir[ju] = mhat / (std::sqrt(vhat) + eps);
  }
  // r = adam direction + decoupled weight decay; layerwise trust ratio
  // falls back to 1 when either norm degenerates (LAMB paper).
  double w_norm = 0.0, r_norm = 0.0;
  for (int64_t j = 0; j < n; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    dir[ju] += weight_decay * p[j];
    w_norm += p[j] * p[j];
    const double r = dir[ju];
    r_norm += r * r;
  }
  w_norm = std::sqrt(w_norm);
  r_norm = std::sqrt(r_norm);
  const double trust = (w_norm > 0 && r_norm > 0) ? w_norm / r_norm : 1.0;
  for (int64_t j = 0; j < n; ++j) {
    p[j] -= lr * trust * dir[static_cast<std::size_t>(j)];
  }
}

}  // namespace mf::ad::sfn
