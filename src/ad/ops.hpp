// Differentiable tensor operations.
//
// Every op's backward is written in terms of these same ops, so running a
// backward pass with grad mode enabled (`create_graph`) produces a graph of
// the gradient computation that can itself be differentiated. The
// exceptions are conv1d, whose backward is first-order only (documented
// below) — in SDNet the convolution sits on the boundary-embedding branch,
// which is never differentiated with respect to the spatial coordinates —
// and gelu, differentiable three times (the PDE loss's order).
#pragma once

#include <vector>

#include "ad/engine.hpp"
#include "ad/tensor.hpp"

namespace mf::ad::ops {

// ---- shape/broadcast utilities ----

/// NumPy-style broadcast of two shapes; throws when incompatible.
Shape broadcast_shape(const Shape& a, const Shape& b);

/// Materialize `t` broadcast to `shape`. Backward reduces back.
Tensor broadcast_to(const Tensor& t, const Shape& shape);

/// Sum `t` over its broadcast dimensions so the result has `shape`.
/// Inverse of broadcast_to; backward broadcasts back.
Tensor reduce_to(const Tensor& t, const Shape& shape);

/// Contiguous reshape (copy). Backward reshapes back.
Tensor reshape(const Tensor& t, const Shape& shape);

// ---- elementwise binary (broadcasting) ----
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

// ---- elementwise with scalar ----
Tensor add_scalar(const Tensor& a, real s);
Tensor mul_scalar(const Tensor& a, real s);
Tensor pow_scalar(const Tensor& a, real exponent);

// ---- elementwise unary ----
Tensor neg(const Tensor& a);
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
Tensor sqrt(const Tensor& a);
Tensor tanh(const Tensor& a);
Tensor abs(const Tensor& a);
Tensor square(const Tensor& a);
/// Gaussian Error Linear Unit (tanh approximation). Its first three
/// derivatives are elementwise kernels of their own, each the backward of
/// the one before; the third has no backward. Matches the paper's choice
/// of smooth activation for PINN training (Sec. 3.1).
Tensor gelu(const Tensor& a);
Tensor sigmoid(const Tensor& a);

// ---- reductions ----
Tensor sum(const Tensor& a);
Tensor mean(const Tensor& a);
Tensor sum_axis(const Tensor& a, int64_t axis, bool keepdim);

// ---- linear algebra ----
/// a: [..., K] (leading dims flattened), b: [K, N] -> [..., N].
Tensor matmul(const Tensor& a, const Tensor& b);

/// aᵀ·b over the rows of both: a: [..., K] and b: [..., N] with the same
/// leading dims (checked) -> [K, N]. The weight gradient of matmul and
/// linear.
Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// a·bᵀ: a: [..., K] (leading dims flattened), b: [N, K] -> [..., N]. The
/// input gradient of matmul and linear.
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// Fused affine map: x @ w (+ bias) in a single kernel pass. x: [..., K],
/// w: [K, N], bias: [N] or undefined to skip. Backward is compositional
/// (matmul_nt/matmul_tn/reduce_to), and the three GEMM forms' backward
/// passes are GEMMs of the three forms again, so create_graph works
/// through every order with no transpose step.
Tensor linear(const Tensor& x, const Tensor& w, const Tensor& b);

// ---- structural ----
/// Slice `len` elements starting at `start` along `axis`.
Tensor slice(const Tensor& t, int64_t axis, int64_t start, int64_t len);
/// Concatenate along `axis`.
Tensor concat(const std::vector<Tensor>& parts, int64_t axis);

// ---- convolution ----
/// input: [B, Cin, L], weight: [Cout, Cin, K], bias: [Cout] (optional,
/// pass undefined Tensor to skip). Stride 1, symmetric zero padding.
/// NOTE: backward is first-order only (see header comment).
Tensor conv1d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t padding);

// ---- non-differentiable helpers (no graph) ----
real reduce_max_abs(const Tensor& t);
real mse(const Tensor& a, const Tensor& b);
real mae(const Tensor& a, const Tensor& b);

}  // namespace mf::ad::ops

namespace mf::ad {
// Operator sugar.
inline Tensor operator+(const Tensor& a, const Tensor& b) { return ops::add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return ops::sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return ops::mul(a, b); }
inline Tensor operator/(const Tensor& a, const Tensor& b) { return ops::div(a, b); }
inline Tensor operator-(const Tensor& a) { return ops::neg(a); }
inline Tensor operator*(const Tensor& a, real s) { return ops::mul_scalar(a, s); }
inline Tensor operator*(real s, const Tensor& a) { return ops::mul_scalar(a, s); }
inline Tensor operator+(const Tensor& a, real s) { return ops::add_scalar(a, s); }
inline Tensor operator-(const Tensor& a, real s) { return ops::add_scalar(a, -s); }
}  // namespace mf::ad
