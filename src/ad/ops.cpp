#include "ad/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "ad/kernels.hpp"
#include "ad/program.hpp"
#include "ad/scalar_fns.hpp"
#include "ad/small_shape.hpp"

namespace mf::ad::ops {

namespace {

// Forward kernels run through the kernels' opcode entries (and, for
// broadcasts, the shared sfn functors) and report to the program capture
// hooks (no-ops outside Program::capture), so a captured step replays the
// exact same instructions the eager op executed.

template <typename F>
Tensor elementwise_binary_fwd(const Tensor& a, const Tensor& b,
                              prog::Binary id, F&& f) {
  const Shape out_shape = broadcast_shape(a.shape(), b.shape());
  Tensor out = Tensor::zeros(out_shape);
  if (a.shape() == b.shape()) {
    kernels::map_binary(a.data(), b.data(), out.data(), out.numel(), id);
    if (prog::capturing()) prog::on_binary(id, a, b, out);
  } else {
    kernels::BroadcastPlan plan(out_shape, a.shape(), b.shape());
    kernels::map_broadcast(plan, a.data(), b.data(), out.data(), f);
    if (prog::capturing()) prog::on_binary_bcast(id, plan, a, b, out);
  }
  return out;
}

/// op(a) through the one opcode entry, reported to the capture hook.
Tensor unary_fwd(const Tensor& a, prog::Unary id, real scalar) {
  Tensor out = Tensor::zeros(a.shape());
  kernels::map_unary(a.data(), out.data(), a.numel(), id, scalar);
  if (prog::capturing()) prog::on_unary(id, scalar, a, out);
  return out;
}

template <typename B>
Tensor elementwise_unary(const Tensor& a, const char* name, prog::Unary id,
                         real scalar, B&& backward) {
  return record(unary_fwd(a, id, scalar), name, {a},
                std::forward<B>(backward));
}

// ---- typed tape nodes for the hottest ops ----
//
// These carry no captured state: everything the backward needs is read
// from the stored inputs, so recording one copies no shapes or closures.

struct AddNode final : Node {
  AddNode() : Node("add") {}
  std::vector<Tensor> backward(const Tensor& g,
                               const std::vector<bool>& needs) override {
    std::vector<Tensor> gs(2);
    if (needs[0]) gs[0] = reduce_to(g, input(0).shape());
    if (needs[1]) gs[1] = reduce_to(g, input(1).shape());
    return gs;
  }
};

struct MulNode final : Node {
  MulNode() : Node("mul") {}
  std::vector<Tensor> backward(const Tensor& g,
                               const std::vector<bool>& needs) override {
    std::vector<Tensor> gs(2);
    if (needs[0]) gs[0] = reduce_to(mul(g, input(1)), input(0).shape());
    if (needs[1]) gs[1] = reduce_to(mul(g, input(0)), input(1).shape());
    return gs;
  }
};

using Form = kernels::MatmulForm;

/// The tape node of one GEMM form (matmul and linear are NN; linear's
/// third input is the bias). Each backward is two GEMMs of the three
/// forms again, so no order of differentiation materializes a transpose,
/// and a [..., k] operand is read in place as its [rows × k] block:
///   NN  out = a·b:   ga = g·bᵀ (NT),  gb = aᵀ·g (TN);
///   TN  out = aᵀ·b:  ga = b·gᵀ (NT),  gb = a·g (NN);
///   NT  out = a·bᵀ:  ga = g·b (NN),   gb = gᵀ·a (TN).
template <Form F>
struct GemmNode final : Node {
  explicit GemmNode(const char* op_name) : Node(op_name) {}
  std::vector<Tensor> backward(const Tensor& g,
                               const std::vector<bool>& needs) override {
    const Tensor& a = input(0);
    const Tensor& b = input(1);
    std::vector<Tensor> gs(num_inputs());
    if constexpr (F == Form::kNN) {
      if (needs[0]) gs[0] = matmul_nt(g, b);
      if (needs[1]) gs[1] = matmul_tn(a, g);
      if (num_inputs() == 3 && needs[2]) {
        gs[2] = reduce_to(g, input(2).shape());
      }
    } else if constexpr (F == Form::kTN) {
      if (needs[0]) gs[0] = matmul_nt(b, g);
      if (needs[1]) gs[1] = matmul(a, g);
    } else {
      if (needs[0]) gs[0] = matmul(g, b);
      if (needs[1]) gs[1] = matmul_tn(g, a);
    }
    return gs;
  }
};

/// out = a·b (+ bias) in form F through the one GEMM kernel, reported to
/// the capture hook and taped as GemmNode<F>. `out_shape` is [m, n] or
/// a's leading dims then n; the caller has checked the operands.
template <Form F>
Tensor gemm(const char* name, const Tensor& a, const Tensor& b,
            const Tensor& bias, Shape out_shape, int64_t m, int64_t k,
            int64_t n) {
  Tensor out = Tensor::zeros(out_shape);
  kernels::matmul(a.data(), b.data(), bias.defined() ? bias.data() : nullptr,
                  out.data(), m, k, n, F);
  if (prog::capturing()) prog::on_matmul(a, b, &bias, out, m, k, n, F);
  const Tensor ins[3] = {a, b, bias};
  return record_typed<GemmNode<F>>(std::move(out), ins,
                                   bias.defined() ? std::size_t{3}
                                                  : std::size_t{2},
                                   name);
}

/// `shape` with its last dim replaced by n.
Shape with_last(Shape shape, int64_t n) {
  shape.back() = n;
  return shape;
}

template <int K>
Tensor gelu_order(const Tensor& a);

/// The tape node of gelu⁽ᴷ⁾ (K = 0 is gelu itself). Its backward is
/// g·gelu⁽ᴷ⁺¹⁾(x), taped as the node of order K + 1, so each backward pass
/// through an activation records one elementwise step. The PDE loss
/// differentiates three times; nothing needs a fourth derivative.
template <int K>
struct GeluNode final : Node {
  static constexpr const char* kNames[] = {"gelu", "gelu_d1", "gelu_d2",
                                           "gelu_d3"};
  GeluNode() : Node(kNames[K]) {}
  std::vector<Tensor> backward(const Tensor& g,
                               const std::vector<bool>&) override {
    if constexpr (K == 3) {
      throw std::logic_error("gelu_d3: backward is not implemented");
    } else {
      return std::vector<Tensor>{mul(g, gelu_order<K + 1>(input(0)))};
    }
  }
};

/// gelu⁽ᴷ⁾(a) through its opcode, taped as GeluNode<K>.
template <int K>
Tensor gelu_order(const Tensor& a) {
  constexpr prog::Unary kOps[] = {prog::Unary::kGelu, prog::Unary::kGeluD1,
                                  prog::Unary::kGeluD2, prog::Unary::kGeluD3};
  Tensor out = unary_fwd(a, kOps[K], 0);
  const Tensor ins[1] = {a};
  return record_typed<GeluNode<K>>(std::move(out), ins, 1);
}

}  // namespace

Shape broadcast_shape(const Shape& a, const Shape& b) {
  const std::size_t nd = std::max(a.size(), b.size());
  Shape out(nd, 1);
  for (std::size_t d = 0; d < nd; ++d) {
    const int64_t da = d < nd - a.size() ? 1 : a[d - (nd - a.size())];
    const int64_t db = d < nd - b.size() ? 1 : b[d - (nd - b.size())];
    if (da != db && da != 1 && db != 1) {
      throw std::invalid_argument("cannot broadcast " + shape_str(a) + " with " +
                                  shape_str(b));
    }
    out[d] = std::max(da, db);
  }
  return out;
}

Tensor broadcast_to(const Tensor& t, const Shape& shape) {
  if (t.shape() == shape) return t;
  // Validate by broadcasting.
  if (broadcast_shape(t.shape(), shape) != shape) {
    throw std::invalid_argument("broadcast_to: " + shape_str(t.shape()) +
                                " -> " + shape_str(shape));
  }
  Tensor out = Tensor::zeros(shape);
  kernels::BroadcastPlan plan(shape, t.shape(), t.shape());
  kernels::broadcast_copy(plan, t.data(), out.data());
  if (prog::capturing()) prog::on_broadcast_copy(plan, t, out);
  const SmallShape orig = t.shape();
  return record(std::move(out), "broadcast_to", {t},
                [orig](const Tensor& g, const std::vector<bool>&) {
                  return std::vector<Tensor>{reduce_to(g, orig.to_shape())};
                });
}

Tensor reduce_to(const Tensor& t, const Shape& shape) {
  if (t.shape() == shape) return t;
  if (broadcast_shape(shape, t.shape()) != t.shape()) {
    throw std::invalid_argument("reduce_to: " + shape_str(t.shape()) + " -> " +
                                shape_str(shape));
  }
  Tensor out = Tensor::zeros(shape);
  kernels::ReducePlan plan(t.shape(), shape);
  kernels::reduce_broadcast(plan, t.data(), out.data());
  if (prog::capturing()) prog::on_reduce(plan, t, out);
  const SmallShape orig = t.shape();
  return record(std::move(out), "reduce_to", {t},
                [orig](const Tensor& g, const std::vector<bool>&) {
                  return std::vector<Tensor>{broadcast_to(g, orig.to_shape())};
                });
}

Tensor reshape(const Tensor& t, const Shape& shape) {
  Shape resolved = shape;
  int64_t known = 1;
  int64_t infer = -1;
  for (std::size_t d = 0; d < resolved.size(); ++d) {
    if (resolved[d] == -1) {
      infer = static_cast<int64_t>(d);
    } else {
      known *= resolved[d];
    }
  }
  if (infer >= 0) resolved[static_cast<std::size_t>(infer)] = t.numel() / known;
  if (numel_of(resolved) != t.numel()) {
    throw std::invalid_argument("reshape: cannot view " + shape_str(t.shape()) +
                                " as " + shape_str(resolved));
  }
  Tensor out = Tensor::from_data(t.data(), resolved);
  if (prog::capturing()) prog::on_copy(t, out);
  const SmallShape orig = t.shape();
  return record(std::move(out), "reshape", {t},
                [orig](const Tensor& g, const std::vector<bool>&) {
                  return std::vector<Tensor>{reshape(g, orig.to_shape())};
                });
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out = elementwise_binary_fwd(a, b, prog::Binary::kAdd, sfn::Add{});
  const Tensor ins[2] = {a, b};
  return record_typed<AddNode>(std::move(out), ins, 2);
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor out = elementwise_binary_fwd(a, b, prog::Binary::kSub, sfn::Sub{});
  const SmallShape sa = a.shape(), sb = b.shape();
  return record(std::move(out), "sub", {a, b},
                [sa, sb](const Tensor& g, const std::vector<bool>& needs) {
                  std::vector<Tensor> gs(2);
                  if (needs[0]) gs[0] = reduce_to(g, sa.to_shape());
                  if (needs[1]) gs[1] = reduce_to(neg(g), sb.to_shape());
                  return gs;
                });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  Tensor out = elementwise_binary_fwd(a, b, prog::Binary::kMul, sfn::Mul{});
  const Tensor ins[2] = {a, b};
  return record_typed<MulNode>(std::move(out), ins, 2);
}

Tensor div(const Tensor& a, const Tensor& b) {
  Tensor out = elementwise_binary_fwd(a, b, prog::Binary::kDiv, sfn::Div{});
  const SmallShape sa = a.shape(), sb = b.shape();
  return record(std::move(out), "div", {a, b},
                [a, b, sa, sb](const Tensor& g, const std::vector<bool>& needs) {
                  std::vector<Tensor> gs(2);
                  if (needs[0]) gs[0] = reduce_to(div(g, b), sa.to_shape());
                  if (needs[1]) {
                    gs[1] = reduce_to(neg(div(mul(g, a), mul(b, b))),
                                      sb.to_shape());
                  }
                  return gs;
                });
}

Tensor add_scalar(const Tensor& a, real s) {
  return elementwise_unary(
      a, "add_scalar", prog::Unary::kAddScalar, s,
      [](const Tensor& g, const std::vector<bool>&) {
        return std::vector<Tensor>{g};
      });
}

Tensor mul_scalar(const Tensor& a, real s) {
  return elementwise_unary(
      a, "mul_scalar", prog::Unary::kMulScalar, s,
      [s](const Tensor& g, const std::vector<bool>&) {
        return std::vector<Tensor>{mul_scalar(g, s)};
      });
}

Tensor pow_scalar(const Tensor& a, real exponent) {
  return elementwise_unary(
      a, "pow_scalar", prog::Unary::kPowScalar, exponent,
      [a, exponent](const Tensor& g, const std::vector<bool>&) {
        Tensor d = mul_scalar(pow_scalar(a, exponent - 1), exponent);
        return std::vector<Tensor>{mul(g, d)};
      });
}

Tensor neg(const Tensor& a) {
  return elementwise_unary(
      a, "neg", prog::Unary::kNeg, 0,
      [](const Tensor& g, const std::vector<bool>&) {
        return std::vector<Tensor>{neg(g)};
      });
}

Tensor exp(const Tensor& a) {
  return elementwise_unary(
      a, "exp", prog::Unary::kExp, 0,
      [a](const Tensor& g, const std::vector<bool>&) {
        return std::vector<Tensor>{mul(g, exp(a))};
      });
}

Tensor log(const Tensor& a) {
  return elementwise_unary(
      a, "log", prog::Unary::kLog, 0,
      [a](const Tensor& g, const std::vector<bool>&) {
        return std::vector<Tensor>{div(g, a)};
      });
}

Tensor sqrt(const Tensor& a) {
  return elementwise_unary(
      a, "sqrt", prog::Unary::kSqrt, 0,
      [a](const Tensor& g, const std::vector<bool>&) {
        return std::vector<Tensor>{mul(g, mul_scalar(pow_scalar(a, -0.5), 0.5))};
      });
}

Tensor tanh(const Tensor& a) {
  return elementwise_unary(
      a, "tanh", prog::Unary::kTanh, 0,
      [a](const Tensor& g, const std::vector<bool>&) {
        Tensor y = tanh(a);
        Tensor one_minus = add_scalar(neg(mul(y, y)), 1.0);
        return std::vector<Tensor>{mul(g, one_minus)};
      });
}

Tensor abs(const Tensor& a) {
  return elementwise_unary(
      a, "abs", prog::Unary::kAbs, 0,
      [a](const Tensor& g, const std::vector<bool>&) {
        // sign(a) treated as a constant (derivative zero a.e.)
        Tensor s = unary_fwd(a, prog::Unary::kSign, 0);
        return std::vector<Tensor>{mul(g, s)};
      });
}

Tensor square(const Tensor& a) { return mul(a, a); }

Tensor gelu(const Tensor& a) {
  // 0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 x^3))), fused into one
  // pass.
  return gelu_order<0>(a);
}

Tensor sigmoid(const Tensor& a) {
  // 0.5 * (1 + tanh(x/2)) — compositional, all orders differentiable.
  return mul_scalar(add_scalar(tanh(mul_scalar(a, 0.5)), 1.0), 0.5);
}

Tensor sum(const Tensor& a) {
  Tensor out = Tensor::scalar(kernels::reduce_sum(a.data(), a.numel()));
  if (prog::capturing()) prog::on_sum_all(a, out);
  const SmallShape orig = a.shape();
  return record(std::move(out), "sum", {a},
                [orig](const Tensor& g, const std::vector<bool>&) {
                  return std::vector<Tensor>{broadcast_to(
                      reshape(g, Shape(orig.size(), 1)), orig.to_shape())};
                });
}

Tensor mean(const Tensor& a) {
  return mul_scalar(sum(a), 1.0 / static_cast<real>(a.numel()));
}

Tensor sum_axis(const Tensor& a, int64_t axis, bool keepdim) {
  if (axis < 0) axis += a.dim();
  const Shape& s = a.shape();
  Shape kept = s;
  kept[static_cast<std::size_t>(axis)] = 1;
  // outer x axis x inner decomposition
  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= s[static_cast<std::size_t>(d)];
  for (int64_t d = axis + 1; d < a.dim(); ++d) inner *= s[static_cast<std::size_t>(d)];
  const int64_t n_axis = s[static_cast<std::size_t>(axis)];
  Tensor out = Tensor::zeros(kept);
  kernels::sum_axis(a.data(), out.data(), outer, n_axis, inner);
  if (prog::capturing()) {
    prog::on_sum_axis(a, out, outer, n_axis, inner, axis);
  }
  const SmallShape orig = s;
  Tensor res = record(std::move(out), "sum_axis", {a},
                      [orig](const Tensor& g, const std::vector<bool>&) {
                        return std::vector<Tensor>{
                            broadcast_to(g, orig.to_shape())};
                      });
  if (!keepdim) {
    Shape squeezed;
    for (int64_t d = 0; d < a.dim(); ++d) {
      if (d != axis) squeezed.push_back(s[static_cast<std::size_t>(d)]);
    }
    res = reshape(res, squeezed);
  }
  return res;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (b.dim() != 2) throw std::invalid_argument("matmul: rhs must be 2-D");
  if (a.dim() < 2) throw std::invalid_argument("matmul: lhs must be >= 2-D");
  const int64_t k = a.size(-1);
  if (k != b.size(0)) {
    throw std::invalid_argument("matmul: inner dims " + shape_str(a.shape()) +
                                " x " + shape_str(b.shape()));
  }
  const int64_t n = b.size(1);
  return gemm<Form::kNN>("matmul", a, b, Tensor(), with_last(a.shape(), n),
                         a.numel() / k, k, n);
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  if (a.dim() < 2 || b.dim() != a.dim()) {
    throw std::invalid_argument("matmul_tn: operands must be >= 2-D, of one "
                                "rank: " + shape_str(a.shape()) + " x " +
                                shape_str(b.shape()));
  }
  const int64_t k = a.size(-1), n = b.size(-1);
  if (with_last(a.shape(), 1) != with_last(b.shape(), 1)) {
    throw std::invalid_argument("matmul_tn: leading dims " +
                                shape_str(a.shape()) + " x " +
                                shape_str(b.shape()));
  }
  // out[k × n] = aᵀ·b, contracting over every row of a and b.
  return gemm<Form::kTN>("matmul_tn", a, b, Tensor(), {k, n}, k,
                         numel_of(with_last(a.shape(), 1)), n);
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  if (b.dim() != 2) throw std::invalid_argument("matmul_nt: rhs must be 2-D");
  if (a.dim() < 2) {
    throw std::invalid_argument("matmul_nt: lhs must be >= 2-D");
  }
  const int64_t k = a.size(-1);
  if (k != b.size(1)) {
    throw std::invalid_argument("matmul_nt: inner dims " +
                                shape_str(a.shape()) + " x " +
                                shape_str(b.shape()));
  }
  const int64_t n = b.size(0);
  return gemm<Form::kNT>("matmul_nt", a, b, Tensor(), with_last(a.shape(), n),
                         a.numel() / k, k, n);
}

Tensor linear(const Tensor& x, const Tensor& w, const Tensor& b) {
  if (w.dim() != 2) throw std::invalid_argument("linear: weight must be 2-D");
  if (x.dim() < 2) throw std::invalid_argument("linear: input must be >= 2-D");
  const int64_t k = x.size(-1);
  if (k != w.size(0)) {
    throw std::invalid_argument("linear: inner dims " + shape_str(x.shape()) +
                                " x " + shape_str(w.shape()));
  }
  const int64_t n = w.size(1);
  if (b.defined() && (b.dim() != 1 || b.size(0) != n)) {
    throw std::invalid_argument("linear: bias must be [" + std::to_string(n) +
                                "]");
  }
  return gemm<Form::kNN>("linear", x, w, b, with_last(x.shape(), n),
                         x.numel() / k, k, n);
}

Tensor slice(const Tensor& t, int64_t axis, int64_t start, int64_t len) {
  if (axis < 0) axis += t.dim();
  const Shape& s = t.shape();
  const int64_t n_axis = s[static_cast<std::size_t>(axis)];
  if (start < 0 || start + len > n_axis) {
    throw std::out_of_range("slice out of range");
  }
  Shape out_shape = s;
  out_shape[static_cast<std::size_t>(axis)] = len;
  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= s[static_cast<std::size_t>(d)];
  for (int64_t d = axis + 1; d < t.dim(); ++d) inner *= s[static_cast<std::size_t>(d)];
  Tensor out = Tensor::zeros(out_shape);
  const real* p = t.data();
  real* po = out.data();
  kernels::parallel_for(outer, len * inner, [&](int64_t begin, int64_t end) {
    for (int64_t o = begin; o < end; ++o) {
      std::memcpy(po + o * len * inner, p + (o * n_axis + start) * inner,
                  static_cast<std::size_t>(len * inner) * sizeof(real));
    }
  });
  if (prog::capturing()) {
    prog::on_slice_pack(t, out, outer, len, inner, n_axis, start, axis);
  }
  const SmallShape orig = s;
  return record(std::move(out), "slice", {t},
                [orig, axis, start, len, outer, inner, n_axis](
                    const Tensor& g, const std::vector<bool>&) {
                  // Embed g into zeros of the original shape ("pad").
                  Tensor padded = Tensor::zeros(orig.to_shape());
                  const real* pg = g.data();
                  real* pp = padded.data();
                  for (int64_t o = 0; o < outer; ++o) {
                    std::memcpy(pp + (o * n_axis + start) * inner,
                                pg + o * len * inner,
                                static_cast<std::size_t>(len * inner) * sizeof(real));
                  }
                  if (prog::capturing()) {
                    prog::on_slice_scatter(g, padded, outer, len, inner,
                                           n_axis, start, axis);
                  }
                  Tensor res = record(
                      std::move(padded), "slice_backward", {g},
                      [axis, start, len](const Tensor& gg, const std::vector<bool>&) {
                        return std::vector<Tensor>{slice(gg, axis, start, len)};
                      });
                  return std::vector<Tensor>{res};
                });
}

Tensor concat(const std::vector<Tensor>& parts, int64_t axis) {
  if (parts.empty()) throw std::invalid_argument("concat: empty input");
  if (axis < 0) axis += parts[0].dim();
  Shape out_shape = parts[0].shape();
  int64_t total = 0;
  for (const auto& p : parts) total += p.size(axis);
  out_shape[static_cast<std::size_t>(axis)] = total;
  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= out_shape[static_cast<std::size_t>(d)];
  for (int64_t d = axis + 1; d < static_cast<int64_t>(out_shape.size()); ++d)
    inner *= out_shape[static_cast<std::size_t>(d)];
  Tensor out = Tensor::zeros(out_shape);
  real* po = out.data();
  int64_t offset = 0;
  for (const auto& p : parts) {
    const int64_t len = p.size(axis);
    const real* pp = p.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::memcpy(po + (o * total + offset) * inner, pp + o * len * inner,
                  static_cast<std::size_t>(len * inner) * sizeof(real));
    }
    if (prog::capturing()) {
      prog::on_concat_part(p, out, outer, total, offset, len, inner, axis);
    }
    offset += len;
  }
  if (parts.size() <= SmallShape::kMaxRank) {
    SmallShape lens;
    for (const auto& p : parts) lens.push_back(p.size(axis));
    return record(std::move(out), "concat", parts,
                  [axis, lens](const Tensor& g, const std::vector<bool>& needs) {
                    std::vector<Tensor> gs(lens.size());
                    int64_t off = 0;
                    for (std::size_t i = 0; i < lens.size(); ++i) {
                      if (needs[i]) gs[i] = slice(g, axis, off, lens[i]);
                      off += lens[i];
                    }
                    return gs;
                  });
  }
  // Wide concats are off the hot path; a heap-owned length list is fine.
  std::vector<int64_t> lens;
  for (const auto& p : parts) lens.push_back(p.size(axis));
  return record(std::move(out), "concat", parts,
                [axis, lens](const Tensor& g, const std::vector<bool>& needs) {
                  std::vector<Tensor> gs(lens.size());
                  int64_t off = 0;
                  for (std::size_t i = 0; i < lens.size(); ++i) {
                    if (needs[i]) gs[i] = slice(g, axis, off, lens[i]);
                    off += lens[i];
                  }
                  return gs;
                });
}

Tensor conv1d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t padding) {
  if (input.dim() != 3 || weight.dim() != 3) {
    throw std::invalid_argument("conv1d expects input [B,C,L], weight [O,C,K]");
  }
  const int64_t B = input.size(0), Cin = input.size(1), L = input.size(2);
  const int64_t Cout = weight.size(0), K = weight.size(2);
  if (weight.size(1) != Cin) throw std::invalid_argument("conv1d channel mismatch");
  if (padding < 0) {
    throw std::invalid_argument("conv1d: padding must be >= 0, got " +
                                std::to_string(padding));
  }
  if (bias.defined() && (bias.dim() != 1 || bias.size(0) != Cout)) {
    throw std::invalid_argument("conv1d: bias must be [" +
                                std::to_string(Cout) + "] (one per output "
                                "channel), got " + shape_str(bias.shape()));
  }
  const int64_t Lout = L + 2 * padding - K + 1;
  if (Lout <= 0) throw std::invalid_argument("conv1d: kernel larger than input");
  Tensor out = Tensor::zeros({B, Cout, Lout});
  kernels::conv1d_forward(input.data(), weight.data(),
                          bias.defined() ? bias.data() : nullptr, out.data(), B,
                          Cin, L, Cout, K, padding);
  if (prog::capturing()) {
    prog::on_conv1d_forward(input, weight, &bias, out, B, Cin, L, Cout, K,
                            padding);
  }
  const bool has_bias = bias.defined();
  const Tensor ins[3] = {input, weight, bias};
  auto backward_fn = [input, weight, padding, B, Cin, L, Cout, K, has_bias](
                         const Tensor& g, const std::vector<bool>& needs) {
    // First-order only: these gradients do not record further graph.
    std::vector<Tensor> gs(has_bias ? 3 : 2);
    if (needs[0]) {
      Tensor gi = Tensor::zeros({B, Cin, L});
      kernels::conv1d_grad_input(g.data(), weight.data(), gi.data(), B, Cin,
                                 L, Cout, K, padding);
      if (prog::capturing()) {
        prog::on_conv1d_grad_input(g, weight, gi, B, Cin, L, Cout, K, padding);
      }
      gs[0] = gi;
    }
    if (needs[1]) {
      Tensor gw = Tensor::zeros({Cout, Cin, K});
      kernels::conv1d_grad_weight(g.data(), input.data(), gw.data(), B, Cin,
                                  L, Cout, K, padding);
      if (prog::capturing()) {
        prog::on_conv1d_grad_weight(g, input, gw, B, Cin, L, Cout, K, padding);
      }
      gs[1] = gw;
    }
    if (has_bias && needs[2]) {
      Tensor gb = Tensor::zeros({Cout});
      kernels::conv1d_grad_bias(g.data(), gb.data(), g.size(0), Cout,
                                g.size(2));
      if (prog::capturing()) {
        prog::on_conv1d_grad_bias(g, gb, g.size(0), Cout, g.size(2));
      }
      gs[2] = gb;
    }
    return gs;
  };
  return record(std::move(out), "conv1d", ins,
                has_bias ? std::size_t{3} : std::size_t{2},
                std::move(backward_fn));
}

real reduce_max_abs(const Tensor& t) {
  return kernels::reduce_max_abs(t.data(), t.numel());
}

real mse(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel()) throw std::invalid_argument("mse: size mismatch");
  return kernels::reduce_sq_diff(a.data(), b.data(), a.numel()) /
         static_cast<real>(a.numel());
}

real mae(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel()) throw std::invalid_argument("mae: size mismatch");
  return kernels::reduce_abs_diff(a.data(), b.data(), a.numel()) /
         static_cast<real>(a.numel());
}

}  // namespace mf::ad::ops
