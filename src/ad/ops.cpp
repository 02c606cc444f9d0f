#include "ad/ops.hpp"

#include <algorithm>
#include <cmath>

#include "ad/kernels.hpp"
#include "ad/program.hpp"
#include "ad/small_shape.hpp"

namespace mf::ad::ops {

using kernels::BinaryOp;
using kernels::UnaryOp;
using prog::StepKind;

namespace {

// Every kernel an op runs, forward or backward, is one prog::run step:
// the execute body replay uses, recorded by an enclosing Program::capture,
// so a captured plan replays exactly the steps the eager op ran.

/// An opcode as Step::fn.
template <typename Op>
constexpr std::uint8_t code(Op op) {
  return static_cast<std::uint8_t>(op);
}

Tensor elementwise_binary_fwd(const Tensor& a, const Tensor& b, BinaryOp id) {
  const Shape out_shape = broadcast_shape(a.shape(), b.shape());
  Tensor out = Tensor::zeros(out_shape);
  if (a.shape() == b.shape()) {
    prog::run({.kind = StepKind::kBinary, .fn = code(id), .p0 = out.numel()},
              {.a = &a, .b = &b, .out = &out});
  } else {
    const kernels::BroadcastPlan plan(out_shape, a.shape(), b.shape());
    prog::run({.kind = StepKind::kBinaryBcast, .fn = code(id)},
              {.a = &a, .b = &b, .out = &out, .bplan = &plan});
  }
  return out;
}

/// op(a) as one unary step.
Tensor unary_fwd(const Tensor& a, UnaryOp id, real scalar) {
  Tensor out = Tensor::zeros(a.shape());
  prog::run({.kind = StepKind::kUnary,
             .fn = code(id),
             .scalar = scalar,
             .p0 = out.numel()},
            {.a = &a, .out = &out});
  return out;
}

/// `a` summed to `shape` (which broadcasts to a's shape) as one reduce
/// step.
Tensor reduce_fwd(const Tensor& a, const Shape& shape) {
  Tensor out = Tensor::zeros(shape);
  const kernels::ReducePlan plan(a.shape(), shape);
  prog::run({.kind = StepKind::kReduce},
            {.a = &a, .out = &out, .rplan = &plan});
  return out;
}

template <typename B>
Tensor elementwise_unary(const Tensor& a, const char* name, UnaryOp id,
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

/// out = a·b (+ bias) in form F as one matmul step, taped as
/// GemmNode<F>. `out_shape` is [m, n] or a's leading dims then n; the
/// caller has checked the operands.
template <Form F>
Tensor gemm(const char* name, const Tensor& a, const Tensor& b,
            const Tensor& bias, Shape out_shape, int64_t m, int64_t k,
            int64_t n) {
  Tensor out = Tensor::zeros(out_shape);
  prog::run({.kind = StepKind::kMatmul, .fn = code(F), .p0 = m, .p1 = k,
             .p2 = n},
            {.a = &a, .b = &b, .c = &bias, .out = &out});
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
  constexpr UnaryOp kOps[] = {UnaryOp::kGelu, UnaryOp::kGeluD1,
                              UnaryOp::kGeluD2, UnaryOp::kGeluD3};
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
  const kernels::BroadcastPlan plan(shape, t.shape(), t.shape());
  prog::run({.kind = StepKind::kBcastCopy},
            {.a = &t, .out = &out, .bplan = &plan});
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
  const SmallShape orig = t.shape();
  return record(reduce_fwd(t, shape), "reduce_to", {t},
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
  Tensor out = Tensor::zeros(resolved);
  prog::run({.kind = StepKind::kCopy, .p0 = out.numel()},
            {.a = &t, .out = &out});
  const SmallShape orig = t.shape();
  return record(std::move(out), "reshape", {t},
                [orig](const Tensor& g, const std::vector<bool>&) {
                  return std::vector<Tensor>{reshape(g, orig.to_shape())};
                });
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out = elementwise_binary_fwd(a, b, BinaryOp::kAdd);
  const Tensor ins[2] = {a, b};
  return record_typed<AddNode>(std::move(out), ins, 2);
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor out = elementwise_binary_fwd(a, b, BinaryOp::kSub);
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
  Tensor out = elementwise_binary_fwd(a, b, BinaryOp::kMul);
  const Tensor ins[2] = {a, b};
  return record_typed<MulNode>(std::move(out), ins, 2);
}

Tensor div(const Tensor& a, const Tensor& b) {
  Tensor out = elementwise_binary_fwd(a, b, BinaryOp::kDiv);
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
      a, "add_scalar", UnaryOp::kAddScalar, s,
      [](const Tensor& g, const std::vector<bool>&) {
        return std::vector<Tensor>{g};
      });
}

Tensor mul_scalar(const Tensor& a, real s) {
  return elementwise_unary(
      a, "mul_scalar", UnaryOp::kMulScalar, s,
      [s](const Tensor& g, const std::vector<bool>&) {
        return std::vector<Tensor>{mul_scalar(g, s)};
      });
}

Tensor pow_scalar(const Tensor& a, real exponent) {
  return elementwise_unary(
      a, "pow_scalar", UnaryOp::kPowScalar, exponent,
      [a, exponent](const Tensor& g, const std::vector<bool>&) {
        Tensor d = mul_scalar(pow_scalar(a, exponent - 1), exponent);
        return std::vector<Tensor>{mul(g, d)};
      });
}

Tensor neg(const Tensor& a) {
  return elementwise_unary(
      a, "neg", UnaryOp::kNeg, 0,
      [](const Tensor& g, const std::vector<bool>&) {
        return std::vector<Tensor>{neg(g)};
      });
}

Tensor exp(const Tensor& a) {
  return elementwise_unary(
      a, "exp", UnaryOp::kExp, 0,
      [a](const Tensor& g, const std::vector<bool>&) {
        return std::vector<Tensor>{mul(g, exp(a))};
      });
}

Tensor log(const Tensor& a) {
  return elementwise_unary(
      a, "log", UnaryOp::kLog, 0,
      [a](const Tensor& g, const std::vector<bool>&) {
        return std::vector<Tensor>{div(g, a)};
      });
}

Tensor sqrt(const Tensor& a) {
  return elementwise_unary(
      a, "sqrt", UnaryOp::kSqrt, 0,
      [a](const Tensor& g, const std::vector<bool>&) {
        return std::vector<Tensor>{mul(g, mul_scalar(pow_scalar(a, -0.5), 0.5))};
      });
}

Tensor tanh(const Tensor& a) {
  return elementwise_unary(
      a, "tanh", UnaryOp::kTanh, 0,
      [a](const Tensor& g, const std::vector<bool>&) {
        Tensor y = tanh(a);
        Tensor one_minus = add_scalar(neg(mul(y, y)), 1.0);
        return std::vector<Tensor>{mul(g, one_minus)};
      });
}

Tensor abs(const Tensor& a) {
  return elementwise_unary(
      a, "abs", UnaryOp::kAbs, 0,
      [a](const Tensor& g, const std::vector<bool>&) {
        // sign(a) treated as a constant (derivative zero a.e.)
        Tensor s = unary_fwd(a, UnaryOp::kSign, 0);
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
  const SmallShape orig = a.shape();
  return record(reduce_fwd(a, {}), "sum", {a},
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
  // One reduce step even over a size-1 axis, so the result is a fresh
  // tensor.
  const SmallShape orig = s;
  Tensor res = record(reduce_fwd(a, kept), "sum_axis", {a},
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
  // The slice and its backward share one window geometry.
  auto window = [=](prog::WindowForm form) {
    return prog::Step{.kind = StepKind::kWindow, .fn = code(form),
                      .p0 = outer, .p1 = len, .p2 = inner, .p3 = n_axis,
                      .p4 = start, .p5 = axis};
  };
  Tensor out = Tensor::zeros(out_shape);
  prog::run(window(prog::WindowForm::kPack), {.a = &t, .out = &out});
  const SmallShape orig = s;
  return record(std::move(out), "slice", {t},
                [orig, axis, start, len, window](const Tensor& g,
                                                 const std::vector<bool>&) {
                  // Embed g into zeros of the original shape ("pad").
                  Tensor padded = Tensor::zeros(orig.to_shape());
                  prog::run(window(prog::WindowForm::kEmbed),
                            {.a = &g, .out = &padded});
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
  int64_t offset = 0;
  for (const auto& p : parts) {
    const int64_t len = p.size(axis);
    prog::run({.kind = StepKind::kWindow,
               .fn = code(prog::WindowForm::kWrite), .p0 = outer, .p1 = len,
               .p2 = inner, .p3 = total, .p4 = offset, .p5 = axis},
              {.a = &p, .out = &out});
    offset += len;
  }
  // The backward slices g back into the parts. Their lengths ride in a
  // SmallShape up to its rank; wider concats are off the hot path, and a
  // heap-owned list is fine.
  auto taped = [axis, &out, &parts](auto lens) {
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
  };
  return parts.size() <= SmallShape::kMaxRank
             ? taped(SmallShape{})
             : taped(std::vector<int64_t>{});
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
  // The forward and the input and weight gradients share one geometry.
  auto conv_step = [=](StepKind kind) {
    return prog::Step{.kind = kind, .p0 = B, .p1 = Cin, .p2 = L, .p3 = Cout,
                      .p4 = K, .p5 = padding};
  };
  Tensor out = Tensor::zeros({B, Cout, Lout});
  prog::run(conv_step(StepKind::kConv1dFwd),
            {.a = &input, .b = &weight, .c = &bias, .out = &out});
  const bool has_bias = bias.defined();
  const Tensor ins[3] = {input, weight, bias};
  auto backward_fn = [input, weight, conv_step, B, Cin, L, Cout, K, has_bias](
                         const Tensor& g, const std::vector<bool>& needs) {
    // First-order only: these gradients do not record further graph.
    std::vector<Tensor> gs(has_bias ? 3 : 2);
    if (needs[0]) {
      gs[0] = Tensor::zeros({B, Cin, L});
      prog::run(conv_step(StepKind::kConv1dGradIn),
                {.a = &g, .b = &weight, .out = &gs[0]});
    }
    if (needs[1]) {
      gs[1] = Tensor::zeros({Cout, Cin, K});
      prog::run(conv_step(StepKind::kConv1dGradW),
                {.a = &g, .b = &input, .out = &gs[1]});
    }
    if (has_bias && needs[2]) {
      gs[2] = Tensor::zeros({Cout});
      prog::run({.kind = StepKind::kConv1dGradB, .p0 = g.size(0), .p1 = Cout,
                 .p2 = g.size(2)},
                {.a = &g, .out = &gs[2]});
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

namespace {
/// a − b element by element in order, shaped like a (b may differ in
/// shape, not in numel).
Tensor flat_diff(const Tensor& a, const Tensor& b, const char* name) {
  if (a.numel() != b.numel()) {
    throw std::invalid_argument(std::string(name) + ": size mismatch");
  }
  return sub(a, reshape(b, a.shape()));
}
}  // namespace

real mse(const Tensor& a, const Tensor& b) {
  NoGradGuard no_grad;
  const Tensor d = flat_diff(a, b, "mse");
  return sum(mul(d, d)).item() / static_cast<real>(a.numel());
}

real mae(const Tensor& a, const Tensor& b) {
  NoGradGuard no_grad;
  return sum(abs(flat_diff(a, b, "mae"))).item() /
         static_cast<real>(a.numel());
}

}  // namespace mf::ad::ops
