// Reverse-mode autodiff engine: graph nodes, topological traversal,
// grad-of-grad via `create_graph`.
//
// Recording an op costs one std::make_shared (node plus control block) and
// one input vector — no std::function, no std::string. The hottest ops
// (linear, gelu, matmul, add, mul) use typed nodes with no captured state
// at all; the rest store their backward lambda inline in a templated node.
#pragma once

#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ad/tensor.hpp"

namespace mf::ad {

/// A recorded operation in the autograd graph. Nodes own their input
/// tensors (keeping upstream graph alive). `backward` returns one gradient
/// per input; entries for inputs with `needs[i] == false` may be undefined.
///
/// Backward implementations are written in terms of Tensor ops, so running
/// them with grad mode enabled (create_graph) yields a differentiable graph
/// of the gradients themselves — this is what enables the second-order
/// derivatives of the PDE loss.
struct Node {
  explicit Node(const char* op_name) : name(op_name) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  virtual std::vector<Tensor> backward(const Tensor& grad_out,
                                       const std::vector<bool>& needs) = 0;

  /// Copy the `n` input tensors into the node. Called exactly once, at
  /// record time.
  void set_inputs(const Tensor* src, std::size_t n) {
    inputs_.assign(src, src + n);
  }

  std::size_t num_inputs() const { return inputs_.size(); }
  const Tensor& input(std::size_t i) const { return inputs_[i]; }

  const char* name;  // static-storage op name; no per-node string

 private:
  std::vector<Tensor> inputs_;
};

/// Node whose backward is a lambda stored inline in the node itself (one
/// instantiation per lambda type — no type erasure, no std::function).
template <typename F>
struct LambdaNode final : Node {
  LambdaNode(const char* op_name, F fn) : Node(op_name), fn_(std::move(fn)) {}

  std::vector<Tensor> backward(const Tensor& grad_out,
                               const std::vector<bool>& needs) override {
    return fn_(grad_out, needs);
  }

  F fn_;
};

namespace detail {
/// True when grad mode is on and any input participates in autograd.
bool wants_grad(const Tensor* inputs, std::size_t n);
/// Wire `node` (with `inputs`) in as grad_fn of `out`.
Tensor attach(Tensor out, std::shared_ptr<Node> node, const Tensor* inputs,
              std::size_t n);
}  // namespace detail

/// Attach a grad_fn to `out` if grad mode is on and any input requires
/// grad. Returns `out` for chaining. This pointer+count overload is the
/// primitive; the initializer_list/vector forms below delegate to it.
template <typename F>
Tensor record(Tensor out, const char* name, const Tensor* inputs,
              std::size_t n, F&& backward) {
  if (!detail::wants_grad(inputs, n)) return out;
  auto node =
      std::make_shared<LambdaNode<std::decay_t<F>>>(name, std::forward<F>(backward));
  return detail::attach(std::move(out), std::move(node), inputs, n);
}

template <typename F>
Tensor record(Tensor out, const char* name, std::initializer_list<Tensor> inputs,
              F&& backward) {
  return record(std::move(out), name, inputs.begin(), inputs.size(),
                std::forward<F>(backward));
}

/// Overload for a dynamic input list (concat).
template <typename F>
Tensor record(Tensor out, const char* name, const std::vector<Tensor>& inputs,
              F&& backward) {
  return record(std::move(out), name, inputs.data(), inputs.size(),
                std::forward<F>(backward));
}

/// Record with an explicit (typed, capture-free) node type; used for the
/// hottest ops whose backward reads everything from `input(i)`.
template <typename NodeT, typename... Args>
Tensor record_typed(Tensor out, const Tensor* inputs, std::size_t n,
                    Args&&... args) {
  if (!detail::wants_grad(inputs, n)) return out;
  auto node = std::make_shared<NodeT>(std::forward<Args>(args)...);
  return detail::attach(std::move(out), std::move(node), inputs, n);
}

/// d(output)/d(inputs). `output` need not be scalar if `grad_output` is
/// supplied (vector-Jacobian product). Only gradients for `inputs` are
/// computed; graph branches that cannot reach any requested input are
/// pruned (needed so that e.g. the x-derivative of the network does not
/// drag the boundary-embedding branch into the second-order graph).
///
/// With `create_graph == true` the returned gradients are themselves
/// differentiable.
std::vector<Tensor> grad(const Tensor& output, const std::vector<Tensor>& inputs,
                         const Tensor& grad_output = Tensor(),
                         bool create_graph = false);

/// Standard training backward: accumulate d(output)/d(leaf) into
/// `leaf.grad()` for every reachable leaf with requires_grad.
void backward(const Tensor& output, const Tensor& grad_output = Tensor());

/// Count of nodes reachable from `t`'s grad_fn (diagnostics / tests).
std::size_t graph_size(const Tensor& t);

}  // namespace mf::ad
