#include "ad/engine.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "ad/ops.hpp"

namespace mf::ad {

namespace detail {

bool wants_grad(const Tensor* inputs, std::size_t n) {
  if (!GradMode::enabled()) return false;
  for (std::size_t i = 0; i < n; ++i) {
    const Tensor& in = inputs[i];
    if (in.defined() && (in.requires_grad() || in.has_grad_fn())) return true;
  }
  return false;
}

Tensor attach(Tensor out, std::shared_ptr<Node> node, const Tensor* inputs,
              std::size_t n) {
  node->set_inputs(inputs, n);
  out.impl()->grad_fn = std::move(node);
  return out;
}

}  // namespace detail

namespace {

/// Topological order (outputs first) of the graph reachable from `root`.
std::vector<Node*> topo_order(Node* root) {
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  // Iterative post-order DFS.
  struct Frame {
    Node* node;
    std::size_t next_child;
  };
  std::vector<Frame> stack;
  if (!root || visited.count(root)) return order;
  stack.push_back({root, 0});
  visited.insert(root);
  while (!stack.empty()) {
    Frame& f = stack.back();
    bool descended = false;
    while (f.next_child < f.node->num_inputs()) {
      const Tensor& in = f.node->input(f.next_child++);
      Node* child = in.defined() ? in.grad_fn().get() : nullptr;
      if (child && !visited.count(child)) {
        visited.insert(child);
        stack.push_back({child, 0});
        descended = true;
        break;
      }
    }
    if (!descended && f.next_child >= f.node->num_inputs()) {
      order.push_back(f.node);
      stack.pop_back();
    }
  }
  // Post-order gives children first; reverse for outputs-first.
  std::reverse(order.begin(), order.end());
  return order;
}

struct Accumulator {
  std::unordered_map<const TensorImpl*, Tensor> grads;

  void add(const Tensor& target, const Tensor& g) {
    auto it = grads.find(target.impl_ptr());
    if (it == grads.end()) {
      grads.emplace(target.impl_ptr(), g);
    } else {
      it->second = ops::add(it->second, g);
    }
  }

  Tensor take(const TensorImpl* key) {
    auto it = grads.find(key);
    if (it == grads.end()) return Tensor();
    Tensor g = it->second;
    grads.erase(it);
    return g;
  }
};

/// Runs the reverse sweep. `wanted` maps leaf impls (or intermediate impls)
/// to output slots. If `accumulate_leaves` is set, gradients are instead
/// accumulated into every reachable requires_grad leaf's `.grad`.
void run_backward(const Tensor& output, const Tensor& grad_output,
                  const std::vector<Tensor>& inputs, bool create_graph,
                  bool accumulate_leaves, std::vector<Tensor>* results) {
  Tensor seed = grad_output;
  if (!seed.defined()) {
    if (output.numel() != 1) {
      throw std::logic_error(
          "grad/backward on non-scalar output requires an explicit "
          "grad_output");
    }
    seed = Tensor::ones(output.shape());
  }

  std::unordered_map<const TensorImpl*, std::size_t> wanted;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    wanted.emplace(inputs[i].impl_ptr(), i);
  }
  if (results) results->assign(inputs.size(), Tensor());

  auto deliver = [&](const Tensor& target, const Tensor& g) {
    if (results) {
      auto it = wanted.find(target.impl_ptr());
      if (it != wanted.end()) {
        Tensor& slot = (*results)[it->second];
        slot = slot.defined() ? ops::add(slot, g) : g;
      }
    }
    if (accumulate_leaves && target.requires_grad() && !target.has_grad_fn()) {
      Tensor existing = target.grad();
      Tensor sum = existing.defined() ? ops::add(existing, g).detach() : g.detach();
      const_cast<Tensor&>(target).set_grad(sum);
    }
  };

  // Direct request of the output itself.
  deliver(output, seed);

  Node* root = output.grad_fn().get();
  if (!root) return;

  const std::vector<Node*> order = topo_order(root);

  // Need-set: a node is needed if a requested input or a requires_grad leaf
  // (when accumulating) is reachable from it. Compute children-first.
  std::unordered_map<Node*, bool> needed;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* n = *it;
    bool need = false;
    for (std::size_t i = 0; i < n->num_inputs(); ++i) {
      const Tensor& in = n->input(i);
      if (!in.defined()) continue;
      if (wanted.count(in.impl_ptr())) need = true;
      if (accumulate_leaves && in.requires_grad() && !in.has_grad_fn()) need = true;
      Node* child = in.grad_fn().get();
      if (child) {
        auto found = needed.find(child);
        if (found != needed.end() && found->second) need = true;
        // Also: the child's *output* tensor could itself be requested.
        if (wanted.count(in.impl_ptr())) need = true;
      }
    }
    needed[n] = need;
  }

  Accumulator acc;
  acc.grads.emplace(output.impl_ptr(), seed);

  // Map from node -> the impl of its output tensor is implicit: a node is
  // reached through the tensor that holds it. We track pending grads keyed
  // by TensorImpl*, and for each node in topo order we need the grad of its
  // output — located via the recorded owner map below.
  std::unordered_map<Node*, const TensorImpl*> owner;
  owner.emplace(root, output.impl_ptr());
  for (Node* n : order) {
    for (std::size_t i = 0; i < n->num_inputs(); ++i) {
      const Tensor& in = n->input(i);
      if (in.defined() && in.grad_fn()) {
        owner.emplace(in.grad_fn().get(), in.impl_ptr());
      }
    }
  }

  // Restores the caller's grad mode on every exit, including a backward
  // that throws (gelu_d3's does).
  struct ModeRestore {
    bool prev;
    ~ModeRestore() { GradMode::set_enabled(prev); }
  } restore{GradMode::enabled()};
  GradMode::set_enabled(create_graph);
  for (Node* n : order) {
    if (!needed[n]) continue;
    Tensor gout = acc.take(owner[n]);
    if (!gout.defined()) continue;  // no gradient flowed to this node
    std::vector<bool> needs(n->num_inputs(), false);
    for (std::size_t i = 0; i < n->num_inputs(); ++i) {
      const Tensor& in = n->input(i);
      if (!in.defined()) continue;
      if (wanted.count(in.impl_ptr())) needs[i] = true;
      if (accumulate_leaves && in.requires_grad() && !in.has_grad_fn()) needs[i] = true;
      Node* child = in.grad_fn().get();
      if (child && needed[child]) needs[i] = true;
    }
    std::vector<Tensor> gin = n->backward(gout, needs);
    if (gin.size() != n->num_inputs()) {
      throw std::logic_error("node '" + std::string(n->name) +
                             "' returned wrong number of gradients");
    }
    for (std::size_t i = 0; i < gin.size(); ++i) {
      if (!needs[i] || !gin[i].defined()) continue;
      const Tensor& in = n->input(i);
      deliver(in, gin[i]);
      if (in.grad_fn()) acc.add(in, gin[i]);
    }
  }
}

}  // namespace

std::vector<Tensor> grad(const Tensor& output, const std::vector<Tensor>& inputs,
                         const Tensor& grad_output, bool create_graph) {
  std::vector<Tensor> results;
  run_backward(output, grad_output, inputs, create_graph,
               /*accumulate_leaves=*/false, &results);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].defined()) {
      results[i] = Tensor::zeros(inputs[i].shape());
    }
  }
  return results;
}

void backward(const Tensor& output, const Tensor& grad_output) {
  run_backward(output, grad_output, {}, /*create_graph=*/false,
               /*accumulate_leaves=*/true, nullptr);
}

std::size_t graph_size(const Tensor& t) {
  Node* root = t.grad_fn().get();
  if (!root) return 0;
  return topo_order(root).size();
}

}  // namespace mf::ad
