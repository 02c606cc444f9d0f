// Dense double-precision tensor with reverse-mode automatic differentiation.
//
// This is the autodiff substrate for the physics-informed neural PDE
// solvers. It supports `create_graph` (the backward pass itself builds a
// differentiable graph), which is required for the PDE residual loss of the
// paper: computing d^2 N / dx^2 needs grad-of-grad, and the final weight
// update differentiates *through* those second-derivative graphs — the
// "three backward passes" described in Sec. 5.2 of the paper.
//
// Design notes:
//  * Tensors are contiguous, row-major, value-semantic handles over a
//    shared implementation (`TensorImpl`).
//  * Ops are free functions in ops.hpp that record `Node`s on a tape when
//    grad mode is enabled and any input requires grad.
//  * Every byte of tensor payload is tracked by `MemoryTracker`, which is
//    how we reproduce the paper's Table 3 (autograd-graph memory with and
//    without the PDE loss).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ad/dtype.hpp"

namespace mf::ad {

using real = double;
using Shape = std::vector<int64_t>;

/// Number of elements implied by a shape.
int64_t numel_of(const Shape& shape);

/// Human-readable "[2, 3]" form, for error messages.
std::string shape_str(const Shape& shape);

/// Row-major strides for a shape.
std::vector<int64_t> strides_of(const Shape& shape);

/// Global accounting of live tensor payload bytes. Reproduces the
/// methodology of Table 3: peak memory during forward+loss+backward.
class MemoryTracker {
 public:
  static MemoryTracker& instance();

  void on_alloc(std::size_t bytes);
  void on_free(std::size_t bytes);

  /// Currently live payload bytes.
  std::size_t live_bytes() const { return live_.load(); }
  /// High-water mark since the last reset_peak().
  std::size_t peak_bytes() const { return peak_.load(); }
  void reset_peak();

  /// Payload allocations with nonzero bytes since process start. Compiled
  /// replay runs on the plan's own buffers, so a steady-state replay
  /// leaves this unchanged.
  std::uint64_t payload_allocs() const {
    return allocs_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::size_t> live_{0};
  std::atomic<std::size_t> peak_{0};
  std::atomic<std::uint64_t> allocs_{0};
};

struct Node;  // defined in engine.hpp

/// Byte-addressed tensor payload with a dtype tag. The eager stack's
/// native width is f64 (`real`), and every Tensor handed to user code is
/// f64 — the f64-typed accessors below assume that and are what the whole
/// eager layer compiles against. f32 payloads exist for the compiled-plan
/// compute path; they are addressed through raw() / f32().
class Payload {
 public:
  Payload() = default;
  /// n elements of dtype dt, zero-filled.
  Payload(std::size_t n, DType dt);
  ~Payload() = default;

  Payload(Payload&&) noexcept = default;
  Payload& operator=(Payload&&) noexcept = default;
  Payload(const Payload&) = delete;
  /// Byte copy (module load paths assign same-shaped payloads; reuses the
  /// destination's capacity, so steady-state assigns do not allocate).
  Payload& operator=(const Payload& o);

  DType dtype() const { return dt_; }
  /// Element count.
  std::size_t size() const { return raw_.size() / dtype_size(dt_); }
  std::size_t size_bytes() const { return raw_.size(); }
  void* raw() { return raw_.data(); }
  const void* raw() const { return raw_.data(); }

  // f64 view — the only width the eager ops/autodiff layer touches.
  real* data() { return reinterpret_cast<real*>(raw_.data()); }
  const real* data() const {
    return reinterpret_cast<const real*>(raw_.data());
  }
  real* begin() { return data(); }
  real* end() { return data() + size(); }
  const real* begin() const { return data(); }
  const real* end() const { return data() + size(); }
  real& operator[](std::size_t i) { return data()[i]; }
  real operator[](std::size_t i) const { return data()[i]; }

  // f32 view (compiled-plan internals).
  float* f32() { return reinterpret_cast<float*>(raw_.data()); }
  const float* f32() const {
    return reinterpret_cast<const float*>(raw_.data());
  }

 private:
  std::vector<std::byte> raw_;
  DType dt_ = DType::kF64;
};

/// Shared payload of a Tensor. Allocation and deallocation are reported to
/// the MemoryTracker.
struct TensorImpl {
  explicit TensorImpl(Shape shape);
  TensorImpl(Shape shape, std::vector<real> values);
  ~TensorImpl();

  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;

  Payload data;
  Shape shape;
  bool requires_grad = false;
  std::shared_ptr<Node> grad_fn;         // null for leaves
  std::shared_ptr<TensorImpl> grad;      // accumulated by backward()
};

/// Value-semantic handle to a (possibly autograd-tracked) tensor.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  // ---- construction ----
  static Tensor zeros(const Shape& shape);
  static Tensor ones(const Shape& shape);
  static Tensor full(const Shape& shape, real value);
  static Tensor from_vector(std::vector<real> values, const Shape& shape);
  static Tensor scalar(real value);

  // ---- basic queries ----
  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const { return impl_->shape; }
  int64_t dim() const { return static_cast<int64_t>(impl_->shape.size()); }
  int64_t numel() const { return static_cast<int64_t>(impl_->data.size()); }
  int64_t size(int64_t axis) const;

  real* data() { return impl_->data.data(); }
  const real* data() const { return impl_->data.data(); }
  Payload& vec() { return impl_->data; }
  const Payload& vec() const { return impl_->data; }

  /// Value of a 0-d or single-element tensor.
  real item() const;
  /// Read element by multi-index (slow; for tests and small tensors).
  real at(std::initializer_list<int64_t> idx) const;
  /// Mutable element access by flat index.
  real& flat(int64_t i) { return impl_->data[static_cast<std::size_t>(i)]; }
  real flat(int64_t i) const { return impl_->data[static_cast<std::size_t>(i)]; }

  // ---- autograd ----
  Tensor& set_requires_grad(bool value);
  bool requires_grad() const { return impl_ && impl_->requires_grad; }
  bool has_grad_fn() const { return impl_ && impl_->grad_fn != nullptr; }
  std::shared_ptr<Node> grad_fn() const { return impl_ ? impl_->grad_fn : nullptr; }
  /// Gradient accumulated by backward(); undefined Tensor if none.
  Tensor grad() const;
  void set_grad(const Tensor& g);
  void zero_grad();
  /// A view-copy sharing no autograd history.
  Tensor detach() const;
  /// Deep copy of the payload (no autograd history).
  Tensor clone() const;

  TensorImpl* impl_ptr() const { return impl_.get(); }
  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }

 private:
  std::shared_ptr<TensorImpl> impl_;
};

/// Thread-local autograd recording mode (mirrors torch.no_grad()).
class GradMode {
 public:
  static bool enabled();
  static void set_enabled(bool value);
};

/// RAII guard disabling autograd recording in scope.
class NoGradGuard {
 public:
  NoGradGuard() : prev_(GradMode::enabled()) { GradMode::set_enabled(false); }
  ~NoGradGuard() { GradMode::set_enabled(prev_); }
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

}  // namespace mf::ad
