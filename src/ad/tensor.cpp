#include "ad/tensor.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "ad/program.hpp"

namespace mf::ad {

int64_t numel_of(const Shape& shape) {
  int64_t n = 1;
  for (int64_t s : shape) n *= s;
  return n;
}

std::string shape_str(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

std::vector<int64_t> strides_of(const Shape& shape) {
  std::vector<int64_t> strides(shape.size(), 1);
  for (int64_t i = static_cast<int64_t>(shape.size()) - 2; i >= 0; --i) {
    strides[i] = strides[i + 1] * shape[i + 1];
  }
  return strides;
}

MemoryTracker& MemoryTracker::instance() {
  static MemoryTracker tracker;
  return tracker;
}

void MemoryTracker::on_alloc(std::size_t bytes) {
  if (bytes) allocs_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t now = live_.fetch_add(bytes) + bytes;
  // Lock-free peak update.
  std::size_t peak = peak_.load();
  while (now > peak && !peak_.compare_exchange_weak(peak, now)) {
  }
}

void MemoryTracker::on_free(std::size_t bytes) { live_.fetch_sub(bytes); }

void MemoryTracker::reset_peak() { peak_.store(live_.load()); }

Payload::Payload(std::size_t n, DType dt) : raw_(n * dtype_size(dt)), dt_(dt) {}

Payload& Payload::operator=(const Payload& o) {
  if (this != &o) {
    raw_.assign(o.raw_.begin(), o.raw_.end());  // reuses capacity when equal
    dt_ = o.dt_;
  }
  return *this;
}

TensorImpl::TensorImpl(Shape shape_in)
    : data(static_cast<std::size_t>(numel_of(shape_in)), DType::kF64),
      shape(std::move(shape_in)) {
  MemoryTracker::instance().on_alloc(data.size_bytes());
}

TensorImpl::TensorImpl(Shape shape_in, std::vector<real> values)
    : data(values.size(), DType::kF64), shape(std::move(shape_in)) {
  if (static_cast<int64_t>(data.size()) != numel_of(shape)) {
    throw std::invalid_argument("TensorImpl: data size does not match shape " +
                                shape_str(shape));
  }
  std::copy(values.begin(), values.end(), data.begin());
  MemoryTracker::instance().on_alloc(data.size_bytes());
}

TensorImpl::~TensorImpl() {
  MemoryTracker::instance().on_free(data.size_bytes());
}

Tensor Tensor::zeros(const Shape& shape) {
  return Tensor(std::make_shared<TensorImpl>(shape));
}

Tensor Tensor::ones(const Shape& shape) { return full(shape, real{1}); }

Tensor Tensor::full(const Shape& shape, real value) {
  auto impl = std::make_shared<TensorImpl>(shape);
  std::fill(impl->data.begin(), impl->data.end(), value);
  return Tensor(std::move(impl));
}

Tensor Tensor::from_vector(std::vector<real> values, const Shape& shape) {
  return Tensor(std::make_shared<TensorImpl>(shape, std::move(values)));
}

Tensor Tensor::scalar(real value) { return full({}, value); }

int64_t Tensor::size(int64_t axis) const {
  const auto& s = impl_->shape;
  if (axis < 0) axis += static_cast<int64_t>(s.size());
  if (axis < 0 || axis >= static_cast<int64_t>(s.size())) {
    throw std::out_of_range("Tensor::size axis out of range for " +
                            shape_str(s));
  }
  return s[static_cast<std::size_t>(axis)];
}

real Tensor::item() const {
  if (numel() != 1) {
    throw std::logic_error("Tensor::item on tensor with shape " +
                           shape_str(shape()));
  }
  return impl_->data[0];
}

real Tensor::at(std::initializer_list<int64_t> idx) const {
  const auto strides = strides_of(impl_->shape);
  if (idx.size() != impl_->shape.size()) {
    throw std::invalid_argument("Tensor::at rank mismatch");
  }
  int64_t flat = 0;
  std::size_t d = 0;
  for (int64_t i : idx) flat += i * strides[d++];
  return impl_->data[static_cast<std::size_t>(flat)];
}

Tensor& Tensor::set_requires_grad(bool value) {
  if (value && impl_->grad_fn) {
    throw std::logic_error(
        "set_requires_grad(true) on a non-leaf tensor is not supported");
  }
  impl_->requires_grad = value;
  return *this;
}

Tensor Tensor::grad() const {
  if (!impl_ || !impl_->grad) return Tensor();
  return Tensor(impl_->grad);
}

void Tensor::set_grad(const Tensor& g) { impl_->grad = g.impl(); }

void Tensor::zero_grad() { impl_->grad.reset(); }

Tensor Tensor::detach() const {
  // Detach copies move live data (e.g. gradient accumulation into `.grad`
  // snapshots), so they run as a copy step a capturing program records.
  Tensor out = zeros(impl_->shape);
  prog::run({.kind = prog::StepKind::kCopy, .p0 = out.numel()},
            {.a = this, .out = &out});
  return out;
}

Tensor Tensor::clone() const { return detach(); }

namespace {
thread_local bool g_grad_mode = true;
}  // namespace

bool GradMode::enabled() { return g_grad_mode; }
void GradMode::set_enabled(bool value) { g_grad_mode = value; }

}  // namespace mf::ad
