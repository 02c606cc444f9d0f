// Inline fixed-capacity shape, for backward-lambda captures.
//
// A backward lambda that captured a `Shape` (std::vector<int64_t>) by
// value would heap-allocate the vector's buffer at every record. Every
// tensor in this codebase has rank <= 4, so a small inline array keeps
// those captures inside the node itself.
//
// SmallShape is also reused for other tiny int64 lists captured by
// lambdas (e.g. concat's per-part lengths).
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>

#include "ad/tensor.hpp"

namespace mf::ad {

class SmallShape {
 public:
  static constexpr std::size_t kMaxRank = 8;

  SmallShape() = default;
  SmallShape(const Shape& s) {  // implicit: drop-in for lambda captures
    if (s.size() > kMaxRank) {
      throw std::invalid_argument("SmallShape: rank > 8 unsupported");
    }
    n_ = static_cast<std::uint32_t>(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) d_[i] = s[i];
  }

  std::size_t size() const { return n_; }
  int64_t operator[](std::size_t i) const { return d_[i]; }

  /// Append one extent (callers guarantee size() < kMaxRank, e.g. by
  /// taking the heap fallback for wider lists).
  void push_back(int64_t extent) {
    if (n_ >= kMaxRank) {
      throw std::logic_error("SmallShape::push_back: capacity exceeded");
    }
    d_[n_++] = extent;
  }

  /// Materialize as the vector type the ops API takes. Only runs when a
  /// backward actually executes, never at record time.
  Shape to_shape() const { return Shape(d_.begin(), d_.begin() + n_); }

 private:
  std::array<int64_t, kMaxRank> d_{};
  std::uint32_t n_ = 0;
};

}  // namespace mf::ad
