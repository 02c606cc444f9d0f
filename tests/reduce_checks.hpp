// Conformance of kernels::reduce_broadcast against the gather loop: one
// double accumulator per output, starting from +0, adding the output's
// preimage with the reduced indices in row-major order (last reduced axis
// fastest), narrowed once at the store. The kernel adds whole source rows
// into a row of such accumulators when src's innermost axis is kept, and
// must give this loop's bits at every shape, width and thread count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "ad/kernels.hpp"
#include "util/rng.hpp"

namespace reduce_checks {

namespace kernels = mf::ad::kernels;
using mf::ad::Shape;

/// The reference: every output sums its own preimage.
template <typename T>
std::vector<T> gather_reduce(const kernels::ReducePlan& plan,
                             const std::vector<T>& src) {
  std::vector<T> dst(static_cast<std::size_t>(plan.n_out));
  const auto n_kept = static_cast<int64_t>(plan.out_sizes.size());
  const auto n_reddims = static_cast<int64_t>(plan.red_sizes.size());
  std::vector<int64_t> rid(static_cast<std::size_t>(n_reddims));
  for (int64_t o = 0; o < plan.n_out; ++o) {
    int64_t base = 0, rem = o;
    for (int64_t d = n_kept - 1; d >= 0; --d) {
      const auto du = static_cast<std::size_t>(d);
      base += (rem % plan.out_sizes[du]) * plan.out_src_strides[du];
      rem /= plan.out_sizes[du];
    }
    double acc = 0;
    std::fill(rid.begin(), rid.end(), 0);
    int64_t roff = 0;
    for (int64_t r = 0; r < plan.n_red; ++r) {
      acc += src[static_cast<std::size_t>(base + roff)];
      for (int64_t d = n_reddims - 1; d >= 0; --d) {
        const auto du = static_cast<std::size_t>(d);
        rid[du]++;
        roff += plan.red_src_strides[du];
        if (rid[du] < plan.red_sizes[du]) break;
        roff -= plan.red_src_strides[du] * plan.red_sizes[du];
        rid[du] = 0;
      }
    }
    dst[static_cast<std::size_t>(o)] = static_cast<T>(acc);
  }
  return dst;
}

/// Source values of mode 0 (uniform in [-2, 2)), 1 (a quarter of them ±0)
/// or 2 (all ±0, so whole preimages can be -0 only).
template <typename T>
std::vector<T> source(int64_t n, int mode, mf::util::Rng& rng) {
  std::vector<T> v(static_cast<std::size_t>(n));
  for (T& x : v) {
    const bool zero = mode == 2 || (mode == 1 && rng.uniform(0.0, 1.0) < 0.25);
    x = zero ? (rng.uniform(0.0, 1.0) < 0.5 ? T(-0.0) : T(0.0))
             : static_cast<T>(rng.uniform(-2.0, 2.0));
  }
  return v;
}

/// Empty when reduce_broadcast(src -> dst) equals gather_reduce bitwise,
/// else the first mismatch.
template <typename T>
std::string check_reduce(const Shape& src, const Shape& dst, int mode,
                         mf::util::Rng& rng) {
  const kernels::ReducePlan plan(src, dst);
  const std::vector<T> in = source<T>(mf::ad::numel_of(src), mode, rng);
  std::vector<T> got(static_cast<std::size_t>(plan.n_out), T(-7));
  kernels::reduce_broadcast(plan, in.data(), got.data());
  const std::vector<T> want = gather_reduce(plan, in);
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(T)) != 0) {
      return "output " + std::to_string(i) + ": " + std::to_string(got[i]) +
             " vs " + std::to_string(want[i]);
    }
  }
  return "";
}

}  // namespace reduce_checks
