// conv1d kernel checks shared by test_kernels (f64) and test_precision
// (f32).
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ad/kernels.hpp"
#include "util/rng.hpp"

namespace conv1d_checks {

namespace kernels = mf::ad::kernels;

/// Each gradient kernel multiplies every grad_out element in, zeros
/// included: a zero grad_out element against an infinite weight (for
/// grad_input) or input (for grad_weight) makes the element it feeds NaN,
/// as the IEEE product 0·inf is, where a kernel that skips zero gradients
/// leaves it finite. B = 2, Cin = 2, L = 7, Cout = 3, K = 3, padding 1;
/// grad_out[1][1][3] = 0 meets w[1][0][1] = +inf at grad_input[1][0][3],
/// and input[1][0][3] = +inf at grad_weight[1][0][1].
template <typename T>
void expect_grads_propagate_zero_times_inf() {
  constexpr int64_t B = 2, Cin = 2, L = 7, Cout = 3, K = 3, P = 1;
  constexpr int64_t Lout = L + 2 * P - K + 1;
  mf::util::Rng rng(61);
  auto fill = [&](int64_t n) {
    std::vector<T> v(static_cast<std::size_t>(n));
    for (auto& e : v) e = static_cast<T>(rng.uniform(0.5, 1.5));
    return v;
  };
  std::vector<T> grad_out = fill(B * Cout * Lout);
  std::vector<T> weight = fill(Cout * Cin * K);
  std::vector<T> input = fill(B * Cin * L);
  const T inf = std::numeric_limits<T>::infinity();
  grad_out[(1 * Cout + 1) * Lout + 3] = T(0);

  std::vector<T> w_inf = weight;
  w_inf[(1 * Cin + 0) * K + 1] = inf;
  std::vector<T> grad_input(static_cast<std::size_t>(B * Cin * L), T(0));
  kernels::conv1d_grad_input(grad_out.data(), w_inf.data(), grad_input.data(),
                             B, Cin, L, Cout, K, P);
  EXPECT_TRUE(std::isnan(grad_input[(1 * Cin + 0) * L + 3]))
      << "grad_input: " << grad_input[(1 * Cin + 0) * L + 3];

  std::vector<T> in_inf = input;
  in_inf[(1 * Cin + 0) * L + 3] = inf;
  std::vector<T> grad_weight(static_cast<std::size_t>(Cout * Cin * K), T(0));
  kernels::conv1d_grad_weight(grad_out.data(), in_inf.data(),
                              grad_weight.data(), B, Cin, L, Cout, K, P);
  EXPECT_TRUE(std::isnan(grad_weight[(1 * Cin + 0) * K + 1]))
      << "grad_weight: " << grad_weight[(1 * Cin + 0) * K + 1];
}

}  // namespace conv1d_checks
