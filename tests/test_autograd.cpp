// Autograd engine tests: forward values, first-order gradients
// (gradcheck vs finite differences), higher-order derivatives with
// create_graph — the capability the physics-informed loss depends on.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>
#include <vector>

#include "ad/gradcheck.hpp"
#include "ad/ops.hpp"
#include "util/rng.hpp"

namespace ad = mf::ad;
namespace ops = mf::ad::ops;
using ad::Shape;
using ad::Tensor;

namespace {

Tensor randt(const Shape& shape, unsigned seed, double scale = 1.0) {
  mf::util::Rng rng(seed);
  Tensor t = Tensor::zeros(shape);
  for (int64_t i = 0; i < t.numel(); ++i) t.flat(i) = rng.uniform(-scale, scale);
  return t;
}

}  // namespace

// ---------- forward values ----------

TEST(OpsForward, AddBroadcast) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor b = Tensor::from_vector({10, 20, 30}, {3});
  Tensor c = ops::add(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_EQ(c.at({0, 0}), 11);
  EXPECT_EQ(c.at({1, 2}), 36);
}

TEST(OpsForward, BroadcastMiddleAxis) {
  // [2,1,3] * [2,2,3] — middle-axis broadcast, the split-layer pattern.
  Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, {2, 1, 3});
  Tensor b = Tensor::ones({2, 2, 3});
  Tensor c = ops::mul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2, 3}));
  EXPECT_EQ(c.at({0, 0, 0}), 1);
  EXPECT_EQ(c.at({0, 1, 2}), 3);
  EXPECT_EQ(c.at({1, 1, 0}), 4);
}

TEST(OpsForward, IncompatibleBroadcastThrows) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor b = Tensor::zeros({2, 4});
  EXPECT_THROW(ops::add(a, b), std::invalid_argument);
}

TEST(OpsForward, MatmulValues) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4}, {2, 2});
  Tensor b = Tensor::from_vector({5, 6, 7, 8}, {2, 2});
  Tensor c = ops::matmul(a, b);
  EXPECT_EQ(c.at({0, 0}), 19);
  EXPECT_EQ(c.at({0, 1}), 22);
  EXPECT_EQ(c.at({1, 0}), 43);
  EXPECT_EQ(c.at({1, 1}), 50);
}

TEST(OpsForward, MatmulBatched3d) {
  Tensor a = randt({2, 3, 4}, 1);
  Tensor b = randt({4, 5}, 2);
  Tensor c = ops::matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 3, 5}));
  // Check one element against a manual dot product.
  double acc = 0;
  for (int k = 0; k < 4; ++k) acc += a.at({1, 2, k}) * b.at({k, 3});
  EXPECT_NEAR(c.at({1, 2, 3}), acc, 1e-12);
}

TEST(OpsForward, SumMeanAxis) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, {2, 3});
  EXPECT_EQ(ops::sum(a).item(), 21);
  EXPECT_NEAR(ops::mean(a).item(), 3.5, 1e-12);
  Tensor s0 = ops::sum_axis(a, 0, false);
  EXPECT_EQ(s0.shape(), (Shape{3}));
  EXPECT_EQ(s0.flat(0), 5);
  Tensor s1 = ops::sum_axis(a, 1, true);
  EXPECT_EQ(s1.shape(), (Shape{2, 1}));
  EXPECT_EQ(s1.flat(1), 15);
}

TEST(OpsForward, SliceConcatRoundTrip) {
  Tensor a = randt({3, 5}, 3);
  Tensor left = ops::slice(a, 1, 0, 2);
  Tensor right = ops::slice(a, 1, 2, 3);
  Tensor back = ops::concat({left, right}, 1);
  EXPECT_EQ(back.shape(), a.shape());
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(back.flat(i), a.flat(i));
}

TEST(OpsForward, TransposedGemmsAndReshape) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, {2, 3});
  // aᵀ·I and I·aᵀ are aᵀ, read through the TN and NT forms.
  Tensor eye2 = Tensor::from_vector({1, 0, 0, 1}, {2, 2});
  Tensor eye3 = Tensor::from_vector({1, 0, 0, 0, 1, 0, 0, 0, 1}, {3, 3});
  for (const Tensor& t : {ops::matmul_tn(a, eye2), ops::matmul_nt(eye3, a)}) {
    EXPECT_EQ(t.shape(), (Shape{3, 2}));
    EXPECT_EQ(t.at({2, 0}), 3);
    EXPECT_EQ(t.at({0, 1}), 4);
  }
  EXPECT_THROW(ops::matmul_tn(a, eye3), std::invalid_argument);
  EXPECT_THROW(ops::matmul_nt(a, eye2), std::invalid_argument);
  Tensor r = ops::reshape(a, {3, -1});
  EXPECT_EQ(r.shape(), (Shape{3, 2}));
  EXPECT_EQ(r.at({1, 1}), 4);
}

TEST(OpsForward, UnaryValues) {
  Tensor a = Tensor::from_vector({0.0, 1.0, -1.0}, {3});
  EXPECT_NEAR(ops::exp(a).flat(1), std::exp(1.0), 1e-12);
  EXPECT_NEAR(ops::tanh(a).flat(2), std::tanh(-1.0), 1e-12);
  EXPECT_NEAR(ops::abs(a).flat(2), 1.0, 1e-12);
  EXPECT_NEAR(ops::gelu(a).flat(0), 0.0, 1e-12);
  // GELU(1) ~ 0.8411919906082768 (tanh approximation)
  EXPECT_NEAR(ops::gelu(a).flat(1), 0.8411919906082768, 1e-9);
  EXPECT_NEAR(ops::sigmoid(a).flat(0), 0.5, 1e-12);
}

TEST(OpsForward, Conv1dIdentityKernel) {
  Tensor x = randt({1, 1, 8}, 4);
  Tensor w = Tensor::from_vector({0, 1, 0}, {1, 1, 3});
  Tensor y = ops::conv1d(x, w, Tensor(), 1);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 8}));
  for (int64_t i = 0; i < 8; ++i) EXPECT_NEAR(y.flat(i), x.flat(i), 1e-12);
}

TEST(OpsForward, Conv1dShapeAndBias) {
  Tensor x = randt({2, 3, 10}, 5);
  Tensor w = randt({4, 3, 3}, 6);
  Tensor b = Tensor::full({4}, 0.5);
  Tensor y = ops::conv1d(x, w, b, 0);
  EXPECT_EQ(y.shape(), (Shape{2, 4, 8}));
}

TEST(OpsForward, Conv1dRejectsNegativePadding) {
  Tensor x = randt({2, 3, 10}, 5);
  Tensor w = randt({4, 3, 3}, 6);
  // L + 2·padding − K + 1 = 6 >= 1, so only the sign is wrong.
  EXPECT_THROW(ops::conv1d(x, w, Tensor::full({4}, 0.5), -1),
               std::invalid_argument);
  EXPECT_THROW(ops::conv1d(x, w, Tensor(), -1), std::invalid_argument);
}

TEST(OpsForward, Conv1dRejectsBiasNotOnePerOutputChannel) {
  Tensor x = randt({2, 3, 10}, 5);
  Tensor w = randt({4, 3, 3}, 6);
  EXPECT_THROW(ops::conv1d(x, w, Tensor::full({3}, 0.5), 1),
               std::invalid_argument);
  EXPECT_THROW(ops::conv1d(x, w, Tensor::full({5}, 0.5), 1),
               std::invalid_argument);
  EXPECT_THROW(ops::conv1d(x, w, Tensor::full({1, 4}, 0.5), 1),
               std::invalid_argument);
}

// ---------- first-order gradients ----------

struct UnaryCase {
  const char* name;
  Tensor (*fn)(const Tensor&);
  double lo, hi;  // input sampling range
};

class UnaryGradcheck : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryGradcheck, MatchesFiniteDifferences) {
  const auto& c = GetParam();
  mf::util::Rng rng(42);
  Tensor x = Tensor::zeros({2, 3});
  for (int64_t i = 0; i < x.numel(); ++i) x.flat(i) = rng.uniform(c.lo, c.hi);
  auto f = [&](const std::vector<Tensor>& in) { return ops::sum(c.fn(in[0])); };
  auto r = ad::gradcheck(f, {x});
  EXPECT_TRUE(r.ok) << c.name << " max_rel_err=" << r.max_rel_err;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, UnaryGradcheck,
    ::testing::Values(UnaryCase{"neg", ops::neg, -2, 2},
                      UnaryCase{"exp", ops::exp, -1, 1},
                      UnaryCase{"tanh", ops::tanh, -2, 2},
                      UnaryCase{"gelu", ops::gelu, -2, 2},
                      UnaryCase{"sigmoid", ops::sigmoid, -2, 2},
                      UnaryCase{"square", ops::square, -2, 2},
                      UnaryCase{"log", ops::log, 0.5, 3},
                      UnaryCase{"sqrt", ops::sqrt, 0.5, 3}),
    [](const auto& info) { return info.param.name; });

TEST(Gradcheck, AddMulDivBroadcast) {
  Tensor a = randt({2, 3}, 7);
  Tensor b = randt({3}, 8, 0.5);
  for (int64_t i = 0; i < b.numel(); ++i) b.flat(i) += 2.0;  // keep away from 0
  auto f = [](const std::vector<Tensor>& in) {
    return ops::sum(ops::div(ops::mul(ops::add(in[0], in[1]), in[0]), in[1]));
  };
  auto r = ad::gradcheck(f, {a, b});
  EXPECT_TRUE(r.ok) << "max_rel_err=" << r.max_rel_err;
}

TEST(Gradcheck, MatmulBothSides) {
  Tensor a = randt({3, 4}, 9);
  Tensor b = randt({4, 2}, 10);
  auto f = [](const std::vector<Tensor>& in) {
    return ops::sum(ops::square(ops::matmul(in[0], in[1])));
  };
  auto r = ad::gradcheck(f, {a, b});
  EXPECT_TRUE(r.ok) << "max_rel_err=" << r.max_rel_err;
}

TEST(Gradcheck, MatmulBatched) {
  Tensor a = randt({2, 3, 4}, 11);
  Tensor b = randt({4, 2}, 12);
  auto f = [](const std::vector<Tensor>& in) {
    return ops::sum(ops::square(ops::matmul(in[0], in[1])));
  };
  auto r = ad::gradcheck(f, {a, b});
  EXPECT_TRUE(r.ok) << "max_rel_err=" << r.max_rel_err;
}

TEST(Gradcheck, TransposedGemmsFirstAndSecondOrder) {
  // matmul_tn and matmul_nt with 3-D left operands: the backward passes
  // are GEMMs of the three forms, checked to second order (create_graph).
  Tensor x = randt({2, 3, 4}, 41);
  Tensor y = randt({2, 3, 5}, 42);
  Tensor w = randt({5, 4}, 43);
  auto tn = [](const std::vector<Tensor>& in) {
    return ops::sum(ops::square(ops::matmul_tn(in[0], in[1])));
  };
  auto nt = [](const std::vector<Tensor>& in) {
    return ops::sum(ops::square(ops::matmul_nt(in[0], in[1])));
  };
  struct Check {
    const char* name;
    std::function<Tensor(const std::vector<Tensor>&)> f;
    std::vector<Tensor> in;
  };
  for (const Check& c : {Check{"matmul_tn", tn, {x, y}},
                         Check{"matmul_nt", nt, {x, w}}}) {
    auto r = ad::gradcheck(c.f, c.in);
    EXPECT_TRUE(r.ok) << c.name << " max_rel_err=" << r.max_rel_err;
    auto r2 = ad::gradcheck_second_order(c.f, c.in, 1e-5, 2e-4);
    EXPECT_TRUE(r2.ok) << c.name << " (2nd order) max_rel_err="
                       << r2.max_rel_err;
  }
  EXPECT_THROW(ops::matmul_tn(x, w), std::invalid_argument);
  EXPECT_THROW(ops::matmul_tn(x, randt({2, 4, 5}, 44)), std::invalid_argument);
}

TEST(Gradcheck, SliceConcatSum) {
  Tensor a = randt({3, 6}, 13);
  auto f = [](const std::vector<Tensor>& in) {
    Tensor l = ops::slice(in[0], 1, 0, 2);
    Tensor r = ops::slice(in[0], 1, 3, 3);
    return ops::sum(ops::square(ops::concat({r, l}, 1)));
  };
  auto r = ad::gradcheck(f, {a});
  EXPECT_TRUE(r.ok) << "max_rel_err=" << r.max_rel_err;
}

TEST(Gradcheck, ReduceAndBroadcast) {
  Tensor a = randt({2, 4}, 14);
  auto f = [](const std::vector<Tensor>& in) {
    Tensor m = ops::sum_axis(in[0], 1, true);        // [2,1]
    Tensor centered = ops::sub(in[0], m);            // broadcast
    return ops::sum(ops::square(centered));
  };
  auto r = ad::gradcheck(f, {a});
  EXPECT_TRUE(r.ok) << "max_rel_err=" << r.max_rel_err;
}

TEST(Gradcheck, Conv1dInputWeightBias) {
  Tensor x = randt({2, 2, 6}, 15);
  Tensor w = randt({3, 2, 3}, 16);
  Tensor b = randt({3}, 17);
  auto f = [](const std::vector<Tensor>& in) {
    return ops::sum(ops::square(ops::conv1d(in[0], in[1], in[2], 1)));
  };
  auto r = ad::gradcheck(f, {x, w, b});
  EXPECT_TRUE(r.ok) << "max_rel_err=" << r.max_rel_err;
}

// ---------- engine semantics ----------

TEST(Engine, BackwardAccumulatesLeafGrads) {
  Tensor x = Tensor::from_vector({2.0}, {1});
  x.set_requires_grad(true);
  Tensor y = ops::mul(x, x);  // y = x^2, dy/dx = 4
  ad::backward(y, Tensor::ones({1}));
  ASSERT_TRUE(x.grad().defined());
  EXPECT_NEAR(x.grad().flat(0), 4.0, 1e-12);
  // Second backward accumulates.
  Tensor y2 = ops::mul(x, x);
  ad::backward(y2, Tensor::ones({1}));
  EXPECT_NEAR(x.grad().flat(0), 8.0, 1e-12);
  x.zero_grad();
  EXPECT_FALSE(x.grad().defined());
}

TEST(Engine, GradDoesNotTouchLeafGrad) {
  Tensor x = Tensor::from_vector({3.0}, {1});
  x.set_requires_grad(true);
  Tensor y = ops::mul(x, x);
  auto gs = ad::grad(ops::sum(y), {x});
  EXPECT_NEAR(gs[0].flat(0), 6.0, 1e-12);
  EXPECT_FALSE(x.grad().defined());
}

TEST(Engine, UnreachedInputGetsZeros) {
  Tensor x = Tensor::ones({2});
  Tensor z = Tensor::ones({2});
  x.set_requires_grad(true);
  z.set_requires_grad(true);
  Tensor y = ops::sum(ops::mul(x, x));
  auto gs = ad::grad(y, {x, z});
  EXPECT_EQ(gs[1].shape(), (Shape{2}));
  for (int64_t i = 0; i < 2; ++i) EXPECT_EQ(gs[1].flat(i), 0.0);
}

TEST(Engine, DiamondGraphAccumulates) {
  // y = x*x + x*x — gradient contributions from two paths must sum.
  Tensor x = Tensor::from_vector({1.5}, {1});
  x.set_requires_grad(true);
  Tensor a = ops::mul(x, x);
  Tensor y = ops::sum(ops::add(a, a));
  auto gs = ad::grad(y, {x});
  EXPECT_NEAR(gs[0].flat(0), 2 * 2 * 1.5, 1e-12);
}

TEST(Engine, NoGradModeRecordsNothing) {
  Tensor x = Tensor::ones({2});
  x.set_requires_grad(true);
  ad::NoGradGuard guard;
  Tensor y = ops::mul(x, x);
  EXPECT_FALSE(y.has_grad_fn());
}

TEST(Engine, NonScalarBackwardRequiresGradOutput) {
  Tensor x = Tensor::ones({3});
  x.set_requires_grad(true);
  Tensor y = ops::mul(x, x);
  EXPECT_THROW(ad::grad(y, {x}), std::logic_error);
  auto gs = ad::grad(y, {x}, Tensor::ones({3}));
  EXPECT_NEAR(gs[0].flat(0), 2.0, 1e-12);
}

TEST(Engine, GraphSizeCounts) {
  Tensor x = Tensor::ones({2});
  x.set_requires_grad(true);
  Tensor y = ops::mul(ops::add(x, x), x);
  EXPECT_EQ(ad::graph_size(y), 2u);
}

TEST(Engine, GraphSurvivesAcrossManyRecordingsAndScopes) {
  // A held graph must keep its nodes valid while unrelated graphs are
  // recorded and released around it.
  Tensor x = Tensor::ones({4});
  x.set_requires_grad(true);
  Tensor kept = ops::mul_scalar(ops::gelu(x), 2.0);
  for (int i = 0; i < 50; ++i) {
    Tensor t = Tensor::ones({16});
    t.set_requires_grad(true);
    ad::backward(ops::sum(ops::mul(t, t)));
  }
  ad::backward(ops::sum(kept));
  ASSERT_TRUE(x.grad().defined());
  // d/dx [2*gelu(x)] at x=1: 2 * gelu'(1) (tanh approximation).
  EXPECT_NEAR(x.grad().flat(0), 2.16592, 1e-4);
}

// ---------- higher-order derivatives (create_graph) ----------

TEST(HigherOrder, SecondDerivativeOfCube) {
  // f = x^3; f' = 3x^2, f'' = 6x
  Tensor x = Tensor::from_vector({2.0}, {1});
  x.set_requires_grad(true);
  Tensor y = ops::sum(ops::mul(ops::mul(x, x), x));
  auto g1 = ad::grad(y, {x}, Tensor(), /*create_graph=*/true);
  EXPECT_NEAR(g1[0].flat(0), 12.0, 1e-12);
  auto g2 = ad::grad(ops::sum(g1[0]), {x}, Tensor(), /*create_graph=*/true);
  EXPECT_NEAR(g2[0].flat(0), 12.0, 1e-12);
  auto g3 = ad::grad(ops::sum(g2[0]), {x});
  EXPECT_NEAR(g3[0].flat(0), 6.0, 1e-12);
}

TEST(HigherOrder, TanhChain) {
  // f = tanh(x); verify f'' = -2 tanh(x) (1 - tanh^2(x)) analytically.
  const double x0 = 0.37;
  Tensor x = Tensor::from_vector({x0}, {1});
  x.set_requires_grad(true);
  Tensor y = ops::sum(ops::tanh(x));
  auto g1 = ad::grad(y, {x}, Tensor(), true);
  auto g2 = ad::grad(ops::sum(g1[0]), {x});
  const double t = std::tanh(x0);
  EXPECT_NEAR(g1[0].flat(0), 1 - t * t, 1e-12);
  EXPECT_NEAR(g2[0].flat(0), -2 * t * (1 - t * t), 1e-12);
}

TEST(HigherOrder, LaplacianOfHarmonicPolynomial) {
  // u(x,y) = x^2 - y^2 is harmonic: u_xx + u_yy = 0.
  Tensor p = Tensor::from_vector({0.3, -0.7}, {1, 2});
  p.set_requires_grad(true);
  Tensor x = ops::slice(p, 1, 0, 1);
  Tensor y = ops::slice(p, 1, 1, 1);
  Tensor u = ops::sum(ops::sub(ops::square(x), ops::square(y)));
  auto g = ad::grad(u, {p}, Tensor(), true);
  Tensor ux = ops::slice(g[0], 1, 0, 1);
  Tensor uy = ops::slice(g[0], 1, 1, 1);
  auto gxx = ad::grad(ops::sum(ux), {p}, Tensor(), true);
  auto gyy = ad::grad(ops::sum(uy), {p}, Tensor(), true);
  const double uxx = gxx[0].flat(0);
  const double uyy = gyy[0].flat(1);
  EXPECT_NEAR(uxx, 2.0, 1e-12);
  EXPECT_NEAR(uyy, -2.0, 1e-12);
  EXPECT_NEAR(uxx + uyy, 0.0, 1e-12);
}

struct SecondOrderCase {
  const char* name;
  Tensor (*fn)(const Tensor&);
  double lo, hi;
};

class SecondOrderGradcheck : public ::testing::TestWithParam<SecondOrderCase> {};

TEST_P(SecondOrderGradcheck, MatchesFiniteDifferences) {
  const auto& c = GetParam();
  mf::util::Rng rng(99);
  Tensor x = Tensor::zeros({4});
  for (int64_t i = 0; i < x.numel(); ++i) x.flat(i) = rng.uniform(c.lo, c.hi);
  auto f = [&](const std::vector<Tensor>& in) {
    return ops::sum(ops::square(c.fn(in[0])));
  };
  auto r = ad::gradcheck_second_order(f, {x}, 1e-5, 1e-4);
  EXPECT_TRUE(r.ok) << c.name << " max_rel_err=" << r.max_rel_err;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, SecondOrderGradcheck,
    ::testing::Values(SecondOrderCase{"tanh", ops::tanh, -1.5, 1.5},
                      SecondOrderCase{"gelu", ops::gelu, -1.5, 1.5},
                      SecondOrderCase{"exp", ops::exp, -1, 1},
                      SecondOrderCase{"sigmoid", ops::sigmoid, -2, 2},
                      SecondOrderCase{"square", ops::square, -2, 2}),
    [](const auto& info) { return info.param.name; });

TEST(HigherOrder, MatmulMixedSecondOrder) {
  // f(a, b) = sum((a b)^2); check d/da of df/db direction via gradcheck.
  Tensor a = randt({2, 3}, 21);
  Tensor b = randt({3, 2}, 22);
  auto f = [](const std::vector<Tensor>& in) {
    return ops::sum(ops::square(ops::matmul(in[0], in[1])));
  };
  auto r = ad::gradcheck_second_order(f, {a, b}, 1e-5, 1e-4);
  EXPECT_TRUE(r.ok) << "max_rel_err=" << r.max_rel_err;
}

TEST(HigherOrder, FourthOrderPolynomial) {
  // f = x^4: derivatives 4x^3, 12x^2, 24x, 24.
  Tensor x = Tensor::from_vector({1.1}, {1});
  x.set_requires_grad(true);
  Tensor y = ops::sum(ops::pow_scalar(x, 4.0));
  Tensor cur = y;
  const double expected[] = {4 * std::pow(1.1, 3), 12 * std::pow(1.1, 2),
                             24 * 1.1, 24.0};
  for (int order = 0; order < 4; ++order) {
    auto g = ad::grad(ops::sum(cur), {x}, Tensor(), order < 3);
    EXPECT_NEAR(g[0].flat(0), expected[order], 1e-9) << "order " << order;
    cur = g[0];
  }
}

TEST(HigherOrder, SecondOrderGradcheckOnTypedNodes) {
  // The PDE loss differentiates through gradients (create_graph); the
  // capture-free typed linear/gelu/matmul/add/mul nodes must deliver
  // correct second derivatives.
  mf::util::Rng rng(7);
  Tensor w = Tensor::zeros({3, 3});
  for (int64_t i = 0; i < w.numel(); ++i) w.flat(i) = 0.3 * rng.normal();
  auto f = [&w](const std::vector<Tensor>& ins) {
    Tensor h = ops::gelu(ops::linear(ins[0], w, Tensor()));
    Tensor y = ops::mul(h, ops::add(h, ins[0]));
    return ops::sum(ops::matmul(y, w));
  };
  Tensor x = Tensor::zeros({2, 3});
  for (int64_t i = 0; i < x.numel(); ++i) x.flat(i) = 0.5 * rng.normal();
  x.set_requires_grad(true);
  auto res = ad::gradcheck_second_order(f, {x});
  EXPECT_TRUE(res.ok) << "max abs err " << res.max_abs_err << " rel "
                      << res.max_rel_err;
}
