// Parity and gradcheck coverage for the threaded kernel backend
// (src/ad/kernels.*): every op must produce the same values whether the
// kernels run serial or OpenMP-threaded, across the broadcast shape sweep,
// at 1 and N threads. No kernel's bits depend on the thread count, so every
// parity check is bitwise.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "ad/gradcheck.hpp"
#include "ad/kernels.hpp"
#include "ad/ops.hpp"
#include "conv1d_checks.hpp"
#include "elementwise_checks.hpp"
#include "matmul_checks.hpp"
#include "reduce_checks.hpp"
#include "util/rng.hpp"

namespace ad = mf::ad;
namespace ops = mf::ad::ops;
namespace kernels = mf::ad::kernels;
using ad::Shape;
using ad::Tensor;

// Every operator new in this binary is counted, so a test can assert that
// a kernel call allocates nothing.
namespace {
std::atomic<std::int64_t> g_heap_allocs{0};
}  // namespace

// Out of line, so the compiler does not pair the malloc inside with the
// operator delete calls of inlined callers.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

constexpr int kTestThreads = 4;

using elementwise_checks::KernelConfigGuard;

Tensor randt(const Shape& shape, unsigned seed, double lo, double hi) {
  mf::util::Rng rng(seed);
  Tensor t = Tensor::zeros(shape);
  for (int64_t i = 0; i < t.numel(); ++i) t.flat(i) = rng.uniform(lo, hi);
  return t;
}

void expect_allclose(const Tensor& a, const Tensor& b, double tol,
                     const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_NEAR(a.flat(i), b.flat(i), tol) << what << " at flat index " << i;
  }
}

struct ShapePair {
  const char* name;
  Shape a, b;
};

}  // namespace

class KernelSweep : public ::testing::TestWithParam<ShapePair> {};

TEST_P(KernelSweep, BinaryOpsSerialVsThreadedParity) {
  const auto& p = GetParam();
  Tensor a = randt(p.a, 11, -2, 2);
  Tensor b = randt(p.b, 12, 0.5, 2.5);
  struct OpCase {
    const char* name;
    Tensor (*fn)(const Tensor&, const Tensor&);
  };
  KernelConfigGuard guard;
  for (const auto& op : {OpCase{"add", ops::add}, OpCase{"sub", ops::sub},
                         OpCase{"mul", ops::mul}, OpCase{"div", ops::div}}) {
    guard.serial();
    Tensor ref = op.fn(a, b);
    guard.threaded();
    Tensor thr = op.fn(a, b);
    // Elementwise maps assign out[i] independently: bitwise identical.
    expect_allclose(thr, ref, 0.0, std::string(p.name) + "/" + op.name);
  }
}

TEST_P(KernelSweep, BroadcastReducePathsParity) {
  const auto& p = GetParam();
  const Shape out_shape = ops::broadcast_shape(p.a, p.b);
  Tensor a = randt(p.a, 13, -1, 1);
  Tensor big = randt(out_shape, 14, -1, 1);
  KernelConfigGuard guard;
  guard.serial();
  Tensor bcast_ref = ops::broadcast_to(a, out_shape);
  Tensor red_ref = ops::reduce_to(big, p.a);
  guard.threaded();
  Tensor bcast_thr = ops::broadcast_to(a, out_shape);
  Tensor red_thr = ops::reduce_to(big, p.a);
  expect_allclose(bcast_thr, bcast_ref, 0.0, std::string(p.name) + "/broadcast_to");
  // reduce_to sums each output element in one thread, in one order.
  expect_allclose(red_thr, red_ref, 0.0, std::string(p.name) + "/reduce_to");
}

TEST_P(KernelSweep, GradcheckUnderThreadedKernels) {
  const auto& p = GetParam();
  Tensor a = randt(p.a, 15, -2, 2);
  Tensor b = randt(p.b, 16, 0.5, 2.5);
  KernelConfigGuard guard;
  guard.threaded();
  auto f = [](const std::vector<Tensor>& in) {
    return ops::sum(ops::square(ops::mul(in[0], in[1])));
  };
  auto r = ad::gradcheck(f, {a, b});
  EXPECT_TRUE(r.ok) << p.name << " max_rel_err=" << r.max_rel_err;
  auto r2 = ad::gradcheck_second_order(f, {a, b}, 1e-5, 2e-4);
  EXPECT_TRUE(r2.ok) << p.name << " (2nd order) max_rel_err=" << r2.max_rel_err;
}

TEST_P(KernelSweep, OneThreadMatchesNThreads) {
  const auto& p = GetParam();
  Tensor a = randt(p.a, 17, -2, 2);
  Tensor b = randt(p.b, 18, 0.5, 2.5);
  KernelConfigGuard guard;
  guard.threaded(1);
  Tensor one = ops::mul(a, b);
  double sum_one = ops::sum(ops::mul(a, b)).item();
  guard.threaded(kTestThreads);
  Tensor many = ops::mul(a, b);
  double sum_many = ops::sum(ops::mul(a, b)).item();
  expect_allclose(many, one, 0.0, std::string(p.name) + "/mul");
  EXPECT_EQ(sum_many, sum_one) << p.name;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KernelSweep,
    ::testing::Values(
        ShapePair{"same_1d", {4}, {4}},
        ShapePair{"same_2d", {2, 3}, {2, 3}},
        ShapePair{"vec_vs_matrix", {2, 3}, {3}},
        ShapePair{"scalar_vs_matrix", {2, 3}, {}},
        ShapePair{"row_vs_col", {3, 1}, {1, 4}},
        ShapePair{"middle_axis", {2, 1, 3}, {2, 4, 3}},
        ShapePair{"split_layer_pattern", {2, 1, 5}, {2, 7, 5}},
        ShapePair{"leading_ones", {1, 1, 3}, {2, 4, 3}},
        ShapePair{"rank_mismatch_3v1", {2, 3, 4}, {4}},
        ShapePair{"rank_mismatch_3v2", {2, 3, 4}, {3, 1}},
        ShapePair{"large_rows", {64, 33}, {33}}),
    [](const auto& info) { return info.param.name; });

TEST(Kernels, BackendReportsConfiguration) {
  EXPECT_GE(kernels::max_threads(), 1);
  EXPECT_GT(kernels::grain(), 0);
  KernelConfigGuard guard;
  kernels::set_grain(7);
  EXPECT_EQ(kernels::grain(), 7);
}

TEST(Kernels, MatmulSerialVsThreadedParity) {
  Tensor a = randt({37, 19}, 21, -1, 1);
  Tensor b = randt({19, 23}, 22, -1, 1);
  KernelConfigGuard guard;
  guard.serial();
  Tensor ref = ops::matmul(a, b);
  guard.threaded();
  Tensor thr = ops::matmul(a, b);
  // Rows are computed whole by one thread each: identical accumulation.
  expect_allclose(thr, ref, 0.0, "matmul");
  // Batched lhs (the SDNet inference shape [B, q, K]).
  Tensor a3 = randt({5, 7, 19}, 23, -1, 1);
  guard.serial();
  Tensor ref3 = ops::matmul(a3, b);
  guard.threaded();
  Tensor thr3 = ops::matmul(a3, b);
  expect_allclose(thr3, ref3, 0.0, "matmul3d");
}

TEST(Kernels, MatmulBlockedPathMatchesNaive) {
  // Shapes straddling the scalar tier's cache-block tile sizes (kTileK =
  // 64, kTileN = 512) so its blocked path and partial edge tiles are
  // exercised; on FMA hosts the register micro-kernel runs them all. The
  // claim under test is bitwise identity with the naive i-k-j loop of the
  // tier the host runs: std::fma accumulation on the FMA tiers, `acc + a *
  // b` on the scalar loop. Each shape runs once more with a[0][0] = 0 and
  // b[0][0] = +inf, whose product is NaN in both.
  const bool fma = kernels::gelu_lanes() > 1;
  const std::array<std::array<int64_t, 3>, 9> shapes = {{
      {3, 65, 513},   // both dims one past a tile boundary
      {4, 64, 512},   // exactly one tile (fast path)
      {2, 130, 40},   // k crosses tiles, n within one
      {2, 40, 600},   // n crosses tiles, k within one
      {1, 128, 1024}, // whole multiples of the tile sizes
      // Micro-kernel (fits-one-tile) edge shapes: row remainders (< 4
      // rows left) and column remainders after the 8- and 4-wide strips,
      // so the vectorized fast path's tails are exercised too.
      {5, 33, 64},    // one remainder row, whole 8-wide columns
      {4, 64, 9},     // one 8-strip + 1-column scalar tail
      {6, 17, 12},    // 8-strip + 4-strip columns, 2 remainder rows
      {7, 5, 7},      // 4-strip + 3-column tail, 3 remainder rows
  }};
  for (const auto& [m, k, n] : shapes) {
    for (const bool zero_times_inf : {false, true}) {
      std::vector<mf::ad::real> a(static_cast<std::size_t>(m * k));
      std::vector<mf::ad::real> b(static_cast<std::size_t>(k * n));
      std::vector<mf::ad::real> bias(static_cast<std::size_t>(n));
      for (std::size_t i = 0; i < a.size(); ++i) a[i] = std::sin(0.1 * static_cast<double>(i));
      for (std::size_t i = 0; i < b.size(); ++i) b[i] = std::cos(0.1 * static_cast<double>(i));
      for (std::size_t i = 0; i < bias.size(); ++i) bias[i] = 0.01 * static_cast<double>(i);
      if (zero_times_inf) {
        a[0] = 0;
        b[0] = std::numeric_limits<mf::ad::real>::infinity();
      }
      std::vector<mf::ad::real> got(static_cast<std::size_t>(m * n));
      kernels::matmul(a.data(), b.data(), bias.data(), got.data(), m, k, n);
      // Independent naive reference with the same (ascending-kk) order.
      std::vector<mf::ad::real> ref(static_cast<std::size_t>(m * n));
      for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j) {
          mf::ad::real acc = bias[static_cast<std::size_t>(j)];
          for (int64_t kk = 0; kk < k; ++kk) {
            const mf::ad::real av = a[static_cast<std::size_t>(i * k + kk)];
            const mf::ad::real bv = b[static_cast<std::size_t>(kk * n + j)];
            acc = fma ? std::fma(av, bv, acc) : acc + av * bv;
          }
          ref[static_cast<std::size_t>(i * n + j)] = acc;
        }
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(std::isnan(ref[i]) ? std::isnan(got[i]) : got[i] == ref[i])
            << "m=" << m << " k=" << k << " n=" << n << " fma=" << fma
            << " 0*inf=" << zero_times_inf << " flat index " << i << ": "
            << got[i] << " vs " << ref[i];
      }
    }
  }
}

// ---- matmul: one kernel per tier ----

TEST(MatmulKernel, ScalarTierMatchesNaiveLoopF64) {
  matmul_checks::expect_tier_matches_naive<double>(1);
}

TEST(MatmulKernel, Avx2FmaTierMatchesNaiveFmaLoopF64) {
  matmul_checks::expect_tier_matches_naive<double>(4);
}

TEST(MatmulKernel, Avx512fTierMatchesNaiveFmaLoopF64) {
  matmul_checks::expect_tier_matches_naive<double>(8);
}

TEST(MatmulKernel, EntrySerialThreadedAndWidestTierAgreeF64) {
  matmul_checks::expect_entry_serial_threaded_and_tier_agree<double>();
}

TEST(Kernels, SumAxisAndTransposedGemmParity) {
  // Every sum is one reduce step, each output summed in one thread in one
  // order: serial and threaded agree bitwise.
  Tensor a = randt({6, 5, 4}, 24, -2, 2);
  KernelConfigGuard guard;
  for (int64_t axis = 0; axis < 3; ++axis) {
    for (const bool keepdim : {false, true}) {
      guard.serial();
      Tensor ref = ops::sum_axis(a, axis, keepdim);
      guard.threaded();
      Tensor thr = ops::sum_axis(a, axis, keepdim);
      expect_allclose(thr, ref, 0.0,
                      "sum_axis " + std::to_string(axis) +
                          (keepdim ? " keepdim" : ""));
    }
  }
  for (const Shape& to : {Shape{6, 1, 4}, Shape{1, 5, 1}, Shape{5, 4},
                          Shape{4}, Shape{}}) {
    guard.serial();
    Tensor ref = ops::reduce_to(a, to);
    guard.threaded();
    Tensor thr = ops::reduce_to(a, to);
    expect_allclose(thr, ref, 0.0, "reduce_to " + ad::shape_str(to));
  }
  // The TN form splits its output rows across columns of m, the NT form
  // shares one packed bᵀ across threads.
  Tensor m = randt({31, 17}, 25, -1, 1);
  Tensor r = randt({31, 9}, 26, -1, 1);
  Tensor w = randt({9, 17}, 27, -1, 1);
  guard.serial();
  Tensor tn_ref = ops::matmul_tn(m, r);
  Tensor nt_ref = ops::matmul_nt(m, w);
  guard.threaded();
  expect_allclose(ops::matmul_tn(m, r), tn_ref, 0.0, "matmul_tn");
  expect_allclose(ops::matmul_nt(m, w), nt_ref, 0.0, "matmul_nt");
}

TEST(Kernels, ReductionHelpersParity) {
  Tensor a = randt({1000}, 26, -3, 3);
  Tensor b = randt({1000}, 27, -3, 3);
  KernelConfigGuard guard;
  guard.serial();
  const double sum_ref = ops::sum(a).item();
  const double max_ref = ops::reduce_max_abs(a);
  const double mse_ref = ops::mse(a, b);
  const double mae_ref = ops::mae(a, b);
  guard.threaded();
  EXPECT_EQ(ops::sum(a).item(), sum_ref);
  EXPECT_EQ(ops::reduce_max_abs(a), max_ref);
  EXPECT_EQ(ops::mse(a, b), mse_ref);
  EXPECT_EQ(ops::mae(a, b), mae_ref);
}

TEST(Kernels, Conv1dForwardAndGradParity) {
  Tensor input = randt({3, 2, 16}, 28, -1, 1);
  Tensor weight = randt({4, 2, 5}, 29, -1, 1);
  Tensor bias = randt({4}, 30, -1, 1);
  KernelConfigGuard guard;
  auto run = [&]() {
    Tensor in = input.clone().set_requires_grad(true);
    Tensor w = weight.clone().set_requires_grad(true);
    Tensor bi = bias.clone().set_requires_grad(true);
    Tensor out = ops::conv1d(in, w, bi, /*padding=*/2);
    Tensor loss = ops::sum(ops::square(out));
    auto grads = ad::grad(loss, {in, w, bi});
    return std::make_tuple(out.detach(), grads[0], grads[1], grads[2]);
  };
  guard.serial();
  auto [out_ref, gi_ref, gw_ref, gb_ref] = run();
  guard.threaded();
  auto [out_thr, gi_thr, gw_thr, gb_thr] = run();
  // Each element is summed in one thread, in one order: bitwise.
  const std::pair<const Tensor*, const Tensor*> pairs[] = {
      {&out_thr, &out_ref}, {&gi_thr, &gi_ref}, {&gw_thr, &gw_ref},
      {&gb_thr, &gb_ref}};
  const char* names[] = {"forward", "grad_input", "grad_weight", "grad_bias"};
  for (int i = 0; i < 4; ++i) {
    const auto [thr, ref] = pairs[i];
    ASSERT_EQ(thr->shape(), ref->shape()) << names[i];
    const std::string bad = elementwise_checks::first_mismatch(
        thr->data(), ref->data(), ref->numel());
    EXPECT_TRUE(bad.empty()) << "conv1d " << names[i] << ", " << bad;
  }
}

TEST(Kernels, Conv1dGradsPropagateZeroTimesInfF64) {
  conv1d_checks::expect_grads_propagate_zero_times_inf<double>();
}

TEST(Conv1dKernel, TiersAndEntriesMatchDirectLoopBitwiseF64) {
  conv1d_checks::expect_tiers_match_direct_loop<double>();
}

TEST(Conv1dKernel, InfiniteFactorAtPaddingGivesNanOnEveryTierF64) {
  conv1d_checks::expect_infinite_factor_at_padding_gives_nan<double>();
}

// ---- fused ops introduced with the kernel backend ----

TEST(Kernels, LinearMatchesMatmulPlusBias) {
  Tensor x = randt({5, 7, 6}, 31, -1, 1);
  Tensor w = randt({6, 9}, 32, -1, 1);
  Tensor b = randt({9}, 33, -1, 1);
  Tensor fused = ops::linear(x, w, b);
  Tensor composed = ops::add(ops::matmul(x, w), b);
  expect_allclose(fused, composed, 1e-14, "linear vs matmul+add");
  Tensor no_bias = ops::linear(x, w, Tensor());
  expect_allclose(no_bias, ops::matmul(x, w), 0.0, "linear without bias");
}

TEST(Kernels, LinearGradcheckFirstAndSecondOrder) {
  Tensor x = randt({3, 4}, 34, -1, 1);
  Tensor w = randt({4, 2}, 35, -1, 1);
  Tensor b = randt({2}, 36, -1, 1);
  auto f = [](const std::vector<Tensor>& in) {
    return ops::sum(ops::square(ops::linear(in[0], in[1], in[2])));
  };
  KernelConfigGuard guard;
  for (const bool threaded : {false, true}) {
    if (threaded) {
      guard.threaded();
    } else {
      guard.serial();
    }
    auto r = ad::gradcheck(f, {x, w, b});
    EXPECT_TRUE(r.ok) << "threaded=" << threaded
                      << " max_rel_err=" << r.max_rel_err;
    auto r2 = ad::gradcheck_second_order(f, {x, w, b}, 1e-5, 2e-4);
    EXPECT_TRUE(r2.ok) << "threaded=" << threaded
                       << " (2nd order) max_rel_err=" << r2.max_rel_err;
  }
}

TEST(Kernels, GeluFusedMatchesCompositionalReference) {
  Tensor x = randt({4, 25}, 37, -3, 3);
  // Reference: the pre-fusion compositional formula.
  constexpr double kCoeff = 0.7978845608028654;
  Tensor x3 = ops::mul(ops::mul(x, x), x);
  Tensor inner = ops::mul_scalar(ops::add(x, ops::mul_scalar(x3, 0.044715)), kCoeff);
  Tensor ref = ops::mul_scalar(
      ops::mul(x, ops::add_scalar(ops::tanh(inner), 1.0)), 0.5);
  expect_allclose(ops::gelu(x), ref, 1e-14, "gelu forward");
}

TEST(Kernels, GeluGradcheckFirstAndSecondOrder) {
  Tensor x = randt({3, 5}, 38, -2, 2);
  auto f = [](const std::vector<Tensor>& in) {
    return ops::sum(ops::square(ops::gelu(in[0])));
  };
  KernelConfigGuard guard;
  for (const bool threaded : {false, true}) {
    if (threaded) {
      guard.threaded();
    } else {
      guard.serial();
    }
    auto r = ad::gradcheck(f, {x});
    EXPECT_TRUE(r.ok) << "threaded=" << threaded
                      << " max_rel_err=" << r.max_rel_err;
    auto r2 = ad::gradcheck_second_order(f, {x}, 1e-5, 2e-4);
    EXPECT_TRUE(r2.ok) << "threaded=" << threaded
                       << " (2nd order) max_rel_err=" << r2.max_rel_err;
  }
}

TEST(Kernels, GeluDerivativesChainThroughTheirOwnKernels) {
  // d/dx sum(gelu(x)) is 1·gelu_d1(x), and differentiating that sum again
  // reaches gelu_d2 and then gelu_d3, each bitwise its kernel's output; a
  // fourth derivative throws, naming gelu_d3, and leaves grad mode on.
  Tensor x = randt({3, 5}, 39, -3, 3);
  x.set_requires_grad(true);
  Tensor d = ops::gelu(x);
  for (const auto op : elementwise_checks::kGeluDerivs) {
    d = ad::grad(ops::sum(d), {x}, Tensor(), /*create_graph=*/true)[0];
    std::vector<double> want(static_cast<std::size_t>(x.numel()));
    kernels::map_unary(x.data(), want.data(), x.numel(), op, 0);
    for (int64_t i = 0; i < x.numel(); ++i) {
      ASSERT_TRUE(elementwise_checks::same_bits(
          d.flat(i), want[static_cast<std::size_t>(i)]))
          << elementwise_checks::name(op) << " i=" << i;
    }
  }
  try {
    ad::grad(ops::sum(d), {x});
    FAIL() << "a fourth derivative of gelu did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("gelu_d3"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(ad::GradMode::enabled());
}

// Regression: reduce_to edge cases around rank-0 and all-axes reduction,
// which the gather-formulation kernel must handle (empty kept-dim list).
TEST(Kernels, ReduceToScalarAndAllAxes) {
  Tensor big = randt({3, 4}, 39, -1, 1);
  KernelConfigGuard guard;
  for (const bool threaded : {false, true}) {
    if (threaded) {
      guard.threaded();
    } else {
      guard.serial();
    }
    Tensor to_scalar = ops::reduce_to(big, Shape{});
    ASSERT_EQ(to_scalar.numel(), 1) << "threaded=" << threaded;
    double acc = 0;
    for (int64_t i = 0; i < big.numel(); ++i) acc += big.flat(i);
    EXPECT_NEAR(to_scalar.item(), acc, 1e-12) << "threaded=" << threaded;

    Tensor to_ones = ops::reduce_to(big, Shape{1, 1});
    ASSERT_EQ(to_ones.shape(), (Shape{1, 1})) << "threaded=" << threaded;
    EXPECT_NEAR(to_ones.item(), acc, 1e-12) << "threaded=" << threaded;
  }
}

// ---- elementwise: one lane formula per op on every tier ----

TEST(ElementwiseKernel, LanesNameTheWidestTierTheCpuHas) {
  double x = 1.5, y = 0;
  const auto on = [&](int lanes) {
    return kernels::detail::unary_on_tier(lanes, &x, &y, 1,
                                          kernels::UnaryOp::kGelu, 0);
  };
  EXPECT_TRUE(on(1));
  EXPECT_FALSE(on(2));
  EXPECT_EQ(kernels::gelu_lanes(), on(8) ? 8 : on(4) ? 4 : 1);
}

TEST(ElementwiseKernel, TiersMatchFunctorsOrEachOtherF64) {
  elementwise_checks::expect_tiers_conform<double>();
}

TEST(ElementwiseKernel, EntriesAreChunkTailAndThreadInvariantF64) {
  elementwise_checks::expect_entries_chunk_invariant<double>();
}

TEST(ElementwiseKernel, TanhIsOddSaturatingAndWithin2UlpOfStdTanhF64) {
  elementwise_checks::expect_tanh_sane<double>(2);
}

TEST(ElementwiseKernel, TanhBitsArePinnedF64) {
  // Recorded from the hand-written AVX2 tanh kernel this template replaced.
  elementwise_checks::expect_tanh_pinned<double>({
      {0x1.5798ee2308c3ap-27, 0x1.5798ee2308c3ap-27},
      {0x1.999999999999ap-4, 0x1.983d7795f413ap-4},
      {-0x1p-2, -0x1.f597ea69a1c86p-3},
      {0x1p-1, 0x1.d9353d7568af3p-2},
      {0x1.3ffffffffffffp-1, 0x1.1bf47eabb8f94p-1},
      {-0x1.3ffffffffffffp-1, -0x1.1bf47eabb8f94p-1},
      {0x1.4p-1, 0x1.1bf47eabb8f96p-1},
      {-0x1.4p-1, -0x1.1bf47eabb8f96p-1},
      {0x1.6666666666666p-1, 0x1.356fb17af2e91p-1},
      {-0x1p+0, -0x1.85efab514f394p-1},
      {0x1.8p+0, 0x1.cf6f9786df577p-1},
      {0x1.6p+1, 0x1.fbd509ae7ae3ep-1},
      {-0x1p+2, -0x1.ffa81708a0b42p-1},
      {0x1.ap+2, 0x1.ffff684fec9b9p-1},
      {0x1.2p+3, 0x1.fffffefa59d78p-1},
      {-0x1.88p+3, -0x1.ffffffff9b4bep-1},
      {0x1.18p+4, 0x1.ffffffffffff5p-1},
      {0x1.30fffffffffffp+4, 0x1p+0},
      {0x1.31p+4, 0x1p+0},
      {-0x1.31p+4, -0x1p+0},
      {0x1.9p+4, 0x1p+0},
      // round(2|x|·log2e) ties: 5.5, −12.5 and 19.5.
      {0x1.e7f9c1e980fa9p+0, 0x1.e9dc9d2d2669p-1},
      {-0x1.1542457337d43p+2, -0x1.ffd2c0c31c61fp-1},
      {0x1.b0861a6c0f69bp+2, 0x1.ffffa57d8e66p-1},
  });
}

TEST(ElementwiseKernel, GeluMaxAbsErrorVsLongDoubleF64) {
  EXPECT_LE(elementwise_checks::gelu_max_abs_error<double>(-20, 20, 400001),
            2e-15);
}

TEST(ElementwiseKernel, GeluSpecialValuesF64) {
  elementwise_checks::expect_gelu_special_values<double>(1e300);
}

TEST(ElementwiseKernel, GeluDerivativesWithin8EpsOfLongDoubleF64) {
  elementwise_checks::expect_gelu_derivs_within_bound<double>(8);
}

TEST(ElementwiseKernel, GeluDerivativeLimitsAndZerosF64) {
  elementwise_checks::expect_gelu_deriv_special_values<double>();
}

// ---- broadcast row walker vs a naive full-index reference ----

namespace {

/// Flat offset into an operand of shape `s`, trailing-aligned to the
/// output, for the output multi-index `idx`; size-1 axes contribute 0.
int64_t naive_offset(const Shape& s, const std::vector<int64_t>& idx) {
  const std::size_t lead = idx.size() - s.size();
  int64_t flat = 0;
  for (std::size_t d = 0; d < s.size(); ++d) {
    flat = flat * s[d] + (s[d] == 1 ? 0 : idx[d + lead]);
  }
  return flat;
}

template <typename T, typename F>
std::vector<T> naive_broadcast(const Shape& out, const Shape& sa,
                               const std::vector<T>& a, const Shape& sb,
                               const std::vector<T>& b, F f) {
  const int64_t n = ad::numel_of(out);
  std::vector<T> r(static_cast<std::size_t>(n));
  std::vector<int64_t> idx(out.size(), 0);
  for (int64_t i = 0; i < n; ++i) {
    int64_t rem = i;
    for (std::size_t d = out.size(); d-- > 0;) {
      idx[d] = rem % out[d];
      rem /= out[d];
    }
    r[static_cast<std::size_t>(i)] =
        f(a[static_cast<std::size_t>(naive_offset(sa, idx))],
          b[static_cast<std::size_t>(naive_offset(sb, idx))]);
  }
  return r;
}

template <typename T>
std::vector<T> rand_vec(const Shape& s, unsigned seed, double lo, double hi) {
  mf::util::Rng rng(seed);
  std::vector<T> v(static_cast<std::size_t>(ad::numel_of(s)));
  for (auto& x : v) x = static_cast<T>(rng.uniform(lo, hi));
  return v;
}

/// Empty when got == want bitwise, else the first mismatch.
template <typename T>
std::string first_mismatch(const std::vector<T>& got,
                           const std::vector<T>& want) {
  if (got.size() != want.size()) return "size";
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(T)) != 0) {
      return "flat index " + std::to_string(i) + ": " +
             std::to_string(got[i]) + " vs " + std::to_string(want[i]);
    }
  }
  return "";
}

/// The four binary ops through map_broadcast, and broadcast_copy of a,
/// against the naive reference. Returns the first failure, or empty.
template <typename T>
std::string check_broadcast(const Shape& out, const Shape& sa, const Shape& sb,
                            unsigned seed) {
  const std::vector<T> a = rand_vec<T>(sa, seed, -2, 2);
  const std::vector<T> b = rand_vec<T>(sb, seed + 1, 0.5, 2.5);
  const kernels::BroadcastPlan plan(out, sa, sb);
  std::vector<T> got(static_cast<std::size_t>(plan.n));
  std::string bad;
  auto run = [&](auto f, const char* name) {
    if (!bad.empty()) return;
    std::fill(got.begin(), got.end(), T(-7));
    kernels::map_broadcast(plan, a.data(), b.data(), got.data(), f);
    const std::string m =
        first_mismatch(got, naive_broadcast<T>(out, sa, a, sb, b, f));
    if (!m.empty()) bad = std::string(name) + " " + m;
  };
  run(ad::sfn::Add{}, "add");
  run(ad::sfn::Sub{}, "sub");
  run(ad::sfn::Mul{}, "mul");
  run(ad::sfn::Div{}, "div");
  if (!bad.empty()) return bad;
  const kernels::BroadcastPlan copy_plan(out, sa, sa);
  std::fill(got.begin(), got.end(), T(-7));
  kernels::broadcast_copy(copy_plan, a.data(), got.data());
  const std::string m = first_mismatch(
      got, naive_broadcast<T>(out, sa, a, sa, a, [](T x, T) { return x; }));
  return m.empty() ? m : "broadcast_copy " + m;
}

Shape drop_leading_ones(Shape s) {
  while (!s.empty() && s.front() == 1) s.erase(s.begin());
  return s;
}

}  // namespace

TEST(BroadcastRows, GeneratedSweepMatchesNaiveReferenceBitwise) {
  // Ranks 1-4; every axis broadcast in a, in b, in both or in neither;
  // inner (row) length 1-9 and 64 over outer axes of 3, 2, 3; each
  // operand also with its leading size-1 axes dropped (rank mismatch).
  // f64 and f32, serial and threaded (grain 1: chunks start mid-row).
  const int64_t kOuter[] = {3, 2, 3};
  const int64_t kInner[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 64};
  KernelConfigGuard guard;
  int64_t cases = 0;
  for (const bool threaded : {false, true}) {
    if (threaded) {
      guard.threaded();
    } else {
      guard.serial();
    }
    for (std::size_t rank = 1; rank <= 4; ++rank) {
      for (const int64_t inner : kInner) {
        for (int pattern = 0; pattern < (1 << (2 * rank)); ++pattern) {
          Shape out(rank), sa(rank), sb(rank);
          for (std::size_t d = 0; d < rank; ++d) {
            out[d] = d + 1 == rank ? inner : kOuter[d];
            const int how = (pattern >> (2 * d)) & 3;  // 1: a, 2: b, 3: both
            if (how == 3) out[d] = 1;
            sa[d] = how & 1 ? 1 : out[d];
            sb[d] = how & 2 ? 1 : out[d];
          }
          for (const auto& [a, b] :
               {std::pair{sa, sb}, std::pair{drop_leading_ones(sa), sb},
                std::pair{sa, drop_leading_ones(sb)}}) {
            const auto seed = static_cast<unsigned>(cases);
            const std::string f64 = check_broadcast<double>(out, a, b, seed);
            const std::string f32 = check_broadcast<float>(out, a, b, seed);
            ASSERT_TRUE(f64.empty() && f32.empty())
                << "out " << ad::shape_str(out) << " a " << ad::shape_str(a)
                << " b " << ad::shape_str(b) << " threaded=" << threaded
                << (f64.empty() ? " f32 " + f32 : " f64 " + f64);
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 2 * 3 * 10 * (4 + 16 + 64 + 256));
}

// ---- reduce rows vs the gather loop ----

TEST(ReduceRows, GeneratedSweepMatchesGatherLoopBitwise) {
  // Ranks 1-4; every kept/reduced mask over src axes of 3, 2, 3 and an
  // inner axis of 1, 3, 64 or 300 (past one 256-column chunk); each dst
  // also with its leading size-1 axes dropped; values uniform, a quarter
  // ±0, or all ±0; f64 and f32 (double accumulator); serial and threaded
  // (grain 1: rows and chunks split across threads).
  const int64_t kOuter[] = {3, 2, 3};
  const int64_t kInner[] = {1, 3, 64, 300};
  KernelConfigGuard guard;
  mf::util::Rng rng(113);
  int64_t cases = 0;
  for (const bool threaded : {false, true}) {
    if (threaded) {
      guard.threaded(kTestThreads);
    } else {
      guard.serial();
    }
    for (std::size_t rank = 1; rank <= 4; ++rank) {
      for (const int64_t inner : kInner) {
        for (unsigned mask = 0; mask < (1u << rank); ++mask) {
          Shape src(rank), dst(rank);
          for (std::size_t d = 0; d < rank; ++d) {
            src[d] = d + 1 == rank ? inner : kOuter[d];
            dst[d] = (mask >> d) & 1 ? 1 : src[d];  // bit set: reduced
          }
          for (const Shape& to : {dst, drop_leading_ones(dst)}) {
            for (int mode = 0; mode < 3; ++mode) {
              const std::string f64 =
                  reduce_checks::check_reduce<double>(src, to, mode, rng);
              const std::string f32 =
                  reduce_checks::check_reduce<float>(src, to, mode, rng);
              ASSERT_TRUE(f64.empty() && f32.empty())
                  << "src " << ad::shape_str(src) << " dst "
                  << ad::shape_str(to) << " mode " << mode
                  << " threaded=" << threaded
                  << (f64.empty() ? " f32 " + f32 : " f64 " + f64);
              ++cases;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 2 * 4 * (2 + 4 + 8 + 16) * 2 * 3);
}

TEST(ReduceRows, ReduceAndBroadcastCallsDoNotAllocate) {
  // Row walk and gather loop of reduce_broadcast, and map_broadcast, each
  // serial and threaded; plans and buffers are built before counting.
  KernelConfigGuard guard;
  const kernels::ReducePlan rows({40, 3, 70}, {1, 1, 70});
  const kernels::ReducePlan gather({40, 3, 70}, {40, 3, 1});
  const kernels::BroadcastPlan bcast({40, 3, 70}, {40, 1, 70}, {3, 1});
  std::vector<double> src(40 * 3 * 70, 0.5), out(40 * 3 * 70);
  for (const bool threaded : {false, true}) {
    if (threaded) {
      guard.threaded(kTestThreads);
    } else {
      guard.serial();
    }
    auto calls = [&] {
      kernels::reduce_broadcast(rows, src.data(), out.data());
      kernels::reduce_broadcast(gather, src.data(), out.data());
      kernels::map_broadcast(bcast, src.data(), src.data(), out.data(),
                             ad::sfn::Add{});
    };
    calls();  // a thread team's first start may allocate
    const std::int64_t before = g_heap_allocs.load();
    calls();
    EXPECT_EQ(g_heap_allocs.load(), before) << "threaded=" << threaded;
  }
}
