// Mixed-precision compute path (MF_PRECISION / ad::DType): the f32
// policy trades bitwise reproducibility for throughput, so its contract
// is different from the rest of the suite:
//
//  * f64 policy (the default) must stay *bitwise* identical to a build
//    without the policy — that is covered by every existing test running
//    unchanged; here we only pin the policy plumbing (no casts inserted,
//    per-dtype plan caches).
//  * f32 kernels are tolerance-gated against f64 but *exactly* equal to
//    their own scalar float reference: the AVX2 lanes and the scalar
//    tails must agree bit-for-bit per dtype, and cast round-trips that
//    mathematics says are exact must be exact.
//  * End to end, an f32 forward must track the f64 one to ~1e-4 — the
//    fig7-style model-quality bar the bench gate enforces in CI.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "ad/dtype.hpp"
#include "ad/engine.hpp"
#include "ad/kernels.hpp"
#include "ad/ops.hpp"
#include "ad/program.hpp"
#include "ad/scalar_fns.hpp"
#include "gelu_checks.hpp"
#include "gp/dataset.hpp"
#include "matmul_checks.hpp"
#include "mosaic/subdomain_solver.hpp"
#include "mosaic/trainer.hpp"
#include "optim/optimizers.hpp"
#include "util/rng.hpp"

namespace {

using namespace mf;
using ad::DType;
using ad::Tensor;
namespace ops = ad::ops;
namespace sfn = ad::sfn;

class ProgramEnabledGuard {
 public:
  explicit ProgramEnabledGuard(bool on) : prev_(ad::program_set_enabled(on)) {}
  ~ProgramEnabledGuard() { ad::program_set_enabled(prev_); }

 private:
  bool prev_;
};

/// RAII override of the process-wide precision policy.
class PrecisionGuard {
 public:
  explicit PrecisionGuard(DType dt) : prev_(ad::set_compute_dtype(dt)) {}
  ~PrecisionGuard() { ad::set_compute_dtype(prev_); }

 private:
  DType prev_;
};

Tensor randt(const ad::Shape& shape, unsigned seed, double lo, double hi) {
  util::Rng rng(seed);
  Tensor t = Tensor::zeros(shape);
  for (int64_t i = 0; i < t.numel(); ++i) t.flat(i) = rng.uniform(lo, hi);
  return t;
}

// ---------------------------------------------------------------------
// Cast kernels: the exactness the shadow-slot validity rule relies on.
// ---------------------------------------------------------------------

TEST(Precision, CastWidenThenNarrowIsIdentity) {
  // Every float is exactly representable as a double, so
  // narrow(widen(x)) == x bitwise — including the scalar tail lanes
  // (n deliberately not a multiple of 8) and non-finite values.
  const int64_t n = 1003;
  util::Rng rng(7);
  std::vector<float> src(static_cast<std::size_t>(n));
  for (auto& v : src) v = static_cast<float>(rng.uniform(-1e6, 1e6));
  src[0] = 0.0f;
  src[1] = -0.0f;
  src[2] = std::numeric_limits<float>::infinity();
  src[3] = -std::numeric_limits<float>::infinity();
  src[4] = std::numeric_limits<float>::denorm_min();
  src[5] = std::numeric_limits<float>::max();

  std::vector<double> wide(static_cast<std::size_t>(n));
  std::vector<float> back(static_cast<std::size_t>(n));
  ad::kernels::cast_buffer(src.data(), wide.data(), n);
  ad::kernels::cast_buffer(wide.data(), back.data(), n);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::memcmp(&src[static_cast<std::size_t>(i)],
                          &back[static_cast<std::size_t>(i)], sizeof(float)),
              0)
        << "i=" << i;
    EXPECT_EQ(wide[static_cast<std::size_t>(i)],
              static_cast<double>(src[static_cast<std::size_t>(i)]));
  }
  // NaN must survive both directions as NaN.
  float nan_f = std::numeric_limits<float>::quiet_NaN();
  double nan_d;
  ad::kernels::cast_buffer(&nan_f, &nan_d, 1);
  EXPECT_TRUE(std::isnan(nan_d));
  ad::kernels::cast_buffer(&nan_d, &nan_f, 1);
  EXPECT_TRUE(std::isnan(nan_f));
}

// ---------------------------------------------------------------------
// Float kernel tier: vector path == scalar float reference, exactly.
// ---------------------------------------------------------------------

TEST(Precision, FloatMapBinaryMatchesScalarReferenceExactly) {
  const int64_t n = 1003;  // odd: exercises the scalar tail
  util::Rng rng(11);
  std::vector<float> a(static_cast<std::size_t>(n)),
      b(static_cast<std::size_t>(n)), out(static_cast<std::size_t>(n));
  for (auto& v : a) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  for (auto& v : b) v = static_cast<float>(rng.uniform(0.5, 2.5));

  auto check = [&](auto f, const char* name) {
    ad::kernels::map_binary(a.data(), b.data(), out.data(), n, f);
    for (int64_t i = 0; i < n; ++i) {
      const auto u = static_cast<std::size_t>(i);
      ASSERT_EQ(out[u], f(a[u], b[u])) << name << " i=" << i;
    }
  };
  check(sfn::Add{}, "add");
  check(sfn::Sub{}, "sub");
  check(sfn::Mul{}, "mul");
  check(sfn::Div{}, "div");
}

TEST(Precision, FloatFastTanhIsChunkInvariantAndSane) {
  // The float fast-tanh contract mirrors the double one: the vector body
  // and the scalar tail evaluate the same polynomial, so splitting the
  // array at any point must not change a single bit.
  const int64_t n = 517;
  util::Rng rng(13);
  std::vector<float> full(static_cast<std::size_t>(n));
  for (auto& v : full) v = static_cast<float>(rng.uniform(-12.0, 12.0));
  std::vector<float> parts = full;

  ad::kernels::tanh_block_inplace(full.data(), n);
  // Apply in awkward chunk sizes (1, 3, 8, remainder).
  int64_t off = 0;
  for (int64_t c : {int64_t{1}, int64_t{3}, int64_t{8}, n}) {
    const int64_t len = std::min(c, n - off);
    if (len <= 0) break;
    ad::kernels::tanh_block_inplace(parts.data() + off, len);
    off += len;
  }
  ad::kernels::tanh_block_inplace(parts.data() + off, n - off);
  for (int64_t i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    ASSERT_EQ(full[u], parts[u]) << "i=" << i;
  }

  // Range sanity: odd, bounded, saturating, NaN-transparent, and within
  // float rounding of the libm reference.
  float probe[6] = {0.0f, 1e-4f, -0.75f, 30.0f, -30.0f,
                    std::numeric_limits<float>::quiet_NaN()};
  ad::kernels::tanh_block_inplace(probe, 6);
  EXPECT_EQ(probe[0], 0.0f);
  EXPECT_NEAR(probe[1], std::tanh(1e-4f), 1e-7f);
  EXPECT_NEAR(probe[2], std::tanh(-0.75f), 4e-7f);
  EXPECT_EQ(probe[3], 1.0f);
  EXPECT_EQ(probe[4], -1.0f);
  EXPECT_TRUE(std::isnan(probe[5]));
}

TEST(Precision, GeluConstantsAreTypedAtElementWidth) {
  // The f32 path must evaluate float(0.79788...), not round a double
  // intermediate: the typed constants are the single source of truth.
  EXPECT_EQ(sfn::gelu_coeff<float>, static_cast<float>(sfn::gelu_coeff<double>));
  EXPECT_EQ(sfn::gelu_cubic<float>, static_cast<float>(sfn::gelu_cubic<double>));
  EXPECT_EQ(sfn::gelu_coeff<double>, sfn::kGeluCoeff);

  // And the functor applied at float equals the all-float expression.
  const float x = 0.62f;
  const float u =
      sfn::gelu_coeff<float> * (x + sfn::gelu_cubic<float> * x * x * x);
  const float want = 0.5f * x * (1.0f + std::tanh(u));
  EXPECT_EQ(sfn::Gelu{}(x), want);
}

TEST(Precision, FloatGeluMaxAbsErrorVsLongDouble) {
  EXPECT_LE(gelu_checks::max_abs_error<float>(-20, 20, 400001), 1e-6);
}

TEST(Precision, FloatGeluChunkAndTailInvariance) {
  gelu_checks::expect_chunk_invariant<float>();
}

TEST(Precision, FloatGeluSpecialValues) {
  gelu_checks::expect_special_values<float>(1e30f);
}

TEST(Precision, FloatGeluAvx2AndAvx512LanesAgreeBitwise) {
  gelu_checks::expect_tiers_agree<float>();
}

TEST(Precision, FloatMatmulAvx2FmaTierMatchesNaiveFmaLoop) {
  matmul_checks::expect_tier_matches_naive<float>(4);
}

TEST(Precision, FloatMatmulAvx512fTierMatchesNaiveFmaLoop) {
  matmul_checks::expect_tier_matches_naive<float>(8);
}

TEST(Precision, FloatMatmulEntrySerialThreadedAndWidestTierAgree) {
  matmul_checks::expect_entry_serial_threaded_and_tier_agree<float>();
}

// ---------------------------------------------------------------------
// Program-level policy: f32 plans vs their f64 twins.
// ---------------------------------------------------------------------

TEST(Precision, F32ReplayTracksF64OverShapeZoo) {
  ProgramEnabledGuard on(true);
  ad::NoGradGuard no_grad;
  struct Case {
    const char* name;
    ad::Shape a, b;
  };
  const Case cases[] = {
      {"same", {6, 5}, {6, 5}},          {"row-bcast", {6, 5}, {1, 5}},
      {"col-bcast", {6, 5}, {6, 1}},     {"scalar-bcast", {4, 3, 2}, {1}},
      {"rank-lift", {3, 4, 5}, {4, 5}},  {"vec", {257}, {257}},
  };
  unsigned seed = 100;
  for (const Case& c : cases) {
    Tensor a = randt(c.a, seed++, -1.5, 1.5);
    Tensor b = randt(c.b, seed++, 0.5, 2.0);

    // One composite through elementwise + broadcast + tanh + reduction.
    Tensor z, s;
    auto body = [&] {
      z = ops::tanh(ops::mul(ops::add(a, b), a));
      s = ops::sum(z);
    };

    ad::Program p64;
    p64.capture(body);
    ASSERT_TRUE(p64.captured()) << c.name;
    p64.replay();
    EXPECT_EQ(p64.stats().cast_steps, 0u) << c.name;
    std::vector<double> z64(z.data(), z.data() + z.numel());
    const double s64 = s.item();

    ad::Program p32;
    p32.set_compute_dtype(DType::kF32);
    p32.capture(body);
    ASSERT_TRUE(p32.captured()) << c.name;
    EXPECT_GT(p32.stats().cast_steps, 0u) << c.name;
    p32.replay();
    const double tol = 1e-5;
    for (int64_t i = 0; i < z.numel(); ++i) {
      const double want = z64[static_cast<std::size_t>(i)];
      ASSERT_NEAR(z.flat(i), want, tol * std::max(1.0, std::abs(want)))
          << c.name << " i=" << i;
    }
    EXPECT_NEAR(s.item(), s64,
                tol * std::max(1.0, std::abs(s64)) *
                    std::sqrt(static_cast<double>(z.numel())))
        << c.name;
  }
}

TEST(Precision, F32GradcheckWithLoosenedEps) {
  // Gradients computed by an f32-lowered plan, finite-differenced against
  // the same plan's replayed loss. Float forward noise is ~1e-7 relative,
  // so the step must be much larger than the double-path 1e-6 and the
  // tolerance correspondingly looser.
  ProgramEnabledGuard on(true);
  Tensor x = randt({5, 3}, 31, -1.0, 1.0);
  Tensor w = randt({3, 4}, 32, -0.8, 0.8);
  w.set_requires_grad(true);

  ad::Program p;
  p.set_compute_dtype(DType::kF32);
  Tensor loss;
  p.capture([&] {
    loss = ops::mean(ops::square(ops::tanh(ops::matmul(x, w))));
    w.zero_grad();
    ad::backward(loss);
  });
  ASSERT_TRUE(p.captured());
  p.replay();
  Tensor g = w.grad();
  ASSERT_TRUE(g.defined());
  std::vector<double> analytic(static_cast<std::size_t>(g.numel()));
  for (int64_t j = 0; j < g.numel(); ++j) {
    analytic[static_cast<std::size_t>(j)] = g.flat(j);
  }

  const double eps = 1e-3;
  for (int64_t j = 0; j < w.numel(); ++j) {
    const double w0 = w.flat(j);
    w.flat(j) = w0 + eps;
    p.replay();
    const double lp = loss.item();
    w.flat(j) = w0 - eps;
    p.replay();
    const double lm = loss.item();
    w.flat(j) = w0;
    const double fd = (lp - lm) / (2 * eps);
    EXPECT_NEAR(analytic[static_cast<std::size_t>(j)], fd,
                2e-3 * std::max(1.0, std::abs(fd)))
        << "w[" << j << "]";
  }
}

TEST(Precision, PolicySurvivesProgramReset) {
  // set_compute_dtype applies to the *next* capture and must survive
  // reset(): callers configure a program once, then capture/recapture.
  ad::Program p;
  EXPECT_EQ(p.compute_dtype(), DType::kF64);
  p.set_compute_dtype(DType::kF32);
  p.reset();
  EXPECT_EQ(p.compute_dtype(), DType::kF32);
}

// ---------------------------------------------------------------------
// Mosaic plumbing: per-dtype caches and the end-to-end quality bar.
// ---------------------------------------------------------------------

mosaic::SdnetConfig small_net_config(int64_t m) {
  mosaic::SdnetConfig cfg;
  cfg.boundary_size = 4 * m;
  cfg.hidden_width = 16;
  cfg.mlp_depth = 2;
  return cfg;
}

TEST(Precision, PredictCachesPerDtypeAndF32TracksF64) {
  // The fig7-style end-to-end bar: the f32 inference path must match the
  // f64 one to 1e-4 mean absolute difference, and the shape cache must
  // key on dtype so flipping the policy captures a fresh plan instead of
  // replaying one lowered at the other width.
  const int64_t m = 4;
  util::Rng rng(13);
  auto net = std::make_shared<mosaic::Sdnet>(small_net_config(m), rng);
  mosaic::NeuralSubdomainSolver solver(net, m);

  const int64_t G = 4 * m;
  mosaic::QueryList queries;
  for (int k = 0; k < 6; ++k) queries.emplace_back(0.1 + 0.12 * k, 0.4);
  util::Rng brng(17);
  std::vector<std::vector<double>> batch(8);
  for (auto& b : batch) {
    b.resize(static_cast<std::size_t>(G));
    for (auto& v : b) v = brng.uniform(-1.0, 1.0);
  }

  ProgramEnabledGuard on(true);
  std::vector<std::vector<double>> out64, out32;
  const auto st0 = solver.thread_program_stats();
  {
    PrecisionGuard f64(DType::kF64);
    solver.predict(batch, queries, out64);  // first sight: eager
    solver.predict(batch, queries, out64);  // capture (f64)
    solver.predict(batch, queries, out64);  // replay
  }
  {
    PrecisionGuard f32(DType::kF32);
    solver.predict(batch, queries, out32);  // first sight at f32: eager
    solver.predict(batch, queries, out32);  // capture (f32)
    solver.predict(batch, queries, out32);  // replay (f32 plan)
  }
  const auto st1 = solver.thread_program_stats();
  EXPECT_EQ(st1.captures - st0.captures, 2u)
      << "each dtype must capture its own plan";
  EXPECT_GT(st1.cast_steps, 0u);

  double mae = 0.0;
  int64_t cnt = 0;
  for (std::size_t b = 0; b < out64.size(); ++b) {
    for (std::size_t k = 0; k < out64[b].size(); ++k) {
      mae += std::abs(out64[b][k] - out32[b][k]);
      ++cnt;
    }
  }
  mae /= static_cast<double>(cnt);
  EXPECT_LT(mae, 1e-4) << "f32 inference drifted from f64";
}

TEST(Precision, CompiledTrainStepRecapturesOnPolicyFlip) {
  ProgramEnabledGuard on(true);
  const int64_t m = 4;
  mosaic::TrainConfig cfg;
  cfg.q_data = 8;
  cfg.q_colloc = 4;
  cfg.use_pde_loss = true;

  util::Rng rng(7);
  mosaic::Sdnet net(small_net_config(m), rng);
  gp::LaplaceDatasetGenerator gen(m, {}, 11);
  auto bvps = gen.generate_many(4);
  optim::Adam opt(net.parameters(), 1e-3);

  mosaic::CompiledTrainStep cstep(net, cfg);
  auto batch = gen.make_batch(bvps, cfg.q_data, cfg.q_colloc);
  {
    PrecisionGuard f64(DType::kF64);
    cstep.run(batch);
    cstep.run(batch);
    EXPECT_TRUE(cstep.last_was_replay());
    EXPECT_EQ(cstep.program().stats().captures, 1u);
    EXPECT_EQ(cstep.program().stats().cast_steps, 0u);
  }
  {
    PrecisionGuard f32(DType::kF32);
    auto [ld, lp] = cstep.run(batch);  // policy flip: must re-capture
    EXPECT_FALSE(cstep.last_was_replay());
    EXPECT_EQ(cstep.program().stats().captures, 2u);  // re-captured at f32
    EXPECT_GT(cstep.program().stats().cast_steps, 0u);
    EXPECT_TRUE(std::isfinite(ld));
    EXPECT_TRUE(std::isfinite(lp));
    auto [ld2, lp2] = cstep.run(batch);
    EXPECT_TRUE(cstep.last_was_replay());
    EXPECT_TRUE(std::isfinite(ld2));
    EXPECT_TRUE(std::isfinite(lp2));
    opt.step();  // master weights stayed f64: the eager optimizer still works
  }
}

TEST(Precision, F32TrainingTracksF64Losses) {
  // Twin nets, twin batch streams; one compiled at each policy. The f32
  // loss trajectory must track f64 to a few parts in 1e4 over several
  // optimizer steps — master weights and Adam moments stay double, so
  // only forward/backward compute rounds.
  ProgramEnabledGuard on(true);
  const int64_t m = 4;
  mosaic::TrainConfig cfg;
  cfg.q_data = 8;
  cfg.q_colloc = 4;
  cfg.use_pde_loss = true;

  util::Rng rng_a(7), rng_b(7);
  mosaic::Sdnet net_a(small_net_config(m), rng_a);
  mosaic::Sdnet net_b(small_net_config(m), rng_b);
  gp::LaplaceDatasetGenerator gen_a(m, {}, 11), gen_b(m, {}, 11);
  auto bvps_a = gen_a.generate_many(4);
  auto bvps_b = gen_b.generate_many(4);
  optim::Adam opt_a(net_a.parameters(), 1e-3);
  optim::Adam opt_b(net_b.parameters(), 1e-3);

  mosaic::CompiledTrainStep step_a(net_a, cfg);
  mosaic::CompiledTrainStep step_b(net_b, cfg);
  for (int iter = 0; iter < 5; ++iter) {
    auto batch_a = gen_a.make_batch(bvps_a, cfg.q_data, cfg.q_colloc);
    auto batch_b = gen_b.make_batch(bvps_b, cfg.q_data, cfg.q_colloc);
    double ld_a, lp_a, ld_b, lp_b;
    {
      PrecisionGuard f64(DType::kF64);
      std::tie(ld_a, lp_a) = step_a.run(batch_a);
    }
    {
      PrecisionGuard f32(DType::kF32);
      std::tie(ld_b, lp_b) = step_b.run(batch_b);
    }
    EXPECT_NEAR(ld_b, ld_a, 5e-4 * std::max(1.0, std::abs(ld_a)))
        << "iter " << iter;
    EXPECT_NEAR(lp_b, lp_a, 5e-4 * std::max(1.0, std::abs(lp_a)))
        << "iter " << iter;
    opt_a.step();
    opt_b.step();
  }
}

TEST(Precision, SteadyStateF32CompiledStepDoesNoPayloadMallocs) {
  // The zero-payload-allocation guarantee holds at f32 too: the plan
  // arena is allocated once at lowering, cast shadows live on it, and
  // steady-state replay plus the eager Adam step allocate no payloads.
  ProgramEnabledGuard on(true);
  PrecisionGuard f32(DType::kF32);
  util::Rng rng(41);
  mosaic::SdnetConfig net_cfg;
  net_cfg.boundary_size = 16;
  net_cfg.hidden_width = 16;
  net_cfg.mlp_depth = 2;
  mosaic::Sdnet net(net_cfg, rng);
  gp::LaplaceDatasetGenerator gen(4, {}, 19);
  auto bvps = gen.generate_many(3);
  mosaic::TrainConfig tc;
  tc.pde_loss_weight = 0.3;
  optim::Adam opt(net.parameters(), 1e-3);
  mosaic::CompiledTrainStep cstep(net, tc);
  // Batches are built up front (make_batch allocates by design).
  std::vector<gp::SdnetBatch> batches;
  for (int i = 0; i < 8; ++i) batches.push_back(gen.make_batch(bvps, 8, 6));
  auto step = [&](std::size_t i) {
    cstep.run(batches[i]);
    opt.step();
  };
  for (std::size_t i = 0; i < 3; ++i) step(i);  // capture at f32 + warm up
  EXPECT_GT(cstep.program().stats().cast_steps, 0u);
  const auto& mt = ad::MemoryTracker::instance();
  const std::uint64_t a0 = mt.payload_allocs();
  for (std::size_t i = 3; i < 8; ++i) step(i);
  EXPECT_EQ(mt.payload_allocs(), a0)
      << "steady-state f32 replay allocated fresh payloads";
}

}  // namespace
