// Compiled tape programs (ad/program.hpp): capture/replay correctness.
//
//  * The replayed training step must be *bitwise* identical to the eager
//    one — same losses, same gradients, same weight trajectory — because
//    replay re-executes the exact kernel sequence the eager step ran.
//  * Second-order chains (the PDE loss's grad-of-grad) must survive
//    capture: gradients read back after replay are checked against finite
//    differences of the replayed loss.
//  * Shape changes must trigger re-capture; MF_DISABLE_PROGRAM must
//    reproduce eager behavior exactly; steady-state replay must perform
//    zero payload allocations (MemoryTracker::payload_allocs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "ad/dtype.hpp"
#include "ad/engine.hpp"
#include "ad/ops.hpp"
#include "ad/program.hpp"
#include "elementwise_checks.hpp"
#include "gp/dataset.hpp"
#include "mosaic/subdomain_solver.hpp"
#include "mosaic/trainer.hpp"
#include "optim/optimizers.hpp"
#include "util/rng.hpp"

namespace {

using namespace mf;
using ad::Tensor;
namespace ops = ad::ops;

/// RAII toggle for the global program switch (tests must not leak state).
class ProgramEnabledGuard {
 public:
  explicit ProgramEnabledGuard(bool on) : prev_(ad::program_set_enabled(on)) {}
  ~ProgramEnabledGuard() { ad::program_set_enabled(prev_); }

 private:
  bool prev_;
};

void expect_adam_state_bitwise_equal(const optim::Adam& a,
                                     const optim::Adam& b) {
  ASSERT_EQ(a.steps_taken(), b.steps_taken());
  const auto &ma = a.moments_m(), &mb = b.moments_m();
  const auto &va = a.moments_v(), &vb = b.moments_v();
  ASSERT_EQ(ma.size(), mb.size());
  for (std::size_t i = 0; i < ma.size(); ++i) {
    ASSERT_EQ(ma[i].size(), mb[i].size());
    for (std::size_t j = 0; j < ma[i].size(); ++j) {
      ASSERT_EQ(ma[i][j], mb[i][j]) << "m[" << i << "][" << j << "]";
      ASSERT_EQ(va[i][j], vb[i][j]) << "v[" << i << "][" << j << "]";
    }
  }
}

mosaic::SdnetConfig small_net_config(int64_t m) {
  mosaic::SdnetConfig cfg;
  cfg.boundary_size = 4 * m;
  cfg.hidden_width = 16;
  cfg.mlp_depth = 2;
  return cfg;
}

mosaic::TrainConfig small_train_config() {
  mosaic::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 4;
  cfg.q_data = 8;
  cfg.q_colloc = 6;
  cfg.pde_loss_weight = 0.3;
  cfg.optimizer = mosaic::OptimizerKind::kAdamW;
  return cfg;
}

void expect_params_bitwise_equal(const mosaic::Sdnet& a,
                                 const mosaic::Sdnet& b,
                                 bool compare_grads) {
  auto pa = a.parameters();
  auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i].numel(), pb[i].numel());
    for (int64_t j = 0; j < pa[i].numel(); ++j) {
      ASSERT_EQ(pa[i].flat(j), pb[i].flat(j)) << "param " << i << "[" << j << "]";
    }
    if (compare_grads) {
      Tensor ga = pa[i].grad(), gb = pb[i].grad();
      ASSERT_EQ(ga.defined(), gb.defined());
      if (!ga.defined()) continue;
      for (int64_t j = 0; j < ga.numel(); ++j) {
        ASSERT_EQ(ga.flat(j), gb.flat(j)) << "grad " << i << "[" << j << "]";
      }
    }
  }
}

TEST(Program, TrainingReplayBitwiseMatchesEager) {
  const int64_t m = 4;
  const auto net_cfg = small_net_config(m);
  const auto cfg = small_train_config();

  // Two identical replicas fed identical batch streams; one trains
  // eagerly, one through the compiled program (capture on the first
  // iteration, replay on every following one).
  util::Rng rng_a(7), rng_b(7);
  mosaic::Sdnet eager_net(net_cfg, rng_a);
  mosaic::Sdnet replay_net(net_cfg, rng_b);
  expect_params_bitwise_equal(eager_net, replay_net, false);

  gp::LaplaceDatasetGenerator gen_a(m, {}, 11), gen_b(m, {}, 11);
  auto bvps_a = gen_a.generate_many(6);
  auto bvps_b = gen_b.generate_many(6);

  optim::Adam opt_a(eager_net.parameters(), 1e-3);
  optim::Adam opt_b(replay_net.parameters(), 1e-3);

  mosaic::CompiledTrainStep cstep(replay_net, cfg);
  for (int iter = 0; iter < 6; ++iter) {
    auto batch_a = gen_a.make_batch(bvps_a, cfg.q_data, cfg.q_colloc);
    auto batch_b = gen_b.make_batch(bvps_b, cfg.q_data, cfg.q_colloc);

    double ld_a, lp_a;
    {
      ProgramEnabledGuard off(false);
      eager_net.zero_grad();
      std::tie(ld_a, lp_a) = mosaic::training_step(eager_net, batch_a, cfg);
    }
    double ld_b, lp_b;
    {
      ProgramEnabledGuard on(true);
      std::tie(ld_b, lp_b) = cstep.run(batch_b);
    }
    ASSERT_EQ(ld_a, ld_b) << "iter " << iter;
    ASSERT_EQ(lp_a, lp_b) << "iter " << iter;
    expect_params_bitwise_equal(eager_net, replay_net, true);
    opt_a.step();
    opt_b.step();
    expect_params_bitwise_equal(eager_net, replay_net, false);
    if (iter >= 1) {
      EXPECT_TRUE(cstep.last_was_replay()) << "iter " << iter;
    }
  }
  const auto st = cstep.program().stats();
  EXPECT_EQ(st.captures, 1u);
  EXPECT_EQ(st.replays, 5u);
  EXPECT_GT(st.steps, 0u);
}

TEST(Program, SecondOrderGradcheckThroughReplay) {
  ProgramEnabledGuard on(true);
  util::Rng rng(3);
  Tensor x = Tensor::zeros({5, 2});
  Tensor w = Tensor::zeros({2, 3});
  for (int64_t i = 0; i < x.numel(); ++i) x.flat(i) = rng.uniform(-1.0, 1.0);
  for (int64_t i = 0; i < w.numel(); ++i) w.flat(i) = rng.uniform(-0.8, 0.8);
  w.set_requires_grad(true);

  // Loss with a genuine second-order chain: differentiate the network
  // output w.r.t. its input under create_graph, then differentiate the
  // squared gradient w.r.t. the weights (the PDE-loss pattern).
  ad::Program program;
  Tensor loss;
  auto step = [&] {
    Tensor xl = x.detach();
    xl.set_requires_grad(true);
    Tensor y = ops::sum(ops::gelu(ops::matmul(xl, w)));
    Tensor dx = ad::grad(y, {xl}, Tensor(), /*create_graph=*/true)[0];
    loss = ops::mean(ops::square(dx));
    w.zero_grad();
    ad::backward(loss);
  };
  program.capture(step);

  // Replays recompute loss and w.grad from the live contents of x and w.
  program.replay();
  Tensor g = w.grad();
  ASSERT_TRUE(g.defined());
  std::vector<double> analytic(static_cast<std::size_t>(g.numel()));
  for (int64_t j = 0; j < g.numel(); ++j) analytic[static_cast<std::size_t>(j)] = g.flat(j);

  const double eps = 1e-6;
  for (int64_t j = 0; j < w.numel(); ++j) {
    const double w0 = w.flat(j);
    w.flat(j) = w0 + eps;
    program.replay();
    const double lp = loss.item();
    w.flat(j) = w0 - eps;
    program.replay();
    const double lm = loss.item();
    w.flat(j) = w0;
    const double fd = (lp - lm) / (2 * eps);
    EXPECT_NEAR(analytic[static_cast<std::size_t>(j)], fd,
                1e-5 * std::max(1.0, std::abs(fd)))
        << "w[" << j << "]";
  }
}

TEST(Program, ShapeChangeTriggersRecapture) {
  ProgramEnabledGuard on(true);
  const int64_t m = 4;
  const auto net_cfg = small_net_config(m);
  auto cfg = small_train_config();

  util::Rng rng(5);
  mosaic::Sdnet net(net_cfg, rng);
  gp::LaplaceDatasetGenerator gen(m, {}, 21);
  auto bvps = gen.generate_many(4);

  mosaic::CompiledTrainStep cstep(net, cfg);
  auto b4 = gen.make_batch(bvps, cfg.q_data, cfg.q_colloc);
  cstep.run(b4);
  EXPECT_EQ(cstep.program().stats().captures, 1u);
  cstep.run(b4);
  EXPECT_TRUE(cstep.last_was_replay());

  // Different batch size -> different leaf shapes -> fresh capture.
  std::vector<gp::SolvedBvp> fewer(bvps.begin(), bvps.begin() + 2);
  auto b2 = gen.make_batch(fewer, cfg.q_data, cfg.q_colloc);
  cstep.run(b2);
  EXPECT_FALSE(cstep.last_was_replay());
  EXPECT_EQ(cstep.program().stats().captures, 2u);  // re-captured
  cstep.run(b2);
  EXPECT_TRUE(cstep.last_was_replay());

  // Different collocation count changes only the PDE branch shapes.
  auto b_qc = gen.make_batch(fewer, cfg.q_data, cfg.q_colloc + 2);
  cstep.run(b_qc);
  EXPECT_FALSE(cstep.last_was_replay());
}

TEST(Program, DisabledHatchReproducesEagerExactly) {
  const int64_t m = 4;
  const auto net_cfg = small_net_config(m);
  const auto cfg = small_train_config();

  util::Rng rng_a(9), rng_b(9);
  mosaic::Sdnet net_a(net_cfg, rng_a);
  mosaic::Sdnet net_b(net_cfg, rng_b);
  gp::LaplaceDatasetGenerator gen_a(m, {}, 31), gen_b(m, {}, 31);
  auto bvps_a = gen_a.generate_many(4);
  auto bvps_b = gen_b.generate_many(4);

  ProgramEnabledGuard off(false);
  mosaic::CompiledTrainStep cstep(net_b, cfg);
  for (int iter = 0; iter < 3; ++iter) {
    auto batch_a = gen_a.make_batch(bvps_a, cfg.q_data, cfg.q_colloc);
    auto batch_b = gen_b.make_batch(bvps_b, cfg.q_data, cfg.q_colloc);
    net_a.zero_grad();
    auto [ld_a, lp_a] = mosaic::training_step(net_a, batch_a, cfg);
    auto [ld_b, lp_b] = cstep.run(batch_b);
    ASSERT_EQ(ld_a, ld_b);
    ASSERT_EQ(lp_a, lp_b);
    EXPECT_FALSE(cstep.last_was_replay());
    expect_params_bitwise_equal(net_a, net_b, true);
  }
  EXPECT_FALSE(cstep.program().captured());
  EXPECT_EQ(cstep.program().stats().captures, 0u);
}

TEST(Program, EagerFallbackInvalidatesCapturedPlan) {
  // An eager-fallback run() re-binds every parameter's .grad to fresh
  // tensors; a kept plan would then replay into the orphaned buffers.
  // The fallback must drop the plan so the next enabled run re-captures
  // against the live gradient bindings.
  const int64_t m = 4;
  const auto net_cfg = small_net_config(m);
  const auto cfg = small_train_config();
  util::Rng rng_a(51), rng_b(51);
  mosaic::Sdnet eager_net(net_cfg, rng_a);
  mosaic::Sdnet prog_net(net_cfg, rng_b);
  gp::LaplaceDatasetGenerator gen_a(m, {}, 61), gen_b(m, {}, 61);
  auto bvps_a = gen_a.generate_many(4);
  auto bvps_b = gen_b.generate_many(4);

  mosaic::CompiledTrainStep cstep(prog_net, cfg);
  for (int iter = 0; iter < 4; ++iter) {
    auto batch_a = gen_a.make_batch(bvps_a, cfg.q_data, cfg.q_colloc);
    auto batch_b = gen_b.make_batch(bvps_b, cfg.q_data, cfg.q_colloc);
    eager_net.zero_grad();
    mosaic::training_step(eager_net, batch_a, cfg);
    // Capture on iter 0, eager fallback on iter 1, re-capture on 2,
    // replay on 3 — gradients must track the eager twin throughout.
    ProgramEnabledGuard toggle(iter != 1);
    cstep.run(batch_b);
    expect_params_bitwise_equal(eager_net, prog_net, true);
  }
  EXPECT_TRUE(cstep.last_was_replay());
}

TEST(Program, BatchedInferenceReplayMatchesEager) {
  const int64_t m = 4;
  util::Rng rng(13);
  auto net = std::make_shared<mosaic::Sdnet>(small_net_config(m), rng);
  mosaic::NeuralSubdomainSolver solver(net, m);

  const int64_t G = 4 * m;
  mosaic::QueryList queries;
  for (int k = 0; k < 5; ++k) queries.emplace_back(0.1 + 0.15 * k, 0.3);

  util::Rng brng(17);
  auto make_boundaries = [&](int64_t B) {
    std::vector<std::vector<double>> bs(static_cast<std::size_t>(B));
    for (auto& b : bs) {
      b.resize(static_cast<std::size_t>(G));
      for (auto& v : b) v = brng.uniform(-1.0, 1.0);
    }
    return bs;
  };
  const auto batch1 = make_boundaries(6);
  const auto batch2 = make_boundaries(6);
  const auto batch3 = make_boundaries(6);

  std::vector<std::vector<double>> eager1, eager2, eager3, prog1, prog2, prog3;
  {
    ProgramEnabledGuard off(false);
    solver.predict(batch1, queries, eager1);
    solver.predict(batch2, queries, eager2);
    solver.predict(batch3, queries, eager3);
  }
  {
    ProgramEnabledGuard on(true);
    solver.predict(batch1, queries, prog1);  // capture at batch 1, replay
    solver.predict(batch2, queries, prog2);  // replay
    solver.predict(batch3, queries, prog3);  // replay
    const auto st = solver.thread_program_stats();
    EXPECT_EQ(st.captures, 1u);
    EXPECT_EQ(st.replays, 3u);
  }
  for (std::size_t b = 0; b < eager1.size(); ++b) {
    for (std::size_t k = 0; k < eager1[b].size(); ++k) {
      ASSERT_EQ(eager1[b][k], prog1[b][k]);
      ASSERT_EQ(eager2[b][k], prog2[b][k]);
      ASSERT_EQ(eager3[b][k], prog3[b][k]);
    }
  }
}

TEST(Program, EvictedInferencePlansStillCountInSolverStats) {
  // The per-thread inference cache holds infer_cache_capacity() plans. A
  // solver cycling through more geometries than that evicts its oldest
  // plans, and their capture and replay counters must still show in
  // thread_program_stats().
  ProgramEnabledGuard on(true);
  const int64_t m = 4;
  util::Rng rng(29);
  auto net = std::make_shared<mosaic::Sdnet>(small_net_config(m), rng);
  mosaic::NeuralSubdomainSolver solver(net, m);

  util::Rng brng(31);
  std::vector<std::vector<double>> boundaries(
      2, std::vector<double>(static_cast<std::size_t>(4 * m)));
  for (auto& b : boundaries) {
    for (auto& v : b) v = brng.uniform(-1.0, 1.0);
  }

  // One geometry per query count; each captures once, then every pass
  // replays it.
  const auto shapes =
      static_cast<std::uint64_t>(mosaic::infer_cache_capacity()) + 3;
  const auto before = mosaic::infer_cache_stats();
  std::vector<std::vector<double>> out;
  for (std::uint64_t q = 1; q <= shapes; ++q) {
    mosaic::QueryList queries;
    for (std::uint64_t k = 0; k < q; ++k) {
      queries.emplace_back(0.05 + 0.9 * static_cast<double>(k) /
                                      static_cast<double>(shapes),
                           0.4);
    }
    for (int pass = 0; pass < 3; ++pass) {
      solver.predict(boundaries, queries, out);
    }
  }
  const auto after = mosaic::infer_cache_stats();
  EXPECT_GE(after.evictions - before.evictions, 3u);
  EXPECT_EQ(after.captures - before.captures, shapes);
  const auto st = solver.thread_program_stats();
  EXPECT_EQ(st.captures, shapes) << "evicted plans' captures were lost";
  EXPECT_EQ(st.replays, 3 * shapes) << "evicted plans' replays were lost";
}

TEST(Program, FusedReplayWithInPlanAdamBitwiseMatchesEagerTrajectory) {
  // The strongest parity statement in this file: a compiled step with the
  // optimizer folded into the fused plan must track a fully eager
  // twin — weights, Adam moments, step counter and both losses — bitwise
  // over a long trajectory, including a changing learning rate (the plan
  // reads the live lr at every replay).
  const int64_t m = 4;
  const auto net_cfg = small_net_config(m);
  const auto cfg = small_train_config();

  util::Rng rng_a(7), rng_b(7);
  mosaic::Sdnet eager_net(net_cfg, rng_a);
  mosaic::Sdnet replay_net(net_cfg, rng_b);
  gp::LaplaceDatasetGenerator gen_a(m, {}, 11), gen_b(m, {}, 11);
  auto bvps_a = gen_a.generate_many(6);
  auto bvps_b = gen_b.generate_many(6);

  optim::Adam opt_a(eager_net.parameters(), 1e-3);
  optim::Adam opt_b(replay_net.parameters(), 1e-3);
  ASSERT_TRUE(opt_b.plan_capturable());

  mosaic::CompiledTrainStep cstep(replay_net, cfg, &opt_b);
  EXPECT_TRUE(cstep.optimizer_in_plan());
  const int kSteps = 52;
  for (int iter = 0; iter < kSteps; ++iter) {
    const double lr = 1e-3 * (1.0 + 0.01 * iter);
    opt_a.set_lr(lr);
    opt_b.set_lr(lr);
    auto batch_a = gen_a.make_batch(bvps_a, cfg.q_data, cfg.q_colloc);
    auto batch_b = gen_b.make_batch(bvps_b, cfg.q_data, cfg.q_colloc);

    double ld_a, lp_a;
    {
      ProgramEnabledGuard off(false);
      eager_net.zero_grad();
      std::tie(ld_a, lp_a) = mosaic::training_step(eager_net, batch_a, cfg);
      opt_a.step();
    }
    double ld_b, lp_b;
    {
      ProgramEnabledGuard on(true);
      std::tie(ld_b, lp_b) = cstep.run(batch_b);
    }
    ASSERT_EQ(ld_a, ld_b) << "iter " << iter;
    ASSERT_EQ(lp_a, lp_b) << "iter " << iter;
    // The compiled twin's .grad buffers live only inside the plan now, so
    // weights + optimizer state are the comparable surface — and they are
    // exactly what the in-plan update must keep bitwise.
    expect_params_bitwise_equal(eager_net, replay_net, false);
    expect_adam_state_bitwise_equal(opt_a, opt_b);
  }
  const auto st = cstep.program().stats();
  EXPECT_EQ(st.captures, 1u);
  EXPECT_EQ(st.replays, static_cast<std::uint64_t>(kSteps - 1));
  EXPECT_GT(st.fused_steps, 0u) << "training plan should contain fused runs";
  EXPECT_GT(st.fused_ops, st.fused_steps);
  EXPECT_GT(st.optim_steps, 0u) << "Adam update should be in-plan";
}

TEST(Program, LaterNonFusedReaderBlocksFusion) {
  // add -> gelu is an adjacent elementwise producer->consumer pair, but
  // the add's output is also read by a later non-elementwise step (sum).
  // Folding the pair would leave that reader with a never-materialized
  // operand, so the pass must keep the whole run unfused.
  ProgramEnabledGuard on(true);
  Tensor x = Tensor::zeros({64});
  util::Rng rng(91);
  for (int64_t i = 0; i < x.numel(); ++i) x.flat(i) = rng.uniform(-1.0, 1.0);

  ad::Program blocked;
  Tensor out_blocked;
  blocked.capture([&] {
    Tensor t1 = ops::add(x, x);
    Tensor g = ops::gelu(t1);   // adjacent elementwise consumer of t1
    Tensor s = ops::sum(t1);    // later non-fused reader of t1
    out_blocked = ops::add(g, s);
  });
  EXPECT_EQ(blocked.stats().fused_steps, 0u)
      << "a slot read by a later non-fused step must block fusion";

  // Control: the identical chain without the extra reader fuses whole.
  ad::Program chained;
  Tensor out_chained;
  chained.capture([&] {
    out_chained = ops::mul(ops::gelu(ops::add(x, x)), x);
  });
  EXPECT_EQ(chained.stats().fused_steps, 1u);
  EXPECT_EQ(chained.stats().fused_ops, 3u);

  // Both programs replay bitwise against a fresh eager evaluation, also
  // after the leaf contents change.
  for (int round = 0; round < 2; ++round) {
    blocked.replay();
    chained.replay();
    Tensor eager_blocked, eager_chained;
    {
      Tensor t1 = ops::add(x, x);
      eager_blocked = ops::add(ops::gelu(t1), ops::sum(t1));
      eager_chained = ops::mul(ops::gelu(ops::add(x, x)), x);
    }
    for (int64_t i = 0; i < out_blocked.numel(); ++i) {
      ASSERT_EQ(out_blocked.flat(i), eager_blocked.flat(i)) << "round " << round;
    }
    for (int64_t i = 0; i < out_chained.numel(); ++i) {
      ASSERT_EQ(out_chained.flat(i), eager_chained.flat(i)) << "round " << round;
    }
    for (int64_t i = 0; i < x.numel(); ++i) x.flat(i) = rng.uniform(-1.0, 1.0);
  }
}

namespace {

using ad::kernels::BinaryOp;
using ad::kernels::UnaryOp;

/// The eager op that records `op`. sign and the GELU derivatives have no
/// ops:: function: abs's and gelu's backward passes run them through this
/// same kernel entry and capture hook.
Tensor unary_op(UnaryOp op, const Tensor& t) {
  switch (op) {
    case UnaryOp::kAddScalar: return ops::add_scalar(t, 0.75);
    case UnaryOp::kMulScalar: return ops::mul_scalar(t, -1.25);
    case UnaryOp::kPowScalar: return ops::pow_scalar(t, 1.5);
    case UnaryOp::kNeg: return ops::neg(t);
    case UnaryOp::kExp: return ops::exp(t);
    case UnaryOp::kLog: return ops::log(t);
    case UnaryOp::kSqrt: return ops::sqrt(t);
    case UnaryOp::kTanh: return ops::tanh(t);
    case UnaryOp::kAbs: return ops::abs(t);
    case UnaryOp::kGelu: return ops::gelu(t);
    case UnaryOp::kSign:
    case UnaryOp::kGeluD1:
    case UnaryOp::kGeluD2:
    case UnaryOp::kGeluD3:
      break;
  }
  Tensor s = Tensor::zeros(t.shape());
  ad::kernels::map_unary(t.data(), s.data(), t.numel(), op, 0);
  if (ad::prog::capturing()) ad::prog::on_unary(op, 0, t, s);
  return s;
}

Tensor binary_op(BinaryOp op, const Tensor& a, const Tensor& b) {
  switch (op) {
    case BinaryOp::kAdd: return ops::add(a, b);
    case BinaryOp::kSub: return ops::sub(a, b);
    case BinaryOp::kMul: return ops::mul(a, b);
    case BinaryOp::kDiv: return ops::div(a, b);
  }
  return a;
}

}  // namespace

TEST(Program, EveryElementwiseOpReplaysBitwiseAloneAndFused) {
  // Each unary and binary opcode as one standalone step, and inside a
  // chain the fuse pass folds whole: mul_scalar -> op -> add for unary
  // ops; add_scalar, then op with the chain on the left, on the right and
  // on both sides for binary ops. After new leaf contents, replay equals a
  // fresh eager evaluation bitwise. log, sqrt and pow_scalar see positive
  // inputs.
  ProgramEnabledGuard on(true);
  ad::NoGradGuard no_grad;
  util::Rng rng(97);
  Tensor x = Tensor::zeros({203});
  Tensor w = Tensor::zeros({203});
  auto expect_replays = [&](const std::string& what,
                            const std::function<Tensor()>& f,
                            std::size_t fused_ops, double lo) {
    auto refill = [&] {
      for (int64_t i = 0; i < x.numel(); ++i) {
        x.flat(i) = rng.uniform(lo, 2.0);
        w.flat(i) = rng.uniform(0.5, 2.0);
      }
    };
    refill();
    ad::Program p;
    Tensor out;
    p.capture([&] { out = f(); });
    EXPECT_EQ(p.stats().fused_ops, fused_ops) << what;
    for (int round = 0; round < 2; ++round) {
      refill();
      p.replay();
      const Tensor eager = f();
      for (int64_t i = 0; i < out.numel(); ++i) {
        ASSERT_TRUE(elementwise_checks::same_bits(out.flat(i), eager.flat(i)))
            << what << " round " << round << " i=" << i << ": "
            << out.flat(i) << " vs " << eager.flat(i);
      }
    }
  };
  for (const UnaryOp op : elementwise_checks::kUnaryOps) {
    const bool positive = op == UnaryOp::kLog || op == UnaryOp::kSqrt ||
                          op == UnaryOp::kPowScalar;
    const double lo = positive ? 0.25 : -2.0;
    const std::string name = elementwise_checks::name(op);
    expect_replays(name + " alone", [&] { return unary_op(op, x); }, 0, lo);
    expect_replays(
        name + " fused",
        [&] { return ops::add(unary_op(op, ops::mul_scalar(x, 1.5)), x); }, 3,
        lo);
  }
  for (const BinaryOp op : elementwise_checks::kBinaryOps) {
    const std::string name = elementwise_checks::name(op);
    expect_replays(name + " alone", [&] { return binary_op(op, x, w); }, 0,
                   -2.0);
    expect_replays(
        name + " fused",
        [&] {
          const Tensor left = binary_op(op, ops::add_scalar(x, 0.5), w);
          const Tensor right = binary_op(op, w, left);
          return binary_op(op, right, right);
        },
        4, -2.0);
  }
}

TEST(Program, SteadyStateReplayWithInPlanOptimizerIsAllocationFree) {
  // PR 4's allocation-free guarantee must survive the optimizer moving
  // into the plan: replays that now also perform the Adam update still
  // touch no payload allocations in steady state.
  ProgramEnabledGuard on(true);
  const int64_t m = 4;
  const auto net_cfg = small_net_config(m);
  const auto cfg = small_train_config();

  util::Rng rng(29);
  mosaic::Sdnet net(net_cfg, rng);
  gp::LaplaceDatasetGenerator gen(m, {}, 43);
  auto bvps = gen.generate_many(4);
  optim::Adam opt(net.parameters(), 1e-3);

  mosaic::CompiledTrainStep cstep(net, cfg, &opt);
  // Batches are built up front: make_batch allocates its tensors by
  // design, and the guarantee under test is about replay alone.
  std::vector<gp::SdnetBatch> batches;
  for (int i = 0; i < 8; ++i) {
    batches.push_back(gen.make_batch(bvps, cfg.q_data, cfg.q_colloc));
  }
  // Capture, then warm up.
  for (std::size_t i = 0; i < 3; ++i) cstep.run(batches[i]);
  ASSERT_TRUE(cstep.optimizer_in_plan());
  const auto& mt = ad::MemoryTracker::instance();
  const std::uint64_t a0 = mt.payload_allocs();
  for (std::size_t i = 3; i < 8; ++i) cstep.run(batches[i]);
  EXPECT_EQ(mt.payload_allocs(), a0)
      << "steady-state replay with the optimizer in-plan must not allocate";
  EXPECT_TRUE(cstep.last_was_replay());
  EXPECT_GT(cstep.program().stats().optim_steps, 0u);
}

TEST(Program, InPlanLambBitwiseMatchesEagerTrajectory) {
  // LAMB's whole-tensor update (Adam direction, norm accumulation, trust
  // scaling) now records into the plan via kLambParam; the compiled twin
  // must track a fully eager twin bitwise — weights, moments, step
  // counter and both losses — across a trajectory with a moving lr.
  const int64_t m = 4;
  const auto net_cfg = small_net_config(m);
  auto cfg = small_train_config();
  cfg.optimizer = mosaic::OptimizerKind::kLamb;

  util::Rng rng_a(7), rng_b(7);
  mosaic::Sdnet eager_net(net_cfg, rng_a);
  mosaic::Sdnet replay_net(net_cfg, rng_b);
  gp::LaplaceDatasetGenerator gen_a(m, {}, 11), gen_b(m, {}, 11);
  auto bvps_a = gen_a.generate_many(6);
  auto bvps_b = gen_b.generate_many(6);

  optim::Lamb opt_a(eager_net.parameters(), 1e-3, 0.9, 0.999, 1e-6, 0.01);
  optim::Lamb opt_b(replay_net.parameters(), 1e-3, 0.9, 0.999, 1e-6, 0.01);
  ASSERT_TRUE(opt_b.plan_capturable());

  mosaic::CompiledTrainStep cstep(replay_net, cfg, &opt_b);
  EXPECT_TRUE(cstep.optimizer_in_plan());
  const int kSteps = 20;
  for (int iter = 0; iter < kSteps; ++iter) {
    const double lr = 1e-3 * (1.0 + 0.01 * iter);
    opt_a.set_lr(lr);
    opt_b.set_lr(lr);
    auto batch_a = gen_a.make_batch(bvps_a, cfg.q_data, cfg.q_colloc);
    auto batch_b = gen_b.make_batch(bvps_b, cfg.q_data, cfg.q_colloc);
    double ld_a, lp_a;
    {
      ProgramEnabledGuard off(false);
      eager_net.zero_grad();
      std::tie(ld_a, lp_a) = mosaic::training_step(eager_net, batch_a, cfg);
      opt_a.step();
    }
    double ld_b, lp_b;
    {
      ProgramEnabledGuard on(true);
      std::tie(ld_b, lp_b) = cstep.run(batch_b);
    }
    ASSERT_EQ(ld_a, ld_b) << "iter " << iter;
    ASSERT_EQ(lp_a, lp_b) << "iter " << iter;
    expect_params_bitwise_equal(eager_net, replay_net, false);
    expect_adam_state_bitwise_equal(opt_a, opt_b);
  }
  const auto st = cstep.program().stats();
  EXPECT_EQ(st.captures, 1u);
  EXPECT_EQ(st.replays, static_cast<std::uint64_t>(kSteps - 1));
  EXPECT_GT(st.optim_steps, 0u) << "LAMB update should be in-plan";
}

TEST(Program, SgdInsideCapturePoisonsThePlanNotTheStep) {
  // SGD has no in-plan form. Stepping it inside a capture must leave NO
  // half-captured plan behind (a plan that replays forward/backward but
  // silently skips the update): the capture is poisoned, the step runs
  // eagerly — once — and the compiled wrapper stays eager from then on,
  // tracking an eager twin bitwise.
  const int64_t m = 4;
  const auto net_cfg = small_net_config(m);
  auto cfg = small_train_config();
  cfg.optimizer = mosaic::OptimizerKind::kSgd;

  util::Rng rng_a(7), rng_b(7);
  mosaic::Sdnet eager_net(net_cfg, rng_a);
  mosaic::Sdnet compiled_net(net_cfg, rng_b);
  gp::LaplaceDatasetGenerator gen_a(m, {}, 11), gen_b(m, {}, 11);
  auto bvps_a = gen_a.generate_many(6);
  auto bvps_b = gen_b.generate_many(6);

  optim::Sgd opt_a(eager_net.parameters(), 1e-3, 0.9, 0.0);
  optim::Sgd opt_b(compiled_net.parameters(), 1e-3, 0.9, 0.0);
  ASSERT_FALSE(opt_b.plan_capturable());

  ProgramEnabledGuard on(true);
  // Force the poison path: pretend SGD is capturable so CompiledTrainStep
  // records the step body with the optimizer inside. There is no hook for
  // that, so drive the capture directly.
  ad::Program program;
  compiled_net.zero_grad();
  auto batch0 = gen_b.make_batch(bvps_b, cfg.q_data, cfg.q_colloc);
  program.capture([&] {
    (void)mosaic::training_step_graph(compiled_net, batch0, cfg);
    opt_b.step();  // poisons: no kSgd step exists
  });
  EXPECT_FALSE(program.captured())
      << "a capture containing an SGD step must not survive";
  // The body still ran eagerly and exactly once: the eager twin after one
  // identical iteration matches bitwise.
  {
    ProgramEnabledGuard off(false);
    eager_net.zero_grad();
    auto batch_a = gen_a.make_batch(bvps_a, cfg.q_data, cfg.q_colloc);
    (void)mosaic::training_step(eager_net, batch_a, cfg);
    opt_a.step();
  }
  expect_params_bitwise_equal(eager_net, compiled_net, false);

  // The wrapper never puts a non-capturable optimizer inside the plan:
  // the step compiles without the update, SGD runs eagerly after each
  // replay, nothing is poisoned, and the twin stays bitwise.
  mosaic::CompiledTrainStep cstep(compiled_net, cfg, &opt_b);
  EXPECT_FALSE(cstep.optimizer_in_plan());
  for (int iter = 1; iter < 5; ++iter) {
    auto batch_a = gen_a.make_batch(bvps_a, cfg.q_data, cfg.q_colloc);
    auto batch_b = gen_b.make_batch(bvps_b, cfg.q_data, cfg.q_colloc);
    {
      ProgramEnabledGuard off(false);
      eager_net.zero_grad();
      (void)mosaic::training_step(eager_net, batch_a, cfg);
      opt_a.step();
    }
    (void)cstep.run(batch_b);
    if (iter >= 2) {
      EXPECT_TRUE(cstep.last_was_replay()) << "iter " << iter;
    }
    expect_params_bitwise_equal(eager_net, compiled_net, false);
  }
  EXPECT_FALSE(cstep.capture_failed());
}

TEST(Program, WidenedPlanMatchesPerInstanceReplay) {
  // Plan-level widening parity: a captured matmul+activation evaluated
  // once at width b must be bitwise identical to b/B0 base-width replays
  // of the same instance rows. Also covers the b == B0 aliasing special
  // case.
  ProgramEnabledGuard on(true);
  ad::NoGradGuard no_grad;
  const int64_t B0 = 2, K = 3, N = 4;
  Tensor x = Tensor::zeros({B0, K});
  Tensor w = Tensor::zeros({K, N});
  util::Rng rng(31);
  for (int64_t i = 0; i < w.numel(); ++i) w.flat(i) = rng.uniform(-1.0, 1.0);
  for (int64_t i = 0; i < x.numel(); ++i) x.flat(i) = rng.uniform(-1.0, 1.0);

  ad::Program p;
  Tensor y;
  p.capture([&] { y = ops::tanh(ops::matmul(x, w)); });
  ASSERT_TRUE(p.captured());
  EXPECT_FALSE(p.widened());
  ASSERT_TRUE(p.widen({x, y}));
  EXPECT_TRUE(p.widened());

  // b == B0: the widened buffers alias the tensors' own payloads.
  EXPECT_EQ(p.widened_buffer(x, B0), x.data());
  EXPECT_EQ(p.widened_buffer(y, B0), y.data());

  const int64_t b = 6;  // factor 3
  std::vector<double> xs(static_cast<std::size_t>(b * K));
  for (auto& v : xs) v = rng.uniform(-1.0, 1.0);
  ad::real* xw = p.widened_buffer(x, b);
  std::copy(xs.begin(), xs.end(), xw);
  p.replay_widened(b);
  std::vector<double> ys(p.widened_buffer(y, b),
                         p.widened_buffer(y, b) + b * N);

  // Reference: replay the base plan chunk by chunk through the tensors'
  // own payloads.
  for (int64_t c = 0; c < b / B0; ++c) {
    std::copy(xs.begin() + c * B0 * K, xs.begin() + (c + 1) * B0 * K, x.data());
    p.replay();
    for (int64_t i = 0; i < B0 * N; ++i) {
      ASSERT_EQ(y.flat(i), ys[static_cast<std::size_t>(c * B0 * N + i)])
          << "chunk " << c << " elem " << i;
    }
  }
  const auto st = p.stats();
  EXPECT_EQ(st.widened_replays, 1u);
  EXPECT_EQ(st.max_widen_batch, b);
  EXPECT_GE(st.wide_instances, 1u);
}

TEST(Program, WidenRejectsInstanceMixingPlans) {
  // Fail-closed: any step that mixes batch instances must refuse
  // widening — the plan stays fully usable for plain replay.
  ProgramEnabledGuard on(true);
  ad::NoGradGuard no_grad;
  Tensor x = Tensor::zeros({2, 3});
  for (int64_t i = 0; i < x.numel(); ++i) x.flat(i) = 0.25 * double(i);

  {
    ad::Program p;
    Tensor y;
    p.capture([&] { y = ops::matmul_tn(x, x); });
    ASSERT_TRUE(p.captured());
    EXPECT_FALSE(p.widen({x}));      // xᵀx contracts over the batch rows
    EXPECT_FALSE(p.widen({x, y}));   // and the declared dim0s disagree
    const std::vector<double> captured(y.data(), y.data() + y.numel());
    std::fill(y.data(), y.data() + y.numel(), 0.0);
    p.replay();                      // still replayable after refusal
    EXPECT_EQ(std::vector<double>(y.data(), y.data() + y.numel()), captured);
  }
  {
    ad::Program p;
    Tensor y;
    p.capture([&] { y = ops::sum(x); });
    ASSERT_TRUE(p.captured());
    EXPECT_FALSE(p.widen({x}));  // full reduction sums across instances
  }
  {
    ad::Program p;
    Tensor y;
    p.capture([&] { y = ops::sum_axis(x, /*axis=*/0, /*keepdim=*/false); });
    ASSERT_TRUE(p.captured());
    EXPECT_FALSE(p.widen({x}));  // axis-0 reduction mixes instances
  }
}

Tensor random_tensor(const ad::Shape& shape, util::Rng& rng) {
  Tensor t = Tensor::zeros(shape);
  for (int64_t i = 0; i < t.numel(); ++i) t.flat(i) = rng.uniform(-1.0, 1.0);
  return t;
}

/// A plan body over batch inputs whose leading dim is the base batch.
struct WidenCase {
  const char* name;
  std::vector<Tensor> inputs;
  std::function<Tensor()> body;
};

TEST(Program, WidenAcceptsOneCasePerRule) {
  // One accepting plan per widen rule that can accept (elementwise via a
  // fused chain, bcast, outer, rows), at both compute dtypes and at base
  // batches 1 and 2: a widened replay of 3 * B0 rows must be bitwise
  // identical to three base-width replays of the same rows. At B0 = 1 the
  // outer-axis cases have a leading product of 1 and must still widen.
  ProgramEnabledGuard on(true);
  ad::NoGradGuard no_grad;
  util::Rng rng(53);
  const Tensor row = random_tensor({5}, rng), wm = random_tensor({5, 3}, rng);
  const Tensor w = random_tensor({5, 4}, rng), wb = random_tensor({4}, rng);
  const Tensor cw = random_tensor({3, 2, 3}, rng), cb = random_tensor({3}, rng);
  const int64_t kFactor = 3;
  for (const int64_t B0 : {int64_t{1}, int64_t{2}}) {
    const Tensor x = random_tensor({B0, 5}, rng);
    const Tensor z = random_tensor({B0, 5}, rng);
    const Tensor col = random_tensor({B0, 1}, rng);
    const Tensor x3 = random_tensor({B0, 3, 4}, rng);
    const Tensor sig = random_tensor({B0, 2, 6}, rng);
    const std::vector<WidenCase> cases = {
        {"fused_chain", {x, z},
         [=] {
           return ops::tanh(
               ops::sub(z, ops::mul_scalar(ops::mul(x, z), 0.5)));
         }},
        {"bcast_row_bias", {x}, [=] { return ops::add(x, row); }},
        {"broadcast_to", {col},
         [=] { return ops::broadcast_to(col, {B0, 5}); }},
        {"slice_concat_axis1", {x},
         [=] {
           return ops::concat(
               {ops::slice(x, 1, 3, 2), ops::slice(x, 1, 0, 3)}, 1);
         }},
        {"sum_axis1", {x3}, [=] { return ops::sum_axis(x3, 1, false); }},
        // At B0 = 1 the two unscaled internals of the weight-only sum are
        // as large as the batch rows after them, and die first: the wide
        // packing must not hand their buffers to the rows.
        {"unscaled_internal", {x},
         [=] {
           return ops::tanh(
               ops::add(ops::add(x, ops::sum_axis(wm, 1, false)), row));
         }},
        {"matmul", {x}, [=] { return ops::linear(x, w, wb); }},
        {"matmul_nt", {x3}, [=] { return ops::matmul_nt(x3, w); }},
        {"conv1d", {sig}, [=] { return ops::conv1d(sig, cw, cb, 1); }},
    };
    for (const ad::DType dt : {ad::DType::kF64, ad::DType::kF32}) {
      for (const WidenCase& c : cases) {
        SCOPED_TRACE(std::string(c.name) +
                     (dt == ad::DType::kF32 ? " f32" : " f64") + " B0 " +
                     std::to_string(B0));
        ad::Program p;
        p.set_compute_dtype(dt);
        Tensor y;
        p.capture([&] { y = c.body(); });
        ASSERT_TRUE(p.captured());
        if (std::string(c.name) == "fused_chain") {
          EXPECT_GT(p.stats().fused_steps, 0u);
        }
        std::vector<Tensor> io = c.inputs;
        io.push_back(y);
        ASSERT_TRUE(p.widen(io));
        const int64_t b = kFactor * B0;
        std::vector<std::vector<double>> wide_in;
        for (const Tensor& t : c.inputs) {
          std::vector<double> v(static_cast<std::size_t>(kFactor * t.numel()));
          for (auto& e : v) e = rng.uniform(-1.0, 1.0);
          std::copy(v.begin(), v.end(), p.widened_buffer(t, b));
          wide_in.push_back(std::move(v));
        }
        p.replay_widened(b);
        const ad::real* wy = p.widened_buffer(y, b);
        const std::vector<double> wide_out(wy, wy + kFactor * y.numel());
        for (int64_t chunk = 0; chunk < kFactor; ++chunk) {
          for (std::size_t i = 0; i < c.inputs.size(); ++i) {
            Tensor t = c.inputs[i];
            std::copy_n(wide_in[i].begin() + chunk * t.numel(), t.numel(),
                        t.data());
          }
          p.replay();
          for (int64_t e = 0; e < y.numel(); ++e) {
            ASSERT_EQ(y.flat(e), wide_out[static_cast<std::size_t>(
                                     chunk * y.numel() + e)])
                << "chunk " << chunk << " elem " << e;
          }
        }
      }
    }
  }
}

TEST(Program, WidenRefusesOneCasePerRule) {
  // One refusing plan per rule that can refuse (fold, outer on the batch
  // axis, rows with a batch-carrying rhs, never) at base batches 1 and 2:
  // widen() returns false and plain replay still reproduces the captured
  // result. Outputs whose leading dim is the base batch are declared too,
  // so each refusal comes from the step rule, not from an undeclared
  // external output.
  ProgramEnabledGuard on(true);
  util::Rng rng(59);
  for (const int64_t B0 : {int64_t{1}, int64_t{2}}) {
    const Tensor x = random_tensor({B0, 4}, rng);
    const Tensor w = random_tensor({3, B0}, rng);
    const Tensor x3 = random_tensor({B0, 3, 4}, rng);
    const Tensor sig = random_tensor({B0, 2, 6}, rng);
    Tensor cw = random_tensor({3, 2, 3}, rng), cb = random_tensor({3}, rng);
    cw.set_requires_grad(true);
    cb.set_requires_grad(true);
    const Tensor g = Tensor::ones({B0, 3, 6});
    const std::vector<WidenCase> cases = {
        // Refused even per instance: the reduce plan is not rebuilt.
        {"reduce_to", {x3}, [=] { return ops::reduce_to(x3, {B0, 1, 4}); }},
        {"slice_axis0", {x},
         [=] {
           return ops::concat(
               {ops::slice(x, 0, B0 - 1, 1), ops::slice(x, 0, 0, 1)}, 0);
         }},
        {"matmul_batch_rhs", {x}, [=] { return ops::matmul(w, x); }},
        {"backward", {sig},
         [=] {
           Tensor y = ops::conv1d(sig, cw, cb, 1);
           ad::backward(y, g);
           return y;
         }},
    };
    for (const WidenCase& c : cases) {
      SCOPED_TRACE(std::string(c.name) + " B0 " + std::to_string(B0));
      ad::Program p;
      Tensor y;
      p.capture([&] { y = c.body(); });
      ASSERT_TRUE(p.captured());
      const std::vector<double> captured(y.data(), y.data() + y.numel());
      std::vector<Tensor> io = c.inputs;
      if (y.shape()[0] == B0) io.push_back(y);
      EXPECT_FALSE(p.widen(io));
      EXPECT_FALSE(p.widened());
      std::fill(y.data(), y.data() + y.numel(), 0.0);
      p.replay();
      for (int64_t e = 0; e < y.numel(); ++e) {
        ASSERT_EQ(y.flat(e), captured[static_cast<std::size_t>(e)]) << e;
      }
    }
  }
}

TEST(Program, WidenedBatchedInferenceBitwiseMatchesEager) {
  // Solver-level widening: one plan captured at batch 1 serves every
  // batch size, bitwise identical to the eager per-batch path and with no
  // additional captures.
  const int64_t m = 4;
  util::Rng rng(13);
  auto net = std::make_shared<mosaic::Sdnet>(small_net_config(m), rng);
  mosaic::NeuralSubdomainSolver solver(net, m);

  const int64_t G = 4 * m;
  mosaic::QueryList queries;
  for (int k = 0; k < 5; ++k) queries.emplace_back(0.1 + 0.15 * k, 0.3);
  util::Rng brng(17);
  auto make_boundaries = [&](int64_t B) {
    std::vector<std::vector<double>> bs(static_cast<std::size_t>(B));
    for (auto& b : bs) {
      b.resize(static_cast<std::size_t>(G));
      for (auto& v : b) v = brng.uniform(-1.0, 1.0);
    }
    return bs;
  };
  const auto base1 = make_boundaries(2), base2 = make_boundaries(2);
  const auto quad = make_boundaries(4), six = make_boundaries(6);

  std::vector<std::vector<double>> e1, e2, e4, e6, p1, p2, p4, p6;
  {
    ProgramEnabledGuard off(false);
    solver.predict(base1, queries, e1);
    solver.predict(base2, queries, e2);
    solver.predict(quad, queries, e4);
    solver.predict(six, queries, e6);
  }
  {
    ProgramEnabledGuard on(true);
    solver.predict(base1, queries, p1);  // capture at 1 + widen, replay
    solver.predict(base2, queries, p2);  // widened replays at 2, 2, 4, 6
    solver.predict(quad, queries, p4);
    solver.predict(six, queries, p6);
    const auto st = solver.thread_program_stats();
    EXPECT_EQ(st.captures, 1u) << "widening must avoid per-shape captures";
    EXPECT_EQ(st.widened_replays, 4u);
    EXPECT_EQ(st.max_widen_batch, 6);
  }
  auto expect_rows_equal = [](const std::vector<std::vector<double>>& a,
                              const std::vector<std::vector<double>>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].size(), b[i].size());
      for (std::size_t k = 0; k < a[i].size(); ++k) {
        ASSERT_EQ(a[i][k], b[i][k]) << "row " << i << " elem " << k;
      }
    }
  };
  expect_rows_equal(e1, p1);
  expect_rows_equal(e2, p2);
  expect_rows_equal(e4, p4);
  expect_rows_equal(e6, p6);
}

TEST(Program, OnePlanPerGeometryServesEveryBatchSizeBitwise) {
  // Generated over the SDNet variants (conv encoder on or off, split or
  // concat embedding) and query counts 1, 2 and 5: one solver runs
  // batches of 1, 64, 3, 7 and 64 rows, which grows the widened store
  // and then reuses it at smaller factors. Every batch equals eager
  // bitwise, and each geometry captures once with no eager batch.
  ProgramEnabledGuard on(true);
  const ad::DType prev = ad::set_compute_dtype(ad::DType::kF64);
  const int64_t m = 4, G = 4 * m;
  util::Rng brng(71);
  for (const bool conv : {true, false}) {
    for (const bool split : {true, false}) {
      mosaic::SdnetConfig cfg = small_net_config(m);
      cfg.use_conv_encoder = conv;
      cfg.use_split_embedding = split;
      util::Rng rng(73);
      const mosaic::NeuralSubdomainSolver solver(
          std::make_shared<mosaic::Sdnet>(cfg, rng), m);
      for (const int64_t q : {1, 2, 5}) {
        SCOPED_TRACE(std::string(conv ? "conv" : "no conv") +
                     (split ? " split q " : " concat q ") +
                     std::to_string(q));
        mosaic::QueryList queries;
        for (int64_t k = 0; k < q; ++k) {
          queries.emplace_back(0.1 + 0.17 * static_cast<double>(k),
                               0.8 - 0.13 * static_cast<double>(k));
        }
        const auto before = mosaic::infer_cache_stats();
        for (const int64_t B : {1, 64, 3, 7, 64}) {
          std::vector<std::vector<double>> rows(
              static_cast<std::size_t>(B),
              std::vector<double>(static_cast<std::size_t>(G)));
          for (auto& row : rows) {
            for (auto& v : row) v = brng.uniform(-1.0, 1.0);
          }
          std::vector<std::vector<double>> eager, plan;
          {
            ProgramEnabledGuard off(false);
            solver.predict(rows, queries, eager);
          }
          solver.predict(rows, queries, plan);
          ASSERT_EQ(plan.size(), eager.size()) << "B " << B;
          for (std::size_t b = 0; b < plan.size(); ++b) {
            ASSERT_EQ(plan[b].size(), eager[b].size());
            ASSERT_EQ(std::memcmp(plan[b].data(), eager[b].data(),
                                  plan[b].size() * sizeof(double)),
                      0)
                << "B " << B << " row " << b;
          }
        }
        const auto after = mosaic::infer_cache_stats();
        EXPECT_EQ(after.captures - before.captures, 1u);
        EXPECT_EQ(after.misses - before.misses, 0u);
        EXPECT_EQ(after.exact_hits - before.exact_hits, 1u);
        EXPECT_EQ(after.widened_hits - before.widened_hits, 4u);
      }
    }
  }
  ad::set_compute_dtype(prev);
}

TEST(Program, ConcurrentCompiledStepsAreDeterministic) {
  // N threads, each with its own identically-seeded net + compiled step,
  // all capturing and replaying concurrently: every thread's final
  // weights must match a reference trajectory bitwise.
  const int64_t m = 4;
  const auto net_cfg = small_net_config(m);
  const auto cfg = small_train_config();
  const int kIters = 5;

  auto run_trajectory = [&]() {
    util::Rng rng(7);
    mosaic::Sdnet net(net_cfg, rng);
    gp::LaplaceDatasetGenerator gen(m, {}, 11);
    auto bvps = gen.generate_many(6);
    optim::Adam opt(net.parameters(), 1e-3);
    mosaic::CompiledTrainStep cstep(net, cfg, &opt);
    for (int iter = 0; iter < kIters; ++iter) {
      auto batch = gen.make_batch(bvps, cfg.q_data, cfg.q_colloc);
      cstep.run(batch);
    }
    std::vector<double> flat;
    for (const auto& p : net.parameters()) {
      for (int64_t j = 0; j < p.numel(); ++j) flat.push_back(p.flat(j));
    }
    return flat;
  };

  ProgramEnabledGuard on(true);
  const auto reference = run_trajectory();

  const int kThreads = 4;
  std::vector<std::vector<double>> results(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] { results[static_cast<std::size_t>(t)] = run_trajectory(); });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    const auto& r = results[static_cast<std::size_t>(t)];
    ASSERT_EQ(r.size(), reference.size()) << "thread " << t;
    for (std::size_t i = 0; i < r.size(); ++i) {
      ASSERT_EQ(r[i], reference[i]) << "thread " << t << " param " << i;
    }
  }
}

TEST(Program, SteadyStateReplayIsPayloadAllocationFree) {
  ProgramEnabledGuard on(true);
  const int64_t m = 4;
  const auto net_cfg = small_net_config(m);
  const auto cfg = small_train_config();

  util::Rng rng(23);
  mosaic::Sdnet net(net_cfg, rng);
  gp::LaplaceDatasetGenerator gen(m, {}, 41);
  auto bvps = gen.generate_many(4);
  optim::Adam opt(net.parameters(), 1e-3);

  mosaic::CompiledTrainStep cstep(net, cfg);
  // Batches are built up front (make_batch allocates by design).
  std::vector<gp::SdnetBatch> batches;
  for (int i = 0; i < 8; ++i) {
    batches.push_back(gen.make_batch(bvps, cfg.q_data, cfg.q_colloc));
  }
  auto one = [&](std::size_t i) {
    cstep.run(batches[i]);
    opt.step();
  };
  for (std::size_t i = 0; i < 3; ++i) one(i);  // capture + warm up
  const auto& mt = ad::MemoryTracker::instance();
  const std::uint64_t a0 = mt.payload_allocs();
  for (std::size_t i = 3; i < 8; ++i) one(i);
  EXPECT_EQ(mt.payload_allocs(), a0)
      << "steady-state replay must not allocate payloads";
}

TEST(Program, LinearThirdOrderBackwardLowersWithoutCopies) {
  // The PDE loss's pattern on a two-layer net: u(x), its second
  // x-derivatives under create_graph, then the weight gradients of a loss
  // on them (third order through both linears). Every GEMM of every order
  // is a matmul step of one of the three forms: the plan has no copy (the
  // backward passes used to reshape and transpose before each weight
  // GEMM). At f64 a replay on fresh values equals eager bitwise; at f32
  // (eager is f64-only) it tracks eager within float rounding.
  ProgramEnabledGuard on(true);
  util::Rng rng(67);
  Tensor x = random_tensor({6, 2}, rng);
  Tensor w1 = random_tensor({2, 8}, rng), b1 = random_tensor({8}, rng);
  Tensor w2 = random_tensor({8, 3}, rng);
  for (Tensor* t : {&x, &w1, &b1, &w2}) t->set_requires_grad(true);
  // Explicit seeds instead of sums: a sum's backward reshapes its scalar
  // seed, a copy this test is not about.
  const Tensor seed_u = Tensor::ones({6, 3}), seed_x = Tensor::ones({6, 2});
  auto body = [&] {
    Tensor u = ops::linear(ops::gelu(ops::linear(x, w1, b1)), w2, Tensor());
    Tensor du = ad::grad(u, {x}, seed_u, true)[0];
    Tensor d2u = ad::grad(ops::mul(du, du), {x}, seed_x, true)[0];
    std::vector<Tensor> out = ad::grad(d2u, {w1, b1, w2}, seed_x);
    out.push_back(d2u);
    return out;
  };
  auto refill = [&] {
    for (Tensor* t : {&x, &w1, &b1, &w2}) {
      for (int64_t i = 0; i < t->numel(); ++i) {
        t->flat(i) = rng.uniform(-1.0, 1.0);
      }
    }
  };
  for (const ad::DType dt : {ad::DType::kF64, ad::DType::kF32}) {
    SCOPED_TRACE(dt == ad::DType::kF32 ? "f32" : "f64");
    ad::Program p;
    p.set_compute_dtype(dt);
    std::vector<Tensor> got;
    p.capture([&] { got = body(); });
    ASSERT_TRUE(p.captured());
    EXPECT_EQ(p.count_steps("copy"), 0u);
    EXPECT_GE(p.count_steps("matmul"), 10u);
    refill();
    p.replay();
    const std::vector<Tensor> want = body();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t t = 0; t < want.size(); ++t) {
      for (int64_t i = 0; i < want[t].numel(); ++i) {
        const double w = want[t].flat(i);
        if (dt == ad::DType::kF64) {
          ASSERT_EQ(got[t].flat(i), w) << "output " << t << "[" << i << "]";
        } else {
          ASSERT_NEAR(got[t].flat(i), w, 1e-4 * std::max(1.0, std::abs(w)))
              << "output " << t << "[" << i << "]";
        }
      }
    }
  }
}

}  // namespace
