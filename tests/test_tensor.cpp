// Unit tests for the tensor substrate: construction, shape utilities,
// element access, memory tracking.
#include <gtest/gtest.h>

#include "ad/ops.hpp"
#include "ad/tensor.hpp"
#include "gp/dataset.hpp"
#include "mosaic/trainer.hpp"

namespace ad = mf::ad;
using ad::Shape;
using ad::Tensor;

TEST(Shape, NumelAndStrides) {
  EXPECT_EQ(ad::numel_of({2, 3, 4}), 24);
  EXPECT_EQ(ad::numel_of({}), 1);
  const auto s = ad::strides_of({2, 3, 4});
  EXPECT_EQ(s, (std::vector<int64_t>{12, 4, 1}));
}

TEST(Tensor, ZerosOnesFull) {
  Tensor z = Tensor::zeros({2, 3});
  EXPECT_EQ(z.numel(), 6);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(z.flat(i), 0.0);
  Tensor o = Tensor::ones({4});
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(o.flat(i), 1.0);
  Tensor f = Tensor::full({2, 2}, 3.5);
  EXPECT_EQ(f.at({1, 1}), 3.5);
}

TEST(Tensor, FromVectorShapeMismatchThrows) {
  EXPECT_THROW(Tensor::from_vector({1, 2, 3}, {2, 2}), std::invalid_argument);
}

TEST(Tensor, ScalarItem) {
  Tensor s = Tensor::scalar(7.25);
  EXPECT_EQ(s.numel(), 1);
  EXPECT_EQ(s.item(), 7.25);
  Tensor v = Tensor::zeros({3});
  EXPECT_THROW(v.item(), std::logic_error);
}

TEST(Tensor, AtMultiIndex) {
  Tensor t = Tensor::from_vector({1, 2, 3, 4, 5, 6}, {2, 3});
  EXPECT_EQ(t.at({0, 0}), 1);
  EXPECT_EQ(t.at({0, 2}), 3);
  EXPECT_EQ(t.at({1, 0}), 4);
  EXPECT_EQ(t.at({1, 2}), 6);
}

TEST(Tensor, SizeNegativeAxis) {
  Tensor t = Tensor::zeros({2, 3, 4});
  EXPECT_EQ(t.size(-1), 4);
  EXPECT_EQ(t.size(-3), 2);
  EXPECT_THROW(t.size(3), std::out_of_range);
}

TEST(Tensor, DetachSharesNothing) {
  Tensor a = Tensor::ones({2});
  a.set_requires_grad(true);
  Tensor d = a.detach();
  EXPECT_FALSE(d.requires_grad());
  d.flat(0) = 5;
  EXPECT_EQ(a.flat(0), 1.0);
}

TEST(MemoryTracker, TracksLiveAndPeak) {
  auto& mt = ad::MemoryTracker::instance();
  const std::size_t before = mt.live_bytes();
  mt.reset_peak();
  {
    Tensor t = Tensor::zeros({1000});
    EXPECT_EQ(mt.live_bytes(), before + 1000 * sizeof(double));
    EXPECT_GE(mt.peak_bytes(), before + 1000 * sizeof(double));
  }
  EXPECT_EQ(mt.live_bytes(), before);
  // Peak persists after free.
  EXPECT_GE(mt.peak_bytes(), before + 1000 * sizeof(double));
}

TEST(MemoryTracker, CountsEveryNonemptyPayloadAllocation) {
  // The zero-allocation replay checks compare this counter before and
  // after; a dead counter would turn them into 0 == 0.
  auto& mt = ad::MemoryTracker::instance();
  std::uint64_t before = mt.payload_allocs();
  {
    Tensor t = Tensor::zeros({7, 3});
    EXPECT_EQ(mt.payload_allocs(), before + 1);
  }
  before = mt.payload_allocs();
  {
    Tensor empty = Tensor::zeros({0, 5});
    EXPECT_EQ(mt.payload_allocs(), before);
  }
  before = mt.payload_allocs();
  {
    Tensor v = Tensor::from_vector({1.0, 2.0, 3.0}, {3});
    EXPECT_EQ(mt.payload_allocs(), before + 1);
  }

  // An eager PDE training step allocates a fresh tape's worth of payloads.
  mf::util::Rng rng(3);
  mf::mosaic::SdnetConfig cfg;
  cfg.boundary_size = 16;  // m = 4
  cfg.hidden_width = 16;
  cfg.mlp_depth = 2;
  mf::mosaic::Sdnet net(cfg, rng);
  mf::gp::LaplaceDatasetGenerator gen(4, {}, 5);
  const auto bvps = gen.generate_many(2);
  const auto batch = gen.make_batch(bvps, 8, 6);
  mf::mosaic::TrainConfig tc;
  tc.pde_loss_weight = 0.3;
  before = mt.payload_allocs();
  mf::mosaic::training_step(net, batch, tc);
  EXPECT_GT(mt.payload_allocs(), before);
}

TEST(MemoryTracker, PeakGrowsWithGraph) {
  auto& mt = ad::MemoryTracker::instance();
  mt.reset_peak();
  const std::size_t base = mt.peak_bytes();
  {
    Tensor x = Tensor::ones({256});
    x.set_requires_grad(true);
    Tensor y = x;
    for (int i = 0; i < 10; ++i) y = ad::ops::mul(y, y);
    // 10 intermediate tensors of 256 doubles must be retained by the graph.
    EXPECT_GE(mt.peak_bytes(), base + 10 * 256 * sizeof(double));
  }
}

TEST(GradMode, GuardRestores) {
  EXPECT_TRUE(ad::GradMode::enabled());
  {
    ad::NoGradGuard g;
    EXPECT_FALSE(ad::GradMode::enabled());
    {
      ad::NoGradGuard g2;
      EXPECT_FALSE(ad::GradMode::enabled());
    }
    EXPECT_FALSE(ad::GradMode::enabled());
  }
  EXPECT_TRUE(ad::GradMode::enabled());
}

TEST(Tensor, RequiresGradOnNonLeafThrows) {
  Tensor a = Tensor::ones({2});
  a.set_requires_grad(true);
  Tensor b = ad::ops::mul(a, a);
  EXPECT_TRUE(b.has_grad_fn());
  EXPECT_THROW(b.set_requires_grad(true), std::logic_error);
}

TEST(ShapeStr, Format) {
  EXPECT_EQ(ad::shape_str({2, 3}), "[2, 3]");
  EXPECT_EQ(ad::shape_str({}), "[]");
}
