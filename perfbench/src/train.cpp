// Workload `train`: data-parallel SDNet training (Algorithm 1: LAMB,
// PDE-loss weight 0.3) on two threaded ranks with serial kernels per rank.
// 1,024 GP BVPs with multigrid ground truth are sharded across the ranks;
// each step takes 32 BVPs per rank x (32 data + 16 collocation points).
// One op is one epoch (16 synchronous steps plus validation); epoch 0
// holds the plan capture and counts as set-up.
#include <array>
#include <cmath>
#include <functional>
#include <optional>
#include <sstream>

#include "ad/pool.hpp"
#include "bench.hpp"
#include "comm/world.hpp"
#include "gp/dataset.hpp"
#include "mosaic/trainer.hpp"
#include "optim/lr_schedule.hpp"
#include "optim/optimizers.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace mf;

constexpr std::int64_t kM = 8;
constexpr std::int64_t kTrainBvps = 1024;
constexpr std::int64_t kValBvps = 64;
constexpr int kRanks = 2;
constexpr std::int64_t kBatch = 32;  // BVPs per rank and step
constexpr int kSetupReps = 3;
constexpr std::int64_t kMinEpochs = 2;
// Sizes the epoch count from --seconds. The LR schedule depends on the
// total epoch count, so the work per run is fixed up front, not by a clock.
constexpr double kNominalEpochS = 1.25;
constexpr std::uint64_t kNetSeedSalt = 0x7a11;

mosaic::SdnetConfig net_config() {
  mosaic::SdnetConfig cfg;
  cfg.boundary_size = 4 * kM;
  cfg.hidden_width = 64;
  cfg.mlp_depth = 4;
  return cfg;
}

mosaic::TrainConfig train_config(std::int64_t epochs) {
  mosaic::TrainConfig c;
  c.epochs = epochs;
  c.batch_size = kBatch;
  c.q_data = 32;
  c.q_colloc = 16;
  c.pde_loss_weight = 0.3;
  c.optimizer = mosaic::OptimizerKind::kLamb;
  return c;
}

std::int64_t timed_epochs(double seconds) {
  return std::max<std::int64_t>(kMinEpochs, std::llround(seconds / kNominalEpochS));
}

struct Data {
  std::array<std::vector<gp::SolvedBvp>, kRanks> shards;
  std::vector<gp::SolvedBvp> val;
};

/// Per-rank counters of the traced epochs (epoch 0 excluded).
struct RankTally {
  std::uint64_t allreduce_bytes = 0;
  ad::Program::Stats plan;
  ad::PoolStats pool0, pool1;  // rank 0 only
};

struct TrainRun {
  std::vector<double> epoch_end;  // rank 0 wall() at the end of each epoch
  std::array<std::vector<bool>, kRanks> finite;  // per epoch: losses finite
  std::array<std::vector<double>, kRanks> weights;
  std::array<RankTally, kRanks> tally;
};

std::vector<double> flat_weights(const mosaic::Sdnet& net) {
  std::vector<double> w;
  for (const ad::Tensor& p : net.parameters()) {
    w.insert(w.end(), p.data(), p.data() + p.numel());
  }
  return w;
}

/// train_sdnet's multi-rank loop re-driven through its public pieces, with
/// a span around each layer call: make_batch -> CompiledTrainStep::run ->
/// average_gradients -> optimizer step, then validation. Same schedule,
/// optimizer and data order, so the weights must match train_sdnet bitwise.
void redrive(mosaic::Sdnet& net, const std::vector<gp::SolvedBvp>& shard,
             const std::vector<gp::SolvedBvp>& val,
             const mosaic::TrainConfig& config, gp::LaplaceDatasetGenerator& gen,
             comm::Comm& comm, RankTally& tally,
             const std::function<void(double, double)>& on_epoch) {
  const int ranks = comm.size();
  const std::int64_t iters_per_epoch = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(shard.size()) / config.batch_size);
  const std::int64_t total_iters = config.epochs * iters_per_epoch;
  const double max_lr = optim::sqrt_lr_scaling(config.max_lr, ranks);
  const double warmup = optim::scaled_warmup_fraction(config.warmup_fraction, ranks);
  optim::WarmupPolyDecay schedule(
      max_lr, static_cast<std::int64_t>(warmup * static_cast<double>(total_iters)),
      total_iters, config.poly_power);
  optim::Lamb opt(net.parameters(), max_lr, 0.9, 0.999, 1e-6, config.weight_decay);
  mosaic::CompiledTrainStep cstep(net, config, nullptr);
  std::int64_t step = 0;
  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    std::optional<SpanPause> capture_epoch;
    if (epoch == 0) capture_epoch.emplace();
    if (epoch == 1 && comm.rank() == 0) tally.pool0 = ad::PayloadPool::stats();
    const std::uint64_t bytes0 = comm.stats().allreduce.bytes;
    ScopedSpan root("train.epoch");
    double loss_acc = 0;
    for (std::int64_t it = 0; it < iters_per_epoch; ++it) {
      std::vector<gp::SolvedBvp> local;
      for (std::int64_t b = 0; b < config.batch_size; ++b) {
        local.push_back(shard[static_cast<std::size_t>(
            (it * config.batch_size + b) % static_cast<std::int64_t>(shard.size()))]);
      }
      gp::SdnetBatch batch;
      {
        ScopedSpan s("gp.make_batch");
        batch = gen.make_batch(local, config.q_data, config.q_colloc);
      }
      opt.set_lr(schedule(step++));
      {
        ScopedSpan s("mosaic.train.run");
        const auto [ld, lp] = cstep.run(batch);
        loss_acc += ld + lp;
      }
      {
        ScopedSpan s("comm.allreduce");
        mosaic::average_gradients(net, comm);
      }
      {
        ScopedSpan s("optim.step");
        opt.step();
      }
    }
    double val_mse = 0;
    {
      ScopedSpan s("mosaic.train.validation");
      val_mse = mosaic::validation_mse(net, val, gen.m());
    }
    if (epoch > 0) tally.allreduce_bytes += comm.stats().allreduce.bytes - bytes0;
    on_epoch(loss_acc / static_cast<double>(iters_per_epoch), val_mse);
  }
  if (comm.rank() == 0) tally.pool1 = ad::PayloadPool::stats();
  tally.plan = cstep.program().stats();
}

/// One training run on fresh, identically seeded replicas.
TrainRun train(const Data& data, std::uint64_t seed, std::int64_t epochs,
               bool traced) {
  TrainRun run;
  const mosaic::TrainConfig config = train_config(epochs);
  comm::World world(kRanks);
  world.run([&](comm::Comm& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    util::Rng rng(seed ^ kNetSeedSalt);
    mosaic::Sdnet net(net_config(), rng);
    gp::LaplaceDatasetGenerator gen(kM, {}, seed + 1 + r);
    auto note_epoch = [&](double train_loss, double val_mse) {
      run.finite[r].push_back(std::isfinite(train_loss) && std::isfinite(val_mse));
      if (r == 0) run.epoch_end.push_back(wall());
    };
    if (traced) {
      redrive(net, data.shards[r], data.val, config, gen, c, run.tally[r], note_epoch);
    } else {
      mosaic::train_sdnet(net, data.shards[r], data.val, config, gen, &c,
                          [&](const mosaic::EpochStats& s) {
                            note_epoch(s.train_loss, s.val_mse);
                          });
    }
    run.weights[r] = flat_weights(net);
  });
  return run;
}

std::vector<double> epoch_times(const TrainRun& run) {
  std::vector<double> out;
  for (std::size_t e = 1; e < run.epoch_end.size(); ++e) {
    out.push_back(run.epoch_end[e] - run.epoch_end[e - 1]);
  }
  return out;
}

/// Counts the epochs (after epoch 0) whose losses were finite on every rank.
std::int64_t finite_epochs(const TrainRun& run) {
  std::int64_t good = 0;
  for (std::size_t e = 1; e < run.finite[0].size(); ++e) {
    bool ok = true;
    for (const auto& f : run.finite) ok = ok && e < f.size() && f[e];
    good += ok;
  }
  return good;
}

}  // namespace

void run_train(const RunOptions& opts, Record& rec) {
  Data data;
  {
    const double t0 = wall();
    gp::LaplaceDatasetGenerator gen(kM, {}, opts.seed);
    std::vector<gp::SolvedBvp> all = gen.generate_many(kTrainBvps);
    data.val = gen.generate_many(kValBvps);
    const std::size_t per_rank = all.size() / kRanks;
    for (std::size_t r = 0; r < kRanks; ++r) {
      data.shards[r].assign(all.begin() + static_cast<std::ptrdiff_t>(r * per_rank),
                            all.begin() + static_cast<std::ptrdiff_t>((r + 1) * per_rank));
    }
    rec.dataset_s = wall() - t0;
  }

  // Set-up: replica build, World spawn and epoch 0 (which captures the
  // training plan). Extra repetitions are one-epoch runs on fresh replicas;
  // the timed run's own epoch 0 is the last set-up sample.
  const std::int64_t epochs =
      timed_epochs(opts.trace ? opts.seconds / 2 : opts.seconds);
  if (!opts.trace) {
    for (int i = 0; i + 1 < kSetupReps; ++i) {
      const double t0 = wall();
      const TrainRun warm = train(data, opts.seed, 1, false);
      rec.setup_s.push_back(warm.epoch_end.at(0) - t0);
    }
  }
  const double t0 = wall();
  const TrainRun run = train(data, opts.seed, 1 + epochs, false);
  rec.setup_s.push_back(run.epoch_end.at(0) - t0);
  rec.op_s = epoch_times(run);
  rec.ops = static_cast<std::int64_t>(rec.op_s.size());
  for (double t : rec.op_s) rec.timed_wall_s += t;
  rec.peak_rss_mb = peak_rss_mb();

  // Correctness gate, outside every timing: replicas bitwise identical
  // across ranks, every loss finite.
  const bool replicas_equal = run.weights[0] == run.weights[1];
  const std::int64_t good = replicas_equal ? finite_epochs(run) : 0;
  rec.attempted = rec.ops;
  rec.failed = rec.ops - good;
  std::ostringstream detail;
  detail << good << "/" << rec.ops << " epochs with finite losses; replicas "
         << (replicas_equal ? "bitwise identical" : "DIFFER");
  rec.gate("replicas_identical_losses_finite", good == rec.ops, detail.str());

  if (!opts.trace) return;
  const TrainRun traced = train(data, opts.seed, 1 + epochs, true);
  rec.untraced_op_s = rec.op_s;
  rec.traced_op_s = epoch_times(traced);
  const bool faithful = traced.weights[0] == run.weights[0] &&
                        traced.weights[1] == run.weights[1];
  rec.attempted += epochs;
  rec.failed += faithful ? epochs - finite_epochs(traced) : epochs;
  rec.gate("trace_fidelity", faithful,
           faithful ? "re-driven weights bitwise equal to train_sdnet's"
                    : "re-driven weights differ from train_sdnet's");

  // Per epoch and rank.
  const double n = static_cast<double>(epochs * kRanks);
  auto fold = tracer().fold();
  rec.layers["gp.make_batch_s"] = fold["gp.make_batch"].total_s / n;
  rec.layers["mosaic.train.run_s"] = fold["mosaic.train.run"].total_s / n;
  rec.layers["mosaic.train.validation_s"] = fold["mosaic.train.validation"].total_s / n;
  rec.layers["comm.allreduce_s"] = fold["comm.allreduce"].total_s / n;
  rec.layers["optim.step_s"] = fold["optim.step"].total_s / n;
  rec.layers["mosaic.train.unaccounted_s"] = fold["train.epoch"].self_s / n;
  rec.layers["comm.allreduce_bytes"] =
      static_cast<double>(traced.tally[0].allreduce_bytes +
                          traced.tally[1].allreduce_bytes) / n;
  const ad::Program::Stats& plan = traced.tally[0].plan;
  rec.layers["ad.program.plan_steps"] = static_cast<double>(plan.steps);
  rec.layers["ad.program.fused_steps"] = static_cast<double>(plan.fused_steps);
  rec.layers["ad.program.arena_bytes"] = static_cast<double>(plan.arena_bytes);
  rec.layers["ad.program.capture_ms"] = plan.capture_ms;
  // Pool counters are process-wide: both ranks' steps over the traced
  // epochs (read on rank 0; the per-step allreduce keeps ranks in step).
  const ad::PoolStats& p0 = traced.tally[0].pool0;
  const ad::PoolStats& p1 = traced.tally[0].pool1;
  const double steps = n * static_cast<double>(kTrainBvps / kRanks / kBatch);
  const double hits = static_cast<double>(p1.hits - p0.hits);
  const double misses = static_cast<double>(p1.misses - p0.misses);
  rec.layers["ad.pool.allocs_per_step"] = misses / steps;
  rec.layers["ad.pool.hit_frac"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  add_kernel_reference(rec);
}

}  // namespace perfbench
