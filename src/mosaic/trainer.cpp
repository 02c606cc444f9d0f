#include "mosaic/trainer.hpp"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "ad/engine.hpp"
#include "nn/serialize.hpp"
#include "util/timing.hpp"

namespace mf::mosaic {

namespace ops = ad::ops;
using ad::Tensor;

StepLossTensors training_step_graph(Sdnet& net, const gp::SdnetBatch& batch,
                                    const TrainConfig& config) {
  // Step 1 (Algorithm 1, lines 5-6): data points — forward and backward
  // on each process, gradients accumulate locally.
  StepLossTensors losses;
  losses.data = data_loss(net, batch.g, batch.x_data, batch.y_data);
  ad::backward(losses.data);

  // Step 2 (lines 8-9): collocation points. Gradients accumulate onto the
  // data-point gradients (ad::backward adds into .grad). Batches carrying
  // per-point PDE coefficients (varcoef/convdiff scenarios) use the
  // generalized residual; Poisson batches keep the original loss verbatim.
  if (config.use_pde_loss) {
    Tensor xc = batch.x_colloc.detach();
    xc.set_requires_grad(true);
    Tensor pde = batch.coeffs.defined()
                     ? scenario_pde_loss(net, batch.g, xc, batch.coeffs)
                     : pde_loss(net, batch.g, xc);
    losses.pde = ops::mul_scalar(pde, config.pde_loss_weight);
    ad::backward(losses.pde);
  }
  return losses;
}

std::pair<double, double> training_step(Sdnet& net, const gp::SdnetBatch& batch,
                                        const TrainConfig& config) {
  StepLossTensors losses = training_step_graph(net, batch, config);
  return {losses.data.item(), losses.pde.defined() ? losses.pde.item() : 0.0};
}

bool CompiledTrainStep::shapes_match(const gp::SdnetBatch& batch) const {
  if (leaves_.coeffs.defined() != batch.coeffs.defined()) return false;
  if (leaves_.coeffs.defined() &&
      leaves_.coeffs.shape() != batch.coeffs.shape()) {
    return false;
  }
  return leaves_.g.defined() && leaves_.g.shape() == batch.g.shape() &&
         leaves_.x_data.shape() == batch.x_data.shape() &&
         leaves_.y_data.shape() == batch.y_data.shape() &&
         leaves_.x_colloc.shape() == batch.x_colloc.shape();
}

std::pair<double, double> CompiledTrainStep::run(const gp::SdnetBatch& batch) {
  last_was_replay_ = false;
  const bool in_plan = optimizer_in_plan();
  if (!ad::program_enabled() || ad::prog::capturing() || capture_failed_) {
    // Eager path (escape hatch, or already inside an enclosing capture
    // that should record this step itself). Drop any captured plan: the
    // eager step re-binds every parameter's .grad to fresh tensors, so a
    // kept plan would keep writing the orphaned old buffers on a later
    // replay while the optimizer reads the new ones.
    program_.reset();
    leaves_ = gp::SdnetBatch{};
    net_.zero_grad();
    auto losses = training_step(net_, batch, config_);
    if (opt_) opt_->step();
    return losses;
  }
  // Precision-policy change invalidates the plan: a captured program is
  // lowered at one compute dtype, so flipping MF_PRECISION (or the
  // process-wide set_compute_dtype) mid-training must re-capture rather
  // than replay steps typed at the old width.
  const ad::DType dt = force_f64_ ? ad::DType::kF64 : ad::compute_dtype();
  if (program_.captured() && program_.compute_dtype() != dt) {
    program_.reset();
    leaves_ = gp::SdnetBatch{};
  }
  program_.set_compute_dtype(dt);
  if (!program_.captured() || !shapes_match(batch)) {
    // (Re-)capture on this batch geometry. The batch tensors become the
    // program's leaf slots; later iterations refill them in place.
    leaves_ = batch;
    net_.zero_grad();
    program_.capture([&] {
      losses_ = training_step_graph(net_, leaves_, config_);
      if (in_plan) {
        // The optimizer records its own update into the plan. Dropping
        // the parameters' .grad bindings afterwards leaves the plan as
        // the only owner of the gradient buffers, so lowering packs them
        // onto the plan arena like any other intermediate.
        opt_->step();
        for (auto& p : net_.parameters()) p.set_grad(ad::Tensor{});
      }
    });
    if (!program_.captured()) {
      // Something in the body poisoned the capture (prog::on_uncapturable
      // — e.g. a non-capturable optimizer stepping inside it). The body
      // already ran eagerly and correctly; there is just no plan. Stay
      // eager permanently instead of re-capturing (and failing) every
      // iteration — and never replay a half-captured step.
      capture_failed_ = true;
      leaves_ = gp::SdnetBatch{};
    }
    if (opt_ && !in_plan) opt_->step();
  } else {
    // Refill the captured leaves and replay. No zero_grad: the replayed
    // accumulation chain starts from a fresh copy, exactly like the
    // captured step did after its zero_grad.
    std::copy(batch.g.data(), batch.g.data() + batch.g.numel(),
              leaves_.g.data());
    std::copy(batch.x_data.data(), batch.x_data.data() + batch.x_data.numel(),
              leaves_.x_data.data());
    std::copy(batch.y_data.data(), batch.y_data.data() + batch.y_data.numel(),
              leaves_.y_data.data());
    std::copy(batch.x_colloc.data(),
              batch.x_colloc.data() + batch.x_colloc.numel(),
              leaves_.x_colloc.data());
    if (leaves_.coeffs.defined()) {
      std::copy(batch.coeffs.data(), batch.coeffs.data() + batch.coeffs.numel(),
                leaves_.coeffs.data());
    }
    program_.replay();
    last_was_replay_ = true;
    if (ad::health_checks_enabled() && !program_.last_replay_healthy()) {
      // The replay produced NaN/Inf/runaway values. Demote the plan —
      // an f32 plan recaptures at f64 on the next run, an f64 plan
      // retires this step to permanent eager — and drop it now so the
      // poisoned arena never replays again.
      const bool was_f32 = program_.compute_dtype() == ad::DType::kF32;
      program_.reset();
      leaves_ = gp::SdnetBatch{};
      if (was_f32) {
        force_f64_ = true;
        ad::health_note_fallback(/*to_eager=*/false);
      } else {
        capture_failed_ = true;
        ad::health_note_fallback(/*to_eager=*/true);
      }
      if (!in_plan) {
        // The optimizer has not applied yet, so this batch is fully
        // recoverable: discard the poisoned gradients and rerun the
        // step eagerly (eager compute is always f64).
        last_was_replay_ = false;
        net_.zero_grad();
        auto losses = training_step(net_, batch, config_);
        if (opt_) opt_->step();
        return losses;
      }
      // In-plan optimizer: the parameter update already ran inside the
      // replay, so the weights may be contaminated — nothing local to
      // undo. Report the poisoned losses honestly; checkpoint/restart
      // is the recovery path for the trajectory.
    } else if (opt_ && !in_plan) {
      opt_->step();
    }
  }
  return {losses_.data.item(), losses_.pde.defined() ? losses_.pde.item() : 0.0};
}

void average_gradients(Sdnet& net, comm::Comm& comm) {
  auto params = net.parameters();
  // Pack into one contiguous buffer: one allreduce per iteration (the
  // paper's communication optimization in Sec. 3.3). The buffer persists
  // per rank thread across iterations — assign() refills without
  // reallocating once warm.
  std::size_t total = 0;
  for (const auto& p : params) total += static_cast<std::size_t>(p.numel());
  thread_local std::vector<double> flat;
  flat.assign(total, 0.0);
  std::size_t off = 0;
  for (const auto& p : params) {
    Tensor g = p.grad();
    if (g.defined()) {
      std::copy(g.data(), g.data() + g.numel(), flat.begin() + static_cast<std::ptrdiff_t>(off));
    }
    off += static_cast<std::size_t>(p.numel());
  }
  comm.allreduce_sum(flat.data(), flat.size());
  const double inv_p = 1.0 / static_cast<double>(comm.size());
  off = 0;
  for (auto& p : params) {
    Tensor g = p.grad();
    if (!g.defined()) {
      g = ad::Tensor::zeros(p.shape());
      p.set_grad(g);
    }
    for (int64_t i = 0; i < p.numel(); ++i) {
      g.flat(i) = flat[off + static_cast<std::size_t>(i)] * inv_p;
    }
    off += static_cast<std::size_t>(p.numel());
  }
}

namespace {

/// Per-rank checkpoint file: rank 0 owns `path` itself (the file other
/// tools consume), other ranks suffix their rank.
std::string rank_checkpoint_path(const std::string& path, int rank) {
  return rank == 0 ? path : path + ".rank" + std::to_string(rank);
}

/// Epoch stride from MF_CHECKPOINT_EVERY: unset or empty means every
/// epoch; anything but a whole integer >= 1 throws instead of silently
/// becoming a stride the caller never asked for.
int64_t env_checkpoint_every() {
  const char* v = std::getenv("MF_CHECKPOINT_EVERY");
  if (!v || *v == '\0') return 1;
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || n < 1) {
    throw std::invalid_argument(std::string("MF_CHECKPOINT_EVERY='") + v +
                                "': want an integer >= 1");
  }
  return n;
}

void save_training_checkpoint(const std::string& path, Sdnet& net,
                              const optim::Optimizer& opt,
                              gp::LaplaceDatasetGenerator& gen,
                              int64_t epoch_next, int64_t step, int ranks) {
  nn::TrainingCheckpoint ckpt;
  std::vector<double> flat;
  for (const auto& p : net.parameters()) {
    flat.insert(flat.end(), p.data(), p.data() + p.numel());
  }
  ckpt.blobs.emplace_back("params", std::move(flat));
  ckpt.blobs.emplace_back("optimizer", opt.state_to());
  ckpt.counters.emplace_back("epoch_next", epoch_next);
  ckpt.counters.emplace_back("step", step);
  ckpt.counters.emplace_back("world_size", static_cast<int64_t>(ranks));
  std::ostringstream os;
  os << gen.rng().engine();
  ckpt.rng_state = os.str();
  nn::save_checkpoint(ckpt, path);
}

/// Restore net/optimizer/RNG/cursors from `path`. Returns false when the
/// file does not exist (fresh start); throws on a structurally bad file
/// or a world-size mismatch — resuming a 4-rank trajectory on 2 ranks
/// would silently change the data order, so it is refused.
bool restore_training_checkpoint(const std::string& path, Sdnet& net,
                                 optim::Optimizer& opt,
                                 gp::LaplaceDatasetGenerator& gen,
                                 int64_t& epoch_next, int64_t& step,
                                 int ranks) {
  {
    std::ifstream probe(path, std::ios::binary);
    if (!probe) return false;
  }
  const nn::TrainingCheckpoint ckpt = nn::load_checkpoint(path);
  const auto need_counter = [&](const char* name) {
    const std::int64_t* v = ckpt.find_counter(name);
    if (!v) {
      throw std::runtime_error("resume: " + path + " is missing counter '" +
                               std::string(name) + "'");
    }
    return *v;
  };
  if (need_counter("world_size") != ranks) {
    throw std::runtime_error(
        "resume: " + path + " was written by a " +
        std::to_string(need_counter("world_size")) + "-rank run, not " +
        std::to_string(ranks));
  }
  const std::vector<double>* params_blob = ckpt.find_blob("params");
  const std::vector<double>* opt_blob = ckpt.find_blob("optimizer");
  if (!params_blob || !opt_blob) {
    throw std::runtime_error("resume: " + path +
                             " is missing the params/optimizer blobs");
  }
  auto params = net.parameters();
  std::size_t total = 0;
  for (const auto& p : params) total += static_cast<std::size_t>(p.numel());
  if (params_blob->size() != total) {
    throw std::runtime_error(
        "resume: " + path + " holds " + std::to_string(params_blob->size()) +
        " parameter values, the network has " + std::to_string(total) +
        " (architecture mismatch)");
  }
  std::size_t off = 0;
  for (auto& p : params) {
    std::copy(params_blob->begin() + static_cast<std::ptrdiff_t>(off),
              params_blob->begin() +
                  static_cast<std::ptrdiff_t>(off + static_cast<std::size_t>(p.numel())),
              p.data());
    off += static_cast<std::size_t>(p.numel());
  }
  opt.state_from(*opt_blob);
  epoch_next = need_counter("epoch_next");
  step = need_counter("step");
  std::istringstream is(ckpt.rng_state);
  is >> gen.rng().engine();
  if (!is) {
    throw std::runtime_error("resume: " + path + " has a malformed RNG state");
  }
  return true;
}

}  // namespace

double validation_mse(const Sdnet& net, const std::vector<gp::SolvedBvp>& bvps,
                      int64_t m) {
  if (bvps.empty()) return 0.0;
  ad::NoGradGuard no_grad;
  const int64_t B = static_cast<int64_t>(bvps.size());
  // Conditioning width comes from the network: scenario nets take the 4m
  // boundary plus a per-scenario suffix (stored in SolvedBvp::extra).
  const int64_t G = net.config().boundary_size;
  const int64_t Gb = 4 * m;
  const int64_t q = (m - 1) * (m - 1);
  Tensor g = Tensor::zeros({B, G});
  Tensor x = Tensor::zeros({B, q, 2});
  const double inv_m = 1.0 / static_cast<double>(m);
  for (int64_t b = 0; b < B; ++b) {
    const gp::SolvedBvp& bvp = bvps[static_cast<std::size_t>(b)];
    if (Gb + static_cast<int64_t>(bvp.extra.size()) != G) {
      throw std::invalid_argument(
          "validation_mse: BVP conditioning does not match the network");
    }
    for (int64_t k = 0; k < Gb; ++k)
      g.flat(b * G + k) = bvp.boundary[static_cast<std::size_t>(k)];
    for (int64_t k = Gb; k < G; ++k)
      g.flat(b * G + k) = bvp.extra[static_cast<std::size_t>(k - Gb)];
    int64_t qi = 0;
    for (int64_t j = 1; j < m; ++j)
      for (int64_t i = 1; i < m; ++i) {
        x.flat((b * q + qi) * 2 + 0) = i * inv_m;
        x.flat((b * q + qi) * 2 + 1) = j * inv_m;
        ++qi;
      }
  }
  Tensor pred = net.predict(g, x);
  double acc = 0;
  for (int64_t b = 0; b < B; ++b) {
    int64_t qi = 0;
    for (int64_t j = 1; j < m; ++j)
      for (int64_t i = 1; i < m; ++i) {
        const double d = pred.flat(b * q + qi) -
                         bvps[static_cast<std::size_t>(b)].solution.at(i, j);
        acc += d * d;
        ++qi;
      }
  }
  return acc / static_cast<double>(B * q);
}

std::vector<EpochStats> train_sdnet(
    Sdnet& net, const std::vector<gp::SolvedBvp>& train,
    const std::vector<gp::SolvedBvp>& val, const TrainConfig& config,
    gp::LaplaceDatasetGenerator& gen, comm::Comm* comm,
    const std::function<void(const EpochStats&)>& on_epoch) {
  const int ranks = comm ? comm->size() : 1;
  const int64_t iters_per_epoch =
      std::max<int64_t>(1, static_cast<int64_t>(train.size()) / config.batch_size);
  const int64_t total_iters = config.epochs * iters_per_epoch;

  double max_lr = config.max_lr;
  double warmup_frac = config.warmup_fraction;
  if (config.apply_batch_scaling_rules && ranks > 1) {
    max_lr = optim::sqrt_lr_scaling(config.max_lr, ranks);
    warmup_frac = optim::scaled_warmup_fraction(config.warmup_fraction, ranks);
  }
  optim::WarmupPolyDecay schedule(
      max_lr, static_cast<int64_t>(warmup_frac * static_cast<double>(total_iters)),
      total_iters, config.poly_power);

  std::unique_ptr<optim::Optimizer> opt;
  switch (config.optimizer) {
    case OptimizerKind::kAdamW:
      opt = std::make_unique<optim::Adam>(net.parameters(), max_lr, 0.9, 0.999,
                                          1e-8, config.weight_decay, true);
      break;
    case OptimizerKind::kLamb:
      opt = std::make_unique<optim::Lamb>(net.parameters(), max_lr, 0.9, 0.999,
                                          1e-6, config.weight_decay);
      break;
    case OptimizerKind::kSgd:
      opt = std::make_unique<optim::Sgd>(net.parameters(), max_lr, 0.9,
                                         config.weight_decay);
      break;
  }

  std::vector<EpochStats> history;
  const auto t_start = std::chrono::steady_clock::now();
  const double cpu_start = util::thread_cpu_seconds();
  // Capture the step once, replay it every iteration after (re-capturing
  // if the batch geometry ever changes). Bitwise identical to the eager
  // loop; MF_DISABLE_PROGRAM=1 falls back to it outright. On a single
  // rank the optimizer rides inside the compiled step (in-plan for
  // Adam/AdamW, eagerly after each replay otherwise); with multiple
  // ranks the gradient allreduce has to run between compute and update,
  // so the optimizer stays outside.
  const bool multi_rank = comm && comm->size() > 1;
  CompiledTrainStep cstep(net, config, multi_rank ? nullptr : opt.get());

  // Checkpoint/restart plumbing. Every rank checkpoints its own replica
  // (they are bitwise identical, but each rank's dataset RNG is not).
  std::string ckpt_path = config.checkpoint_path;
  int64_t ckpt_every = config.checkpoint_every;
  if (!ckpt_path.empty()) {
    ckpt_path = rank_checkpoint_path(ckpt_path, comm ? comm->rank() : 0);
    if (ckpt_every <= 0) ckpt_every = env_checkpoint_every();
  }
  int64_t start_epoch = 0;
  int64_t step = 0;
  if (config.resume && !ckpt_path.empty()) {
    restore_training_checkpoint(ckpt_path, net, *opt, gen, start_epoch, step,
                                ranks);
  }

  for (int64_t epoch = start_epoch; epoch < config.epochs; ++epoch) {
    double loss_acc = 0;
    for (int64_t it = 0; it < iters_per_epoch; ++it) {
      // Local shard batch (wraps around the shard).
      std::vector<gp::SolvedBvp> local;
      for (int64_t b = 0; b < config.batch_size; ++b) {
        const std::size_t idx = static_cast<std::size_t>(
            (it * config.batch_size + b) % static_cast<int64_t>(train.size()));
        local.push_back(train[idx]);
      }
      auto batch = gen.make_batch(local, config.q_data, config.q_colloc);
      // The schedule's rate for this iteration must be set before run():
      // an in-plan optimizer reads the live lr during replay.
      opt->set_lr(schedule(step++));
      auto [ld, lp] = cstep.run(batch);
      if (multi_rank) {
        average_gradients(net, *comm);
        opt->step();
      }
      loss_acc += ld + lp;
    }
    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = loss_acc / static_cast<double>(iters_per_epoch);
    stats.val_mse = validation_mse(net, val, gen.m());
    stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
            .count();
    stats.cpu_seconds = util::thread_cpu_seconds() - cpu_start;
    stats.comm_seconds = comm ? comm->stats().allreduce.modeled_seconds : 0.0;
    history.push_back(stats);
    // Snapshot BEFORE the epoch callback: a callback that decides to stop
    // the process (or a crash inside it) always finds this epoch durably
    // on disk.
    if (!ckpt_path.empty() &&
        ((epoch + 1) % ckpt_every == 0 || epoch + 1 == config.epochs)) {
      save_training_checkpoint(ckpt_path, net, *opt, gen, epoch + 1, step,
                               ranks);
    }
    if (on_epoch) on_epoch(stats);
  }
  return history;
}

}  // namespace mf::mosaic
