// SDNet training (paper Sec. 3.3, Algorithm 1).
//
// Each iteration runs two separate forward/backward passes — one for data
// points, one for collocation points — accumulating gradients locally, and
// performs exactly ONE allreduce of the summed gradients, preserving SGD
// semantics (a true global average rather than a sum of averages).
#pragma once

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "ad/program.hpp"
#include "comm/comm.hpp"
#include "gp/dataset.hpp"
#include "mosaic/loss.hpp"
#include "mosaic/sdnet.hpp"
#include "optim/lr_schedule.hpp"
#include "optim/optimizers.hpp"

namespace mf::mosaic {

enum class OptimizerKind { kAdamW, kLamb, kSgd };

struct TrainConfig {
  int64_t epochs = 50;
  int64_t batch_size = 8;       // boundary conditions per local batch
  int64_t q_data = 32;          // data points per boundary condition
  int64_t q_colloc = 32;        // collocation points per boundary condition
  double max_lr = 1e-3;
  double warmup_fraction = 0.001;  // of total iterations (Sec. 5.2)
  double poly_power = 1.0;
  double weight_decay = 0.0;
  double pde_loss_weight = 1.0;
  OptimizerKind optimizer = OptimizerKind::kLamb;
  bool use_pde_loss = true;
  /// Scale LR by sqrt(ranks) and warmup fraction linearly (Sec. 5.2).
  bool apply_batch_scaling_rules = true;
  /// Checkpoint/restart: when `checkpoint_path` is non-empty a full
  /// training checkpoint (parameters, optimizer moments, step counters,
  /// RNG state) is written atomically every `checkpoint_every` epochs
  /// (0 reads MF_CHECKPOINT_EVERY, an integer >= 1; unset → every
  /// epoch; a malformed value throws std::invalid_argument). Multi-rank
  /// runs write per-rank files (`path` for rank 0, `path.rank<r>`
  /// otherwise). With `resume`, an existing checkpoint is restored
  /// before the first iteration and training continues the trajectory
  /// bitwise — epochs run from the saved cursor up to `epochs`.
  std::string checkpoint_path;
  int64_t checkpoint_every = 0;
  bool resume = false;
};

struct EpochStats {
  int64_t epoch = 0;
  double train_loss = 0;       // mean combined loss over iterations
  double val_mse = 0;          // validation MSE (rank-0 shard)
  double wall_seconds = 0;     // cumulative wall time at end of epoch
  double cpu_seconds = 0;      // cumulative thread CPU time ("device" time)
  double comm_seconds = 0;     // cumulative modeled allreduce time
};

/// One Algorithm-1 step on a local batch; returns (data_loss, pde_loss).
/// Gradients are left accumulated on the parameters (caller averages
/// across ranks and applies the optimizer).
std::pair<double, double> training_step(Sdnet& net, const gp::SdnetBatch& batch,
                                        const TrainConfig& config);

/// The loss tensors of one training step (graph already consumed by the
/// backward passes; keep the tensors to read the loss values).
struct StepLossTensors {
  ad::Tensor data;
  ad::Tensor pde;  // undefined when config.use_pde_loss is false
};

/// Same as training_step but returns the loss tensors instead of their
/// values — the capturable form: a Program that records this call can
/// read the replayed losses back out of the same tensors.
StepLossTensors training_step_graph(Sdnet& net, const gp::SdnetBatch& batch,
                                    const TrainConfig& config);

/// Program-backed training step: captures the full forward + three-
/// backward-pass step once (per batch geometry), then replays it with
/// zero node recording and zero payload allocation. The first run() — and
/// every run() after a batch-shape change — executes eagerly under
/// capture; subsequent runs refill the captured leaf tensors in place and
/// replay. Gradients land in the same `.grad` buffers either way, so
/// average_gradients and the optimizers are untouched. With programs
/// disabled (MF_DISABLE_PROGRAM=1) every run() is plain eager
/// zero_grad + training_step, bit-for-bit.
///
/// With an optimizer attached, run() performs the whole iteration —
/// compute *and* parameter update — so the caller only sets the learning
/// rate before each run(). A plan-capturable optimizer (Adam/AdamW/LAMB)
/// is folded into the captured plan: replay runs forward, three
/// backwards and the parameter update with zero eager tensor ops, and
/// the `.grad` buffers — read by nothing outside the plan anymore — get
/// liveness-packed onto the plan arena (they are invisible to callers
/// afterwards; don't attach the optimizer when gradients must stay
/// readable, e.g. for cross-rank averaging). Non-capturable optimizers
/// (SGD) are stepped eagerly after each capture/replay/fallback — and if
/// one steps *inside* a capture it poisons it (see capture_failed()), so
/// the step degrades to fully-eager instead of replaying a plan with the
/// update missing.
class CompiledTrainStep {
 public:
  CompiledTrainStep(Sdnet& net, const TrainConfig& config,
                    optim::Optimizer* opt = nullptr)
      : net_(net), config_(config), opt_(opt) {}

  /// Run one step on `batch`; returns (data_loss, pde_loss).
  std::pair<double, double> run(const gp::SdnetBatch& batch);

  const ad::Program& program() const { return program_; }
  /// True when the last run() replayed the captured plan (false for the
  /// eager fallback and for capture runs).
  bool last_was_replay() const { return last_was_replay_; }
  /// True when the attached optimizer's update is part of the plan.
  bool optimizer_in_plan() const {
    return opt_ != nullptr && opt_->plan_capturable();
  }
  /// True once a capture attempt ended poisoned (prog::on_uncapturable):
  /// this step runs eagerly for the rest of its life — deterministic
  /// fallback, never a half-captured plan.
  bool capture_failed() const { return capture_failed_; }
  /// True once the health sentinel tripped on an f32 replay and demoted
  /// this step to f64 plans (ignoring MF_PRECISION for its lifetime).
  bool forced_f64() const { return force_f64_; }

 private:
  bool shapes_match(const gp::SdnetBatch& batch) const;

  Sdnet& net_;
  TrainConfig config_;
  optim::Optimizer* opt_ = nullptr;
  ad::Program program_;
  gp::SdnetBatch leaves_;  // the captured step's input slots
  StepLossTensors losses_;
  bool last_was_replay_ = false;
  bool capture_failed_ = false;
  bool force_f64_ = false;  // health sentinel demoted f32 plans to f64
};

/// Flatten all parameter gradients, allreduce-sum, divide by world size,
/// and scatter back — the single collective of Algorithm 1 (step 3).
void average_gradients(Sdnet& net, comm::Comm& comm);

/// Data-parallel SDNet training on one rank. Every rank owns `train`
/// (its shard) and optimizes a replica of `net`; replicas stay bitwise
/// identical because they see identical averaged gradients.
/// Returns per-epoch statistics (validation computed against `val`).
std::vector<EpochStats> train_sdnet(
    Sdnet& net, const std::vector<gp::SolvedBvp>& train,
    const std::vector<gp::SolvedBvp>& val, const TrainConfig& config,
    gp::LaplaceDatasetGenerator& gen, comm::Comm* comm = nullptr,
    const std::function<void(const EpochStats&)>& on_epoch = {});

/// Validation MSE of the network against solved BVPs (grid data points).
double validation_mse(const Sdnet& net, const std::vector<gp::SolvedBvp>& bvps,
                      int64_t m);

}  // namespace mf::mosaic
