// First-order optimizers. LAMB is the one the paper uses at scale
// (Sec. 5.2): layerwise trust ratios keep large-batch data-parallel
// training stable where AdamW degrades.
#pragma once

#include <memory>
#include <vector>

#include "ad/program.hpp"
#include "ad/tensor.hpp"

namespace mf::optim {

using ad::Tensor;

class Optimizer {
 public:
  explicit Optimizer(std::vector<Tensor> params, double lr)
      : params_(std::move(params)), lr_(lr) {}
  virtual ~Optimizer() = default;

  /// Apply one update from the gradients currently stored on the params.
  virtual void step() = 0;

  /// True when step() runs as typed plan steps an enclosing ad::Program
  /// capture records (see prog::AdamPlanState), so a compiled training
  /// step can replay the parameter update in-plan. Optimizers returning
  /// false must be stepped eagerly after each replay.
  virtual bool plan_capturable() const { return false; }

  /// Flatten the optimizer's internal state (step counter, moments,
  /// velocities) into doubles for checkpointing; state_from restores it
  /// bitwise. The layout is optimizer-specific but stable for a given
  /// parameter list; state_from throws on a size mismatch.
  virtual std::vector<double> state_to() const { return {}; }
  virtual void state_from(const std::vector<double>& state);

  void zero_grad();
  void set_lr(double lr) { lr_ = lr; }
  double lr() const { return lr_; }
  const std::vector<Tensor>& params() const { return params_; }

 protected:
  std::vector<Tensor> params_;
  double lr_;
};

class Sgd final : public Optimizer {
 public:
  Sgd(std::vector<Tensor> params, double lr, double momentum = 0.0,
      double weight_decay = 0.0);
  void step() override;
  std::vector<double> state_to() const override;
  void state_from(const std::vector<double>& state) override;

 private:
  double momentum_, weight_decay_;
  std::vector<std::vector<double>> velocity_;
};

/// Adam / AdamW. With `decoupled_weight_decay` the decay is applied to the
/// weights directly (AdamW, Loshchilov & Hutter) instead of the gradient.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Tensor> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8, double weight_decay = 0.0,
       bool decoupled_weight_decay = false);
  void step() override;
  bool plan_capturable() const override { return true; }
  std::vector<double> state_to() const override;  // [t, m..., v...]
  void state_from(const std::vector<double>& state) override;

  // Optimizer state, exposed for the parity tests (the compiled in-plan
  // update must track the eager moments bitwise).
  int64_t steps_taken() const { return t_; }
  const std::vector<std::vector<double>>& moments_m() const { return m_; }
  const std::vector<std::vector<double>>& moments_v() const { return v_; }

 protected:
  /// One tick step, then one `param_kind` step (kAdamParam or kLambParam)
  /// per parameter with a gradient.
  void run_update(ad::prog::StepKind param_kind);

  double beta1_, beta2_, eps_, weight_decay_;
  bool decoupled_;
  int64_t t_ = 0;
  std::vector<std::vector<double>> m_, v_;
  /// Live state the captured plan reads at replay (lr, step counter, bias
  /// corrections); see prog::AdamPlanState. Valid as long as `this` is.
  ad::prog::AdamPlanState plan_state_;
};

/// LAMB (You et al., 2020): Adam direction rescaled per parameter tensor by
/// the trust ratio ||w|| / ||update||. The trust-ratio norms make the
/// update non-elementwise, so it runs as one whole-tensor kLambParam step
/// per parameter (sfn::lamb_param_update) rather than an elementwise
/// chain, eager and replayed alike.
class Lamb final : public Adam {
 public:
  Lamb(std::vector<Tensor> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-6, double weight_decay = 0.0);
  void step() override;
  bool plan_capturable() const override { return true; }
};

}  // namespace mf::optim
