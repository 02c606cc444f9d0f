#include "optim/optimizers.hpp"

#include <algorithm>
#include <stdexcept>

namespace mf::optim {

void Optimizer::zero_grad() {
  for (auto& p : params_) p.zero_grad();
}

void Optimizer::state_from(const std::vector<double>& state) {
  if (!state.empty()) {
    throw std::runtime_error(
        "Optimizer::state_from: this optimizer is stateless but the "
        "checkpoint carries " +
        std::to_string(state.size()) + " state values");
  }
}

Sgd::Sgd(std::vector<Tensor> params, double lr, double momentum,
         double weight_decay)
    : Optimizer(std::move(params), lr),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  velocity_.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    velocity_[i].assign(static_cast<std::size_t>(params_[i].numel()), 0.0);
  }
}

void Sgd::step() {
  // No in-plan representation (and none planned: SGD is not on the
  // paper's training path). Poison any enclosing capture so the caller
  // ends up with no plan — and stays eager — instead of replaying a
  // forward/backward plan whose parameter update is silently missing.
  if (ad::prog::capturing()) ad::prog::on_uncapturable();
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    Tensor g = p.grad();
    if (!g.defined()) continue;
    for (int64_t j = 0; j < p.numel(); ++j) {
      double gj = g.flat(j) + weight_decay_ * p.flat(j);
      if (momentum_ != 0.0) {
        velocity_[i][static_cast<std::size_t>(j)] =
            momentum_ * velocity_[i][static_cast<std::size_t>(j)] + gj;
        gj = velocity_[i][static_cast<std::size_t>(j)];
      }
      p.flat(j) -= lr_ * gj;
    }
  }
}

std::vector<double> Sgd::state_to() const {
  std::vector<double> s;
  for (const auto& v : velocity_) s.insert(s.end(), v.begin(), v.end());
  return s;
}

void Sgd::state_from(const std::vector<double>& state) {
  std::size_t total = 0;
  for (const auto& v : velocity_) total += v.size();
  if (state.size() != total) {
    throw std::runtime_error("Sgd::state_from: state size mismatch (have " +
                             std::to_string(state.size()) + ", need " +
                             std::to_string(total) + ")");
  }
  std::size_t off = 0;
  for (auto& v : velocity_) {
    std::copy(state.begin() + static_cast<std::ptrdiff_t>(off),
              state.begin() + static_cast<std::ptrdiff_t>(off + v.size()),
              v.begin());
    off += v.size();
  }
}

Adam::Adam(std::vector<Tensor> params, double lr, double beta1, double beta2,
           double eps, double weight_decay, bool decoupled_weight_decay)
    : Optimizer(std::move(params), lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay),
      decoupled_(decoupled_weight_decay) {
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    m_[i].assign(static_cast<std::size_t>(params_[i].numel()), 0.0);
    v_[i].assign(static_cast<std::size_t>(params_[i].numel()), 0.0);
  }
}

void Adam::step() { run_update(ad::prog::StepKind::kAdamParam); }

void Adam::run_update(ad::prog::StepKind param_kind) {
  // The update runs as typed steps — the tick (advances t_, refreshes the
  // bias corrections), then one `param_kind` step per parameter — so an
  // enclosing capture records exactly the update that ran. The state
  // block is what a captured plan reads live at replay.
  plan_state_.lr = &lr_;
  plan_state_.t = &t_;
  plan_state_.beta1 = beta1_;
  plan_state_.beta2 = beta2_;
  plan_state_.eps = eps_;
  plan_state_.weight_decay = weight_decay_;
  plan_state_.decoupled = decoupled_;
  const ad::prog::OptimArgs tick{.state = &plan_state_};
  ad::prog::run({.kind = ad::prog::StepKind::kAdamTick}, {.optim = &tick});
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const Tensor& p = params_[i];
    const Tensor g = p.grad();
    if (!g.defined()) continue;
    const ad::prog::OptimArgs moments{
        .state = &plan_state_, .m = m_[i].data(), .v = v_[i].data()};
    ad::prog::run({.kind = param_kind, .p0 = p.numel()},
                  {.a = &g, .out = &p, .optim = &moments});
  }
}

std::vector<double> Adam::state_to() const {
  // [t, all first moments, all second moments] — t stored as a double
  // (exact for any reachable step count).
  std::vector<double> s;
  s.push_back(static_cast<double>(t_));
  for (const auto& m : m_) s.insert(s.end(), m.begin(), m.end());
  for (const auto& v : v_) s.insert(s.end(), v.begin(), v.end());
  return s;
}

void Adam::state_from(const std::vector<double>& state) {
  std::size_t total = 0;
  for (const auto& m : m_) total += m.size();
  if (state.size() != 1 + 2 * total) {
    throw std::runtime_error("Adam::state_from: state size mismatch (have " +
                             std::to_string(state.size()) + ", need " +
                             std::to_string(1 + 2 * total) + ")");
  }
  t_ = static_cast<int64_t>(state[0]);
  std::size_t off = 1;
  for (auto& m : m_) {
    std::copy(state.begin() + static_cast<std::ptrdiff_t>(off),
              state.begin() + static_cast<std::ptrdiff_t>(off + m.size()),
              m.begin());
    off += m.size();
  }
  for (auto& v : v_) {
    std::copy(state.begin() + static_cast<std::ptrdiff_t>(off),
              state.begin() + static_cast<std::ptrdiff_t>(off + v.size()),
              v.begin());
    off += v.size();
  }
}

Lamb::Lamb(std::vector<Tensor> params, double lr, double beta1, double beta2,
           double eps, double weight_decay)
    : Adam(std::move(params), lr, beta1, beta2, eps, weight_decay,
           /*decoupled_weight_decay=*/true) {}

void Lamb::step() { run_update(ad::prog::StepKind::kLambParam); }

}  // namespace mf::optim
