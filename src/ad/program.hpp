// Compiled tape programs: capture one eager step, replay it allocation-
// and dispatch-free.
//
// Every eager training step re-records and re-walks an identical autodiff
// graph: per-step cost is dominated by node recording, allocation,
// shared_ptr traffic and virtual backward dispatch rather than FLOPs.
// `Program` removes all of it for steady-state loops with fixed shapes
// (the Schwarz iteration and the three-backward-pass PDE training step):
//
//   capture(fn)  — runs `fn` eagerly on the calling thread while recording
//                  every executed tensor kernel (forward ops, the engine's
//                  backward sweeps including `create_graph` second-order
//                  chains, gradient accumulation into `.grad`, detach
//                  copies) as one flat, execution-ordered plan of typed
//                  steps. Tensors touched by the step become numbered
//                  slots; step operands are slot indices.
//   (lowering)   — at capture end the plan is lowered: the recorded
//                  autodiff graph is released, buffers that nothing
//                  outside the program references are liveness-packed
//                  onto a reused internal arena (two intermediates whose
//                  live ranges do not overlap share storage), and every
//                  operand is resolved to a raw `real*`.
//   replay()     — re-executes the plan: a switch over typed kernel steps
//                  on raw buffers. No tensor construction, no node
//                  recording, no shared_ptr traffic, no virtual dispatch,
//                  no GradMode. Leaf slots (parameters, batch inputs) are
//                  read live, so refilling those tensors in place and
//                  replaying reproduces the eager step bitwise on new
//                  data; gradients land in the same `.grad` buffers the
//                  captured step produced, so `average_gradients` and the
//                  optimizers are untouched.
//
// Validity: a captured plan encodes one fixed graph topology. Callers must
// re-capture when any leaf shape (or anything else that changes the
// recorded control flow, e.g. a loss weight captured as a constant)
// changes — see the shape keys in mosaic::CompiledTrainStep and
// NeuralSubdomainSolver. Kernels make their threading decisions at run
// time from the same work sizes, so replay partitions exactly like eager
// execution at the same thread count.
//
// Fusion: lowering additionally collapses runs of adjacent elementwise
// steps whose slots chain producer→consumer with no other reader in
// between into single `Fused` steps that apply the composed scalar
// expression in one pass over the buffer. Every element still goes
// through the identical sfn:: functors in the identical order, so fused
// replay stays bitwise-identical to eager; the skipped intermediates
// simply never materialize (their slots are dropped from the arena).
//
// Optimizer capture: optim::Adam records its update (moment updates, bias
// correction, weight write) into an enclosing capture via the hooks at
// the bottom of this header, so a plan that captures step + optimizer
// replays forward, backwards and the parameter update with zero eager
// tensor ops — and the `.grad` buffers, no longer read by anything
// outside the plan, get liveness-packed like any other intermediate.
//
// Batch widening: an inference plan captured at a base batch B0 can be
// widened — every batch-carrying slot gets its leading dimension scaled
// by an integer factor — so one captured plan evaluates any multiple of
// B0 independent instances, turning many skinny width-64 GEMMs into few
// wide ones. widen() declares which external slots carry the batch;
// lowering's recorded slot shapes drive a fail-closed propagation (any
// step that would mix instances — full reductions, a reduction, slice or
// concat on axis 0, TN matmuls (they contract over rows),
// training/optimizer steps — rejects widening and callers stay eager).
// Widened replay of B instances is bitwise identical to B0-sized replays
// of the same instances because every widenable kernel computes each
// row/element independently. Every widening factor replays from one
// store per Program: lowering's liveness packer, keyed on base size and
// batch flag, packs the internal slots once for all factors, and the
// store is sized for the largest factor replayed so far. Replay is one
// serial loop in recorded order, so packing is as safe wide as at base.
//
// Mixed precision: each Program carries a compute dtype
// (set_compute_dtype, default f64). Under kF32, lowering colors every
// internal (liveness-packed) slot float while external slots — leaves,
// parameters, `.grad` buffers, kept results — stay double, and inserts
// explicit kCast steps at the boundaries; compute steps then run float
// kernels, while in-plan optimizer steps always execute in double on the
// double master weights (gradients widen on entry — the autocast
// pattern). Eager execution is f64-only; the policy exists purely at the
// plan level, and call sites (mosaic::CompiledTrainStep,
// NeuralSubdomainSolver) pick it up from ad::compute_dtype()
// (MF_PRECISION). Under the default kF64 the lowering pass is skipped
// entirely and plans are bitwise identical to before.
//
// Step kinds: program.cpp describes each of its typed step kinds in one
// constexpr row — name, dtype rule (compute width, f64, or the width of
// the output or input buffer), widen rule (elementwise, broadcast, fold,
// outer-axis, rows, never), fusability, and whether it also reads
// `out`. Cast insertion, fusion, liveness, the health sentinel, widening
// and the MF_PROGRAM_PROFILE bands read the row instead of naming kinds;
// only replay's execute switch names every kind, and a kind missing from
// it or from the table fails to compile.
//
// Escape hatch: MF_DISABLE_PROGRAM=1 (or program_set_enabled(false))
// makes program_enabled() false; the wired call sites then run the eager
// ops they would otherwise capture, bit-for-bit. The eager path is the
// bitwise reference the tests hold every plan to.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>

#include "ad/dtype.hpp"
#include "ad/kernels.hpp"
#include "ad/tensor.hpp"

namespace mf::ad {

class Program {
 public:
  struct Stats {
    std::size_t steps = 0;          // typed kernel steps in the plan
    std::size_t slots = 0;          // distinct buffers referenced
    std::size_t external_slots = 0; // slots alive outside the program
    std::size_t arena_bytes = 0;    // liveness-packed internal storage
    std::size_t pinned_bytes = 0;   // externally visible slot payloads
    std::size_t fused_steps = 0;    // Fused steps in the plan
    std::size_t fused_ops = 0;      // elementwise steps folded into them
    std::size_t cast_steps = 0;     // dtype-boundary kCast steps
    std::size_t optim_steps = 0;    // in-plan optimizer parameter updates
    std::size_t wide_instances = 0; // live widened replay contexts
    int64_t max_widen_batch = 0;    // largest batch replayed via widening
    double capture_ms = 0;          // wall time of the last capture
    std::uint64_t captures = 0;     // captures over this Program's life
    std::uint64_t replays = 0;
    std::uint64_t widened_replays = 0;
    std::uint64_t health_checks = 0;  // post-replay sentinel scans run
    std::uint64_t health_trips = 0;   // scans that found NaN/Inf/divergence
  };

  Program();
  ~Program();
  Program(Program&&) noexcept;
  Program& operator=(Program&&) noexcept;
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  /// Compute dtype for the *next* capture (kF64 default). kF32 makes
  /// lowering color internal slots float and insert boundary casts; a
  /// plan already captured is unaffected — re-capture to apply. Survives
  /// reset(), so callers can set it once at construction.
  void set_compute_dtype(DType dt);
  DType compute_dtype() const;

  /// Run `fn` eagerly while recording, then lower the trace into the
  /// replayable plan. Drops any previous plan first. Capture is
  /// thread-confined and non-reentrant (throws on nested capture). On
  /// return the autodiff graph recorded by `fn` has been released: keep
  /// result tensors if you need their values, not their history.
  void capture(const std::function<void()>& fn);

  /// True when a plan is ready to replay.
  bool captured() const;

  /// Re-execute the captured step against the current contents of its
  /// leaf buffers. Requires captured().
  void replay();

  /// Drop the plan and every retained buffer.
  void reset();

  // ---- batch widening (inference plans) ----
  //
  /// Declare the batch-carrying external tensors of a captured plan (the
  /// plan's inputs and outputs whose leading dimension is the batch; all
  /// must share the same dim0 = the base batch B0) and run the widening
  /// analysis. Returns true when the plan is widenable: replay_widened(b)
  /// then evaluates any b that is a positive multiple of B0 (with B0 = 1,
  /// every b). Returns false — leaving the plan fully usable for plain
  /// replay() — when any step mixes batch instances or a batch-carrying
  /// slot is not external.
  bool widen(const std::vector<Tensor>& batch_io);

  /// True after a successful widen().
  bool widened() const;

  /// The buffer a widened replay at batch `b` reads/writes for the
  /// declared tensor `t` (b a positive multiple of B0; for b == B0 this
  /// is t's own payload). Callers pack inputs here before
  /// replay_widened(b) and read outputs after. Layout: the B0-sized
  /// blocks of `t` repeated b / B0 times (instance-major). Every b > B0
  /// shares one store, so the pointer stays valid, and its contents in
  /// place, until a call at a larger b than any before regrows it.
  real* widened_buffer(const Tensor& t, int64_t b);

  /// Replay the widened plan at batch `b` (positive multiple of B0).
  /// Requires widened(). The scaled steps and broadcast plans of each
  /// distinct b are built once and cached.
  void replay_widened(int64_t b);

  Stats stats() const;

  /// Steps of the lowered plan of kind `kind`, by its MF_PROGRAM_PROFILE
  /// band name ("matmul", "copy", ...; kUnary counts as "unary"), so tests
  /// can check what a graph lowers to.
  std::size_t count_steps(std::string_view kind) const;

  /// Health sentinel verdict of the most recent replay()/replay_widened():
  /// false when the post-replay scan (active under health_checks_enabled())
  /// found a NaN, an Inf, or a diverged (>1e100) value in any external
  /// slot the plan writes. Always true when checks are off or no replay
  /// has run since capture.
  bool last_replay_healthy() const;

  struct Impl;  // also the active capture recorder (see program.cpp)

 private:
  std::unique_ptr<Impl> impl_;
};

/// False when MF_DISABLE_PROGRAM=1: wired call sites stay eager.
bool program_enabled();
/// Override the env default (tests / benches). Returns previous value.
bool program_set_enabled(bool on);

// ---- numerical health sentinel ----------------------------------------
//
// Opt-in (MF_HEALTH_CHECKS=1) per-replay NaN/Inf/divergence scan over the
// external slots a plan writes. On a trip, the wired call sites
// (mosaic::NeuralSubdomainSolver, mosaic::CompiledTrainStep) walk the
// fallback ladder — f32 plan -> f64 plan -> eager — poisoning the
// tripped cache entry instead of propagating garbage.

/// True when MF_HEALTH_CHECKS=1 (default off: the scan costs one pass
/// over the plan's external outputs per replay).
bool health_checks_enabled();
/// Override the env default (tests / serving layer). Returns previous.
bool health_checks_set_enabled(bool on);

/// Process-wide sentinel accounting, aggregated across all Programs.
struct HealthStats {
  std::uint64_t checks = 0;           // sentinel scans run
  std::uint64_t trips = 0;            // scans that found bad values
  std::uint64_t plan_fallbacks = 0;   // ladder: f32 plan -> f64 plan
  std::uint64_t eager_fallbacks = 0;  // ladder: plan -> eager execution
};
HealthStats health_stats();
void health_stats_reset();
/// Call sites report each ladder step they take so the counters above
/// reflect actions, not just detections.
void health_note_fallback(bool to_eager);

// ---- capture hooks ----------------------------------------------------
//
// ops.cpp (and Tensor::detach) call these right where each kernel runs.
// They are no-ops unless the calling thread is inside Program::capture;
// `capturing()` is an inline thread-local test so the eager fast path
// pays one predictable branch per kernel.
namespace prog {

namespace detail {
extern thread_local Program::Impl* g_recorder;
}
inline bool capturing() { return detail::g_recorder != nullptr; }

// The plan's elementwise opcodes are the kernels' own: a unary or binary
// step replays through kernels::map_unary / map_binary with the opcode its
// eager op passed.
using Unary = kernels::UnaryOp;
using Binary = kernels::BinaryOp;

void on_unary(Unary fn, real scalar, const Tensor& a, const Tensor& out);
void on_binary(Binary fn, const Tensor& a, const Tensor& b, const Tensor& out);
void on_binary_bcast(Binary fn, const kernels::BroadcastPlan& plan,
                     const Tensor& a, const Tensor& b, const Tensor& out);
void on_broadcast_copy(const kernels::BroadcastPlan& plan, const Tensor& a,
                       const Tensor& out);
void on_reduce(const kernels::ReducePlan& plan, const Tensor& a,
               const Tensor& out);
void on_sum_all(const Tensor& a, const Tensor& out);
// The outer-axis hooks (sum_axis, slice, concat) also take the worked
// `axis` itself: widening refuses axis 0, the batch, and nothing else.
void on_sum_axis(const Tensor& a, const Tensor& out, int64_t outer,
                 int64_t n_axis, int64_t inner, int64_t axis);
/// kernels::matmul in `form`; a step replays it with the same form.
void on_matmul(const Tensor& a, const Tensor& b, const Tensor* bias,
               const Tensor& out, int64_t m, int64_t k, int64_t n,
               kernels::MatmulForm form);
/// Full-buffer copy (reshape / detach / clone).
void on_copy(const Tensor& src, const Tensor& out);
void on_slice_pack(const Tensor& in, const Tensor& out, int64_t outer,
                   int64_t len, int64_t inner, int64_t n_axis, int64_t start,
                   int64_t axis);
void on_slice_scatter(const Tensor& g, const Tensor& out, int64_t outer,
                      int64_t len, int64_t inner, int64_t n_axis,
                      int64_t start, int64_t axis);
/// One source block of a concat (called once per part, in order).
void on_concat_part(const Tensor& part, const Tensor& out, int64_t outer,
                    int64_t total, int64_t offset, int64_t len, int64_t inner,
                    int64_t axis);
void on_conv1d_forward(const Tensor& in, const Tensor& w, const Tensor* bias,
                       const Tensor& out, int64_t B, int64_t Cin, int64_t L,
                       int64_t Cout, int64_t K, int64_t padding);
void on_conv1d_grad_input(const Tensor& gout, const Tensor& w,
                          const Tensor& out, int64_t B, int64_t Cin, int64_t L,
                          int64_t Cout, int64_t K, int64_t padding);
void on_conv1d_grad_weight(const Tensor& gout, const Tensor& in,
                           const Tensor& out, int64_t B, int64_t Cin,
                           int64_t L, int64_t Cout, int64_t K,
                           int64_t padding);
void on_conv1d_grad_bias(const Tensor& gout, const Tensor& out, int64_t B,
                         int64_t Cout, int64_t Lout);

// ---- in-plan optimizer update (optim::Adam) -----------------------------
//
// Adam::step() calls these while it applies its eager update under an
// enclosing capture, so the parameter update becomes part of the same plan
// as the forward/backward kernels: one tick step per step() call (advances
// `t` and refreshes the bias corrections at replay), then one param step
// per parameter with a defined gradient. The state block is owned by the
// optimizer and read live at replay — the schedule can keep writing `*lr`
// between replays — so the optimizer must outlive the captured plan.
struct AdamPlanState {
  double* lr = nullptr;   // points at the optimizer's live learning rate
  int64_t* t = nullptr;   // points at the optimizer's step counter
  double beta1 = 0.9, beta2 = 0.999, eps = 1e-8, weight_decay = 0;
  bool decoupled = false;
  double bc1 = 1, bc2 = 1;  // refreshed by the tick step at each replay
};
void on_adam_tick(AdamPlanState* st);
/// `m` / `v` point at the optimizer's moment buffers for this parameter
/// (stable for the optimizer's lifetime).
void on_adam_param(AdamPlanState* st, const Tensor& param, const Tensor& grad,
                   double* m, double* v);

/// optim::Lamb records one of these per parameter (after an on_adam_tick
/// sharing the same state block): the Adam direction, the layerwise
/// trust-ratio reduction, and the trust-scaled weight write replay as a
/// single plan step via sfn::lamb_param_update.
void on_lamb_param(AdamPlanState* st, const Tensor& param, const Tensor& grad,
                   double* m, double* v);

/// Called by an optimizer (or any other op) that cannot be represented
/// in a plan while a capture is active: poisons the capture, so
/// Program::capture ends *without* a plan (captured() stays false) and
/// the caller deterministically falls back to eager execution. The eager
/// effects of the capture body have already happened, correctly — only
/// the plan is discarded. Prevents half-captured plans (e.g. forward and
/// backward captured, parameter update silently missing).
void on_uncapturable();

}  // namespace prog

}  // namespace mf::ad
