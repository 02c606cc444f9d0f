// Compiled tape programs: capture one eager step, replay it allocation-
// and dispatch-free.
//
// Every eager training step re-records and re-walks an identical autodiff
// graph: per-step cost is dominated by node recording, allocation,
// shared_ptr traffic and virtual backward dispatch rather than FLOPs.
// `Program` removes all of it for steady-state loops with fixed shapes
// (the Schwarz iteration and the three-backward-pass PDE training step):
//
//   capture(fn)  — runs `fn` on the calling thread while recording the
//                  typed steps it executes (forward ops, the engine's
//                  backward sweeps including `create_graph` second-order
//                  chains, gradient accumulation into `.grad`, detach
//                  copies, optimizer updates): every eager kernel call
//                  is a prog::run step, so the plan is one flat,
//                  execution-ordered list of exactly the steps that ran.
//                  Tensors touched by the step become numbered slots;
//                  step operands are slot indices.
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
// Value numbering and fusion: lowering computes each value once. A pure
// step (unary, binary, copy, matmul, conv1d forward) whose kind, opcode,
// dtype, scalar, geometry and operand slots — each at its version, bumped
// by every write to the slot, an optimizer's in-place update included —
// match an earlier step's is dropped when its output is internal, and its
// readers read the earlier output (the PDE loss's backward passes ask for
// gelu_d1 of each pre-activation again and again, and its PDE half for
// the data half's boundary encoding). Then every maximal run of adjacent
// unary, binary and copy steps of one length and one dtype becomes one
// `Fused` region step: it reads its outside inputs, writes only its
// live-outs (the slots that are external or read after the run before
// anything overwrites them), and keeps every other value in a stack
// block, so those never materialize and drop out of the arena. A region
// runs block by block through the same kernel entries as the steps it
// replaces, so every element keeps its op sequence and fused replay stays
// bitwise identical to eager. Program::verify re-derives both invariants
// from a lowered plan.
//
// Optimizer steps: optim::Adam and optim::Lamb update through typed steps
// too (see AdamPlanState below), so a plan that captures step + optimizer
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
// step that would mix instances — a sum that drops the batch axis, a
// slice or concat on axis 0, TN matmuls (they contract over rows),
// training/optimizer steps — rejects widening and callers stay eager).
// Broadcast and reduce plans are rebuilt at each widened shape.
// Widened replay of B instances is bitwise identical to B0-sized replays
// of the same instances because every widenable kernel computes each
// row/element independently — so any split of the rows is too, and a
// widened replay runs in row tiles of at most T base instances (B0 rows
// each), each tile replaying the plan at its own factor (T, and the
// remainder's for the last tile) with the declared io slots pointed at
// its rows. T comes from the plan: as many instances as keep the
// batch-scaled internal slots within kTileBytes (512 KiB) per thread the
// replay's kernels may use (one inside a SerialRegionGuard or a parallel
// region, else kernels::max_threads()), at least one, so a tile's
// activations stay in the caches. Every tile replays from one store per
// Program: lowering's liveness packer, keyed on base size and batch flag,
// packs the internal slots once for all factors, sized for the largest
// tile replayed so far, while the declared io gets one buffer per tensor
// sized for the largest batch. Replay is one serial loop in recorded
// order, so packing is as safe wide as at base.
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
// Step kinds: program.cpp describes each prog::StepKind in one constexpr
// row — name, dtype rule (compute width, f64, or the width of the output
// or input buffer), widen rule (elementwise, plan, outer-axis, rows,
// never), fusability, purity (value numbering), and whether it also
// reads `out`. Cast insertion, value numbering, fusion, liveness, the
// health sentinel, widening and the MF_PROGRAM_PROFILE bands read the row
// instead of naming kinds; only the
// one execute switch — run by eager ops and replay alike — names every
// kind, and a kind missing from it or from the table fails to compile.
//
// Escape hatch: MF_DISABLE_PROGRAM=1 (or program_set_enabled(false))
// makes program_enabled() false; the wired call sites then run the eager
// ops they would otherwise capture, bit-for-bit. The eager path is the
// bitwise reference the tests hold every plan to.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

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
    std::size_t fused_steps = 0;    // Fused region steps in the plan
    std::size_t fused_ops = 0;      // elementwise steps folded into them
    std::size_t cast_steps = 0;     // dtype-boundary kCast steps
    std::size_t optim_steps = 0;    // in-plan optimizer parameter updates
    std::size_t wide_instances = 0; // live widened replay contexts
    int64_t max_widen_batch = 0;    // largest batch replayed via widening
    int64_t tile_batch = 0;         // tile rows of the last widened replay
    std::size_t wide_bytes = 0;     // bytes the widened store holds
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
  /// blocks of `t` repeated b / B0 times (instance-major). Each declared
  /// tensor has one such buffer for every b > B0, sized for the whole
  /// batch (the tiles of a replay read and write their rows of it), so
  /// the pointer stays valid, and its contents in place, until a call at
  /// a larger b than any before regrows it.
  real* widened_buffer(const Tensor& t, int64_t b);

  /// Replay the widened plan at batch `b` (positive multiple of B0).
  /// Requires widened(). Runs in row tiles of at most T base instances,
  /// T = max(1, kTileBytes · n / I): I the plan's batch-scaled internal
  /// bytes per base instance, n the threads this replay's kernels may use
  /// (see the widening notes above). The batch-scaled internal slots are
  /// sized for one tile, not for `b`. The scaled steps and the broadcast
  /// and reduce plans of each tile factor (T and the remainders) are
  /// built once and cached. Stats count the call as one replay; the
  /// health sentinel scans every tile, and last_replay_healthy() is false
  /// when any tile tripped.
  void replay_widened(int64_t b);

  Stats stats() const;

  /// Steps of the lowered plan of kind `kind`, by its MF_PROGRAM_PROFILE
  /// band name ("matmul", "copy", ...; kUnary counts as "unary"), so tests
  /// can check what a graph lowers to.
  std::size_t count_steps(std::string_view kind) const;

  /// Ops of the lowered plan of `band`, counting a fused region's unary,
  /// binary and copy ops under their own kinds: "unary" counts every unary
  /// op, "unary.gelu_d1" (an MF_PROGRAM_PROFILE unary band) one opcode's.
  std::size_t count_ops(std::string_view band) const;

  /// Re-derives lowering's invariants from the lowered plan and returns
  /// the first violation, or "" when they hold: no unary, binary, copy,
  /// matmul or conv1d forward op (fused or not) repeats an earlier op's
  /// value key where value numbering must have dropped it; every fused
  /// region writes exactly its live-outs — each slot it computes that is
  /// external or read by a later step before anything overwrites it —
  /// and reads and writes only slots of its own dtype.
  std::string verify() const;

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

// ---- typed steps --------------------------------------------------------
//
// Every eager kernel call is one typed step: ops.cpp, Tensor::detach and
// the optimizers build a Step and hand it to prog::run, which executes it
// through the same step body replay runs and, inside Program::capture,
// also records it. A plan therefore holds exactly the steps the eager
// code ran. `capturing()` is an inline thread-local test.
namespace prog {

namespace detail {
extern thread_local Program::Impl* g_recorder;
}
inline bool capturing() { return detail::g_recorder != nullptr; }

/// The kinds of typed kernel step. Operands are a, b, c (inputs) and out;
/// p0..p5 carry the kernel geometry as the kernel takes it. program.cpp
/// describes each kind in one row of its kind table.
enum class StepKind : std::uint8_t {
  kUnary,         // out = fn(a) (kernels::UnaryOp, with scalar); p0 elements
  kBinary,        // out = fn(a, b) (kernels::BinaryOp); p0 elements
  kBinaryBcast,   // out = fn(a, b) through the broadcast plan
  kBcastCopy,     // out = a broadcast through the broadcast plan
  kReduce,        // out = a summed through the reduce plan (every sum)
  kMatmul,        // out = a·b (+ c) in form fn (kernels::MatmulForm),
                  // m = p0, k = p1, n = p2
  kCopy,          // out = a; p0 elements
  kWindow,        // axis rows p4 .. p4 + p1 of the [p0, p3, p2] side,
                  // against the [p0, p1, p2] other side, in form fn
                  // (WindowForm); p5 is the axis
  kConv1dFwd,     // out = conv1d(a, weight b, bias c); p0..p5 = B, Cin, L,
                  // Cout, K, padding
  kConv1dGradIn,  // out = input gradient from gout a, weight b; as above
  kConv1dGradW,   // out = weight gradient from gout a, input b; as above
  kConv1dGradB,   // out = bias gradient from gout a; p0..p2 = B, Cout, Lout
  kFused,         // lowering only: a region of adjacent elementwise steps
  kAdamTick,      // advance the optimizer's step counter, bias corrections
  kAdamParam,     // Adam update of param out from grad a; p0 elements
  kLambParam,     // LAMB update (trust-ratio reduction + write); likewise
  kCast,          // lowering only: fn 0 widens f32 -> f64, fn 1 narrows
  kStepKindCount_,  // sentinel: one past the last real kind
};

constexpr std::size_t kStepKindCount =
    static_cast<std::size_t>(StepKind::kStepKindCount_);

/// The form of a kWindow step (its Step::fn): which side is the window's.
enum class WindowForm : std::uint8_t {
  kPack,   // out = a's window (slice)
  kEmbed,  // out = zeros with a in its window (slice's backward)
  kWrite,  // a into out's window, the rest of out untouched (concat part)
};

/// One typed kernel invocation. Callers fill the kind, the opcode `fn`,
/// the scalar and the geometry; the recorder fills the slot indices and
/// `plan` (the index of the step's side payload), and lowering assigns
/// the execution dtype `dt`: kF64 unless the program's compute dtype is
/// kF32, where compute steps go float and optimizer steps stay double.
struct Step {
  StepKind kind;
  std::uint8_t fn = 0;  // kernels::UnaryOp / BinaryOp / MatmulForm,
                        // WindowForm; the kCast direction
  DType dt = DType::kF64;
  std::int32_t a = -1, b = -1, c = -1;
  std::int32_t out = -1;
  std::int32_t plan = -1;
  real scalar = 0;
  int64_t p0 = 0, p1 = 0, p2 = 0, p3 = 0, p4 = 0, p5 = 0;
};

// ---- optimizer steps (optim::Adam, optim::Lamb) ---------------------------
//
// Adam::step() and Lamb::step() run one kAdamTick step (advances `t` and
// refreshes the bias corrections), then one kAdamParam or kLambParam step
// per parameter with a defined gradient. Under a capture they land in the
// same plan as the forward and backward kernels. The state block is owned
// by the optimizer and read live at replay — the schedule can keep
// writing `*lr` between replays — so the optimizer must outlive the plan.
struct AdamPlanState {
  double* lr = nullptr;   // points at the optimizer's live learning rate
  int64_t* t = nullptr;   // points at the optimizer's step counter
  double beta1 = 0.9, beta2 = 0.999, eps = 1e-8, weight_decay = 0;
  bool decoupled = false;
  double bc1 = 1, bc2 = 1;  // refreshed by every tick step
  std::vector<double> dir;  // LAMB's Adam-direction scratch
};

/// The side payload of an optimizer step: the state block and, for a
/// parameter update, that parameter's moment buffers (stable for the
/// optimizer's lifetime).
struct OptimArgs {
  AdamPlanState* state = nullptr;
  double* m = nullptr;
  double* v = nullptr;
};

/// A step's operands: up to three inputs and the output (null or
/// undefined when absent), plus the side payload its kind reads — the
/// broadcast plan, the reduce plan or the optimizer state.
struct Args {
  const Tensor* a = nullptr;
  const Tensor* b = nullptr;
  const Tensor* c = nullptr;
  const Tensor* out = nullptr;
  const kernels::BroadcastPlan* bplan = nullptr;
  const kernels::ReducePlan* rplan = nullptr;
  const OptimArgs* optim = nullptr;
};

/// Execute `s` on `args` at f64 through replay's step body, and inside
/// Program::capture also record it. kFused and kCast are lowering's own
/// kinds and are never run this way.
void run(Step s, const Args& args);

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
