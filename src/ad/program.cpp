#include "ad/program.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "ad/scalar_fns.hpp"

// A switch over StepKind or a kind-table rule that misses a value is a
// build error, not a warning: the execute switch and the rule switches
// have no `default:`, so a new kind or rule cannot silently fall through.
#pragma GCC diagnostic error "-Wswitch"

namespace mf::ad {

namespace {

enum class StepKind : std::uint8_t {
  kUnary,
  kBinary,
  kBinaryBcast,
  kBcastCopy,
  kReduce,
  kSumAll,
  kSumAxis,
  kMatmul,  // fn is the kernels::MatmulForm
  kCopy,
  kSlicePack,
  kSliceScatter,
  kConcatPart,
  kConv1dFwd,
  kConv1dGradIn,
  kConv1dGradW,
  kConv1dGradB,
  kFused,      // composed run of adjacent elementwise steps
  kAdamTick,   // advance the in-plan optimizer step counter
  kAdamParam,  // in-plan Adam update of one parameter tensor
  kLambParam,  // in-plan LAMB update (trust-ratio reduction + write)
  kCast,       // dtype boundary: fn 0 widens f32->f64, fn 1 narrows
  kStepKindCount_,  // sentinel: one past the last real kind
};

constexpr std::size_t kStepKindCount =
    static_cast<std::size_t>(StepKind::kStepKindCount_);

/// Everything the lowering and widening passes know about a step kind.
struct KindInfo {
  /// Execution dtype under the f32 policy (see insert_casts; fused and
  /// cast steps are created after or by that pass and never reach it).
  enum Dtype : std::uint8_t {
    kCompute,  // the policy dtype
    kF64,      // double: optimizer steps update the f64 master state
    kOfOut,    // the output buffer's width: copies write it directly
    kOfIn,     // the input buffer's width: reductions accumulate in double
  };
  /// What a batch-carrying operand does to the step (see Program::widen).
  enum Widen : std::uint8_t {
    kElementwise,  // operands agree, out follows a, p0 scales with out
    kBcast,        // trial-shape check; the broadcast plan is rebuilt
    kFold,         // a scaled input is refused
    kOuter,        // refuses axis 0 (p5); p0 scales with a
    kRows,         // rhs and bias unscaled; p0 scales with a (a TN
                   // matmul contracts over a's rows: refuses any)
    kNever,        // sized for the capture batch: refuses widening
  };

  StepKind kind;
  const char* name;   // MF_PROGRAM_PROFILE band label
  Dtype dtype;
  Widen widen;
  bool fusable;       // may join a fused elementwise chain
  bool reads_out;     // also reads `out` (optimizer parameter updates)
};

using K = KindInfo;
constexpr KindInfo kKinds[] = {
    {StepKind::kUnary, "unary", K::kCompute, K::kElementwise, true, false},
    {StepKind::kBinary, "binary", K::kCompute, K::kElementwise, true, false},
    {StepKind::kBinaryBcast, "binary_bcast", K::kCompute, K::kBcast, false,
     false},
    {StepKind::kBcastCopy, "bcast_copy", K::kOfOut, K::kBcast, false, false},
    {StepKind::kReduce, "reduce", K::kOfIn, K::kFold, false, false},
    {StepKind::kSumAll, "sum_all", K::kOfIn, K::kFold, false, false},
    {StepKind::kSumAxis, "sum_axis", K::kOfIn, K::kOuter, false, false},
    {StepKind::kMatmul, "matmul", K::kCompute, K::kRows, false, false},
    {StepKind::kCopy, "copy", K::kOfOut, K::kElementwise, true, false},
    {StepKind::kSlicePack, "slice_pack", K::kOfOut, K::kOuter, false, false},
    {StepKind::kSliceScatter, "slice_scatter", K::kOfOut, K::kOuter, false,
     false},
    {StepKind::kConcatPart, "concat_part", K::kOfOut, K::kOuter, false, false},
    {StepKind::kConv1dFwd, "conv1d_fwd", K::kCompute, K::kRows, false, false},
    {StepKind::kConv1dGradIn, "conv1d_grad_in", K::kCompute, K::kNever, false,
     false},
    {StepKind::kConv1dGradW, "conv1d_grad_w", K::kCompute, K::kNever, false,
     false},
    {StepKind::kConv1dGradB, "conv1d_grad_b", K::kCompute, K::kNever, false,
     false},
    {StepKind::kFused, "fused", K::kCompute, K::kElementwise, false, false},
    {StepKind::kAdamTick, "adam_tick", K::kF64, K::kNever, false, false},
    {StepKind::kAdamParam, "adam_param", K::kF64, K::kNever, false, true},
    {StepKind::kLambParam, "lamb_param", K::kF64, K::kNever, false, true},
    {StepKind::kCast, "cast", K::kCompute, K::kElementwise, false, false},
};

constexpr bool kinds_in_enum_order() {
  for (std::size_t i = 0; i < std::size(kKinds); ++i) {
    if (static_cast<std::size_t>(kKinds[i].kind) != i) return false;
  }
  return true;
}
static_assert(std::size(kKinds) == kStepKindCount && kinds_in_enum_order(),
              "kKinds needs exactly one row per StepKind, row i for kind i");

constexpr const KindInfo& kind_info(StepKind k) {
  return kKinds[static_cast<std::size_t>(k)];
}

/// One scalar operation of a fused elementwise chain. The chain value is
/// seeded from the fused step's `a` slot and threaded through the ops in
/// recorded order; binary ops read their non-chain operand from `other`.
struct FusedOp {
  enum Form : std::uint8_t {
    kUnaryForm,      // chain = unary(chain)
    kBinChainLeft,   // chain = binary(chain, other)
    kBinChainRight,  // chain = binary(other, chain)
    kBinChainBoth,   // chain = binary(chain, chain)
  };
  std::uint8_t fn = 0;  // prog::Unary or prog::Binary
  std::uint8_t form = kUnaryForm;
  std::int32_t other = -1;
  real scalar = 0;
};

/// One lowered kernel invocation. Operands are slot indices; `plan`
/// indexes the program's stored broadcast/reduce plans; p0..p5 carry the
/// kernel geometry exactly as the eager op passed it.
struct Step {
  StepKind kind;
  std::uint8_t fn = 0;  // prog::Unary, prog::Binary, kernels::MatmulForm;
                        // kCast direction
  // Execution dtype, assigned at lowering: which width this step's
  // kernels run at. Always kF64 unless the program's compute dtype is
  // kF32, in which case compute steps go float while optimizer steps
  // stay double (kCast steps are untyped — fn encodes the direction).
  DType dt = DType::kF64;
  std::int32_t a = -1, b = -1, c = -1;
  std::int32_t out = -1;
  std::int32_t plan = -1;
  real scalar = 0;
  int64_t p0 = 0, p1 = 0, p2 = 0, p3 = 0, p4 = 0, p5 = 0;
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<bool> g_prog_enabled{[] {
  const char* env = std::getenv("MF_DISABLE_PROGRAM");
  return !(env && env[0] == '1');
}()};

// Opt-in: the sentinel scan costs one pass over external outputs per
// replay, so it defaults off and serving/chaos runs turn it on.
std::atomic<bool> g_health_enabled{[] {
  const char* env = std::getenv("MF_HEALTH_CHECKS");
  return env && env[0] == '1';
}()};

std::atomic<std::uint64_t> g_health_checks{0};
std::atomic<std::uint64_t> g_health_trips{0};
std::atomic<std::uint64_t> g_health_plan_fallbacks{0};
std::atomic<std::uint64_t> g_health_eager_fallbacks{0};

// Divergence bound: values past this are treated as numerically dead
// even while still finite (an exploding iteration detected before it
// reaches Inf).
constexpr double kHealthDivergenceBound = 1e100;

}  // namespace

bool program_enabled() { return g_prog_enabled.load(std::memory_order_relaxed); }

bool program_set_enabled(bool on) {
  return g_prog_enabled.exchange(on, std::memory_order_relaxed);
}

bool health_checks_enabled() {
  return g_health_enabled.load(std::memory_order_relaxed);
}

bool health_checks_set_enabled(bool on) {
  return g_health_enabled.exchange(on, std::memory_order_relaxed);
}

HealthStats health_stats() {
  HealthStats h;
  h.checks = g_health_checks.load(std::memory_order_relaxed);
  h.trips = g_health_trips.load(std::memory_order_relaxed);
  h.plan_fallbacks = g_health_plan_fallbacks.load(std::memory_order_relaxed);
  h.eager_fallbacks = g_health_eager_fallbacks.load(std::memory_order_relaxed);
  return h;
}

void health_stats_reset() {
  g_health_checks.store(0, std::memory_order_relaxed);
  g_health_trips.store(0, std::memory_order_relaxed);
  g_health_plan_fallbacks.store(0, std::memory_order_relaxed);
  g_health_eager_fallbacks.store(0, std::memory_order_relaxed);
}

void health_note_fallback(bool to_eager) {
  auto& counter = to_eager ? g_health_eager_fallbacks : g_health_plan_fallbacks;
  counter.fetch_add(1, std::memory_order_relaxed);
}

struct Program::Impl {
  std::vector<Step> steps;
  // One entry per slot. After lowering, entries for internal
  // (liveness-packed) slots are null; external entries pin the payloads
  // the program must keep addressable (leaves are read live through them).
  std::vector<std::shared_ptr<TensorImpl>> slots;
  std::vector<int64_t> slot_len;
  // Shape of each slot's tensor at record time; drives the widening
  // analysis (which dimension is the batch, how broadcast plans rebuild).
  std::vector<Shape> slot_shape;
  // Storage dtype of each slot's buffer. External slots are always kF64
  // (their payloads are live f64 tensors); internal slots take the
  // program's compute dtype. Sized/filled at lowering.
  std::vector<DType> slot_dt;
  std::vector<void*> buf;
  std::vector<kernels::BroadcastPlan> bplans;
  std::vector<kernels::ReducePlan> rplans;
  // Fused elementwise chains; Step::plan of a kFused step indexes this.
  std::vector<std::vector<FusedOp>> fchains;
  // In-plan optimizer steps (tick, Adam and LAMB parameter updates);
  // Step::plan indexes this. Raw pointers into the optimizer's live state
  // (moments, lr, step counter) — the optimizer must outlive the plan.
  struct OptimExec {
    prog::AdamPlanState* state;
    double* m = nullptr;  // parameter updates only
    double* v = nullptr;
    int64_t n = 0;
    std::vector<double> dir = {};  // LAMB scratch for the Adam direction
  };
  std::vector<OptimExec> optims;
  // Internal storage: byte buffers reused across slots whose live ranges
  // do not overlap (byte-addressed so f32 and f64 slots pack together).
  std::vector<std::vector<std::byte>> arena;

  // Health sentinel: the external slots any step writes (computed at
  // lowering); the opt-in post-replay scan walks exactly these.
  std::vector<std::int32_t> health_slots;
  bool last_healthy = true;
  std::uint64_t health_checks = 0, health_trips = 0;

  // Capture-time state.
  std::unordered_map<const TensorImpl*, std::int32_t> slot_of;
  // Set by prog::on_uncapturable(): the capture body ran something that
  // cannot be represented in a plan; capture() discards the plan.
  bool poisoned = false;

  // ---- widening state (set by widen()) ----
  // One widening factor's replay tables: the steps with scaled geometry,
  // broadcast plans rebuilt at the widened shapes, the scaled slot
  // lengths, and a buffer table into wide_store.
  struct WideContext {
    int64_t factor = 1;
    std::vector<Step> steps;
    std::vector<kernels::BroadcastPlan> bplans;
    std::vector<int64_t> slot_len;
    std::vector<void*> buf;
  };
  bool wide_ready = false;
  int64_t base_b = 0;
  std::vector<char> slot_scaled;  // batch-carrying slots (post-analysis)
  std::vector<char> p0_scaled;    // per step: widened replay scales p0
  std::unordered_map<const TensorImpl*, std::int32_t> declared_slots;
  // The store every widening factor replays from: per slot, its
  // wide_store buffer (-1: the master buffer — weights and other unscaled
  // externals are read live — or none); per buffer, the slot whose size
  // at a factor is the buffer's. Sized for wide_cap, the largest factor
  // replayed so far.
  std::vector<std::int32_t> wide_buffer_of;
  std::vector<std::int32_t> wide_owner;
  std::vector<std::vector<std::byte>> wide_store;
  int64_t wide_cap = 0;
  std::vector<std::unique_ptr<WideContext>> wide_ctxs;
  int64_t max_widen_batch = 0;
  std::uint64_t widened_replays = 0;

  bool ready = false;
  // Compute dtype for the next capture. Deliberately NOT reset by
  // clear_plan(): capture() starts with reset(), and the policy must
  // survive it so set_compute_dtype-then-capture works.
  DType policy_dt = DType::kF64;
  double capture_ms = 0;
  std::uint64_t captures = 0, replays = 0;
  std::size_t external_slots = 0, arena_bytes = 0, pinned_bytes = 0;
  std::size_t fused_steps = 0, fused_ops = 0, cast_steps = 0;

  void clear_plan() {
    steps.clear();
    slots.clear();
    slot_len.clear();
    slot_shape.clear();
    slot_dt.clear();
    buf.clear();
    bplans.clear();
    rplans.clear();
    fchains.clear();
    optims.clear();
    arena.clear();
    health_slots.clear();
    last_healthy = true;
    slot_of.clear();
    poisoned = false;
    wide_ready = false;
    base_b = 0;
    slot_scaled.clear();
    p0_scaled.clear();
    declared_slots.clear();
    wide_buffer_of.clear();
    wide_owner.clear();
    wide_store.clear();
    wide_cap = 0;
    wide_ctxs.clear();
    max_widen_batch = 0;
    ready = false;
    external_slots = arena_bytes = pinned_bytes = 0;
    fused_steps = fused_ops = cast_steps = 0;
  }
};

namespace prog {
namespace detail {
thread_local Program::Impl* g_recorder = nullptr;
}  // namespace detail

namespace {

Program::Impl* rec() { return detail::g_recorder; }

std::int32_t intern(Program::Impl& im, const Tensor* t) {
  if (!t || !t->defined()) return -1;
  const TensorImpl* key = t->impl_ptr();
  auto [it, fresh] = im.slot_of.try_emplace(
      key, static_cast<std::int32_t>(im.slots.size()));
  if (fresh) {
    im.slots.push_back(t->impl());
    im.slot_shape.push_back(t->shape());
  }
  return it->second;
}

/// A hook's tensors (null when the step has no such operand).
struct Operands {
  const Tensor* a = nullptr;
  const Tensor* b = nullptr;
  const Tensor* c = nullptr;
  const Tensor* out = nullptr;
};

using Impl = Program::Impl;

/// The one recorder behind every hook: `s` carries the kind, opcode,
/// scalar and kernel geometry; the operands are interned into slots in
/// a, b, c, out order, and a step with a side payload (broadcast or
/// reduce plan, optimizer executor) appends it to `table` and indexes it
/// through Step::plan. No-op outside a capture.
template <typename T = char>
void record(Step s, const Operands& ops,
            std::vector<T> Impl::*table = nullptr, T side = {}) {
  Impl* im = rec();
  if (!im) return;
  s.a = intern(*im, ops.a);
  s.b = intern(*im, ops.b);
  s.c = intern(*im, ops.c);
  s.out = intern(*im, ops.out);
  if (table) {
    s.plan = static_cast<std::int32_t>((im->*table).size());
    (im->*table).push_back(std::move(side));
  }
  im->steps.push_back(s);
}

}  // namespace

void on_unary(Unary fn, real scalar, const Tensor& a, const Tensor& out) {
  record({.kind = StepKind::kUnary,
          .fn = static_cast<std::uint8_t>(fn),
          .scalar = scalar,
          .p0 = out.numel()},
         {.a = &a, .out = &out});
}

void on_binary(Binary fn, const Tensor& a, const Tensor& b, const Tensor& out) {
  record({.kind = StepKind::kBinary,
          .fn = static_cast<std::uint8_t>(fn),
          .p0 = out.numel()},
         {.a = &a, .b = &b, .out = &out});
}

void on_binary_bcast(Binary fn, const kernels::BroadcastPlan& plan,
                     const Tensor& a, const Tensor& b, const Tensor& out) {
  record({.kind = StepKind::kBinaryBcast,
          .fn = static_cast<std::uint8_t>(fn)},
         {.a = &a, .b = &b, .out = &out}, &Impl::bplans, plan);
}

void on_broadcast_copy(const kernels::BroadcastPlan& plan, const Tensor& a,
                       const Tensor& out) {
  record({.kind = StepKind::kBcastCopy}, {.a = &a, .out = &out},
         &Impl::bplans, plan);
}

void on_reduce(const kernels::ReducePlan& plan, const Tensor& a,
               const Tensor& out) {
  record({.kind = StepKind::kReduce}, {.a = &a, .out = &out}, &Impl::rplans,
         plan);
}

void on_sum_all(const Tensor& a, const Tensor& out) {
  record({.kind = StepKind::kSumAll, .p0 = a.numel()}, {.a = &a, .out = &out});
}

void on_sum_axis(const Tensor& a, const Tensor& out, int64_t outer,
                 int64_t n_axis, int64_t inner, int64_t axis) {
  record({.kind = StepKind::kSumAxis, .p0 = outer, .p1 = n_axis, .p2 = inner,
          .p5 = axis},
         {.a = &a, .out = &out});
}

void on_matmul(const Tensor& a, const Tensor& b, const Tensor* bias,
               const Tensor& out, int64_t m, int64_t k, int64_t n,
               kernels::MatmulForm form) {
  record({.kind = StepKind::kMatmul,
          .fn = static_cast<std::uint8_t>(form),
          .p0 = m,
          .p1 = k,
          .p2 = n},
         {.a = &a, .b = &b, .c = bias, .out = &out});
}

void on_copy(const Tensor& src, const Tensor& out) {
  record({.kind = StepKind::kCopy, .p0 = out.numel()},
         {.a = &src, .out = &out});
}

void on_slice_pack(const Tensor& in, const Tensor& out, int64_t outer,
                   int64_t len, int64_t inner, int64_t n_axis, int64_t start,
                   int64_t axis) {
  record({.kind = StepKind::kSlicePack, .p0 = outer, .p1 = len, .p2 = inner,
          .p3 = n_axis, .p4 = start, .p5 = axis},
         {.a = &in, .out = &out});
}

void on_slice_scatter(const Tensor& g, const Tensor& out, int64_t outer,
                      int64_t len, int64_t inner, int64_t n_axis,
                      int64_t start, int64_t axis) {
  record({.kind = StepKind::kSliceScatter, .p0 = outer, .p1 = len,
          .p2 = inner, .p3 = n_axis, .p4 = start, .p5 = axis},
         {.a = &g, .out = &out});
}

void on_concat_part(const Tensor& part, const Tensor& out, int64_t outer,
                    int64_t total, int64_t offset, int64_t len, int64_t inner,
                    int64_t axis) {
  record({.kind = StepKind::kConcatPart, .p0 = outer, .p1 = total,
          .p2 = offset, .p3 = len, .p4 = inner, .p5 = axis},
         {.a = &part, .out = &out});
}

void on_conv1d_forward(const Tensor& in, const Tensor& w, const Tensor* bias,
                       const Tensor& out, int64_t B, int64_t Cin, int64_t L,
                       int64_t Cout, int64_t K, int64_t padding) {
  record({.kind = StepKind::kConv1dFwd, .p0 = B, .p1 = Cin, .p2 = L,
          .p3 = Cout, .p4 = K, .p5 = padding},
         {.a = &in, .b = &w, .c = bias, .out = &out});
}

void on_conv1d_grad_input(const Tensor& gout, const Tensor& w,
                          const Tensor& out, int64_t B, int64_t Cin, int64_t L,
                          int64_t Cout, int64_t K, int64_t padding) {
  record({.kind = StepKind::kConv1dGradIn, .p0 = B, .p1 = Cin, .p2 = L,
          .p3 = Cout, .p4 = K, .p5 = padding},
         {.a = &gout, .b = &w, .out = &out});
}

void on_conv1d_grad_weight(const Tensor& gout, const Tensor& in,
                           const Tensor& out, int64_t B, int64_t Cin,
                           int64_t L, int64_t Cout, int64_t K,
                           int64_t padding) {
  record({.kind = StepKind::kConv1dGradW, .p0 = B, .p1 = Cin, .p2 = L,
          .p3 = Cout, .p4 = K, .p5 = padding},
         {.a = &gout, .b = &in, .out = &out});
}

void on_conv1d_grad_bias(const Tensor& gout, const Tensor& out, int64_t B,
                         int64_t Cout, int64_t Lout) {
  record({.kind = StepKind::kConv1dGradB, .p0 = B, .p1 = Cout, .p2 = Lout},
         {.a = &gout, .out = &out});
}

void on_adam_tick(AdamPlanState* st) {
  record({.kind = StepKind::kAdamTick}, {}, &Impl::optims,
         Impl::OptimExec{.state = st});
}

void on_adam_param(AdamPlanState* st, const Tensor& param, const Tensor& grad,
                   double* m, double* v) {
  record({.kind = StepKind::kAdamParam}, {.a = &grad, .out = &param},
         &Impl::optims,
         Impl::OptimExec{.state = st, .m = m, .v = v, .n = param.numel()});
}

void on_lamb_param(AdamPlanState* st, const Tensor& param, const Tensor& grad,
                   double* m, double* v) {
  record({.kind = StepKind::kLambParam}, {.a = &grad, .out = &param},
         &Impl::optims,
         Impl::OptimExec{.state = st, .m = m, .v = v, .n = param.numel()});
}

void on_uncapturable() {
  Program::Impl* im = rec();
  if (im) im->poisoned = true;
}

}  // namespace prog

namespace {

/// The one operand walk of the liveness, health and widening passes:
/// `read(slot)` for every slot the step reads — a, b, c, a fused chain's
/// `other` operands, and `out` for the kinds whose row says they read
/// it — then `write(slot)` for the slot it writes. Absent operands are
/// skipped.
template <typename R, typename W>
void for_each_operand(const Program::Impl& im, const Step& s, R&& read,
                      W&& write) {
  for (const std::int32_t sl : {s.a, s.b, s.c}) {
    if (sl >= 0) read(sl);
  }
  if (s.kind == StepKind::kFused) {
    for (const FusedOp& op : im.fchains[static_cast<std::size_t>(s.plan)]) {
      if (op.other >= 0) read(op.other);
    }
  }
  if (s.out < 0) return;
  if (kind_info(s.kind).reads_out) read(s.out);
  write(s.out);
}

/// Per-slot live ranges over a step list. def = first write, first/last =
/// first/last access of any kind. The intermediates folded into a fused
/// chain are not referenced at all.
struct Ranges {
  std::vector<std::int32_t> def, first, last;
};

void compute_ranges(const Program::Impl& im, Ranges& r) {
  const std::size_t S = im.slots.size();
  r.def.assign(S, -1);
  r.first.assign(S, -1);
  r.last.assign(S, -1);
  for (std::size_t i = 0; i < im.steps.size(); ++i) {
    const auto si = static_cast<std::int32_t>(i);
    auto touch = [&](std::int32_t slot) {
      if (r.first[slot] < 0) r.first[slot] = si;
      r.last[slot] = si;
    };
    for_each_operand(im, im.steps[i], touch, [&](std::int32_t slot) {
      touch(slot);
      if (r.def[slot] < 0) r.def[slot] = si;
    });
  }
}

/// Collapse runs of adjacent elementwise steps (contiguous unary/binary
/// maps and full-buffer copies) whose output chains straight into the next
/// step — and is read by nothing else, now or later — into single kFused
/// steps. Per element the composed chain evaluates the identical scalar
/// functors in the identical order the individual steps did, so fused
/// replay is bitwise-identical; the skipped intermediates simply never
/// materialize.
void fuse_elementwise(Program::Impl& im, const Ranges& r,
                      const std::vector<char>& internal) {
  const std::size_t n = im.steps.size();
  std::vector<Step> out_steps;
  out_steps.reserve(n);
  // Append step k's scalar op to `ops`, with `chain` as the slot holding
  // the current chain value (the previous step's output; for the chain
  // head, its own `a` operand).
  auto push_op = [&](std::vector<FusedOp>& ops, const Step& s,
                     std::int32_t chain) {
    FusedOp op;
    op.fn = s.fn;
    op.scalar = s.scalar;
    if (s.kind == StepKind::kCopy) return;  // identity on the chain value
    if (s.kind == StepKind::kUnary) {
      op.form = FusedOp::kUnaryForm;
    } else if (s.a == chain && s.b == chain) {
      op.form = FusedOp::kBinChainBoth;
    } else if (s.a == chain) {
      op.form = FusedOp::kBinChainLeft;
      op.other = s.b;
    } else {
      op.form = FusedOp::kBinChainRight;
      op.other = s.a;
    }
    ops.push_back(op);
  };
  std::size_t i = 0;
  while (i < n) {
    const Step& head = im.steps[i];
    if (!kind_info(head.kind).fusable) {
      out_steps.push_back(head);
      ++i;
      continue;
    }
    // Greedily extend: the next step must be an elementwise map of the
    // same length consuming this step's output, and that output must be
    // invisible to everything else (internal slot, no later reader).
    std::size_t j = i;
    while (j + 1 < n) {
      const Step& cur = im.steps[j];
      const Step& nxt = im.steps[j + 1];
      const std::int32_t o = cur.out;
      if (!kind_info(nxt.kind).fusable || nxt.p0 != head.p0) break;
      if (nxt.dt != head.dt) break;  // one execution dtype per chain
      if (nxt.a != o && nxt.b != o) break;  // must consume the chain
      if (!internal[static_cast<std::size_t>(o)]) break;
      if (r.last[static_cast<std::size_t>(o)] !=
          static_cast<std::int32_t>(j + 1)) {
        break;  // a later (non-fused) step still reads it
      }
      ++j;
    }
    if (j == i) {
      out_steps.push_back(head);
      ++i;
      continue;
    }
    std::vector<FusedOp> ops;
    ops.reserve(j - i + 1);
    push_op(ops, head, head.a);
    for (std::size_t k = i + 1; k <= j; ++k) {
      push_op(ops, im.steps[k], im.steps[k - 1].out);
    }
    Step f;
    f.kind = StepKind::kFused;
    f.dt = head.dt;
    f.a = head.a;
    f.out = im.steps[j].out;
    f.plan = static_cast<std::int32_t>(im.fchains.size());
    f.p0 = head.p0;
    im.fchains.push_back(std::move(ops));
    out_steps.push_back(f);
    ++im.fused_steps;
    im.fused_ops += j - i + 1;
    i = j + 1;
  }
  im.steps = std::move(out_steps);
}

/// Mixed-precision lowering pass (compute dtype kF32 only). Every step
/// gets an execution dtype — compute steps float, in-plan optimizer steps
/// double (the double master weights / double moments of the autocast
/// pattern), copy-like steps the dtype of their output buffer (a full- or
/// partial-copy must write its destination's width directly: running a
/// kConcatPart through an out-shadow would clobber sibling parts, and an
/// f64->f64 copy must not round through f32), reductions the dtype of
/// their input (their kernels accumulate in double at either width).
/// Operand width mismatches are bridged by shadow slots: an internal
/// twin of the slot at the other width plus an explicit kCast step.
/// Shadows are reused while provably up to date in plan order —
/// narrow(widen(x)) == x exactly, so a write that went f32-shadow ->
/// f64-slot leaves the shadow valid, while a narrowing write-back
/// invalidates it. The pass runs before fusion (chains then require one
/// dtype) and before packing (shadows are ordinary internal slots).
void insert_casts(Program::Impl& im, std::vector<char>& internal) {
  const std::size_t S0 = im.slots.size();
  std::vector<std::int32_t> shadow_of(S0, -1);
  std::vector<char> shadow_valid(S0, 0);
  std::vector<Step> out_steps;
  out_steps.reserve(im.steps.size() + S0);

  auto get_shadow = [&](std::int32_t slot) -> std::int32_t {
    const auto u = static_cast<std::size_t>(slot);
    if (shadow_of[u] < 0) {
      shadow_of[u] = static_cast<std::int32_t>(im.slots.size());
      im.slots.emplace_back(nullptr);
      im.slot_shape.push_back(im.slot_shape[u]);
      im.slot_len.push_back(im.slot_len[u]);
      im.slot_dt.push_back(im.slot_dt[u] == DType::kF32 ? DType::kF64
                                                        : DType::kF32);
      internal.push_back(1);
    }
    return shadow_of[u];
  };

  auto push_cast = [&](std::int32_t src, std::int32_t dst) {
    Step c;
    c.kind = StepKind::kCast;
    c.fn = im.slot_dt[static_cast<std::size_t>(dst)] == DType::kF32 ? 1 : 0;
    c.a = src;
    c.out = dst;
    c.p0 = im.slot_len[static_cast<std::size_t>(dst)];
    out_steps.push_back(c);
    ++im.cast_steps;
  };

  // Slot to read `slot`'s value at width `want` from, materializing (or
  // reusing) the shadow behind a kCast when the widths differ.
  auto read_as = [&](std::int32_t slot, DType want) -> std::int32_t {
    if (slot < 0) return slot;
    const auto u = static_cast<std::size_t>(slot);
    if (im.slot_dt[u] == want) return slot;
    const std::int32_t sh = get_shadow(slot);
    if (!shadow_valid[u]) {
      push_cast(slot, sh);
      shadow_valid[u] = 1;
    }
    return sh;
  };

  for (Step s : im.steps) {
    switch (kind_info(s.kind).dtype) {
      case KindInfo::kCompute:
        s.dt = DType::kF32;
        break;
      case KindInfo::kF64:
        s.dt = DType::kF64;
        break;
      case KindInfo::kOfOut:
        s.dt = im.slot_dt[static_cast<std::size_t>(s.out)];
        break;
      case KindInfo::kOfIn:
        s.dt = im.slot_dt[static_cast<std::size_t>(s.a)];
        break;
    }
    s.a = read_as(s.a, s.dt);
    s.b = read_as(s.b, s.dt);
    s.c = read_as(s.c, s.dt);
    const std::int32_t orig = s.out;
    const bool redirect =
        orig >= 0 && im.slot_dt[static_cast<std::size_t>(orig)] != s.dt;
    if (redirect) s.out = get_shadow(orig);
    out_steps.push_back(s);
    if (redirect) {
      push_cast(s.out, orig);
      // The shadow stays valid only when the write-back widened (the
      // narrow image round-trips exactly); a narrowing write-back leaves
      // the shadow holding more precision than the slot.
      shadow_valid[static_cast<std::size_t>(orig)] =
          im.slot_dt[static_cast<std::size_t>(orig)] == DType::kF64;
    } else if (orig >= 0 && static_cast<std::size_t>(orig) < S0) {
      shadow_valid[static_cast<std::size_t>(orig)] = 0;  // shadow is stale
    }
  }
  im.steps = std::move(out_steps);
}

int64_t slot_bytes(const Program::Impl& im, std::size_t s) {
  return im.slot_len[s] * static_cast<int64_t>(dtype_size(im.slot_dt[s]));
}

/// The liveness packer of lower() and of the widened store: walking the
/// steps in order, each internal slot takes, at the step that defines it,
/// a buffer with its key that a slot accessed last at an earlier step
/// released, or opens a new one. The key is the slot's byte size
/// (byte-keyed so an f32 slot can inherit a same-footprint f64 buffer and
/// vice versa) and, when `by_scaled`, its batch flag too: slots sharing a
/// buffer then have one size at every widening factor. Returns each
/// slot's buffer (-1 for none) and fills `owner` with the slot that
/// opened each buffer, whose size is the buffer's.
std::vector<std::int32_t> pack_slots(const Program::Impl& im,
                                     const Ranges& r,
                                     const std::vector<char>& internal,
                                     bool by_scaled,
                                     std::vector<std::int32_t>& owner) {
  const std::size_t S = im.slots.size();
  auto key = [&](std::size_t s) {
    const int64_t bytes = slot_bytes(im, s);
    return by_scaled ? 2 * bytes + im.slot_scaled[s] : bytes;
  };
  std::vector<std::vector<std::int32_t>> released(im.steps.size());
  for (std::size_t s = 0; s < S; ++s) {
    if (internal[s] && r.last[s] >= 0) {
      released[static_cast<std::size_t>(r.last[s])].push_back(
          static_cast<std::int32_t>(s));
    }
  }
  std::unordered_map<int64_t, std::vector<std::int32_t>> free_by_key;
  std::vector<std::int32_t> buffer_of(S, -1);
  owner.clear();
  for (std::size_t i = 0; i < im.steps.size(); ++i) {
    const std::int32_t o = im.steps[i].out;
    const auto u = static_cast<std::size_t>(o);
    if (o >= 0 && internal[u] && r.def[u] == static_cast<std::int32_t>(i)) {
      auto& fl = free_by_key[key(u)];
      if (!fl.empty()) {
        buffer_of[u] = fl.back();
        fl.pop_back();
      } else {
        buffer_of[u] = static_cast<std::int32_t>(owner.size());
        owner.push_back(o);
      }
    }
    for (std::int32_t sl : released[i]) {
      free_by_key[key(static_cast<std::size_t>(sl))].push_back(
          buffer_of[static_cast<std::size_t>(sl)]);
    }
  }
  return buffer_of;
}

/// Lower the raw trace: release the recorded autodiff graph, fuse
/// adjacent elementwise chains, compute slot live ranges, pack internal
/// slots onto reused arena buffers, resolve every operand to a raw
/// pointer.
void lower(Program::Impl& im) {
  const std::size_t S0 = im.slots.size();
  im.slot_of.clear();
  im.slot_len.resize(S0);
  for (std::size_t s = 0; s < S0; ++s) {
    im.slot_len[s] = static_cast<int64_t>(im.slots[s]->data.size());
  }
  // Release the graph first: tape nodes hold input Tensors, so slot use
  // counts are only meaningful once every node is gone (the program owns
  // buffers, not history). Leaves are skipped, not reset: threads that
  // capture at once share the network weights, and resetting their
  // already-null grad_fn would still be a racing write.
  for (auto& sp : im.slots) {
    if (sp->grad_fn) sp->grad_fn.reset();
  }

  Ranges r;
  compute_ranges(im, r);

  // A slot is internal — its buffer reusable — iff nothing outside the
  // program references its TensorImpl (we hold the only count) and a step
  // fully defines it before any use. Everything else stays pinned:
  // leaves, parameters, `.grad` buffers still bound to parameters, kept
  // loss tensors, constants materialized at capture time.
  std::vector<char> internal(S0, 0);
  for (std::size_t s = 0; s < S0; ++s) {
    internal[s] = im.slots[s].use_count() == 1 && r.def[s] >= 0 &&
                  r.def[s] == r.first[s];
  }

  // Dtype coloring: externals are live f64 payloads; internals take the
  // program's compute dtype. Under the f64 default the cast pass is
  // skipped entirely and the lowered plan is identical to before.
  im.slot_dt.assign(S0, DType::kF64);
  if (im.policy_dt == DType::kF32) {
    for (std::size_t s = 0; s < S0; ++s) {
      if (internal[s]) im.slot_dt[s] = DType::kF32;
    }
    insert_casts(im, internal);  // appends shadow slots + kCast steps
    compute_ranges(im, r);
  }
  const std::size_t S = im.slots.size();

  fuse_elementwise(im, r, internal);
  // Fusion rewrote the step list; intermediates folded into chains now
  // have no accesses at all and drop out of the packing below.
  compute_ranges(im, r);

  std::vector<std::int32_t> owner;
  const std::vector<std::int32_t> arena_of =
      pack_slots(im, r, internal, /*by_scaled=*/false, owner);
  for (const std::int32_t o : owner) {
    im.arena.emplace_back(
        static_cast<std::size_t>(slot_bytes(im, static_cast<std::size_t>(o))));
  }

  im.buf.resize(S);
  for (std::size_t s = 0; s < S; ++s) {
    if (internal[s] && r.first[s] < 0) {
      // Fused away entirely: no step reads or writes it anymore.
      im.buf[s] = nullptr;
      if (s < S0) im.slots[s].reset();
    } else if (internal[s]) {
      im.buf[s] = im.arena[static_cast<std::size_t>(arena_of[s])].data();
      if (s < S0) im.slots[s].reset();
    } else {
      im.buf[s] = im.slots[s]->data.raw();
      ++im.external_slots;
      im.pinned_bytes += im.slots[s]->data.size_bytes();
    }
  }
  for (const auto& a : im.arena) im.arena_bytes += a.size();

  // Health sentinel slot list: every external slot some step writes
  // (losses, predictions, `.grad` buffers, optimizer-updated parameters).
  // Internal slots are skipped — they are scratch whose final contents
  // are whatever the last aliasing writer left.
  std::vector<char> listed(S, 0);
  for (const Step& s : im.steps) {
    for_each_operand(im, s, [](std::int32_t) {}, [&](std::int32_t o) {
      const auto u = static_cast<std::size_t>(o);
      if (internal[u] || listed[u]) return;
      listed[u] = 1;
      im.health_slots.push_back(o);
    });
  }
}

/// Invoke `g` with the sfn:: functor named by a prog::Binary opcode, for
/// the broadcast binary step: map_broadcast runs the functor, the same one
/// the eager op ran.
template <typename G>
void dispatch_binary(prog::Binary b, G&& g) {
  switch (b) {
    case prog::Binary::kAdd: g(sfn::Add{}); break;
    case prog::Binary::kSub: g(sfn::Sub{}); break;
    case prog::Binary::kMul: g(sfn::Mul{}); break;
    case prog::Binary::kDiv: g(sfn::Div{}); break;
  }
}

/// Execute one step against an explicit buffer/length/broadcast-plan
/// table at element type T. Master replay passes the Impl's own tables;
/// widened replay passes the WideContext's (scaled lengths, rebuilt
/// broadcast plans, wide buffers). Reduce plans, fused chains and
/// optimizer executors are always the Impl's — widening rejects plans
/// where those would need scaling. Optimizer steps are double-only
/// (lowering pins their Step::dt to kF64); the float instantiation
/// compiles them out.
template <typename T>
void execute_typed(Program::Impl& im, const Step& s, void* const* B,
                   const int64_t* slot_len,
                   const kernels::BroadcastPlan* bplans) {
  constexpr bool kIsF64 = std::is_same_v<T, double>;
  auto rd = [&](std::int32_t sl) { return static_cast<const T*>(B[sl]); };
  auto wr = [&](std::int32_t sl) { return static_cast<T*>(B[sl]); };
  switch (s.kind) {
    case StepKind::kUnary:
      kernels::map_unary(rd(s.a), wr(s.out), s.p0,
                         static_cast<prog::Unary>(s.fn), s.scalar);
      break;
    case StepKind::kBinary:
      kernels::map_binary(rd(s.a), rd(s.b), wr(s.out), s.p0,
                          static_cast<prog::Binary>(s.fn));
      break;
    case StepKind::kBinaryBcast: {
      const kernels::BroadcastPlan& plan =
          bplans[static_cast<std::size_t>(s.plan)];
      const T* a = rd(s.a);
      const T* b = rd(s.b);
      T* o = wr(s.out);
      dispatch_binary(static_cast<prog::Binary>(s.fn), [&](auto f) {
        kernels::map_broadcast(plan, a, b, o, f);
      });
      break;
    }
    case StepKind::kFused: {
      // One pass over the buffer, block by block: the chain value lives
      // in a stack block while the composed ops run over it, so the
      // folded intermediates never touch memory. Element i still sees
      // the identical op sequence the individual steps applied, through
      // the same unary_block/binary_block entries.
      const auto& ops = im.fchains[static_cast<std::size_t>(s.plan)];
      const T* src = rd(s.a);
      T* outp = wr(s.out);
      const FusedOp* fo = ops.data();
      const std::size_t n_ops = ops.size();
      kernels::parallel_for(
          s.p0, static_cast<int64_t>(n_ops) + 1, [&](int64_t b0, int64_t e0) {
            constexpr int64_t kBlock = 128;
            T acc[kBlock];
            for (int64_t base = b0; base < e0; base += kBlock) {
              const int64_t len = std::min(kBlock, e0 - base);
              for (int64_t t = 0; t < len; ++t) acc[t] = src[base + t];
              for (std::size_t k = 0; k < n_ops; ++k) {
                const FusedOp& op = fo[k];
                switch (op.form) {
                  case FusedOp::kUnaryForm:
                    kernels::unary_block(acc, acc, len,
                                         static_cast<prog::Unary>(op.fn),
                                         op.scalar);
                    break;
                  case FusedOp::kBinChainLeft:
                    kernels::binary_block(acc, rd(op.other) + base, acc, len,
                                          static_cast<prog::Binary>(op.fn));
                    break;
                  case FusedOp::kBinChainRight:
                    kernels::binary_block(rd(op.other) + base, acc, acc, len,
                                          static_cast<prog::Binary>(op.fn));
                    break;
                  case FusedOp::kBinChainBoth:
                    kernels::binary_block(acc, acc, acc, len,
                                          static_cast<prog::Binary>(op.fn));
                    break;
                }
              }
              for (int64_t t = 0; t < len; ++t) outp[base + t] = acc[t];
            }
          });
      break;
    }
    case StepKind::kAdamTick: {
      if constexpr (kIsF64) {
        prog::AdamPlanState& st =
            *im.optims[static_cast<std::size_t>(s.plan)].state;
        ++*st.t;
        st.bc1 = 1.0 - std::pow(st.beta1, static_cast<double>(*st.t));
        st.bc2 = 1.0 - std::pow(st.beta2, static_cast<double>(*st.t));
      }
      break;
    }
    case StepKind::kAdamParam: {
      if constexpr (kIsF64) {
        const auto& ap = im.optims[static_cast<std::size_t>(s.plan)];
        const prog::AdamPlanState& st = *ap.state;
        const real* g = rd(s.a);
        real* p = wr(s.out);
        const double lr = *st.lr;
        for (int64_t j = 0; j < ap.n; ++j) {
          sfn::adam_update(p[j], g[j], ap.m[j], ap.v[j], lr, st.beta1,
                           st.beta2, st.bc1, st.bc2, st.eps, st.weight_decay,
                           st.decoupled);
        }
      }
      break;
    }
    case StepKind::kLambParam: {
      if constexpr (kIsF64) {
        auto& lp = im.optims[static_cast<std::size_t>(s.plan)];
        const prog::AdamPlanState& st = *lp.state;
        sfn::lamb_param_update(wr(s.out), rd(s.a), lp.m, lp.v, lp.n, lp.dir,
                               *st.lr, st.beta1, st.beta2, st.bc1, st.bc2,
                               st.eps, st.weight_decay);
      }
      break;
    }
    case StepKind::kBcastCopy:
      kernels::broadcast_copy(bplans[static_cast<std::size_t>(s.plan)],
                              rd(s.a), wr(s.out));
      break;
    case StepKind::kReduce:
      kernels::reduce_broadcast(im.rplans[static_cast<std::size_t>(s.plan)],
                                rd(s.a), wr(s.out));
      break;
    case StepKind::kSumAll:
      // reduce_sum accumulates in double at either width; the scalar
      // result rounds to the out slot's width here.
      wr(s.out)[0] = static_cast<T>(kernels::reduce_sum(rd(s.a), s.p0));
      break;
    case StepKind::kSumAxis: {
      T* o = wr(s.out);
      std::fill(o, o + slot_len[static_cast<std::size_t>(s.out)], T{0});
      kernels::sum_axis(rd(s.a), o, s.p0, s.p1, s.p2);
      break;
    }
    case StepKind::kMatmul:
      kernels::matmul(rd(s.a), rd(s.b), s.c >= 0 ? rd(s.c) : nullptr,
                      wr(s.out), s.p0, s.p1, s.p2,
                      static_cast<kernels::MatmulForm>(s.fn));
      break;
    case StepKind::kCopy:
      std::memcpy(wr(s.out), rd(s.a),
                  static_cast<std::size_t>(s.p0) * sizeof(T));
      break;
    case StepKind::kSlicePack: {
      const T* p = rd(s.a);
      T* po = wr(s.out);
      const int64_t len = s.p1, inner = s.p2, n_axis = s.p3, start = s.p4;
      kernels::parallel_for(s.p0, len * inner, [&](int64_t b0, int64_t e0) {
        for (int64_t o = b0; o < e0; ++o) {
          std::memcpy(po + o * len * inner, p + (o * n_axis + start) * inner,
                      static_cast<std::size_t>(len * inner) * sizeof(T));
        }
      });
      break;
    }
    case StepKind::kSliceScatter: {
      // The eager backward wrote its windows into a freshly zeroed
      // payload; with buffer reuse the zero background must be restored.
      const T* pg = rd(s.a);
      T* pp = wr(s.out);
      std::fill(pp, pp + slot_len[static_cast<std::size_t>(s.out)], T{0});
      const int64_t len = s.p1, inner = s.p2, n_axis = s.p3, start = s.p4;
      for (int64_t o = 0; o < s.p0; ++o) {
        std::memcpy(pp + (o * n_axis + start) * inner, pg + o * len * inner,
                    static_cast<std::size_t>(len * inner) * sizeof(T));
      }
      break;
    }
    case StepKind::kConcatPart: {
      const T* pp = rd(s.a);
      T* po = wr(s.out);
      const int64_t total = s.p1, offset = s.p2, len = s.p3, inner = s.p4;
      for (int64_t o = 0; o < s.p0; ++o) {
        std::memcpy(po + (o * total + offset) * inner, pp + o * len * inner,
                    static_cast<std::size_t>(len * inner) * sizeof(T));
      }
      break;
    }
    case StepKind::kConv1dFwd:
      kernels::conv1d_forward(rd(s.a), rd(s.b), s.c >= 0 ? rd(s.c) : nullptr,
                              wr(s.out), s.p0, s.p1, s.p2, s.p3, s.p4, s.p5);
      break;
    case StepKind::kConv1dGradIn: {
      T* o = wr(s.out);
      std::fill(o, o + slot_len[static_cast<std::size_t>(s.out)], T{0});
      kernels::conv1d_grad_input(rd(s.a), rd(s.b), o, s.p0, s.p1, s.p2, s.p3,
                                 s.p4, s.p5);
      break;
    }
    case StepKind::kConv1dGradW: {
      T* o = wr(s.out);
      std::fill(o, o + slot_len[static_cast<std::size_t>(s.out)], T{0});
      kernels::conv1d_grad_weight(rd(s.a), rd(s.b), o, s.p0, s.p1, s.p2, s.p3,
                                  s.p4, s.p5);
      break;
    }
    case StepKind::kConv1dGradB: {
      T* o = wr(s.out);
      std::fill(o, o + slot_len[static_cast<std::size_t>(s.out)], T{0});
      kernels::conv1d_grad_bias(rd(s.a), o, s.p0, s.p1, s.p2);
      break;
    }
    case StepKind::kCast:
      // Bridges the two widths itself (T plays no part): fn 1 narrows
      // f64 -> f32, fn 0 widens.
      if (s.fn == 1) {
        kernels::cast_buffer(static_cast<const double*>(B[s.a]),
                             static_cast<float*>(B[s.out]), s.p0);
      } else {
        kernels::cast_buffer(static_cast<const float*>(B[s.a]),
                             static_cast<double*>(B[s.out]), s.p0);
      }
      break;
    case StepKind::kStepKindCount_:
      break;  // sentinel: never lowered
  }
}

/// Run one step at its lowering-assigned Step::dt.
void execute(Program::Impl& im, const Step& s, void* const* B,
             const int64_t* slot_len, const kernels::BroadcastPlan* bplans) {
  if (s.dt == DType::kF32) {
    execute_typed<float>(im, s, B, slot_len, bplans);
  } else {
    execute_typed<double>(im, s, B, slot_len, bplans);
  }
}

/// Record-time shape of a slot with the leading dimension scaled by `f`
/// when the slot carries the batch.
Shape wide_shape(const Program::Impl& im, std::int32_t slot, int64_t f) {
  Shape sh = im.slot_shape[static_cast<std::size_t>(slot)];
  if (im.slot_scaled[static_cast<std::size_t>(slot)] && !sh.empty()) {
    sh[0] *= f;
  }
  return sh;
}

/// Shape-level broadcast mirroring BroadcastPlan's trailing alignment.
/// Returns false when `a` and `b` do not broadcast; otherwise `out` is
/// the broadcast result.
bool bcast_result(const Shape& a, const Shape& b, Shape& out) {
  const std::size_t nd = std::max(a.size(), b.size());
  out.assign(nd, 1);
  for (std::size_t d = 0; d < nd; ++d) {
    const int64_t av = d >= nd - a.size() ? a[d - (nd - a.size())] : 1;
    const int64_t bv = d >= nd - b.size() ? b[d - (nd - b.size())] : 1;
    if (av != bv && av != 1 && bv != 1) return false;
    out[d] = std::max(av, bv);
  }
  return true;
}

/// Point a context's buffer table into the wide store. Slots without a
/// store buffer keep the master one: unscaled externals alias the live
/// master payloads (parameters are read in place, so retraining between
/// widened replays needs no re-widen), fused-away slots stay null.
void bind_wide_buffers(Program::Impl& im, Program::Impl::WideContext& ctx) {
  for (std::size_t s = 0; s < ctx.buf.size(); ++s) {
    const std::int32_t k = im.wide_buffer_of[s];
    ctx.buf[s] =
        k >= 0 ? im.wide_store[static_cast<std::size_t>(k)].data() : im.buf[s];
  }
}

/// Find or build the replay context for widening factor `f` (> 1): step
/// list with scaled geometry, broadcast plans rebuilt from the widened
/// shapes, and a buffer table into the one wide store. A factor larger
/// than any before regrows the store and rebinds the cached contexts.
Program::Impl::WideContext* get_wide_ctx(Program::Impl& im, int64_t f) {
  for (std::size_t i = 0; i < im.wide_ctxs.size(); ++i) {
    if (im.wide_ctxs[i]->factor == f) {
      // LRU: most recently used context moves to the back, so steady
      // traffic on a few factors never rebuilds.
      if (i + 1 != im.wide_ctxs.size()) {
        auto c = std::move(im.wide_ctxs[i]);
        im.wide_ctxs.erase(im.wide_ctxs.begin() + static_cast<std::ptrdiff_t>(i));
        im.wide_ctxs.push_back(std::move(c));
      }
      return im.wide_ctxs.back().get();
    }
  }
  if (f > im.wide_cap) {
    for (std::size_t k = 0; k < im.wide_owner.size(); ++k) {
      const auto o = static_cast<std::size_t>(im.wide_owner[k]);
      const int64_t bytes = slot_bytes(im, o) * (im.slot_scaled[o] ? f : 1);
      im.wide_store[k].assign(static_cast<std::size_t>(bytes), std::byte{0});
    }
    im.wide_cap = f;
    for (auto& c : im.wide_ctxs) bind_wide_buffers(im, *c);
  }
  // Bounded: a server replaying many distinct batch sizes would otherwise
  // accumulate one context per distinct factor forever. Contexts are
  // cheap to rebuild (no capture, just step/plan scaling), so evicting
  // the least recently used one is safe. 32 covers an iteration-level
  // batching server whose per-tick group sizes wander (base-1 plans see
  // one factor per distinct batch size).
  constexpr std::size_t kMaxWideCtxs = 32;
  if (im.wide_ctxs.size() >= kMaxWideCtxs) {
    im.wide_ctxs.erase(im.wide_ctxs.begin());
  }
  auto ctx = std::make_unique<Program::Impl::WideContext>();
  ctx->factor = f;
  const std::size_t S = im.slots.size();
  ctx->slot_len = im.slot_len;
  for (std::size_t s = 0; s < S; ++s) {
    if (im.slot_scaled[s]) ctx->slot_len[s] *= f;
  }
  ctx->buf.assign(S, nullptr);
  bind_wide_buffers(im, *ctx);
  // Geometry scales as widen() decided per step; broadcast plans are
  // rebuilt from the widened shapes (a broadcast copy's plan is
  // (out, a, a)).
  ctx->steps = im.steps;
  ctx->bplans = im.bplans;
  for (std::size_t i = 0; i < ctx->steps.size(); ++i) {
    Step& s = ctx->steps[i];
    if (im.p0_scaled[i]) s.p0 *= f;
    if (kind_info(s.kind).widen == KindInfo::kBcast) {
      const Shape a_w = wide_shape(im, s.a, f);
      ctx->bplans[static_cast<std::size_t>(s.plan)] = kernels::BroadcastPlan(
          wide_shape(im, s.out, f), a_w,
          s.b >= 0 ? wide_shape(im, s.b, f) : a_w);
    }
  }
  im.wide_ctxs.push_back(std::move(ctx));
  return im.wide_ctxs.back().get();
}

}  // namespace

Program::Program() : impl_(std::make_unique<Impl>()) {}
Program::~Program() = default;
Program::Program(Program&&) noexcept = default;
Program& Program::operator=(Program&&) noexcept = default;

namespace {

template <typename T>
bool span_healthy(const T* p, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(p[i]);
    if (!std::isfinite(v) || std::abs(v) > kHealthDivergenceBound) {
      return false;
    }
  }
  return true;
}

/// Post-replay sentinel scan over the plan's written external slots.
/// `buf`/`slot_len` parameterize over plain and widened replay contexts.
void run_health_check(Program::Impl& im, void* const* buf,
                      const int64_t* slot_len) {
  if (!health_checks_enabled()) return;
  ++im.health_checks;
  g_health_checks.fetch_add(1, std::memory_order_relaxed);
  bool healthy = true;
  for (std::int32_t s : im.health_slots) {
    const auto idx = static_cast<std::size_t>(s);
    const void* p = buf[idx];
    if (p == nullptr) continue;
    const int64_t n = slot_len[idx];
    const bool ok = im.slot_dt[idx] == DType::kF32
                        ? span_healthy(static_cast<const float*>(p), n)
                        : span_healthy(static_cast<const double*>(p), n);
    if (!ok) {
      healthy = false;
      break;
    }
  }
  im.last_healthy = healthy;
  if (!healthy) {
    ++im.health_trips;
    g_health_trips.fetch_add(1, std::memory_order_relaxed);
  }
}

/// The one step loop behind Program::replay and replay_widened: `steps`,
/// `B`, `slot_len` and `bplans` are the master tables or a wide
/// context's. Steps run in recorded order. With MF_PROGRAM_PROFILE=1 each
/// is timed into one band per kind-table row (kUnary split by fn,
/// prog::Unary order), which also counts the elements its steps write:
/// the out slot's length at the replayed width. Per-thread totals go to
/// stderr every 24 replays, exact and widened alike.
void run_steps(Program::Impl& im, const std::vector<Step>& steps,
               void* const* B, const int64_t* slot_len,
               const kernels::BroadcastPlan* bplans) {
  static const bool prof = [] {
    const char* e = std::getenv("MF_PROGRAM_PROFILE");
    return e && e[0] == '1';
  }();
  if (prof) {
    // Per-thread accumulators: inference replays programs from several
    // OpenMP threads at once, and a shared tally would be a data race.
    static constexpr const char* kUnaryBands[] = {
        "unary.add_scalar", "unary.mul_scalar", "unary.pow_scalar",
        "unary.neg",        "unary.exp",        "unary.log",
        "unary.sqrt",       "unary.tanh",       "unary.abs",
        "unary.sign",       "unary.gelu",       "unary.gelu_d1",
        "unary.gelu_d2",    "unary.gelu_d3"};
    static_assert(std::size(kUnaryBands) == kernels::kUnaryOpCount);
    constexpr std::size_t kBands = std::size(kKinds) + std::size(kUnaryBands);
    static thread_local double acc[kBands] = {0};
    static thread_local std::uint64_t cnt[kBands] = {0};
    static thread_local std::uint64_t elems[kBands] = {0};
    static thread_local std::uint64_t calls = 0;
    for (const Step& s : steps) {
      auto k = static_cast<std::size_t>(s.kind);
      if (s.kind == StepKind::kUnary) k = std::size(kKinds) + s.fn;
      const double t0 = now_ms();
      execute(im, s, B, slot_len, bplans);
      acc[k] += now_ms() - t0;
      ++cnt[k];
      if (s.out >= 0) {
        elems[k] += static_cast<std::uint64_t>(
            slot_len[static_cast<std::size_t>(s.out)]);
      }
    }
    if (++calls % 24 == 0) {
      std::fprintf(stderr, "PROGPROF after %llu replays:\n",
                   static_cast<unsigned long long>(calls));
      for (std::size_t k = 0; k < kBands; ++k) {
        if (!cnt[k]) continue;
        const char* band = k < std::size(kKinds)
                               ? kKinds[k].name
                               : kUnaryBands[k - std::size(kKinds)];
        std::fprintf(stderr,
                     "  %-16s %8.3f ms total, %8llu steps, %10llu elems\n",
                     band, acc[k], static_cast<unsigned long long>(cnt[k]),
                     static_cast<unsigned long long>(elems[k]));
      }
    }
  } else {
    for (const Step& s : steps) execute(im, s, B, slot_len, bplans);
  }
}

}  // namespace

void Program::capture(const std::function<void()>& fn) {
  if (prog::detail::g_recorder) {
    throw std::logic_error("Program::capture: nested capture on one thread");
  }
  reset();
  Impl& im = *impl_;
  const double t0 = now_ms();
  // RAII backstop: the thread-local recorder must be cleared on *every*
  // exit path — a stuck recorder would silently record unrelated later
  // kernels into this plan and permanently block further captures on the
  // thread. The explicit clears below stay (lower() must run with
  // recording off); the guard covers anything they miss.
  struct RecorderGuard {
    ~RecorderGuard() { prog::detail::g_recorder = nullptr; }
  } recorder_guard;
  prog::detail::g_recorder = &im;
  try {
    fn();
  } catch (...) {
    // Poison the in-flight capture exactly like an in-band uncapturable
    // op, then drop every recorded slot, so a half-recorded plan pins
    // neither payloads nor the autodiff graph.
    prog::on_uncapturable();
    prog::detail::g_recorder = nullptr;
    reset();
    throw;
  }
  prog::detail::g_recorder = nullptr;
  if (im.poisoned) {
    // The body ran something no plan step can represent (see
    // prog::on_uncapturable). Its eager effects already happened,
    // correctly — only the plan is discarded, so captured() stays false
    // and the caller deterministically keeps eager execution instead of
    // replaying a half-captured step.
    reset();
    return;
  }
  lower(im);
  im.capture_ms = now_ms() - t0;
  ++im.captures;
  im.ready = true;
}

bool Program::captured() const { return impl_->ready; }

bool Program::last_replay_healthy() const { return impl_->last_healthy; }

void Program::replay() {
  Impl& im = *impl_;
  if (!im.ready) throw std::logic_error("Program::replay before capture");
  run_steps(im, im.steps, im.buf.data(), im.slot_len.data(), im.bplans.data());
  ++im.replays;
  run_health_check(im, im.buf.data(), im.slot_len.data());
}

bool Program::widen(const std::vector<Tensor>& batch_io) {
  Impl& im = *impl_;
  im.wide_ready = false;
  im.base_b = 0;
  im.declared_slots.clear();
  im.wide_buffer_of.clear();
  im.wide_owner.clear();
  im.wide_store.clear();
  im.wide_cap = 0;
  im.wide_ctxs.clear();
  im.slot_scaled.assign(im.slots.size(), 0);
  im.p0_scaled.clear();
  if (!im.ready || batch_io.empty()) {
    return false;
  }
  const std::size_t S = im.slots.size();
  int64_t base = 0;
  for (const Tensor& t : batch_io) {
    if (!t.defined() || t.shape().empty()) return false;
    const int64_t b0 = t.shape()[0];
    if (b0 <= 0 || (base != 0 && b0 != base)) return false;
    base = b0;
    std::int32_t slot = -1;
    for (std::size_t s = 0; s < S; ++s) {
      if (im.slots[s] && im.slots[s].get() == t.impl_ptr()) {
        slot = static_cast<std::int32_t>(s);
        break;
      }
    }
    if (slot < 0) return false;  // not an external slot of this plan
    im.slot_scaled[static_cast<std::size_t>(slot)] = 1;
    im.declared_slots.emplace(t.impl_ptr(), slot);
  }

  // Fail-closed propagation of "carries the batch in dim 0" through the
  // plan, in recorded (dataflow) order. Externals are pre-assigned
  // (scaled iff declared); each step derives its output's scaledness
  // from its operands' or rejects the plan. Multi-writer outputs
  // (concat parts) and externally pinned outputs must agree with every
  // assignment — a scaled result landing in an undeclared external
  // buffer would silently overrun it.
  auto scaled = [&](std::int32_t sl) {
    return sl >= 0 && im.slot_scaled[static_cast<std::size_t>(sl)] != 0;
  };
  std::vector<char> assigned(S, 0);
  for (std::size_t s = 0; s < S; ++s) assigned[s] = im.slots[s] != nullptr;
  auto define_out = [&](std::int32_t sl, bool want) -> bool {
    if (sl < 0) return false;
    const auto u = static_cast<std::size_t>(sl);
    if (assigned[u]) return (im.slot_scaled[u] != 0) == want;
    if (want && im.slot_shape[u].empty()) return false;  // no dim to scale
    assigned[u] = 1;
    im.slot_scaled[u] = want ? 1 : 0;
    return true;
  };
  bool ok = true;
  Shape trial;
  for (const Step& s : im.steps) {
    if (!ok) break;
    bool p0_scales = false;
    switch (kind_info(s.kind).widen) {
      case KindInfo::kElementwise: {
        // Same-numel map: mixed scaledness would diverge lengths. p0 is
        // the element count.
        const bool want = scaled(s.a);
        for_each_operand(
            im, s, [&](std::int32_t sl) { ok = ok && scaled(sl) == want; },
            [](std::int32_t) {});
        ok = ok && define_out(s.out, want);
        p0_scales = want;
        break;
      }
      case KindInfo::kBcast: {
        // A broadcast copy has no b: its input must broadcast to out.
        const bool want = scaled(s.a) || scaled(s.b);
        ok = define_out(s.out, want);
        if (ok && want) {
          // Trial-widen at factor 2: validity is independent of the
          // factor, so one shape check covers every replay width.
          const Shape out_w = wide_shape(im, s.out, 2);
          ok = bcast_result(wide_shape(im, s.a, 2),
                            s.b >= 0 ? wide_shape(im, s.b, 2) : out_w,
                            trial) &&
               trial == out_w;
        }
        break;
      }
      case KindInfo::kFold:
        // Would fold batch instances into one value.
        ok = !scaled(s.a) && define_out(s.out, false);
        break;
      case KindInfo::kOuter:
        // p0 is the product of the dims before the worked axis (p5), so
        // it scales with the batch unless the axis is the batch itself.
        p0_scales = scaled(s.a);
        ok = (!p0_scales || s.p5 > 0) && define_out(s.out, p0_scales);
        break;
      case KindInfo::kRows:
        // Batch rides the row dimension of `a`; a batch-carrying rhs or
        // bias would change the contraction itself, and so would a batch
        // in a TN matmul's `a`, whose rows it contracts over.
        p0_scales = scaled(s.a);
        ok = !scaled(s.b) && !scaled(s.c) &&
             !(p0_scales && s.kind == StepKind::kMatmul &&
               s.fn == static_cast<std::uint8_t>(kernels::MatmulForm::kTN)) &&
             define_out(s.out, p0_scales);
        break;
      case KindInfo::kNever:
        // Training steps: gradient reductions and optimizer state are
        // sized for the capture batch; widening is inference-only.
        ok = false;
        break;
    }
    im.p0_scaled.push_back(p0_scales);
  }
  if (!ok) {
    im.slot_scaled.assign(S, 0);
    im.p0_scaled.clear();
    im.declared_slots.clear();
    return false;
  }
  // One packing serves every factor. Internal slots (lowering dropped
  // their tensors) share buffers by liveness; the declared batch io gets
  // buffers of its own, which callers fill and read around each replay.
  Ranges r;
  compute_ranges(im, r);
  std::vector<char> internal(S);
  for (std::size_t s = 0; s < S; ++s) internal[s] = im.slots[s] == nullptr;
  im.wide_buffer_of =
      pack_slots(im, r, internal, /*by_scaled=*/true, im.wide_owner);
  for (const auto& declared : im.declared_slots) {
    im.wide_buffer_of[static_cast<std::size_t>(declared.second)] =
        static_cast<std::int32_t>(im.wide_owner.size());
    im.wide_owner.push_back(declared.second);
  }
  im.wide_store.resize(im.wide_owner.size());
  im.base_b = base;
  im.wide_ready = true;
  return true;
}

bool Program::widened() const { return impl_->wide_ready; }

real* Program::widened_buffer(const Tensor& t, int64_t b) {
  Impl& im = *impl_;
  if (!im.wide_ready) {
    throw std::logic_error("Program::widened_buffer before widen()");
  }
  auto it = im.declared_slots.find(t.impl_ptr());
  if (it == im.declared_slots.end()) {
    throw std::invalid_argument(
        "Program::widened_buffer: tensor was not declared to widen()");
  }
  if (b <= 0 || b % im.base_b != 0) {
    throw std::invalid_argument(
        "Program::widened_buffer: b must be a positive multiple of the "
        "base batch");
  }
  const int64_t f = b / im.base_b;
  const auto slot = static_cast<std::size_t>(it->second);
  // Declared slots are externals, and externals always stay f64.
  if (f == 1) return static_cast<real*>(im.buf[slot]);
  return static_cast<real*>(get_wide_ctx(im, f)->buf[slot]);
}

void Program::replay_widened(int64_t b) {
  Impl& im = *impl_;
  if (!im.wide_ready) {
    throw std::logic_error("Program::replay_widened before widen()");
  }
  if (b <= 0 || b % im.base_b != 0) {
    throw std::invalid_argument(
        "Program::replay_widened: b must be a positive multiple of the "
        "base batch");
  }
  const int64_t f = b / im.base_b;
  if (f == 1) {
    // Base width: the declared tensors' own payloads are the io buffers.
    replay();
    im.max_widen_batch = std::max(im.max_widen_batch, b);
    return;
  }
  Impl::WideContext& ctx = *get_wide_ctx(im, f);
  run_steps(im, ctx.steps, ctx.buf.data(), ctx.slot_len.data(),
            ctx.bplans.data());
  ++im.replays;
  ++im.widened_replays;
  im.max_widen_batch = std::max(im.max_widen_batch, b);
  run_health_check(im, ctx.buf.data(), ctx.slot_len.data());
}

std::size_t Program::count_steps(std::string_view kind) const {
  return static_cast<std::size_t>(std::count_if(
      impl_->steps.begin(), impl_->steps.end(),
      [&](const Step& s) { return kind == kind_info(s.kind).name; }));
}

void Program::reset() { impl_->clear_plan(); }

void Program::set_compute_dtype(DType dt) { impl_->policy_dt = dt; }

DType Program::compute_dtype() const { return impl_->policy_dt; }

Program::Stats Program::stats() const {
  const Impl& im = *impl_;
  Stats st;
  st.steps = im.steps.size();
  st.slots = im.slots.size();
  st.external_slots = im.external_slots;
  st.arena_bytes = im.arena_bytes;
  st.pinned_bytes = im.pinned_bytes;
  st.fused_steps = im.fused_steps;
  st.fused_ops = im.fused_ops;
  st.cast_steps = im.cast_steps;
  st.optim_steps = static_cast<std::size_t>(
      std::count_if(im.steps.begin(), im.steps.end(), [](const Step& s) {
        return kind_info(s.kind).reads_out;  // the parameter updates
      }));
  st.wide_instances = im.wide_ctxs.size();
  st.max_widen_batch = im.max_widen_batch;
  st.capture_ms = im.capture_ms;
  st.health_checks = im.health_checks;
  st.health_trips = im.health_trips;
  st.captures = im.captures;
  st.replays = im.replays;
  st.widened_replays = im.widened_replays;
  return st;
}

}  // namespace mf::ad
