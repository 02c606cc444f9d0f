#include "ad/program.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <numeric>
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

using prog::kStepKindCount;
using prog::Step;
using prog::StepKind;

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
    kPlan,         // trial-shape check; the broadcast or reduce plan is
                   // rebuilt
    kOuter,        // refuses axis 0 (p5); p0 scales with a
    kRows,         // rhs and bias unscaled; p0 scales with a (a TN
                   // matmul contracts over a's rows: refuses any)
    kNever,        // sized for the capture batch: refuses widening
  };

  StepKind kind;
  const char* name;   // MF_PROGRAM_PROFILE band label
  Dtype dtype;
  Widen widen;
  bool fusable;       // may join a fused elementwise region
  bool numbered;      // pure: value numbering may drop a repeat of it
  bool reads_out;     // also reads `out` (optimizer parameter updates)
};

using K = KindInfo;
constexpr KindInfo kKinds[] = {
    {StepKind::kUnary, "unary", K::kCompute, K::kElementwise, true, true,
     false},
    {StepKind::kBinary, "binary", K::kCompute, K::kElementwise, true, true,
     false},
    {StepKind::kBinaryBcast, "binary_bcast", K::kCompute, K::kPlan, false,
     false, false},
    {StepKind::kBcastCopy, "bcast_copy", K::kOfOut, K::kPlan, false, false,
     false},
    {StepKind::kReduce, "reduce", K::kOfIn, K::kPlan, false, false, false},
    {StepKind::kMatmul, "matmul", K::kCompute, K::kRows, false, true, false},
    {StepKind::kCopy, "copy", K::kOfOut, K::kElementwise, true, true, false},
    {StepKind::kWindow, "window", K::kOfOut, K::kOuter, false, false, false},
    {StepKind::kConv1dFwd, "conv1d_fwd", K::kCompute, K::kRows, false, true,
     false},
    {StepKind::kConv1dGradIn, "conv1d_grad_in", K::kCompute, K::kNever, false,
     false, false},
    {StepKind::kConv1dGradW, "conv1d_grad_w", K::kCompute, K::kNever, false,
     false, false},
    {StepKind::kConv1dGradB, "conv1d_grad_b", K::kCompute, K::kNever, false,
     false, false},
    {StepKind::kFused, "fused", K::kCompute, K::kElementwise, false, false,
     false},
    {StepKind::kAdamTick, "adam_tick", K::kF64, K::kNever, false, false,
     false},
    {StepKind::kAdamParam, "adam_param", K::kF64, K::kNever, false, false,
     true},
    {StepKind::kLambParam, "lamb_param", K::kF64, K::kNever, false, false,
     true},
    {StepKind::kCast, "cast", K::kCompute, K::kElementwise, false, false,
     false},
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

/// MF_PROGRAM_PROFILE's unary bands, one per kernels::UnaryOp in opcode
/// order; count_ops names unary ops by them too.
constexpr const char* kUnaryBands[] = {
    "unary.add_scalar", "unary.mul_scalar", "unary.pow_scalar",
    "unary.neg",        "unary.exp",        "unary.log",
    "unary.sqrt",       "unary.tanh",       "unary.abs",
    "unary.sign",       "unary.gelu",       "unary.gelu_d1",
    "unary.gelu_d2",    "unary.gelu_d3"};
static_assert(std::size(kUnaryBands) == kernels::kUnaryOpCount);

/// One op of a fused elementwise region: a unary, binary or copy step
/// over slots a (and b) into out, as recorded. Each operand is read from,
/// or written to, its slot's buffer, or — for a value the region keeps to
/// itself — one of the region's stack blocks (xa, xb, xo >= 0).
struct RegionOp {
  StepKind kind = StepKind::kCopy;
  std::uint8_t fn = 0;
  std::int8_t xa = -1, xb = -1, xo = -1;
  std::int32_t a = -1, b = -1, out = -1;
  real scalar = 0;
};

/// A fused elementwise region: its ops in recorded order, the slots it
/// reads from outside, and its live-outs — the slots it writes, each
/// external or accessed after the region. Step::plan of a kFused step
/// indexes the Impl's table of them.
struct Region {
  std::vector<RegionOp> ops;
  std::vector<std::int32_t> ins, outs;
};

/// A region runs block by block over its elements, kRegionBlock at a time,
/// with at most kRegionBlocks values kept in stack blocks at once.
constexpr int64_t kRegionBlock = 128;
constexpr int kRegionBlocks = 16;

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
  // Fused elementwise regions; Step::plan of a kFused step indexes this.
  std::vector<Region> regions;
  // In-plan optimizer steps (tick, Adam and LAMB parameter updates);
  // Step::plan indexes this. Raw pointers into the optimizer's live state
  // (moments, lr, step counter) — the optimizer must outlive the plan.
  std::vector<prog::OptimArgs> optims;
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
  // broadcast and reduce plans rebuilt at the widened shapes, the scaled
  // slot lengths, and a buffer table into wide_store (a tile points the
  // declared io slots at its own rows).
  struct WideContext {
    int64_t factor = 1;
    std::vector<Step> steps;
    std::vector<kernels::BroadcastPlan> bplans;
    std::vector<kernels::ReducePlan> rplans;
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
  // at a factor is the buffer's. The packed internals are sized for
  // tile_cap factors, the largest tile replayed so far; the declared io
  // buffers (the only external owners) for io_cap, the largest factor.
  std::vector<std::int32_t> wide_buffer_of;
  std::vector<std::int32_t> wide_owner;
  std::vector<std::vector<std::byte>> wide_store;
  int64_t tile_cap = 0, io_cap = 0;
  // Batch-scaled internal store bytes per factor: what sizes a tile.
  int64_t tile_unit_bytes = 0;
  std::vector<std::unique_ptr<WideContext>> wide_ctxs;
  int64_t max_widen_batch = 0, tile_batch = 0;
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
    regions.clear();
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
    tile_cap = io_cap = tile_unit_bytes = 0;
    wide_ctxs.clear();
    max_widen_batch = tile_batch = 0;
    ready = false;
    external_slots = arena_bytes = pinned_bytes = 0;
    fused_steps = fused_ops = cast_steps = 0;
  }
};

namespace prog {
namespace detail {
thread_local Program::Impl* g_recorder = nullptr;
}  // namespace detail

void on_uncapturable() {
  if (Program::Impl* im = detail::g_recorder) im->poisoned = true;
}

}  // namespace prog

namespace {

/// The one operand walk of the value numbering, liveness, health and
/// widening passes: `read(slot)` for every slot the step reads — a, b, c,
/// and `out` for the kinds whose row says they read it; a fused region's
/// outside inputs — then `write(slot)` for every slot it writes: out, or a
/// region's live-outs. Absent operands are skipped.
template <typename R, typename W>
void for_each_operand(const Program::Impl& im, const Step& s, R&& read,
                      W&& write) {
  if (s.kind == StepKind::kFused) {
    const Region& rg = im.regions[static_cast<std::size_t>(s.plan)];
    for (const std::int32_t sl : rg.ins) read(sl);
    for (const std::int32_t sl : rg.outs) write(sl);
    return;
  }
  for (const std::int32_t sl : {s.a, s.b, s.c}) {
    if (sl >= 0) read(sl);
  }
  if (s.out < 0) return;
  if (kind_info(s.kind).reads_out) read(s.out);
  write(s.out);
}

/// Per-slot live ranges over a step list. def = first write, first/last =
/// first/last access of any kind. The values a fused region keeps to
/// itself are not referenced at all.
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

/// Mixed-precision lowering pass (compute dtype kF32 only). Every step
/// gets an execution dtype — compute steps float, in-plan optimizer steps
/// double (the double master weights / double moments of the autocast
/// pattern), copy-like steps the dtype of their output buffer (a full- or
/// partial-copy must write its destination's width directly: a concat
/// part's window written through an out-shadow would clobber the other
/// parts, and an f64->f64 copy must not round through f32), reductions
/// the dtype of their input (their kernels accumulate in double at either
/// width).
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

/// The value a pure step computes: kind, opcode, execution dtype, scalar
/// (by its bits: add_scalar(-0) and add_scalar(+0) differ at -0),
/// geometry, and each operand slot at its version — the number of writes
/// the slot has seen, an optimizer's in-place update included, so a slot
/// read across a write is a new operand.
struct ValueKey {
  StepKind kind;
  std::uint8_t fn;
  DType dt;
  std::uint64_t scalar;
  std::array<int64_t, 6> p;
  std::array<std::int32_t, 3> slot;
  std::array<std::uint32_t, 3> version;
  bool operator==(const ValueKey&) const = default;
};

struct ValueKeyHash {
  std::size_t operator()(const ValueKey& k) const {
    std::uint64_t h = static_cast<std::uint64_t>(k.kind) << 16 |
                      static_cast<std::uint64_t>(k.fn) << 8 |
                      static_cast<std::uint64_t>(k.dt);
    auto mix = [&h](std::uint64_t v) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix(k.scalar);
    for (const int64_t v : k.p) mix(static_cast<std::uint64_t>(v));
    for (std::size_t i = 0; i < 3; ++i) {
      const auto slot = static_cast<std::uint32_t>(k.slot[i]);
      mix(static_cast<std::uint64_t>(slot) << 32 | k.version[i]);
    }
    return static_cast<std::size_t>(h);
  }
};

/// The values the steps so far computed, for value numbering: per value
/// key, the slot holding the value and that slot's version once written.
/// Versions count writes, so a slot written again stops holding a value.
class ValueTable {
 public:
  explicit ValueTable(std::size_t slots) : version_(slots, 0) {}

  /// The slot still holding the value `s` computes, or -1.
  std::int32_t holder(const Step& s) const {
    const auto it = held_.find(key(s));
    if (it == held_.end()) return -1;
    const auto [slot, at] = it->second;
    return version_[static_cast<std::size_t>(slot)] == at ? slot : -1;
  }
  /// `s`'s output holds its value once `s` writes it.
  void hold(const Step& s) {
    held_[key(s)] = {s.out, version_[static_cast<std::size_t>(s.out)] + 1};
  }
  /// A step wrote `slot`.
  void wrote(std::int32_t slot) { ++version_[static_cast<std::size_t>(slot)]; }

 private:
  ValueKey key(const Step& s) const {
    auto ver = [&](std::int32_t sl) {
      return sl >= 0 ? version_[static_cast<std::size_t>(sl)] : 0u;
    };
    return {s.kind,
            s.fn,
            s.dt,
            std::bit_cast<std::uint64_t>(s.scalar),
            {s.p0, s.p1, s.p2, s.p3, s.p4, s.p5},
            {s.a, s.b, s.c},
            {ver(s.a), ver(s.b), ver(s.c)}};
  }

  std::vector<std::uint32_t> version_;
  std::unordered_map<ValueKey, std::pair<std::int32_t, std::uint32_t>,
                     ValueKeyHash>
      held_;
};

/// Per slot, how many steps write it and the last step that does.
void count_writes(const Program::Impl& im, std::vector<std::uint32_t>& writes,
                  std::vector<std::int32_t>& last_write) {
  writes.assign(im.slots.size(), 0);
  last_write.assign(im.slots.size(), -1);
  for (std::size_t i = 0; i < im.steps.size(); ++i) {
    for_each_operand(im, im.steps[i], [](std::int32_t) {}, [&](std::int32_t o) {
      ++writes[static_cast<std::size_t>(o)];
      last_write[static_cast<std::size_t>(o)] = static_cast<std::int32_t>(i);
    });
  }
}

/// True when a repeat of the value `earlier` holds, computed at step
/// `at` into `out`, may be dropped: `out` is internal, written by that
/// step alone and shaped like `earlier` (widening rebuilds broadcast and
/// reduce plans from the shapes its readers see), and `earlier` is never
/// written again, so every renamed reader sees the value it read before.
bool droppable(const Program::Impl& im, const std::vector<char>& internal,
               const std::vector<std::uint32_t>& writes,
               const std::vector<std::int32_t>& last_write, std::int32_t out,
               std::int32_t earlier, std::size_t at) {
  const auto o = static_cast<std::size_t>(out);
  const auto e = static_cast<std::size_t>(earlier);
  return internal[o] && writes[o] == 1 &&
         last_write[e] < static_cast<std::int32_t>(at) &&
         im.slot_shape[o] == im.slot_shape[e];
}

/// Value numbering: a pure step (the kind table's `numbered` rows: unary,
/// binary, copy, matmul, conv1d_fwd) whose value key matches an earlier
/// step's, while that step's output still holds the value, is dropped when
/// droppable() allows it; its readers read the earlier output instead.
/// Runs after insert_casts, so keys see every operand at its execution
/// width, and before fusion.
void number_values(Program::Impl& im, const std::vector<char>& internal) {
  const std::size_t S = im.slots.size();
  std::vector<std::uint32_t> writes;
  std::vector<std::int32_t> last_write;
  count_writes(im, writes, last_write);
  std::vector<std::int32_t> alias(S);
  std::iota(alias.begin(), alias.end(), 0);
  ValueTable values(S);
  std::vector<Step> kept;
  kept.reserve(im.steps.size());
  for (std::size_t i = 0; i < im.steps.size(); ++i) {
    Step s = im.steps[i];
    for (std::int32_t* sl : {&s.a, &s.b, &s.c}) {
      if (*sl >= 0) *sl = alias[static_cast<std::size_t>(*sl)];
    }
    if (kind_info(s.kind).numbered) {
      const std::int32_t earlier = values.holder(s);
      if (earlier >= 0 &&
          droppable(im, internal, writes, last_write, s.out, earlier, i)) {
        alias[static_cast<std::size_t>(s.out)] = earlier;
        continue;
      }
      values.hold(s);
    }
    for_each_operand(im, s, [](std::int32_t) {},
                     [&](std::int32_t o) { values.wrote(o); });
    kept.push_back(s);
  }
  im.steps = std::move(kept);
}

/// Per slot, the steps that access it, in order, each marked as reading
/// it or as overwriting all of it (a fusable step's out, a region's
/// live-out). read_next tells whether the value a slot holds after step
/// `at` is read before a step overwrites it; a partial write (a window
/// step) counts as a read.
class Accesses {
 public:
  explicit Accesses(const Program::Impl& im) : of_(im.slots.size()) {
    for (std::size_t i = 0; i < im.steps.size(); ++i) {
      const Step& s = im.steps[i];
      const bool whole =
          kind_info(s.kind).fusable || s.kind == StepKind::kFused;
      auto at = [&](std::int32_t sl) -> At& {
        auto& v = of_[static_cast<std::size_t>(sl)];
        if (v.empty() || v.back().step != static_cast<std::int32_t>(i)) {
          v.push_back({static_cast<std::int32_t>(i), false, false});
        }
        return v.back();
      };
      for_each_operand(
          im, s, [&](std::int32_t sl) { at(sl).reads = true; },
          [&](std::int32_t sl) { at(sl).overwrites = whole; });
    }
  }

  bool read_next(std::int32_t slot, std::size_t at) const {
    const auto& v = of_[static_cast<std::size_t>(slot)];
    const auto it = std::upper_bound(
        v.begin(), v.end(), static_cast<std::int32_t>(at),
        [](std::int32_t i, const At& a) { return i < a.step; });
    return it != v.end() && (it->reads || !it->overwrites);
  }

 private:
  struct At {
    std::int32_t step;
    bool reads, overwrites;
  };
  std::vector<std::vector<At>> of_;
};

/// Region fusion: each maximal run of adjacent unary, binary and copy
/// steps of one length and one execution dtype becomes one kFused step.
/// The region reads its outside inputs and writes only its live-outs,
/// the slots that are external or read after the run before anything
/// overwrites them; every other value stays in a stack block and never
/// materializes. A run ends before a step that writes a slot the run
/// already touched (or that it reads itself), so each slot has one value
/// in a region, and before the op whose value would need a stack block
/// past kRegionBlocks. A run of one step stays that step. Block by block,
/// every element goes through the op sequence the steps applied, through
/// the same kernel entries, so fused replay keeps every bit.
void fuse_regions(Program::Impl& im, const std::vector<char>& internal) {
  const std::size_t n = im.steps.size();
  const std::size_t S = im.slots.size();
  const Accesses accesses(im);
  auto joins = [&](const Step& s) {
    return kind_info(s.kind).fusable && s.out != s.a && s.out != s.b;
  };
  // The last step of the run from i: per slot, the run start that last
  // touched it.
  std::vector<std::size_t> touched(S, n);
  auto run_end = [&](std::size_t i) {
    const Step& head = im.steps[i];
    auto touch = [&](const Step& s) {
      for (const std::int32_t sl : {s.a, s.b, s.out}) {
        if (sl >= 0) touched[static_cast<std::size_t>(sl)] = i;
      }
    };
    touch(head);
    std::size_t j = i;
    while (j + 1 < n) {
      const Step& next = im.steps[j + 1];
      if (!joins(next) || next.p0 != head.p0 || next.dt != head.dt ||
          touched[static_cast<std::size_t>(next.out)] == i) {
        break;
      }
      touch(next);
      ++j;
    }
    return j;
  };
  // Build steps i..j into `rg`; returns how many steps it placed, fewer
  // than the run when the stack blocks run out. Per slot: the attempt
  // that produced it in the region (where: its block, -1 its buffer) and
  // the attempt that listed it as an input.
  std::vector<std::uint32_t> produced(S, 0), listed(S, 0);
  std::vector<std::int8_t> where(S, -1);
  std::uint32_t attempt = 0;
  auto build = [&](std::size_t i, std::size_t j, Region& rg) {
    rg = Region{};
    ++attempt;
    std::int8_t free_blocks[kRegionBlocks];
    int n_free = 0, n_blocks = 0;
    for (std::size_t k = i; k <= j; ++k) {
      const Step& s = im.steps[k];
      RegionOp op;
      op.kind = s.kind;
      op.fn = s.fn;
      op.scalar = s.scalar;
      op.a = s.a;
      op.b = s.b;
      op.out = s.out;
      auto locate = [&](std::int32_t sl) -> std::int8_t {
        if (sl < 0) return -1;
        const auto u = static_cast<std::size_t>(sl);
        if (produced[u] == attempt) return where[u];
        if (listed[u] != attempt) {
          listed[u] = attempt;
          rg.ins.push_back(sl);
        }
        return -1;
      };
      op.xa = locate(s.a);
      op.xb = locate(s.b);
      // Blocks whose value this op reads last are free for its result.
      for (const std::int32_t sl : {s.a, s.b}) {
        if (sl < 0 || (sl == s.b && s.b == s.a)) continue;
        const auto u = static_cast<std::size_t>(sl);
        if (produced[u] == attempt && where[u] >= 0 &&
            !accesses.read_next(sl, k)) {
          free_blocks[n_free++] = where[u];
        }
      }
      const auto o = static_cast<std::size_t>(s.out);
      produced[o] = attempt;
      where[o] = -1;
      if (!internal[o] || accesses.read_next(s.out, j)) {
        rg.outs.push_back(s.out);
      } else if (n_free > 0) {
        where[o] = free_blocks[--n_free];
      } else if (n_blocks < kRegionBlocks) {
        where[o] = static_cast<std::int8_t>(n_blocks++);
      } else {
        return k - i;
      }
      if (where[o] >= 0 && !accesses.read_next(s.out, k)) {
        free_blocks[n_free++] = where[o];  // nothing reads it
      }
      op.xo = where[o];
      rg.ops.push_back(op);
    }
    return j - i + 1;
  };

  std::vector<Step> out_steps;
  out_steps.reserve(n);
  for (std::size_t i = 0; i < n;) {
    const Step& head = im.steps[i];
    std::size_t j = joins(head) ? run_end(i) : i;
    Region rg;
    if (j > i) {
      for (std::size_t took; (took = build(i, j, rg)) != j - i + 1;) {
        j = i + took - 1;
      }
    }
    if (j == i) {
      out_steps.push_back(head);
      ++i;
      continue;
    }
    Step f;
    f.kind = StepKind::kFused;
    f.dt = head.dt;
    f.plan = static_cast<std::int32_t>(im.regions.size());
    f.p0 = head.p0;
    im.fused_ops += rg.ops.size();
    ++im.fused_steps;
    im.regions.push_back(std::move(rg));
    out_steps.push_back(f);
    i = j + 1;
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
    for_each_operand(im, im.steps[i], [](std::int32_t) {}, [&](std::int32_t o) {
      const auto u = static_cast<std::size_t>(o);
      if (!internal[u] || r.def[u] != static_cast<std::int32_t>(i)) return;
      auto& fl = free_by_key[key(u)];
      if (!fl.empty()) {
        buffer_of[u] = fl.back();
        fl.pop_back();
      } else {
        buffer_of[u] = static_cast<std::int32_t>(owner.size());
        owner.push_back(o);
      }
    });
    for (std::int32_t sl : released[i]) {
      free_by_key[key(static_cast<std::size_t>(sl))].push_back(
          buffer_of[static_cast<std::size_t>(sl)]);
    }
  }
  return buffer_of;
}

/// Lower the raw trace: release the recorded autodiff graph, insert the
/// f32 policy's casts, drop repeated values, fuse elementwise regions,
/// compute slot live ranges, pack internal slots onto reused arena
/// buffers, resolve every operand to a raw pointer.
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
  }
  const std::size_t S = im.slots.size();

  number_values(im, internal);
  fuse_regions(im, internal);
  // The passes rewrote the step list: the outputs of dropped repeats and
  // the values regions keep to themselves now have no accesses at all and
  // drop out of the packing below.
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
      // Dropped or fused away: no step reads or writes it anymore.
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

/// Invoke `g` with the sfn:: functor named by a binary opcode, for the
/// broadcast binary step: map_broadcast runs the functor.
template <typename G>
void dispatch_binary(kernels::BinaryOp b, G&& g) {
  switch (b) {
    case kernels::BinaryOp::kAdd: g(sfn::Add{}); break;
    case kernels::BinaryOp::kSub: g(sfn::Sub{}); break;
    case kernels::BinaryOp::kMul: g(sfn::Mul{}); break;
    case kernels::BinaryOp::kDiv: g(sfn::Div{}); break;
  }
}

/// What a step's indices resolve against: buffers and lengths by slot;
/// broadcast plans, reduce plans, fused regions and optimizer payloads by
/// Step::plan. Master replay points it at the Impl's own tables; widened
/// replay at the WideContext's buffers, scaled lengths and rebuilt
/// broadcast and reduce plans (its fused regions and optimizer payloads
/// stay the Impl's — widening rejects plans where those would need
/// scaling); prog::run at one step's own operands.
struct StepTables {
  void* const* buf;
  const int64_t* slot_len;
  const kernels::BroadcastPlan* bplans;
  const kernels::ReducePlan* rplans;
  const Region* regions;
  const prog::OptimArgs* optims;
};

/// Execute one step at element type T: the one body behind eager ops
/// (prog::run) and replay. Optimizer steps are double-only (lowering pins
/// their Step::dt to kF64); the float instantiation compiles them out.
template <typename T>
void execute_typed(const StepTables& tab, const Step& s) {
  constexpr bool kIsF64 = std::is_same_v<T, double>;
  void* const* B = tab.buf;
  const int64_t* slot_len = tab.slot_len;
  auto rd = [&](std::int32_t sl) { return static_cast<const T*>(B[sl]); };
  auto wr = [&](std::int32_t sl) { return static_cast<T*>(B[sl]); };
  const auto plan = static_cast<std::size_t>(s.plan);
  switch (s.kind) {
    case StepKind::kUnary:
      kernels::map_unary(rd(s.a), wr(s.out), s.p0,
                         static_cast<kernels::UnaryOp>(s.fn), s.scalar);
      break;
    case StepKind::kBinary:
      kernels::map_binary(rd(s.a), rd(s.b), wr(s.out), s.p0,
                          static_cast<kernels::BinaryOp>(s.fn));
      break;
    case StepKind::kBinaryBcast: {
      const T* a = rd(s.a);
      const T* b = rd(s.b);
      T* o = wr(s.out);
      dispatch_binary(static_cast<kernels::BinaryOp>(s.fn), [&](auto f) {
        kernels::map_broadcast(tab.bplans[plan], a, b, o, f);
      });
      break;
    }
    case StepKind::kFused: {
      // One pass over the elements, block by block: the values the region
      // keeps to itself live in stack blocks, and every other operand is
      // read from or written to its slot's buffer at the block's offset.
      // Element i still sees the op sequence the individual steps
      // applied, through the same unary_block/binary_block entries.
      const Region& rg = tab.regions[plan];
      kernels::parallel_for(
          s.p0, static_cast<int64_t>(rg.ops.size()) + 1,
          [&](int64_t b0, int64_t e0) {
            T block[kRegionBlocks][kRegionBlock];
            for (int64_t base = b0; base < e0; base += kRegionBlock) {
              const int64_t len = std::min(kRegionBlock, e0 - base);
              auto at = [&](std::int32_t sl, std::int8_t x) {
                return x >= 0 ? block[x] : wr(sl) + base;
              };
              for (const RegionOp& op : rg.ops) {
                T* const o = at(op.out, op.xo);
                if (op.kind == StepKind::kUnary) {
                  kernels::unary_block(at(op.a, op.xa), o, len,
                                       static_cast<kernels::UnaryOp>(op.fn),
                                       op.scalar);
                } else if (op.kind == StepKind::kBinary) {
                  kernels::binary_block(at(op.a, op.xa), at(op.b, op.xb), o,
                                        len,
                                        static_cast<kernels::BinaryOp>(op.fn));
                } else if (const T* src = at(op.a, op.xa); src != o) {
                  std::copy_n(src, len, o);  // kCopy
                }
              }
            }
          });
      break;
    }
    case StepKind::kAdamTick: {
      if constexpr (kIsF64) {
        prog::AdamPlanState& st = *tab.optims[plan].state;
        ++*st.t;
        st.bc1 = 1.0 - std::pow(st.beta1, static_cast<double>(*st.t));
        st.bc2 = 1.0 - std::pow(st.beta2, static_cast<double>(*st.t));
      }
      break;
    }
    case StepKind::kAdamParam: {
      if constexpr (kIsF64) {
        const prog::OptimArgs& o = tab.optims[plan];
        const prog::AdamPlanState& st = *o.state;
        const real* g = rd(s.a);
        real* p = wr(s.out);
        const double lr = *st.lr;
        for (int64_t j = 0; j < s.p0; ++j) {
          sfn::adam_update(p[j], g[j], o.m[j], o.v[j], lr, st.beta1,
                           st.beta2, st.bc1, st.bc2, st.eps, st.weight_decay,
                           st.decoupled);
        }
      }
      break;
    }
    case StepKind::kLambParam: {
      if constexpr (kIsF64) {
        const prog::OptimArgs& o = tab.optims[plan];
        prog::AdamPlanState& st = *o.state;
        sfn::lamb_param_update(wr(s.out), rd(s.a), o.m, o.v, s.p0, st.dir,
                               *st.lr, st.beta1, st.beta2, st.bc1, st.bc2,
                               st.eps, st.weight_decay);
      }
      break;
    }
    case StepKind::kBcastCopy:
      kernels::broadcast_copy(tab.bplans[plan], rd(s.a), wr(s.out));
      break;
    case StepKind::kReduce:
      kernels::reduce_broadcast(tab.rplans[plan], rd(s.a), wr(s.out));
      break;
    case StepKind::kMatmul:
      kernels::matmul(rd(s.a), rd(s.b), s.c >= 0 ? rd(s.c) : nullptr,
                      wr(s.out), s.p0, s.p1, s.p2,
                      static_cast<kernels::MatmulForm>(s.fn));
      break;
    case StepKind::kCopy:
      std::memcpy(wr(s.out), rd(s.a),
                  static_cast<std::size_t>(s.p0) * sizeof(T));
      break;
    case StepKind::kWindow: {
      // Per outer index, one window of p1 · p2 elements at p4 · p2 into
      // the p3 · p2 elements of the windowed side, copied either way. An
      // embed zeroes out first: its eager form wrote into a freshly zeroed
      // payload, and with buffer reuse the zero background must be
      // restored.
      const T* src = rd(s.a);
      T* dst = wr(s.out);
      const auto form = static_cast<prog::WindowForm>(s.fn);
      if (form == prog::WindowForm::kEmbed) {
        std::fill(dst, dst + slot_len[static_cast<std::size_t>(s.out)], T{0});
      }
      const int64_t win = s.p1 * s.p2, side = s.p3 * s.p2, at = s.p4 * s.p2;
      const auto bytes = static_cast<std::size_t>(win) * sizeof(T);
      kernels::parallel_for(s.p0, win, [&](int64_t b0, int64_t e0) {
        for (int64_t o = b0; o < e0; ++o) {
          if (form == prog::WindowForm::kPack) {
            std::memcpy(dst + o * win, src + o * side + at, bytes);
          } else {
            std::memcpy(dst + o * side + at, src + o * win, bytes);
          }
        }
      });
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
void execute(const StepTables& tab, const Step& s) {
  if (s.dt == DType::kF32) {
    execute_typed<float>(tab, s);
  } else {
    execute_typed<double>(tab, s);
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

/// Whether a plan-carrying step still works on each instance alone once
/// widened, checked at factor 2 (validity is independent of the factor,
/// so one check covers every replay width). Its plan, rebuilt from the
/// widened shapes, broadcasts each narrow side — a broadcast's inputs, a
/// reduction's output — to the full side: a broadcast's output, a
/// reduction's input. A batch-carrying narrow side must also have the
/// full side's rank, so that its batch axis meets the full side's: a
/// reduction keeps the batch axis.
bool plan_widens(const Program::Impl& im, const Step& s) {
  const bool reduce = s.kind == StepKind::kReduce;
  const Shape full = wide_shape(im, reduce ? s.a : s.out, 2);
  Shape joined;
  for (const std::int32_t narrow : {reduce ? s.out : s.a, s.b}) {
    if (narrow < 0) continue;
    const Shape sh = wide_shape(im, narrow, 2);
    if ((im.slot_scaled[static_cast<std::size_t>(narrow)] &&
         sh.size() != full.size()) ||
        !bcast_result(sh, full, joined) || joined != full) {
      return false;
    }
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

/// Grow the wide store so that tiles of `tile` factors and the io of `f`
/// factors fit: the packed internals to `tile` factors, the declared io
/// buffers to `f`. A buffer that grows starts zeroed, so callers fill the
/// io after the call; one that does not keeps its contents. Never shrinks;
/// any growth rebinds the cached contexts.
void reserve_wide(Program::Impl& im, int64_t tile, int64_t f) {
  const bool grow_tile = tile > im.tile_cap, grow_io = f > im.io_cap;
  if (!grow_tile && !grow_io) return;
  for (std::size_t k = 0; k < im.wide_owner.size(); ++k) {
    const auto o = static_cast<std::size_t>(im.wide_owner[k]);
    const bool io = im.slots[o] != nullptr;
    if (!(io ? grow_io : grow_tile)) continue;
    const int64_t bytes =
        slot_bytes(im, o) * (im.slot_scaled[o] ? (io ? f : tile) : 1);
    im.wide_store[k].assign(static_cast<std::size_t>(bytes), std::byte{0});
  }
  im.tile_cap = std::max(im.tile_cap, tile);
  im.io_cap = std::max(im.io_cap, f);
  for (auto& c : im.wide_ctxs) bind_wide_buffers(im, *c);
}

/// Threads the kernels of a replay on the calling thread may use: one
/// inside a SerialRegionGuard or a parallel region, where no kernel forks.
int replay_threads() {
#ifdef MF_HAVE_OPENMP
  if (omp_in_parallel()) return 1;
#endif
  return kernels::in_serial_region() ? 1 : kernels::max_threads();
}

/// Batch-scaled internal store a tile may hold per thread of its kernels:
/// small enough that a tile's activations stay in the caches between the
/// steps that write and read them, and scaled with the threads so that a
/// kernel that forks a team still gives each thread a cache's worth of
/// rows.
constexpr int64_t kTileBytes = int64_t{512} << 10;

/// The factors of one tile of a widened replay of `f` factors: as many as
/// keep the batch-scaled internals within kTileBytes per thread, at least
/// one; all `f` when no internal slot carries the batch.
int64_t tile_factors(const Program::Impl& im, int64_t f) {
  if (im.tile_unit_bytes == 0) return f;
  return std::max<int64_t>(
      1, kTileBytes * replay_threads() / im.tile_unit_bytes);
}

/// Where base-batch block `at` of a declared slot's io buffer begins.
void* io_block(Program::Impl& im, std::size_t slot, int64_t at) {
  return im.wide_store[static_cast<std::size_t>(im.wide_buffer_of[slot])]
             .data() +
         at * slot_bytes(im, slot);
}

/// Find or build the replay context for widening factor `f`: step list
/// with scaled geometry, broadcast and reduce plans rebuilt from the
/// widened shapes, and a buffer table into the one wide store, which
/// reserve_wide has grown for `f`.
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
  // Bounded: a server replaying many distinct batch sizes would otherwise
  // accumulate one context per distinct factor forever. Contexts are
  // cheap to rebuild (no capture, just step/plan scaling), so evicting
  // the least recently used one is safe. 32 covers the tile factor plus
  // the remainders of an iteration-level batching server whose per-tick
  // group sizes wander (base-1 plans see one factor per distinct batch
  // size below the tile).
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
  // Geometry scales as widen() decided per step; broadcast and reduce
  // plans are rebuilt from the widened shapes (a broadcast copy's plan is
  // (out, a, a)).
  ctx->steps = im.steps;
  ctx->bplans = im.bplans;
  ctx->rplans = im.rplans;
  for (std::size_t i = 0; i < ctx->steps.size(); ++i) {
    Step& s = ctx->steps[i];
    if (im.p0_scaled[i]) s.p0 *= f;
    if (kind_info(s.kind).widen != KindInfo::kPlan) continue;
    const auto plan = static_cast<std::size_t>(s.plan);
    const Shape a_w = wide_shape(im, s.a, f), out_w = wide_shape(im, s.out, f);
    if (s.kind == StepKind::kReduce) {
      ctx->rplans[plan] = kernels::ReducePlan(a_w, out_w);
    } else {
      ctx->bplans[plan] = kernels::BroadcastPlan(
          out_w, a_w, s.b >= 0 ? wide_shape(im, s.b, f) : a_w);
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

/// Sentinel scan over the plan's written external slots: false when one
/// holds a NaN, an Inf or a diverged value. `buf`/`slot_len` parameterize
/// over the master tables and a widened tile's.
bool slots_healthy(const Program::Impl& im, void* const* buf,
                   const int64_t* slot_len) {
  for (std::int32_t s : im.health_slots) {
    const auto idx = static_cast<std::size_t>(s);
    const void* p = buf[idx];
    if (p == nullptr) continue;
    const int64_t n = slot_len[idx];
    const bool ok = im.slot_dt[idx] == DType::kF32
                        ? span_healthy(static_cast<const float*>(p), n)
                        : span_healthy(static_cast<const double*>(p), n);
    if (!ok) return false;
  }
  return true;
}

/// Account one replay's sentinel verdict: one check per replay call, a
/// widened one's tiles included.
void note_health(Program::Impl& im, bool healthy) {
  ++im.health_checks;
  g_health_checks.fetch_add(1, std::memory_order_relaxed);
  im.last_healthy = healthy;
  if (!healthy) {
    ++im.health_trips;
    g_health_trips.fetch_add(1, std::memory_order_relaxed);
  }
}

/// The one step loop behind Program::replay and replay_widened: `steps`
/// and `tab` are the master tables or a wide context's. Steps run in
/// recorded order. With MF_PROGRAM_PROFILE=1 each is timed into one band
/// per kind-table row (kUnary split by fn, kernels::UnaryOp order), which
/// also counts the elements its steps write: the out slot's length at the
/// replayed width, summed over a region's live-outs. Per-thread totals go
/// to stderr every 24 runs of it: an exact replay, or one row tile of a
/// widened replay.
void run_steps(const std::vector<Step>& steps, const StepTables& tab) {
  static const bool prof = [] {
    const char* e = std::getenv("MF_PROGRAM_PROFILE");
    return e && e[0] == '1';
  }();
  if (prof) {
    // Per-thread accumulators: inference replays programs from several
    // OpenMP threads at once, and a shared tally would be a data race.
    constexpr std::size_t kBands = std::size(kKinds) + std::size(kUnaryBands);
    static thread_local double acc[kBands] = {0};
    static thread_local std::uint64_t cnt[kBands] = {0};
    static thread_local std::uint64_t elems[kBands] = {0};
    static thread_local std::uint64_t calls = 0;
    for (const Step& s : steps) {
      auto k = static_cast<std::size_t>(s.kind);
      if (s.kind == StepKind::kUnary) k = std::size(kKinds) + s.fn;
      const double t0 = now_ms();
      execute(tab, s);
      acc[k] += now_ms() - t0;
      ++cnt[k];
      auto count = [&](std::int32_t o) {
        elems[k] += static_cast<std::uint64_t>(
            tab.slot_len[static_cast<std::size_t>(o)]);
      };
      if (s.kind == StepKind::kFused) {
        for (const std::int32_t o :
             tab.regions[static_cast<std::size_t>(s.plan)].outs) {
          count(o);
        }
      } else if (s.out >= 0) {
        count(s.out);
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
    for (const Step& s : steps) execute(tab, s);
  }
}

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

/// Append a step prog::run executed to the capture's trace: its operands
/// are interned into slots in a, b, c, out order, and its side payload
/// (broadcast or reduce plan, optimizer state) joins its table, indexed
/// by Step::plan.
void record(Program::Impl& im, Step s, const prog::Args& args) {
  s.a = intern(im, args.a);
  s.b = intern(im, args.b);
  s.c = intern(im, args.c);
  s.out = intern(im, args.out);
  s.plan = -1;
  auto side = [&](auto& table, const auto* payload) {
    if (!payload) return;
    s.plan = static_cast<std::int32_t>(table.size());
    table.push_back(*payload);
  };
  side(im.bplans, args.bplan);
  side(im.rplans, args.rplan);
  side(im.optims, args.optim);
  im.steps.push_back(s);
}

}  // namespace

void prog::run(Step s, const Args& args) {
  // The step's own table: a, b, c and out are slots 0..3, each side
  // payload is entry 0 of its table.
  const Tensor* const operands[4] = {args.a, args.b, args.c, args.out};
  std::int32_t* const slot[4] = {&s.a, &s.b, &s.c, &s.out};
  void* buf[4] = {};
  int64_t len[4] = {};
  for (std::int32_t i = 0; i < 4; ++i) {
    const Tensor* t = operands[i];
    if (!t || !t->defined()) continue;
    buf[i] = t->impl()->data.raw();
    len[i] = t->numel();
    *slot[i] = i;
  }
  s.plan = 0;
  execute_typed<double>(
      {buf, len, args.bplan, args.rplan, nullptr, args.optim}, s);
  if (Program::Impl* im = detail::g_recorder) record(*im, s, args);
}

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
  run_steps(im.steps, {im.buf.data(), im.slot_len.data(), im.bplans.data(),
                       im.rplans.data(), im.regions.data(), im.optims.data()});
  ++im.replays;
  if (health_checks_enabled()) {
    note_health(im, slots_healthy(im, im.buf.data(), im.slot_len.data()));
  }
}

bool Program::widen(const std::vector<Tensor>& batch_io) {
  Impl& im = *impl_;
  im.wide_ready = false;
  im.base_b = 0;
  im.declared_slots.clear();
  im.wide_buffer_of.clear();
  im.wide_owner.clear();
  im.wide_store.clear();
  im.tile_cap = im.io_cap = im.tile_unit_bytes = 0;
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
  for (const Step& s : im.steps) {
    if (!ok) break;
    bool p0_scales = false;
    switch (kind_info(s.kind).widen) {
      case KindInfo::kElementwise: {
        // Same-numel map (a region: every op): mixed scaledness would
        // diverge lengths. Outputs follow the first input; p0 is the
        // element count.
        bool want = false, first = true;
        for_each_operand(
            im, s,
            [&](std::int32_t sl) {
              if (first) want = scaled(sl);
              first = false;
              ok = ok && scaled(sl) == want;
            },
            [&](std::int32_t sl) { ok = ok && define_out(sl, want); });
        p0_scales = want;
        break;
      }
      case KindInfo::kPlan: {
        // A broadcast copy has no b. A sum that drops the batch axis
        // would fold instances into one value: plan_widens refuses it,
        // and a full sum's scalar has no dim to scale.
        const bool want = scaled(s.a) || scaled(s.b);
        ok = define_out(s.out, want) && (!want || plan_widens(im, s));
        break;
      }
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
  for (const std::int32_t o : im.wide_owner) {
    const auto u = static_cast<std::size_t>(o);
    if (im.slot_scaled[u]) im.tile_unit_bytes += slot_bytes(im, u);
  }
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
  reserve_wide(im, 0, f);
  return static_cast<real*>(io_block(im, slot, 0));
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
  const int64_t tile = tile_factors(im, f);
  im.tile_batch = tile * im.base_b;
  im.max_widen_batch = std::max(im.max_widen_batch, b);
  if (f == 1) {
    // Base width: the declared tensors' own payloads are the io buffers.
    replay();
    return;
  }
  // Tile by tile over the io rows: each tile replays the context of its
  // own factor (the last one's may be smaller) on the internals' one
  // tile-sized store, with the io slots pointed at its rows. Rows are
  // independent, so every tiling gives the bits of b / B0 base replays.
  reserve_wide(im, std::min(tile, f), f);
  const bool check = health_checks_enabled();
  bool healthy = true;
  for (int64_t at = 0; at < f; at += tile) {
    Impl::WideContext& ctx = *get_wide_ctx(im, std::min(tile, f - at));
    for (const auto& declared : im.declared_slots) {
      const auto s = static_cast<std::size_t>(declared.second);
      ctx.buf[s] = io_block(im, s, at);
    }
    run_steps(ctx.steps, {ctx.buf.data(), ctx.slot_len.data(),
                          ctx.bplans.data(), ctx.rplans.data(),
                          im.regions.data(), im.optims.data()});
    if (check && healthy) {
      healthy = slots_healthy(im, ctx.buf.data(), ctx.slot_len.data());
    }
  }
  ++im.replays;
  ++im.widened_replays;
  if (check) note_health(im, healthy);
}

std::size_t Program::count_steps(std::string_view kind) const {
  return static_cast<std::size_t>(std::count_if(
      impl_->steps.begin(), impl_->steps.end(),
      [&](const Step& s) { return kind == kind_info(s.kind).name; }));
}

std::size_t Program::count_ops(std::string_view band) const {
  const Impl& im = *impl_;
  auto is = [&](StepKind kind, std::uint8_t fn) {
    return band == kind_info(kind).name ||
           (kind == StepKind::kUnary && band == kUnaryBands[fn]);
  };
  std::size_t n = 0;
  for (const Step& s : im.steps) {
    if (s.kind != StepKind::kFused) {
      n += is(s.kind, s.fn);
      continue;
    }
    const Region& rg = im.regions[static_cast<std::size_t>(s.plan)];
    for (const RegionOp& op : rg.ops) n += is(op.kind, op.fn);
  }
  return n;
}

std::string Program::verify() const {
  const Impl& im = *impl_;
  const std::size_t S = im.slots.size();
  auto external = [&](std::int32_t sl) {
    return im.slots[static_cast<std::size_t>(sl)] != nullptr;
  };
  auto where = [](std::size_t i, std::int32_t sl) {
    return "step " + std::to_string(i) + ", slot " + std::to_string(sl);
  };
  const Accesses accesses(im);
  for (std::size_t i = 0; i < im.steps.size(); ++i) {
    const Step& s = im.steps[i];
    if (s.kind != StepKind::kFused) continue;
    const Region& rg = im.regions[static_cast<std::size_t>(s.plan)];
    for (const RegionOp& op : rg.ops) {
      const bool live = external(op.out) || accesses.read_next(op.out, i);
      const bool written =
          std::find(rg.outs.begin(), rg.outs.end(), op.out) != rg.outs.end();
      if (live != written || written != (op.xo < 0)) {
        return where(i, op.out) + (live ? ": a live-out the region keeps"
                                        : ": a region writes a dead value");
      }
    }
    for (const auto* list : {&rg.ins, &rg.outs}) {
      for (const std::int32_t sl : *list) {
        if (im.slot_dt[static_cast<std::size_t>(sl)] != s.dt) {
          return where(i, sl) + ": a region crosses a dtype boundary";
        }
      }
    }
  }

  // Every op that writes a slot, fused ones included, as the steps it was
  // recorded as; value numbering must have dropped each repeat it could.
  std::vector<std::pair<std::size_t, Step>> ops;
  for (std::size_t i = 0; i < im.steps.size(); ++i) {
    const Step& s = im.steps[i];
    if (s.kind != StepKind::kFused) {
      ops.emplace_back(i, s);
      continue;
    }
    const Region& rg = im.regions[static_cast<std::size_t>(s.plan)];
    for (const RegionOp& op : rg.ops) {
      Step e;
      e.kind = op.kind;
      e.fn = op.fn;
      e.dt = s.dt;
      e.scalar = op.scalar;
      e.p0 = s.p0;
      e.a = op.a;
      e.b = op.b;
      e.out = op.out;
      ops.emplace_back(i, e);
    }
  }
  // Writes are ordered by op, so two ops of one region are apart.
  std::vector<std::uint32_t> writes(S, 0);
  std::vector<std::int32_t> last_write(S, -1);
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const Step& s = ops[k].second;
    if (s.out < 0) continue;
    ++writes[static_cast<std::size_t>(s.out)];
    last_write[static_cast<std::size_t>(s.out)] = static_cast<std::int32_t>(k);
  }
  std::vector<char> internal(S);
  for (std::size_t sl = 0; sl < S; ++sl) internal[sl] = im.slots[sl] == nullptr;
  ValueTable values(S);
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const auto& [i, s] = ops[k];
    if (kind_info(s.kind).numbered) {
      const std::int32_t earlier = values.holder(s);
      if (earlier >= 0 &&
          droppable(im, internal, writes, last_write, s.out, earlier, k)) {
        return where(i, s.out) + ": repeats the value of slot " +
               std::to_string(earlier);
      }
      values.hold(s);
    }
    if (s.out >= 0) values.wrote(s.out);
  }
  return "";
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
  st.tile_batch = im.tile_batch;
  for (const auto& buffer : im.wide_store) st.wide_bytes += buffer.size();
  st.capture_ms = im.capture_ms;
  st.health_checks = im.health_checks;
  st.health_trips = im.health_trips;
  st.captures = im.captures;
  st.replays = im.replays;
  st.widened_replays = im.widened_replays;
  return st;
}

}  // namespace mf::ad
