// Threaded tensor kernels: the contiguous hot loops factored out of
// ops.cpp, in the batch-parallel operator style of NeuPIMs-like runtimes.
//
// Kernels operate on raw contiguous buffers and are autograd-agnostic:
// ops.cpp records the graph, kernels do the math. With MF_HAVE_OPENMP the
// loops are OpenMP-threaded; otherwise every entry point degrades to the
// identical serial loop, so the backend is always available.
//
// Threading contract:
//  * Elementwise maps assign out[i] from in[i] only, and matmul, conv1d
//    and reduce_broadcast (every sum) compute each output element in one
//    thread, in one order: no kernel's bits depend on the thread count,
//    and parallel execution is bitwise identical to serial.
//  * A kernel only threads when the estimated work exceeds `grain()`
//    elements and the calling thread is not already inside a parallel
//    region (no nested parallelism).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ad/scalar_fns.hpp"
#include "ad/tensor.hpp"

#ifdef MF_HAVE_OPENMP
#include <omp.h>
#endif

namespace mf::ad::kernels {

/// True when compiled against OpenMP.
bool openmp_enabled();

/// Threads a parallel region would use (1 for serial builds).
int max_threads();

/// Cap the OpenMP thread count (no-op for serial builds). Used by tests to
/// compare 1-thread and N-thread execution in one process.
void set_num_threads(int n);

/// Minimum estimated per-kernel work (in elements) before threading kicks
/// in; below it the serial loop is always used. Tests set this to 1 to
/// force threading on tiny tensors.
int64_t grain();
void set_grain(int64_t g);

/// RAII: forces every kernel on the *calling thread* to take the serial
/// path while alive (nestable). The in-process communicator installs one
/// per rank thread: each simulated rank must do its own compute serially,
/// both to avoid a full OpenMP team per rank (oversubscription) and to
/// keep the per-thread CPU-clock scaling methodology of util/timing.hpp
/// honest — offloaded worker time would escape CLOCK_THREAD_CPUTIME_ID.
class SerialRegionGuard {
 public:
  SerialRegionGuard();
  ~SerialRegionGuard();
  SerialRegionGuard(const SerialRegionGuard&) = delete;
  SerialRegionGuard& operator=(const SerialRegionGuard&) = delete;
};

/// True when the calling thread is inside a SerialRegionGuard.
bool in_serial_region();

namespace detail {
bool should_thread(int64_t work);
}

/// Run f(begin, end) over a partition of [0, n). `cost_per_item` weights
/// the threading threshold for loops whose iterations are expensive
/// (matmul rows, convolution channels).
template <typename F>
void parallel_for(int64_t n, [[maybe_unused]] int64_t cost_per_item, F&& f) {
  if (n <= 0) return;
#ifdef MF_HAVE_OPENMP
  if (detail::should_thread(n * std::max<int64_t>(1, cost_per_item))) {
#pragma omp parallel
    {
      const int64_t nt = omp_get_num_threads();
      const int64_t t = omp_get_thread_num();
      const int64_t chunk = (n + nt - 1) / nt;
      const int64_t begin = t * chunk;
      const int64_t end = std::min(n, begin + chunk);
      if (begin < end) f(begin, end);
    }
    return;
  }
#endif
  f(int64_t{0}, n);
}

template <typename F>
void parallel_for(int64_t n, F&& f) {
  parallel_for(n, 1, std::forward<F>(f));
}

// ---- contiguous elementwise maps ----
//
// Every contiguous elementwise op is named by an opcode and has one body
// per tier. gelu_lanes() picks the tier of every vector kernel
// (elementwise, matmul and conv1d): 8 f64 lanes (16 at f32) with AVX-512F,
// 4 (8) with AVX2+FMA, else 1, the sfn:: functor loops. On a vector tier
// one lane formula per op, written once over a small per-ISA ops struct,
// runs the whole vectors and then the tail through masked lanes, so an
// element's value never depends on the chunk, lane or thread that
// computed it:
//  * add, sub, mul, div, add_scalar, mul_scalar, neg, abs and sqrt are one
//    IEEE operation (or one sign-bit operation) per element, bitwise equal
//    to the sfn:: functors on every tier;
//  * tanh is a Cephes-style approximation (a rational minimax below
//    |x| = 0.625, 1 − 2/(exp(2|x|) + 1) above it, ±1 from 19.0625 on),
//    within ~1-2 ulp of std::tanh, built from IEEE operations without FMA;
//  * GELU is x / (1 + exp(t)), t = −2·√(2/π)·(x + 0.044715·x³), with exp by
//    range reduction and an FMA polynomial;
//  * gelu_d1, gelu_d2 and gelu_d3, GELU's first three derivatives (the
//    PDE loss differentiates the network three times), reuse that exp:
//    p = 1/(1 + e^t), tanh u = 2p − 1 and sech² u = 4e·p², then a short
//    FMA polynomial in p and x (sfn::GeluDeriv has the terms). Each stays
//    within ~8 ε·max|gelu⁽ᵏ⁾| of the exact value on every tier.
// Both tiers execute the same IEEE operations, so they give the same bits;
// absolute tanh and GELU values differ from libm in the last bits, and the
// scalar tier's gelu_d* (std::exp) from the vector tiers'.
// pow_scalar, exp, log and sign have no lane formula and run the functor
// loop on every tier. Eager ops, plain replay and the fused-region
// interpreter all reach these entries, so they stay bitwise identical.

/// Opcode of unary_block (and of compiled plans' unary steps).
enum class UnaryOp : std::uint8_t {
  kAddScalar,
  kMulScalar,
  kPowScalar,
  kNeg,
  kExp,
  kLog,
  kSqrt,
  kTanh,
  kAbs,
  kSign,
  kGelu,
  kGeluD1,
  kGeluD2,
  kGeluD3,
};

/// The number of UnaryOp opcodes: every table indexed by one has this many
/// rows (static_assert at each).
inline constexpr std::size_t kUnaryOpCount =
    static_cast<std::size_t>(UnaryOp::kGeluD3) + 1;

/// Opcode of binary_block (and of compiled plans' binary steps).
enum class BinaryOp : std::uint8_t { kAdd, kSub, kMul, kDiv };

/// f64 lanes every vector kernel runs on, elementwise, matmul and conv1d:
/// 8 (AVX-512F), 4 (AVX2+FMA) or 1 (the scalar loops). Read-only; benches
/// print it next to their rates because the tier moves them.
int gelu_lanes();

/// Serial out[i] = op(a[i]) for i in [0, n). `scalar` is add_scalar's and
/// mul_scalar's operand and pow_scalar's exponent, narrowed once at f32;
/// the other ops ignore it. `out` may alias `a`.
void unary_block(const real* a, real* out, int64_t n, UnaryOp op,
                 real scalar);
void unary_block(const float* a, float* out, int64_t n, UnaryOp op,
                 real scalar);
/// Serial out[i] = a[i] op b[i] for i in [0, n); `out` may alias `a` or
/// `b`.
void binary_block(const real* a, const real* b, real* out, int64_t n,
                  BinaryOp op);
void binary_block(const float* a, const float* b, float* out, int64_t n,
                  BinaryOp op);
/// unary_block and binary_block over a parallel_for partition of [0, n).
void map_unary(const real* a, real* out, int64_t n, UnaryOp op, real scalar);
void map_unary(const float* a, float* out, int64_t n, UnaryOp op,
               real scalar);
void map_binary(const real* a, const real* b, real* out, int64_t n,
                BinaryOp op);
void map_binary(const float* a, const float* b, float* out, int64_t n,
                BinaryOp op);

// ---- FMA matmul tiers ----
//
// matmul runs on the tier gelu_lanes() names: one register-blocked
// fused-multiply-add micro-kernel, 8 rows × 16 f64 columns of zmm on
// AVX-512F and 4 rows × 8 columns of ymm on AVX2+FMA (twice the columns at
// f32). Each tier roughly doubles the arithmetic rate of the one below it
// on the width-64 GEMMs, but every output element, at every shape, is
// bitwise equal to the naive loop accumulating std::fma(a, b, acc) from
// the bias in ascending k, so the two FMA tiers give the same bits. CPUs
// with neither run the scalar register-blocked loop, bitwise equal to the
// naive `acc += a * b` loop. Eager, replay, serial and threaded execution
// all share one kernel, so intra-process parity invariants are unaffected.
//
// The kernel has three operand forms, so backward passes never
// materialize a transpose: NN reads a by rows; TN broadcasts a's elements
// down its columns (each row block of out advances one column of a); NT
// packs bᵀ once per call into a panel of the calling thread, which only
// grows, and then runs NN. Each form is bitwise equal to transposing the
// operand and running NN, on every tier.

/// Operand form of matmul (and of compiled plans' matmul steps).
enum class MatmulForm : std::uint8_t {
  kNN,  // out[m×n] = a[m×k] · b[k×n]
  kTN,  // out[m×n] = aᵀ · b, with a stored [k×m]
  kNT,  // out[m×n] = a · bᵀ, with b stored [n×k]
};

// ---- broadcast elementwise ----

/// The highest rank a broadcast or reduce plan takes (its constructor
/// throws std::invalid_argument past it): the kernels keep their axis
/// counters on the stack, so no call allocates.
inline constexpr std::size_t kMaxPlanRank = 8;

/// Precomputed output-dim strides mapping each output element to the flat
/// offsets of two broadcast operands (stride 0 on broadcast axes). Plans
/// are built from contiguous shapes, so each operand's innermost stride is
/// 0 or 1.
struct BroadcastPlan {
  BroadcastPlan(const Shape& out, const Shape& a, const Shape& b);

  Shape out_shape;
  std::vector<int64_t> a_strides, b_strides;
  int64_t n = 0;
};

namespace detail {
/// out[j] = f(a[j·sa], b[j·sb]) for j in [0, len), with sa, sb in {0, 1}.
template <typename T, typename F>
void broadcast_row(const T* a, int64_t sa, const T* b, int64_t sb, T* out,
                   int64_t len, F& f) {
  if (sa && sb) {
    for (int64_t j = 0; j < len; ++j) out[j] = f(a[j], b[j]);
  } else if (sa) {
    const T bv = *b;
    for (int64_t j = 0; j < len; ++j) out[j] = f(a[j], bv);
  } else if (sb) {
    const T av = *a;
    for (int64_t j = 0; j < len; ++j) out[j] = f(av, b[j]);
  } else {
    const T v = f(*a, *b);
    for (int64_t j = 0; j < len; ++j) out[j] = v;
  }
}
}  // namespace detail

/// out[i] = f(a[ai], b[bi]) over the whole broadcast output, row by row
/// (a row is the innermost output axis). Each thread seeds the outer index
/// of the row holding its chunk start, which may fall mid-row, and then
/// advances it once per row.
template <typename T, typename F>
void map_broadcast(const BroadcastPlan& plan, const T* a, const T* b,
                   T* out, F&& f) {
  const std::size_t nd = plan.out_shape.size();
  const int64_t len = nd ? plan.out_shape[nd - 1] : 1;
  const int64_t sa = nd ? plan.a_strides[nd - 1] : 0;
  const int64_t sb = nd ? plan.b_strides[nd - 1] : 0;
  const std::size_t outer = nd ? nd - 1 : 0;  // axes above the row
  parallel_for(plan.n, [&](int64_t begin, int64_t end) {
    int64_t idx[kMaxPlanRank];
    int64_t row = begin / len, col = begin % len;
    int64_t ai = 0, bi = 0;
    for (std::size_t d = outer; d-- > 0;) {
      idx[d] = row % plan.out_shape[d];
      row /= plan.out_shape[d];
      ai += idx[d] * plan.a_strides[d];
      bi += idx[d] * plan.b_strides[d];
    }
    for (int64_t i = begin; i < end;) {
      const int64_t n = std::min(len - col, end - i);
      detail::broadcast_row(a + ai + col * sa, sa, b + bi + col * sb, sb,
                            out + i, n, f);
      i += n;
      col = 0;
      for (std::size_t d = outer; d-- > 0;) {
        ai += plan.a_strides[d];
        bi += plan.b_strides[d];
        if (++idx[d] < plan.out_shape[d]) break;
        ai -= plan.a_strides[d] * plan.out_shape[d];
        bi -= plan.b_strides[d] * plan.out_shape[d];
        idx[d] = 0;
      }
    }
  });
}

/// Materialize `src` (shape `src_shape`) broadcast into the contiguous
/// output described by `plan` (built with a == b == src_shape).
void broadcast_copy(const BroadcastPlan& plan, const real* src, real* out);
void broadcast_copy(const BroadcastPlan& plan, const float* src, float* out);

// ---- reductions ----

/// Sum over the axes along which `dst_shape` broadcasts to `src_shape`.
/// Gather formulation: every output element independently sums its
/// preimage into a double accumulator, starting from +0 and taking the
/// reduced indices in row-major order (last reduced axis fastest), so
/// the loop parallelizes without scatter races and every output has one
/// sum order at every thread count. When src's innermost axis is kept,
/// reduce_broadcast adds whole source rows into a stack row of such
/// accumulators instead, in the same order per output: the same bits.
struct ReducePlan {
  ReducePlan(const Shape& src, const Shape& dst);

  int64_t n_out = 1;  // numel of dst
  int64_t n_red = 1;  // elements folded into each output
  // Kept dims in original order (sizes match dst), with src strides.
  std::vector<int64_t> out_sizes, out_src_strides;
  // Reduced dims (size 1 in dst, > 1 in src), with src strides.
  std::vector<int64_t> red_sizes, red_src_strides;
};

/// dst[o] = sum of src over o's broadcast preimage. dst is overwritten.
/// The float overload accumulates each output element in double and
/// narrows once at the store (mixed-precision stability rule: reductions
/// accumulate at master width). No call allocates.
void reduce_broadcast(const ReducePlan& plan, const real* src, real* dst);
void reduce_broadcast(const ReducePlan& plan, const float* src, float* dst);

/// max |a[i]|: a max, exact in any order and so at any thread count.
real reduce_max_abs(const real* a, int64_t n);

// ---- linear algebra ----

/// out[m, n] = a[m, k] @ b[k, n] (+ bias[n] when bias != nullptr), or the
/// TN or NT form of it (see MatmulForm). out is overwritten. Threads over
/// rows of out. Bias needs the NN form (std::invalid_argument otherwise).
void matmul(const real* a, const real* b, const real* bias, real* out,
            int64_t m, int64_t k, int64_t n,
            MatmulForm form = MatmulForm::kNN);
/// f32 GEMM on the same tiers, 16 (AVX-512F) or 8 (AVX2+FMA) lanes. The
/// f32 policy is tolerance-gated against f64, but each FMA tier is still
/// bitwise equal to the naive std::fma loop in float, and every tier is
/// deterministic and thread-count-invariant because rows partition the
/// work and each output element accumulates in one thread in kk order.
void matmul(const float* a, const float* b, const float* bias, float* out,
            int64_t m, int64_t k, int64_t n,
            MatmulForm form = MatmulForm::kNN);

namespace detail {
/// One serial kernel on the tier with `lanes` f64 lanes (8: AVX-512F, 4:
/// AVX2+FMA, 1: the scalar loops), whatever the widest tier is; for tests
/// that compare the tiers. Each returns false, writing nothing, when the
/// CPU lacks the tier.
bool unary_on_tier(int lanes, const double* a, double* out, int64_t n,
                   UnaryOp op, double scalar);
bool unary_on_tier(int lanes, const float* a, float* out, int64_t n,
                   UnaryOp op, double scalar);
bool binary_on_tier(int lanes, const double* a, const double* b,
                    double* out, int64_t n, BinaryOp op);
bool binary_on_tier(int lanes, const float* a, const float* b, float* out,
                    int64_t n, BinaryOp op);
bool matmul_on_tier(int lanes, MatmulForm form, const double* a,
                    const double* b, const double* bias, double* out,
                    int64_t m, int64_t k, int64_t n);
bool matmul_on_tier(int lanes, MatmulForm form, const float* a,
                    const float* b, const float* bias, float* out, int64_t m,
                    int64_t k, int64_t n);
/// The conv1d kernels below, serial, on the tier with `lanes` f64 lanes.
bool conv1d_forward_on_tier(int lanes, const double* input,
                            const double* weight, const double* bias,
                            double* out, int64_t B, int64_t Cin, int64_t L,
                            int64_t Cout, int64_t K, int64_t padding);
bool conv1d_forward_on_tier(int lanes, const float* input,
                            const float* weight, const float* bias,
                            float* out, int64_t B, int64_t Cin, int64_t L,
                            int64_t Cout, int64_t K, int64_t padding);
bool conv1d_grad_input_on_tier(int lanes, const double* grad_out,
                               const double* weight, double* grad_input,
                               int64_t B, int64_t Cin, int64_t L,
                               int64_t Cout, int64_t K, int64_t padding);
bool conv1d_grad_input_on_tier(int lanes, const float* grad_out,
                               const float* weight, float* grad_input,
                               int64_t B, int64_t Cin, int64_t L,
                               int64_t Cout, int64_t K, int64_t padding);
bool conv1d_grad_weight_on_tier(int lanes, const double* grad_out,
                                const double* input, double* grad_weight,
                                int64_t B, int64_t Cin, int64_t L,
                                int64_t Cout, int64_t K, int64_t padding);
bool conv1d_grad_weight_on_tier(int lanes, const float* grad_out,
                                const float* input, float* grad_weight,
                                int64_t B, int64_t Cin, int64_t L,
                                int64_t Cout, int64_t K, int64_t padding);
}  // namespace detail

// ---- convolution (stride 1, symmetric zero padding) ----
//
// input [B, Cin, L], weight [Cout, Cin, K], out [B, Cout, Lout] with Lout =
// L + 2·padding − K + 1 and padding >= 0. The forward and weight-gradient
// kernels copy one batch row's Cin input rows (the input-gradient kernel
// its Cout grad_out rows) into zero-padded rows of the calling thread (an
// input row is padding + L + padding long), plus one vector of slack, and
// run lanes over them on the tier gelu_lanes() names, scalar included. Every
// element keeps the direct loop's order of separately rounded multiplies
// and adds (no FMA):
//  * forward: out = bias (or +0), then per input channel a sub-sum that
//    starts at +0 and takes w[k]·x[t + k − padding] for k ascending is
//    added to it;
//  * grad_input: each element adds grad_out·w for output channel
//    ascending, then tap k descending (t ascending);
//  * grad_weight: lanes over the K taps, each adding grad_out·x for batch
//    row ascending, then t ascending.
// A padded tap adds a factor times ±0 to a sum that started at +0, so with
// finite factors every tier gives the direct loop's bits, and serial and
// threaded calls agree. An infinite or NaN weight at a tap that meets the
// padding (for grad_weight, an infinite or NaN grad_out there) gives NaN,
// the IEEE value of the zero-padded sum.

/// Threads over batch rows.
void conv1d_forward(const real* input, const real* weight, const real* bias,
                    real* out, int64_t B, int64_t Cin, int64_t L, int64_t Cout,
                    int64_t K, int64_t padding);
void conv1d_forward(const float* input, const float* weight, const float* bias,
                    float* out, int64_t B, int64_t Cin, int64_t L,
                    int64_t Cout, int64_t K, int64_t padding);
/// grad_input must be zero-initialized. Threads over batch rows.
void conv1d_grad_input(const real* grad_out, const real* weight,
                       real* grad_input, int64_t B, int64_t Cin, int64_t L,
                       int64_t Cout, int64_t K, int64_t padding);
void conv1d_grad_input(const float* grad_out, const float* weight,
                       float* grad_input, int64_t B, int64_t Cin, int64_t L,
                       int64_t Cout, int64_t K, int64_t padding);
/// grad_weight must be zero-initialized. Threads over output channels.
void conv1d_grad_weight(const real* grad_out, const real* input,
                        real* grad_weight, int64_t B, int64_t Cin, int64_t L,
                        int64_t Cout, int64_t K, int64_t padding);
void conv1d_grad_weight(const float* grad_out, const float* input,
                        float* grad_weight, int64_t B, int64_t Cin, int64_t L,
                        int64_t Cout, int64_t K, int64_t padding);
/// grad_bias must be zero-initialized. Threads over output channels; each
/// sums its batch rows, then t, in ascending order.
void conv1d_grad_bias(const real* grad_out, real* grad_bias, int64_t B,
                      int64_t Cout, int64_t Lout);
void conv1d_grad_bias(const float* grad_out, float* grad_bias, int64_t B,
                      int64_t Cout, int64_t Lout);

// ---- dtype casts ----

/// Contiguous widen/narrow between the plan widths. Elementwise and
/// order-free: f64 -> f32 rounds-to-nearest per element, f32 -> f64 is
/// exact.
void cast_buffer(const double* src, float* dst, int64_t n);
void cast_buffer(const float* src, double* dst, int64_t n);

}  // namespace mf::ad::kernels
