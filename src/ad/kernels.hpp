// Threaded tensor kernels: the contiguous hot loops factored out of
// ops.cpp, in the batch-parallel operator style of NeuPIMs-like runtimes.
//
// Kernels operate on raw contiguous buffers and are autograd-agnostic:
// ops.cpp records the graph, kernels do the math. With MF_HAVE_OPENMP the
// loops are OpenMP-threaded; otherwise every entry point degrades to the
// identical serial loop, so the backend is always available.
//
// Threading contract:
//  * Elementwise maps assign out[i] from in[i] only — parallel execution is
//    bitwise identical to serial.
//  * Reductions (reduce_sum, reduce_to, matmul rows) may reassociate
//    floating-point sums across threads; callers compare with tolerances.
//  * A kernel only threads when the estimated work exceeds `grain()`
//    elements and the calling thread is not already inside a parallel
//    region (no nested parallelism).
#pragma once

#include <algorithm>
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
// The map templates are generic over the element type: eager ops always
// instantiate T = real (double), the compiled-plan replay instantiates
// float for f32-colored steps. The sfn:: functors are themselves
// templated, so each width evaluates its own native FP expression.

template <typename T, typename F>
void map_unary(const T* a, T* out, int64_t n, F&& f) {
  parallel_for(n, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) out[i] = f(a[i]);
  });
}

template <typename T, typename F>
void map_binary(const T* a, const T* b, T* out, int64_t n, F&& f) {
  parallel_for(n, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) out[i] = f(a[i], b[i]);
  });
}

/// Opcode of binary_block (and of compiled plans' binary steps).
enum class BinaryOp : std::uint8_t { kAdd, kSub, kMul, kDiv };

/// Serial out[i] = a[i] op b[i] for i in [0, n); `out` may alias `a` or
/// `b`. On x86-64 hosts with AVX2 a runtime-dispatched vector loop
/// (vaddpd/vsubpd/vmulpd/vdivpd, or the 8-lane ps twins) runs, IEEE-exact
/// per lane, so results are bitwise identical to the sfn:: functors —
/// which remain the fallback. The arithmetic map_binary overloads call it
/// per parallel chunk and the fused-chain interpreter per 128-element
/// block, so eager ops, plain replay and fused replay share one body.
void binary_block(const real* a, const real* b, real* out, int64_t n,
                  BinaryOp op);
void binary_block(const float* a, const float* b, float* out, int64_t n,
                  BinaryOp op);

// Non-template overloads for the four arithmetic binary functors: a
// parallel_for over binary_block. Eager ops and program replay both
// resolve to these, preserving parity.
void map_binary(const real* a, const real* b, real* out, int64_t n, sfn::Add);
void map_binary(const real* a, const real* b, real* out, int64_t n, sfn::Sub);
void map_binary(const real* a, const real* b, real* out, int64_t n, sfn::Mul);
void map_binary(const real* a, const real* b, real* out, int64_t n, sfn::Div);
void map_binary(const float* a, const float* b, float* out, int64_t n,
                sfn::Add);
void map_binary(const float* a, const float* b, float* out, int64_t n,
                sfn::Sub);
void map_binary(const float* a, const float* b, float* out, int64_t n,
                sfn::Mul);
void map_binary(const float* a, const float* b, float* out, int64_t n,
                sfn::Div);

// ---- tanh and GELU ----
//
// Every hidden activation of SDNet inference is a GELU, so these overloads
// replace the functors' libm tanh (~27 cycles/element):
//  * tanh: a Cephes-style rational approximation on 4 AVX2 lanes (8 at
//    f32), accurate to ~1-2 ulp of std::tanh. The tanh activation and
//    GELU's compositional backward run it.
//  * GELU: x / (1 + exp(t)) with t = −2·√(2/π)·(x + 0.044715·x³) — the
//    same tanh-form GELU with one divide — and exp by range reduction and
//    an FMA polynomial. It runs on 8 f64 lanes (16 at f32) where the CPU
//    has AVX-512F and on 4 (8) where it has AVX2+FMA; both tiers execute
//    the same IEEE operations, so they give the same bits.
// In both, the vector lanes and the tail evaluate the identical operation
// sequence, so the value of an element never depends on which chunk or
// lane computed it: threaded execution stays bitwise identical to serial,
// and eager ops and program replay (including fused chains, which route
// through the *_block_inplace entry points) stay bitwise identical to each
// other. Absolute values differ from libm in the last bits. CPUs without
// AVX2 (tanh) or without AVX2+FMA (GELU) run the sfn:: functors.
/// True when the fast tanh runs: the CPU has AVX2.
bool fast_tanh_active();
/// f64 lanes the GELU and matmul kernels run on: 8 (AVX-512F), 4
/// (AVX2+FMA) or 1 (the sfn::Gelu functor and the scalar matmul loop).
/// Read-only; benches print it next to their rates because the tier moves
/// them.
int gelu_lanes();
void map_unary(const real* a, real* out, int64_t n, sfn::Tanh);
void map_unary(const real* a, real* out, int64_t n, sfn::Gelu);
void map_unary(const float* a, float* out, int64_t n, sfn::Tanh);
void map_unary(const float* a, float* out, int64_t n, sfn::Gelu);
/// Serial in-place blocks for the fused-chain interpreter; element-for-
/// element identical to the map_unary overloads.
void tanh_block_inplace(real* x, int64_t n);
void gelu_block_inplace(real* x, int64_t n);
void tanh_block_inplace(float* x, int64_t n);
void gelu_block_inplace(float* x, int64_t n);

namespace detail {
/// GELU over [0, n) on one tier's lanes, whatever the widest tier is; for
/// tests that compare the tiers. Returns false, writing nothing, when the
/// CPU lacks the tier.
bool gelu_avx2_fma(const double* a, double* out, int64_t n);
bool gelu_avx2_fma(const float* a, float* out, int64_t n);
bool gelu_avx512f(const double* a, double* out, int64_t n);
bool gelu_avx512f(const float* a, float* out, int64_t n);
}  // namespace detail

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

// ---- broadcast elementwise ----

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
    std::vector<int64_t> idx(outer);
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
/// preimage, so the loop parallelizes without scatter races.
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
/// accumulate at master width).
void reduce_broadcast(const ReducePlan& plan, const real* src, real* dst);
void reduce_broadcast(const ReducePlan& plan, const float* src, float* dst);

real reduce_sum(const real* a, int64_t n);
real reduce_max_abs(const real* a, int64_t n);
real reduce_sq_diff(const real* a, const real* b, int64_t n);
real reduce_abs_diff(const real* a, const real* b, int64_t n);
/// Float input, double accumulator — callers narrow the result if needed.
double reduce_sum(const float* a, int64_t n);

/// dst[o, i] = sum_k src[o, k, i]; dst must be zero-initialized.
void sum_axis(const real* src, real* dst, int64_t outer, int64_t n_axis,
              int64_t inner);
void sum_axis(const float* src, float* dst, int64_t outer, int64_t n_axis,
              int64_t inner);

// ---- linear algebra ----

/// out[m, n] = a[m, k] @ b[k, n] (+ bias[n] when bias != nullptr).
/// out is overwritten. Threads over rows of `a`.
void matmul(const real* a, const real* b, const real* bias, real* out,
            int64_t m, int64_t k, int64_t n);
/// f32 GEMM on the same tiers, 16 (AVX-512F) or 8 (AVX2+FMA) lanes. The
/// f32 policy is tolerance-gated against f64, but each FMA tier is still
/// bitwise equal to the naive std::fma loop in float, and every tier is
/// deterministic and thread-count-invariant because rows partition the
/// work and each output element accumulates in one thread in kk order.
void matmul(const float* a, const float* b, const float* bias, float* out,
            int64_t m, int64_t k, int64_t n);

namespace detail {
/// Serial matmul on one tier's micro-kernel, whatever the widest tier is;
/// for tests that compare the tiers. Returns false, writing nothing, when
/// the CPU lacks the tier.
bool matmul_avx2_fma(const double* a, const double* b, const double* bias,
                     double* out, int64_t m, int64_t k, int64_t n);
bool matmul_avx2_fma(const float* a, const float* b, const float* bias,
                     float* out, int64_t m, int64_t k, int64_t n);
bool matmul_avx512f(const double* a, const double* b, const double* bias,
                    double* out, int64_t m, int64_t k, int64_t n);
bool matmul_avx512f(const float* a, const float* b, const float* bias,
                    float* out, int64_t m, int64_t k, int64_t n);
}  // namespace detail

/// out[n, m] = a[m, n]^T.
void transpose(const real* a, real* out, int64_t m, int64_t n);
void transpose(const float* a, float* out, int64_t m, int64_t n);

// ---- convolution (stride 1, symmetric zero padding) ----

void conv1d_forward(const real* input, const real* weight, const real* bias,
                    real* out, int64_t B, int64_t Cin, int64_t L, int64_t Cout,
                    int64_t K, int64_t padding);
void conv1d_forward(const float* input, const float* weight, const float* bias,
                    float* out, int64_t B, int64_t Cin, int64_t L,
                    int64_t Cout, int64_t K, int64_t padding);
/// grad_input must be zero-initialized. Threads over batch.
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
/// grad_bias must be zero-initialized. Threads over output channels.
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
