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

// ---- fast tanh / gelu ----
//
// tanh dominates SDNet inference (every hidden activation is a GELU whose
// cost is one libm tanh, ~27 cycles/element); these overloads replace it
// with a Cephes-style rational approximation — 4 AVX2 lanes in flight,
// accurate to ~1-2 ulp of std::tanh. The vector lanes and the scalar
// remainder evaluate the identical operation sequence, so the value of an
// element never depends on which chunk or lane computed it: threaded
// execution stays bitwise identical to serial, and eager ops and program
// replay (including fused chains, which route through the *_block_inplace
// entry points) stay bitwise identical to each other. Absolute values
// differ from libm in the last bits. CPUs without AVX2 run std::tanh.
/// True when the fast path runs: the CPU has AVX2.
bool fast_tanh_active();
void map_unary(const real* a, real* out, int64_t n, sfn::Tanh);
void map_unary(const real* a, real* out, int64_t n, sfn::Gelu);
void map_unary(const float* a, float* out, int64_t n, sfn::Tanh);
void map_unary(const float* a, float* out, int64_t n, sfn::Gelu);
/// Serial in-place blocks for the fused-chain interpreter; element-for-
/// element identical to the map_unary overloads (fast path when active,
/// the sfn:: functor otherwise).
void tanh_block_inplace(real* x, int64_t n);
void gelu_block_inplace(real* x, int64_t n);
/// Float twins: the 8-lane ps fast path (Cephes constants narrowed to
/// float via the element type, float exponent build) with a scalar tail
/// that replicates the lane ops, so f32 values are chunk-invariant too.
void tanh_block_inplace(float* x, int64_t n);
void gelu_block_inplace(float* x, int64_t n);

// ---- FMA matmul tier ----
//
// When the CPU has AVX2 and FMA, matmul dispatches to fused-multiply-add
// micro-kernels (~2x arithmetic throughput on the width-64 GEMMs); each
// output element is bitwise equal to the naive loop accumulating
// std::fma(a, b, acc) in ascending k. Otherwise the scalar register-
// blocked loop runs, bitwise equal to the naive `acc += a * b` loop.
// Either way eager, replay, serial and threaded execution all share one
// kernel, so intra-process parity invariants are unaffected.
/// True when matmul runs the FMA tier: the CPU has AVX2 and FMA.
bool fma_kernels_active();

// ---- broadcast elementwise ----

/// Precomputed output-dim strides mapping each output element to the flat
/// offsets of two broadcast operands (stride 0 on broadcast axes).
struct BroadcastPlan {
  BroadcastPlan(const Shape& out, const Shape& a, const Shape& b);

  Shape out_shape;
  std::vector<int64_t> a_strides, b_strides;
  int64_t n = 0;
};

/// out[i] = f(a[ai], b[bi]) over the whole broadcast output. Each thread
/// seeds its multi-index from its chunk start, then walks incrementally.
template <typename T, typename F>
void map_broadcast(const BroadcastPlan& plan, const T* a, const T* b,
                   T* out, F&& f) {
  parallel_for(plan.n, [&](int64_t begin, int64_t end) {
    const int64_t nd = static_cast<int64_t>(plan.out_shape.size());
    std::vector<int64_t> idx(static_cast<std::size_t>(nd), 0);
    int64_t ai = 0, bi = 0;
    int64_t rem = begin;
    for (int64_t d = nd - 1; d >= 0; --d) {
      const auto du = static_cast<std::size_t>(d);
      idx[du] = rem % plan.out_shape[du];
      rem /= plan.out_shape[du];
      ai += idx[du] * plan.a_strides[du];
      bi += idx[du] * plan.b_strides[du];
    }
    for (int64_t i = begin; i < end; ++i) {
      out[i] = f(a[ai], b[bi]);
      for (int64_t d = nd - 1; d >= 0; --d) {
        const auto du = static_cast<std::size_t>(d);
        idx[du]++;
        ai += plan.a_strides[du];
        bi += plan.b_strides[du];
        if (idx[du] < plan.out_shape[du]) break;
        ai -= plan.a_strides[du] * plan.out_shape[du];
        bi -= plan.b_strides[du] * plan.out_shape[du];
        idx[du] = 0;
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
/// f32 GEMM: 8-lane ps micro-kernel with FMA contraction when the CPU has
/// it. Unlike the f64 tiers this path makes no bitwise promise against a
/// scalar reference (the f32 policy is tolerance-gated); it is still
/// deterministic and thread-count-invariant because rows partition the
/// work and each output element accumulates in one thread in kk order.
void matmul(const float* a, const float* b, const float* bias, float* out,
            int64_t m, int64_t k, int64_t n);

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
