#include "ad/kernels.hpp"

#include <atomic>
#include <cmath>
#include <utility>

#if defined(__x86_64__) && defined(__GNUC__)
#define MF_HAVE_AVX2_KERNELS 1
#include <immintrin.h>
#endif

namespace mf::ad::kernels {

namespace {
std::atomic<int64_t> g_grain{4096};
thread_local int g_serial_depth = 0;
}  // namespace

SerialRegionGuard::SerialRegionGuard() { ++g_serial_depth; }
SerialRegionGuard::~SerialRegionGuard() { --g_serial_depth; }

bool in_serial_region() { return g_serial_depth > 0; }

bool openmp_enabled() {
#ifdef MF_HAVE_OPENMP
  return true;
#else
  return false;
#endif
}

int max_threads() {
#ifdef MF_HAVE_OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

void set_num_threads(int n) {
#ifdef MF_HAVE_OPENMP
  omp_set_num_threads(n > 0 ? n : 1);
#else
  (void)n;
#endif
}

int64_t grain() { return g_grain.load(std::memory_order_relaxed); }

void set_grain(int64_t g) {
  g_grain.store(g > 0 ? g : 1, std::memory_order_relaxed);
}

namespace detail {
bool should_thread(int64_t work) {
#ifdef MF_HAVE_OPENMP
  return work >= grain() && !in_serial_region() && omp_get_max_threads() > 1 &&
         !omp_in_parallel();
#else
  (void)work;
  return false;
#endif
}
}  // namespace detail

BroadcastPlan::BroadcastPlan(const Shape& out, const Shape& a, const Shape& b)
    : out_shape(out) {
  const std::size_t nd = out.size();
  a_strides.assign(nd, 0);
  b_strides.assign(nd, 0);
  const auto sa = strides_of(a);
  const auto sb = strides_of(b);
  const std::size_t oa = nd - a.size();
  const std::size_t ob = nd - b.size();
  for (std::size_t d = 0; d < nd; ++d) {
    if (d >= oa && a[d - oa] != 1) a_strides[d] = sa[d - oa];
    if (d >= ob && b[d - ob] != 1) b_strides[d] = sb[d - ob];
  }
  n = numel_of(out);
}

void broadcast_copy(const BroadcastPlan& plan, const real* src, real* out) {
  map_broadcast(plan, src, src, out, [](real x, real) { return x; });
}

void broadcast_copy(const BroadcastPlan& plan, const float* src, float* out) {
  map_broadcast(plan, src, src, out, [](float x, float) { return x; });
}

ReducePlan::ReducePlan(const Shape& src, const Shape& dst) {
  const std::size_t nd = src.size();
  const std::size_t off = nd - dst.size();
  const auto ss = strides_of(src);
  for (std::size_t d = 0; d < nd; ++d) {
    const int64_t dsize = d < off ? 1 : dst[d - off];
    if (dsize == src[d]) {
      out_sizes.push_back(dsize);
      out_src_strides.push_back(ss[d]);
      n_out *= dsize;
    } else {  // dsize == 1, src[d] > 1: reduced axis
      red_sizes.push_back(src[d]);
      red_src_strides.push_back(ss[d]);
      n_red *= src[d];
    }
  }
}

namespace {
// Shared by both widths. The accumulator is always double: for T = real
// this is the pre-existing expression (bitwise unchanged); for T = float
// it is the mixed-precision stability rule — reduce at master width,
// narrow once at the store.
template <typename T>
void reduce_broadcast_impl(const ReducePlan& plan, const T* src, T* dst) {
  const int64_t n_kept = static_cast<int64_t>(plan.out_sizes.size());
  const int64_t n_reddims = static_cast<int64_t>(plan.red_sizes.size());
  parallel_for(plan.n_out, plan.n_red, [&](int64_t begin, int64_t end) {
    std::vector<int64_t> rid(static_cast<std::size_t>(n_reddims), 0);
    for (int64_t o = begin; o < end; ++o) {
      // Decompose o over the kept dims to find the source base offset.
      int64_t base = 0, rem = o;
      for (int64_t d = n_kept - 1; d >= 0; --d) {
        const auto du = static_cast<std::size_t>(d);
        base += (rem % plan.out_sizes[du]) * plan.out_src_strides[du];
        rem /= plan.out_sizes[du];
      }
      // Walk the reduced subspace.
      double acc = 0;
      std::fill(rid.begin(), rid.end(), 0);
      int64_t roff = 0;
      for (int64_t r = 0; r < plan.n_red; ++r) {
        acc += src[base + roff];
        for (int64_t d = n_reddims - 1; d >= 0; --d) {
          const auto du = static_cast<std::size_t>(d);
          rid[du]++;
          roff += plan.red_src_strides[du];
          if (rid[du] < plan.red_sizes[du]) break;
          roff -= plan.red_src_strides[du] * plan.red_sizes[du];
          rid[du] = 0;
        }
      }
      dst[o] = static_cast<T>(acc);
    }
  });
}
}  // namespace

void reduce_broadcast(const ReducePlan& plan, const real* src, real* dst) {
  reduce_broadcast_impl(plan, src, dst);
}

void reduce_broadcast(const ReducePlan& plan, const float* src, float* dst) {
  reduce_broadcast_impl(plan, src, dst);
}

real reduce_sum(const real* a, int64_t n) {
  real acc = 0;
#ifdef MF_HAVE_OPENMP
  if (detail::should_thread(n)) {
#pragma omp parallel for reduction(+ : acc)
    for (int64_t i = 0; i < n; ++i) acc += a[i];
    return acc;
  }
#endif
  for (int64_t i = 0; i < n; ++i) acc += a[i];
  return acc;
}

double reduce_sum(const float* a, int64_t n) {
  double acc = 0;
#ifdef MF_HAVE_OPENMP
  if (detail::should_thread(n)) {
#pragma omp parallel for reduction(+ : acc)
    for (int64_t i = 0; i < n; ++i) acc += a[i];
    return acc;
  }
#endif
  for (int64_t i = 0; i < n; ++i) acc += a[i];
  return acc;
}

real reduce_max_abs(const real* a, int64_t n) {
  real m = 0;
#ifdef MF_HAVE_OPENMP
  if (detail::should_thread(n)) {
#pragma omp parallel for reduction(max : m)
    for (int64_t i = 0; i < n; ++i) m = std::max(m, std::abs(a[i]));
    return m;
  }
#endif
  for (int64_t i = 0; i < n; ++i) m = std::max(m, std::abs(a[i]));
  return m;
}

real reduce_sq_diff(const real* a, const real* b, int64_t n) {
  real acc = 0;
#ifdef MF_HAVE_OPENMP
  if (detail::should_thread(n)) {
#pragma omp parallel for reduction(+ : acc)
    for (int64_t i = 0; i < n; ++i) {
      const real d = a[i] - b[i];
      acc += d * d;
    }
    return acc;
  }
#endif
  for (int64_t i = 0; i < n; ++i) {
    const real d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

real reduce_abs_diff(const real* a, const real* b, int64_t n) {
  real acc = 0;
#ifdef MF_HAVE_OPENMP
  if (detail::should_thread(n)) {
#pragma omp parallel for reduction(+ : acc)
    for (int64_t i = 0; i < n; ++i) acc += std::abs(a[i] - b[i]);
    return acc;
  }
#endif
  for (int64_t i = 0; i < n; ++i) acc += std::abs(a[i] - b[i]);
  return acc;
}

namespace {
// Accumulates at the element width (the dst rows are the accumulators, so
// a double-width accumulator would need a scratch pass); the folded axis
// is a batch dimension of at most a few hundred, well inside f32's
// tolerance budget.
template <typename T>
void sum_axis_impl(const T* src, T* dst, int64_t outer, int64_t n_axis,
                   int64_t inner) {
  parallel_for(outer, n_axis * inner, [&](int64_t begin, int64_t end) {
    for (int64_t o = begin; o < end; ++o) {
      T* drow = dst + o * inner;
      for (int64_t k = 0; k < n_axis; ++k) {
        const T* srow = src + (o * n_axis + k) * inner;
        for (int64_t i = 0; i < inner; ++i) drow[i] += srow[i];
      }
    }
  });
}
}  // namespace

void sum_axis(const real* src, real* dst, int64_t outer, int64_t n_axis,
              int64_t inner) {
  sum_axis_impl(src, dst, outer, n_axis, inner);
}

void sum_axis(const float* src, float* dst, int64_t outer, int64_t n_axis,
              int64_t inner) {
  sum_axis_impl(src, dst, outer, n_axis, inner);
}

// Cache-block sizes (in elements): one b tile is kTileK x kTileN doubles
// (256 KiB), sized so the tile stays resident while every row of the
// thread's chunk streams over it.
constexpr int64_t kTileK = 64;
constexpr int64_t kTileN = 512;

#ifdef MF_HAVE_AVX2_KERNELS
static bool cpu_has_avx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}

static bool cpu_has_fma() {
  static const bool has = __builtin_cpu_supports("fma");
  return has;
}

// ---- FMA matmul micro-kernels ----
//
// Register-blocked like the scalar micro-kernel in matmul() but with
// fused multiply-add: one vfmadd231pd where the scalar loop issues a
// multiply and an add, roughly doubling arithmetic throughput on the
// port-bound width-64 GEMMs of SDNet inference. 4 rows x 8 columns give
// 8 accumulator ymm = 8 independent dependency chains, enough ILP to hide
// the FMA latency. Each output element accumulates std::fma(a, b, acc) in
// ascending kk order whichever strip or tail computes it. No zero-skip:
// fma(0, b, acc) == acc for finite b.
__attribute__((target("avx2,fma"))) static void matmul_rows4_fma(
    const real* a0, const real* a1, const real* a2, const real* a3,
    const real* b, const real* bias, real* orow0, int64_t k, int64_t n) {
  int64_t j0 = 0;
  for (; j0 + 8 <= n; j0 += 8) {
    __m256d acc0a, acc0b, acc1a, acc1b, acc2a, acc2b, acc3a, acc3b;
    if (bias) {
      const __m256d ba = _mm256_loadu_pd(bias + j0);
      const __m256d bb = _mm256_loadu_pd(bias + j0 + 4);
      acc0a = acc1a = acc2a = acc3a = ba;
      acc0b = acc1b = acc2b = acc3b = bb;
    } else {
      acc0a = acc0b = acc1a = acc1b = acc2a = acc2b = acc3a = acc3b =
          _mm256_setzero_pd();
    }
    const real* brow = b + j0;
    for (int64_t kk = 0; kk < k; ++kk, brow += n) {
      const __m256d bva = _mm256_loadu_pd(brow);
      const __m256d bvb = _mm256_loadu_pd(brow + 4);
      const __m256d av0 = _mm256_set1_pd(a0[kk]);
      acc0a = _mm256_fmadd_pd(av0, bva, acc0a);
      acc0b = _mm256_fmadd_pd(av0, bvb, acc0b);
      const __m256d av1 = _mm256_set1_pd(a1[kk]);
      acc1a = _mm256_fmadd_pd(av1, bva, acc1a);
      acc1b = _mm256_fmadd_pd(av1, bvb, acc1b);
      const __m256d av2 = _mm256_set1_pd(a2[kk]);
      acc2a = _mm256_fmadd_pd(av2, bva, acc2a);
      acc2b = _mm256_fmadd_pd(av2, bvb, acc2b);
      const __m256d av3 = _mm256_set1_pd(a3[kk]);
      acc3a = _mm256_fmadd_pd(av3, bva, acc3a);
      acc3b = _mm256_fmadd_pd(av3, bvb, acc3b);
    }
    _mm256_storeu_pd(orow0 + j0, acc0a);
    _mm256_storeu_pd(orow0 + j0 + 4, acc0b);
    _mm256_storeu_pd(orow0 + n + j0, acc1a);
    _mm256_storeu_pd(orow0 + n + j0 + 4, acc1b);
    _mm256_storeu_pd(orow0 + 2 * n + j0, acc2a);
    _mm256_storeu_pd(orow0 + 2 * n + j0 + 4, acc2b);
    _mm256_storeu_pd(orow0 + 3 * n + j0, acc3a);
    _mm256_storeu_pd(orow0 + 3 * n + j0 + 4, acc3b);
  }
  for (; j0 + 4 <= n; j0 += 4) {
    __m256d acc0, acc1, acc2, acc3;
    if (bias) {
      acc0 = acc1 = acc2 = acc3 = _mm256_loadu_pd(bias + j0);
    } else {
      acc0 = acc1 = acc2 = acc3 = _mm256_setzero_pd();
    }
    const real* brow = b + j0;
    for (int64_t kk = 0; kk < k; ++kk, brow += n) {
      const __m256d bv = _mm256_loadu_pd(brow);
      acc0 = _mm256_fmadd_pd(_mm256_set1_pd(a0[kk]), bv, acc0);
      acc1 = _mm256_fmadd_pd(_mm256_set1_pd(a1[kk]), bv, acc1);
      acc2 = _mm256_fmadd_pd(_mm256_set1_pd(a2[kk]), bv, acc2);
      acc3 = _mm256_fmadd_pd(_mm256_set1_pd(a3[kk]), bv, acc3);
    }
    _mm256_storeu_pd(orow0 + j0, acc0);
    _mm256_storeu_pd(orow0 + n + j0, acc1);
    _mm256_storeu_pd(orow0 + 2 * n + j0, acc2);
    _mm256_storeu_pd(orow0 + 3 * n + j0, acc3);
  }
  if (j0 < n) {  // column remainder: scalar with explicit std::fma
    const int64_t jw = n - j0;
    real acc[4][4];
    for (int64_t r = 0; r < 4; ++r)
      for (int64_t j = 0; j < jw; ++j) acc[r][j] = bias ? bias[j0 + j] : 0;
    for (int64_t kk = 0; kk < k; ++kk) {
      const real* brow = b + kk * n + j0;
      const real av[4] = {a0[kk], a1[kk], a2[kk], a3[kk]};
      for (int64_t r = 0; r < 4; ++r)
        for (int64_t j = 0; j < jw; ++j)
          acc[r][j] = std::fma(av[r], brow[j], acc[r][j]);
    }
    for (int64_t r = 0; r < 4; ++r)
      for (int64_t j = 0; j < jw; ++j) orow0[r * n + j0 + j] = acc[r][j];
  }
}

__attribute__((target("avx2,fma"))) static void matmul_rows1_fma(
    const real* arow, const real* b, const real* bias, real* orow, int64_t k,
    int64_t n) {
  int64_t j0 = 0;
  for (; j0 + 4 <= n; j0 += 4) {
    __m256d acc = bias ? _mm256_loadu_pd(bias + j0) : _mm256_setzero_pd();
    const real* brow = b + j0;
    for (int64_t kk = 0; kk < k; ++kk, brow += n) {
      acc = _mm256_fmadd_pd(_mm256_set1_pd(arow[kk]), _mm256_loadu_pd(brow),
                            acc);
    }
    _mm256_storeu_pd(orow + j0, acc);
  }
  for (int64_t j = j0; j < n; ++j) orow[j] = bias ? bias[j] : 0;
  for (int64_t kk = 0; kk < k && j0 < n; ++kk) {
    const real av = arow[kk];
    const real* brow = b + kk * n;
    for (int64_t j = j0; j < n; ++j) orow[j] = std::fma(av, brow[j], orow[j]);
  }
}

__attribute__((target("avx2,fma"))) static void axpy_fma(const real* brow,
                                                         real* orow, real av,
                                                         int64_t len) {
  const __m256d avv = _mm256_set1_pd(av);
  int64_t j = 0;
  for (; j + 4 <= len; j += 4) {
    _mm256_storeu_pd(orow + j, _mm256_fmadd_pd(avv, _mm256_loadu_pd(brow + j),
                                               _mm256_loadu_pd(orow + j)));
  }
  for (; j < len; ++j) orow[j] = std::fma(av, brow[j], orow[j]);
}

// ---- float FMA matmul micro-kernels ----
//
// 8-lane ps twins of the FMA tier above: 4 rows of a share every b load,
// with a 16-column (two-register) accumulator strip per row. The float
// tier makes no bitwise promise against a scalar loop (it is
// tolerance-gated), but it is deterministic and thread-count-invariant:
// row partitioning plus a fixed ascending kk order means an output
// element's value never depends on the thread count.
__attribute__((target("avx2,fma"))) static void matmul_rows4_fma_f(
    const float* a0, const float* a1, const float* a2, const float* a3,
    const float* b, const float* bias, float* orow0, int64_t k, int64_t n) {
  int64_t j0 = 0;
  for (; j0 + 16 <= n; j0 += 16) {
    __m256 acc0a, acc0b, acc1a, acc1b, acc2a, acc2b, acc3a, acc3b;
    if (bias) {
      const __m256 ba = _mm256_loadu_ps(bias + j0);
      const __m256 bb = _mm256_loadu_ps(bias + j0 + 8);
      acc0a = acc1a = acc2a = acc3a = ba;
      acc0b = acc1b = acc2b = acc3b = bb;
    } else {
      acc0a = acc0b = acc1a = acc1b = acc2a = acc2b = acc3a = acc3b =
          _mm256_setzero_ps();
    }
    const float* brow = b + j0;
    for (int64_t kk = 0; kk < k; ++kk, brow += n) {
      const __m256 bva = _mm256_loadu_ps(brow);
      const __m256 bvb = _mm256_loadu_ps(brow + 8);
      const __m256 av0 = _mm256_set1_ps(a0[kk]);
      acc0a = _mm256_fmadd_ps(av0, bva, acc0a);
      acc0b = _mm256_fmadd_ps(av0, bvb, acc0b);
      const __m256 av1 = _mm256_set1_ps(a1[kk]);
      acc1a = _mm256_fmadd_ps(av1, bva, acc1a);
      acc1b = _mm256_fmadd_ps(av1, bvb, acc1b);
      const __m256 av2 = _mm256_set1_ps(a2[kk]);
      acc2a = _mm256_fmadd_ps(av2, bva, acc2a);
      acc2b = _mm256_fmadd_ps(av2, bvb, acc2b);
      const __m256 av3 = _mm256_set1_ps(a3[kk]);
      acc3a = _mm256_fmadd_ps(av3, bva, acc3a);
      acc3b = _mm256_fmadd_ps(av3, bvb, acc3b);
    }
    _mm256_storeu_ps(orow0 + j0, acc0a);
    _mm256_storeu_ps(orow0 + j0 + 8, acc0b);
    _mm256_storeu_ps(orow0 + n + j0, acc1a);
    _mm256_storeu_ps(orow0 + n + j0 + 8, acc1b);
    _mm256_storeu_ps(orow0 + 2 * n + j0, acc2a);
    _mm256_storeu_ps(orow0 + 2 * n + j0 + 8, acc2b);
    _mm256_storeu_ps(orow0 + 3 * n + j0, acc3a);
    _mm256_storeu_ps(orow0 + 3 * n + j0 + 8, acc3b);
  }
  for (; j0 + 8 <= n; j0 += 8) {
    __m256 acc0, acc1, acc2, acc3;
    if (bias) {
      acc0 = acc1 = acc2 = acc3 = _mm256_loadu_ps(bias + j0);
    } else {
      acc0 = acc1 = acc2 = acc3 = _mm256_setzero_ps();
    }
    const float* brow = b + j0;
    for (int64_t kk = 0; kk < k; ++kk, brow += n) {
      const __m256 bv = _mm256_loadu_ps(brow);
      acc0 = _mm256_fmadd_ps(_mm256_set1_ps(a0[kk]), bv, acc0);
      acc1 = _mm256_fmadd_ps(_mm256_set1_ps(a1[kk]), bv, acc1);
      acc2 = _mm256_fmadd_ps(_mm256_set1_ps(a2[kk]), bv, acc2);
      acc3 = _mm256_fmadd_ps(_mm256_set1_ps(a3[kk]), bv, acc3);
    }
    _mm256_storeu_ps(orow0 + j0, acc0);
    _mm256_storeu_ps(orow0 + n + j0, acc1);
    _mm256_storeu_ps(orow0 + 2 * n + j0, acc2);
    _mm256_storeu_ps(orow0 + 3 * n + j0, acc3);
  }
  if (j0 < n) {  // column remainder: scalar with explicit std::fma
    const int64_t jw = n - j0;
    float acc[4][8];
    for (int64_t r = 0; r < 4; ++r)
      for (int64_t j = 0; j < jw; ++j) acc[r][j] = bias ? bias[j0 + j] : 0;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* brow = b + kk * n + j0;
      const float av[4] = {a0[kk], a1[kk], a2[kk], a3[kk]};
      for (int64_t r = 0; r < 4; ++r)
        for (int64_t j = 0; j < jw; ++j)
          acc[r][j] = std::fma(av[r], brow[j], acc[r][j]);
    }
    for (int64_t r = 0; r < 4; ++r)
      for (int64_t j = 0; j < jw; ++j) orow0[r * n + j0 + j] = acc[r][j];
  }
}

__attribute__((target("avx2,fma"))) static void matmul_rows1_fma_f(
    const float* arow, const float* b, const float* bias, float* orow,
    int64_t k, int64_t n) {
  int64_t j0 = 0;
  for (; j0 + 8 <= n; j0 += 8) {
    __m256 acc = bias ? _mm256_loadu_ps(bias + j0) : _mm256_setzero_ps();
    const float* brow = b + j0;
    for (int64_t kk = 0; kk < k; ++kk, brow += n) {
      acc = _mm256_fmadd_ps(_mm256_set1_ps(arow[kk]), _mm256_loadu_ps(brow),
                            acc);
    }
    _mm256_storeu_ps(orow + j0, acc);
  }
  for (int64_t j = j0; j < n; ++j) orow[j] = bias ? bias[j] : 0;
  for (int64_t kk = 0; kk < k && j0 < n; ++kk) {
    const float av = arow[kk];
    const float* brow = b + kk * n;
    for (int64_t j = j0; j < n; ++j) orow[j] = std::fma(av, brow[j], orow[j]);
  }
}

__attribute__((target("avx2,fma"))) static void axpy_fma_f(const float* brow,
                                                           float* orow,
                                                           float av,
                                                           int64_t len) {
  const __m256 avv = _mm256_set1_ps(av);
  int64_t j = 0;
  for (; j + 8 <= len; j += 8) {
    _mm256_storeu_ps(orow + j, _mm256_fmadd_ps(avv, _mm256_loadu_ps(brow + j),
                                               _mm256_loadu_ps(orow + j)));
  }
  for (; j < len; ++j) orow[j] = std::fma(av, brow[j], orow[j]);
}

/// 4-lane body of binary_block; `op` selects the instruction outside the
/// vector loop. Scalar tail for n % 4.
__attribute__((target("avx2"))) static void binary_block_avx2(
    const real* a, const real* b, real* out, int64_t n, BinaryOp op) {
  int64_t i = 0;
  switch (op) {
    case BinaryOp::kAdd:
      for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(a + i),
                                                _mm256_loadu_pd(b + i)));
      for (; i < n; ++i) out[i] = a[i] + b[i];
      break;
    case BinaryOp::kSub:
      for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(out + i, _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                                _mm256_loadu_pd(b + i)));
      for (; i < n; ++i) out[i] = a[i] - b[i];
      break;
    case BinaryOp::kMul:
      for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                                _mm256_loadu_pd(b + i)));
      for (; i < n; ++i) out[i] = a[i] * b[i];
      break;
    case BinaryOp::kDiv:
      for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(out + i, _mm256_div_pd(_mm256_loadu_pd(a + i),
                                                _mm256_loadu_pd(b + i)));
      for (; i < n; ++i) out[i] = a[i] / b[i];
      break;
  }
}

/// 8-lane ps twin of binary_block_avx2. Per-lane IEEE ops, so the vector
/// body and the scalar tail produce identical float bits.
__attribute__((target("avx2"))) static void binary_block_avx2_f(
    const float* a, const float* b, float* out, int64_t n, BinaryOp op) {
  int64_t i = 0;
  switch (op) {
    case BinaryOp::kAdd:
      for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                                _mm256_loadu_ps(b + i)));
      for (; i < n; ++i) out[i] = a[i] + b[i];
      break;
    case BinaryOp::kSub:
      for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(out + i, _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                                _mm256_loadu_ps(b + i)));
      for (; i < n; ++i) out[i] = a[i] - b[i];
      break;
    case BinaryOp::kMul:
      for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                                _mm256_loadu_ps(b + i)));
      for (; i < n; ++i) out[i] = a[i] * b[i];
      break;
    case BinaryOp::kDiv:
      for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(out + i, _mm256_div_ps(_mm256_loadu_ps(a + i),
                                                _mm256_loadu_ps(b + i)));
      for (; i < n; ++i) out[i] = a[i] / b[i];
      break;
  }
}
#endif  // MF_HAVE_AVX2_KERNELS

namespace {
template <typename T>
void binary_block_scalar(const T* a, const T* b, T* out, int64_t n,
                         BinaryOp op) {
  auto run = [&](auto f) {
    for (int64_t i = 0; i < n; ++i) out[i] = f(a[i], b[i]);
  };
  switch (op) {
    case BinaryOp::kAdd: run(sfn::Add{}); break;
    case BinaryOp::kSub: run(sfn::Sub{}); break;
    case BinaryOp::kMul: run(sfn::Mul{}); break;
    case BinaryOp::kDiv: run(sfn::Div{}); break;
  }
}

template <typename T>
void map_binary_blocks(const T* a, const T* b, T* out, int64_t n,
                       BinaryOp op) {
  parallel_for(n, [&](int64_t begin, int64_t end) {
    binary_block(a + begin, b + begin, out + begin, end - begin, op);
  });
}
}  // namespace

void binary_block(const real* a, const real* b, real* out, int64_t n,
                  BinaryOp op) {
#ifdef MF_HAVE_AVX2_KERNELS
  if (cpu_has_avx2()) {
    binary_block_avx2(a, b, out, n, op);
    return;
  }
#endif
  binary_block_scalar(a, b, out, n, op);
}

void binary_block(const float* a, const float* b, float* out, int64_t n,
                  BinaryOp op) {
#ifdef MF_HAVE_AVX2_KERNELS
  if (cpu_has_avx2()) {
    binary_block_avx2_f(a, b, out, n, op);
    return;
  }
#endif
  binary_block_scalar(a, b, out, n, op);
}

void map_binary(const real* a, const real* b, real* out, int64_t n, sfn::Add) {
  map_binary_blocks(a, b, out, n, BinaryOp::kAdd);
}
void map_binary(const real* a, const real* b, real* out, int64_t n, sfn::Sub) {
  map_binary_blocks(a, b, out, n, BinaryOp::kSub);
}
void map_binary(const real* a, const real* b, real* out, int64_t n, sfn::Mul) {
  map_binary_blocks(a, b, out, n, BinaryOp::kMul);
}
void map_binary(const real* a, const real* b, real* out, int64_t n, sfn::Div) {
  map_binary_blocks(a, b, out, n, BinaryOp::kDiv);
}
void map_binary(const float* a, const float* b, float* out, int64_t n,
                sfn::Add) {
  map_binary_blocks(a, b, out, n, BinaryOp::kAdd);
}
void map_binary(const float* a, const float* b, float* out, int64_t n,
                sfn::Sub) {
  map_binary_blocks(a, b, out, n, BinaryOp::kSub);
}
void map_binary(const float* a, const float* b, float* out, int64_t n,
                sfn::Mul) {
  map_binary_blocks(a, b, out, n, BinaryOp::kMul);
}
void map_binary(const float* a, const float* b, float* out, int64_t n,
                sfn::Div) {
  map_binary_blocks(a, b, out, n, BinaryOp::kDiv);
}

// ---- fast tanh ----
//
// Cephes-style double-precision tanh (rational minimax on |x| < 0.625,
// exp-based elsewhere, saturated past 19.0625), run by the tanh activation
// and by GELU's compositional backward. The scalar remainder routine below
// replicates the vector lane operation-for-operation — same polynomial
// order, same round-to-nearest for the exp exponent, same exact 2^n
// scaling, no FMA on either side (neither calls one, and the build pins
// -ffp-contract=off so the compiler fuses none) — so a given input
// produces the same bits regardless of whether a 4-lane group or the tail
// computed it. That property is what keeps threaded/serial and
// eager/replay comparisons bitwise stable.

namespace {

constexpr double kTanhSmall = 0.625;
constexpr double kTanhSat = 19.0625;
// tanh rational coefficients (numerator P, monic denominator Q).
constexpr double kTP0 = -9.64399179425052238628e-1;
constexpr double kTP1 = -9.92877231001918586564e1;
constexpr double kTP2 = -1.61468768441708447952e3;
constexpr double kTQ0 = 1.12811678491632931402e2;
constexpr double kTQ1 = 2.23548839060100448583e3;
constexpr double kTQ2 = 4.84406305325125486048e3;
// exp rational coefficients and argument-reduction constants.
constexpr double kEP0 = 1.26177193074810590878e-4;
constexpr double kEP1 = 3.02994407707441961300e-2;
constexpr double kEP2 = 9.99999999999999999910e-1;
constexpr double kEQ0 = 3.00198505138664455042e-6;
constexpr double kEQ1 = 2.52448340349684104192e-3;
constexpr double kEQ2 = 2.27265548208155028766e-1;
constexpr double kEQ3 = 2.0;
constexpr double kLog2E = 1.4426950408889634073599;
constexpr double kExpC1 = 6.93145751953125e-1;
constexpr double kExpC2 = 1.42860682030941723212e-6;

// exp(x) for x in the reduced tanh range [1.25, 2*kTanhSat); not a
// general exp (no overflow/underflow handling — callers bound the arg).
inline double fast_exp_scalar(double x) {
  const double n = std::nearbyint(x * kLog2E);
  x = x - n * kExpC1;
  x = x - n * kExpC2;
  const double z = x * x;
  const double px = x * ((kEP0 * z + kEP1) * z + kEP2);
  const double qx = ((kEQ0 * z + kEQ1) * z + kEQ2) * z + kEQ3;
  const double r = 1.0 + 2.0 * (px / (qx - px));
  // Exact 2^n scaling via exponent-field construction, mirroring the
  // vector lane's integer build of the scale factor.
  return r * std::ldexp(1.0, static_cast<int>(n));
}

inline double fast_tanh_scalar(double x) {
  const double ax = std::fabs(x);
  if (ax < kTanhSmall) {
    const double z = x * x;
    const double num = (kTP0 * z + kTP1) * z + kTP2;
    const double den = ((z + kTQ0) * z + kTQ1) * z + kTQ2;
    return x + (x * z) * (num / den);
  }
  if (ax != ax) return x;  // NaN propagates (cannot reach the bit casts)
  double large = 1.0;
  if (!(ax >= kTanhSat)) {
    const double e = fast_exp_scalar(ax + ax);
    large = 1.0 - 2.0 / (e + 1.0);
  }
  return std::copysign(large, x);
}

// ---- float twins ----
//
// Every constant is the double Cephes table narrowed through the element
// type — no double arithmetic hides inside the float path (the satellite
// float-narrowing rule), and the rational forms are already far more
// accurate than float eps. The exponent scaling builds a float via
// (n + 127) << 23, mirroring the double path's (n + 1023) << 52. As with
// the double tier, the scalar tail replicates the lane ops exactly, so an
// element's value never depends on which chunk or lane computed it.

constexpr float kTanhSmallF = static_cast<float>(kTanhSmall);
constexpr float kTanhSatF = static_cast<float>(kTanhSat);
constexpr float kTP0F = static_cast<float>(kTP0);
constexpr float kTP1F = static_cast<float>(kTP1);
constexpr float kTP2F = static_cast<float>(kTP2);
constexpr float kTQ0F = static_cast<float>(kTQ0);
constexpr float kTQ1F = static_cast<float>(kTQ1);
constexpr float kTQ2F = static_cast<float>(kTQ2);
constexpr float kEP0F = static_cast<float>(kEP0);
constexpr float kEP1F = static_cast<float>(kEP1);
constexpr float kEP2F = static_cast<float>(kEP2);
constexpr float kEQ0F = static_cast<float>(kEQ0);
constexpr float kEQ1F = static_cast<float>(kEQ1);
constexpr float kEQ2F = static_cast<float>(kEQ2);
constexpr float kEQ3F = static_cast<float>(kEQ3);
constexpr float kLog2EF = static_cast<float>(kLog2E);
constexpr float kExpC1F = static_cast<float>(kExpC1);
constexpr float kExpC2F = static_cast<float>(kExpC2);

// exp(x) for the reduced tanh range; n stays below 56, so the float
// exponent field cannot overflow.
inline float fast_exp_scalar_f(float x) {
  const float n = std::nearbyint(x * kLog2EF);
  x = x - n * kExpC1F;
  x = x - n * kExpC2F;
  const float z = x * x;
  const float px = x * ((kEP0F * z + kEP1F) * z + kEP2F);
  const float qx = ((kEQ0F * z + kEQ1F) * z + kEQ2F) * z + kEQ3F;
  const float r = 1.0f + 2.0f * (px / (qx - px));
  return r * std::ldexp(1.0f, static_cast<int>(n));
}

inline float fast_tanh_scalar_f(float x) {
  const float ax = std::fabs(x);
  if (ax < kTanhSmallF) {
    const float z = x * x;
    const float num = (kTP0F * z + kTP1F) * z + kTP2F;
    const float den = ((z + kTQ0F) * z + kTQ1F) * z + kTQ2F;
    return x + (x * z) * (num / den);
  }
  if (ax != ax) return x;  // NaN propagates (cannot reach the bit casts)
  float large = 1.0f;
  if (!(ax >= kTanhSatF)) {
    const float e = fast_exp_scalar_f(ax + ax);
    large = 1.0f - 2.0f / (e + 1.0f);
  }
  return std::copysign(large, x);
}

}  // namespace

bool fma_kernels_active() {
#ifdef MF_HAVE_AVX2_KERNELS
  return cpu_has_avx2() && cpu_has_fma();
#else
  return false;
#endif
}

bool fast_tanh_active() {
#ifdef MF_HAVE_AVX2_KERNELS
  return cpu_has_avx2();
#else
  return false;
#endif
}

#ifdef MF_HAVE_AVX2_KERNELS
__attribute__((target("avx2"))) static inline __m256d fast_exp_pd(__m256d x) {
  const __m256d n = _mm256_round_pd(
      _mm256_mul_pd(x, _mm256_set1_pd(kLog2E)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  x = _mm256_sub_pd(x, _mm256_mul_pd(n, _mm256_set1_pd(kExpC1)));
  x = _mm256_sub_pd(x, _mm256_mul_pd(n, _mm256_set1_pd(kExpC2)));
  const __m256d z = _mm256_mul_pd(x, x);
  const __m256d px = _mm256_mul_pd(
      x, _mm256_add_pd(
             _mm256_mul_pd(
                 _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(kEP0), z),
                               _mm256_set1_pd(kEP1)),
                 z),
             _mm256_set1_pd(kEP2)));
  const __m256d qx = _mm256_add_pd(
      _mm256_mul_pd(
          _mm256_add_pd(
              _mm256_mul_pd(
                  _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(kEQ0), z),
                                _mm256_set1_pd(kEQ1)),
                  z),
              _mm256_set1_pd(kEQ2)),
          z),
      _mm256_set1_pd(kEQ3));
  const __m256d r = _mm256_add_pd(
      _mm256_set1_pd(1.0),
      _mm256_mul_pd(_mm256_set1_pd(2.0), _mm256_div_pd(px, _mm256_sub_pd(qx, px))));
  // 2^n: n is integral and small (|n| < 64 in the tanh range), so the
  // int32 convert is exact and the exponent field cannot overflow.
  const __m128i ni = _mm256_cvtpd_epi32(n);
  const __m256i ni64 = _mm256_cvtepi32_epi64(ni);
  const __m256i bits =
      _mm256_slli_epi64(_mm256_add_epi64(ni64, _mm256_set1_epi64x(1023)), 52);
  return _mm256_mul_pd(r, _mm256_castsi256_pd(bits));
}

__attribute__((target("avx2"))) static inline __m256d fast_tanh_pd(__m256d x) {
  const __m256d signmask = _mm256_set1_pd(-0.0);
  const __m256d sign = _mm256_and_pd(x, signmask);
  const __m256d ax = _mm256_andnot_pd(signmask, x);
  // |x| < 0.625: x + x*z*P(z)/Q(z)
  const __m256d z = _mm256_mul_pd(x, x);
  const __m256d num = _mm256_add_pd(
      _mm256_mul_pd(_mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(kTP0), z),
                                  _mm256_set1_pd(kTP1)),
                    z),
      _mm256_set1_pd(kTP2));
  const __m256d den = _mm256_add_pd(
      _mm256_mul_pd(
          _mm256_add_pd(
              _mm256_mul_pd(_mm256_add_pd(z, _mm256_set1_pd(kTQ0)), z),
              _mm256_set1_pd(kTQ1)),
          z),
      _mm256_set1_pd(kTQ2));
  const __m256d small = _mm256_add_pd(
      x, _mm256_mul_pd(_mm256_mul_pd(x, z), _mm256_div_pd(num, den)));
  // |x| >= 0.625: 1 - 2/(exp(2|x|) + 1), saturated past kTanhSat.
  const __m256d e = fast_exp_pd(_mm256_add_pd(ax, ax));
  __m256d large = _mm256_sub_pd(
      _mm256_set1_pd(1.0),
      _mm256_div_pd(_mm256_set1_pd(2.0),
                    _mm256_add_pd(e, _mm256_set1_pd(1.0))));
  const __m256d sat = _mm256_cmp_pd(ax, _mm256_set1_pd(kTanhSat), _CMP_GE_OQ);
  large = _mm256_blendv_pd(large, _mm256_set1_pd(1.0), sat);
  large = _mm256_or_pd(large, sign);
  const __m256d small_mask =
      _mm256_cmp_pd(ax, _mm256_set1_pd(kTanhSmall), _CMP_LT_OQ);
  return _mm256_blendv_pd(large, small, small_mask);
}

__attribute__((target("avx2"))) static void tanh_block_avx2(const real* a,
                                                            real* out,
                                                            int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(out + i, fast_tanh_pd(_mm256_loadu_pd(a + i)));
  for (; i < n; ++i) out[i] = fast_tanh_scalar(a[i]);
}

// 8-lane float twins of the pd tanh tier. Same structure, float-narrowed
// constants, and the 2^n scale built in the float exponent field.
__attribute__((target("avx2"))) static inline __m256 fast_exp_ps(__m256 x) {
  const __m256 n = _mm256_round_ps(
      _mm256_mul_ps(x, _mm256_set1_ps(kLog2EF)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  x = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(kExpC1F)));
  x = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(kExpC2F)));
  const __m256 z = _mm256_mul_ps(x, x);
  const __m256 px = _mm256_mul_ps(
      x, _mm256_add_ps(
             _mm256_mul_ps(
                 _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(kEP0F), z),
                               _mm256_set1_ps(kEP1F)),
                 z),
             _mm256_set1_ps(kEP2F)));
  const __m256 qx = _mm256_add_ps(
      _mm256_mul_ps(
          _mm256_add_ps(
              _mm256_mul_ps(
                  _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(kEQ0F), z),
                                _mm256_set1_ps(kEQ1F)),
                  z),
              _mm256_set1_ps(kEQ2F)),
          z),
      _mm256_set1_ps(kEQ3F));
  const __m256 r = _mm256_add_ps(
      _mm256_set1_ps(1.0f),
      _mm256_mul_ps(_mm256_set1_ps(2.0f),
                    _mm256_div_ps(px, _mm256_sub_ps(qx, px))));
  // 2^n via (n + 127) << 23; n is integral and |n| < 56 in the tanh range.
  const __m256i ni = _mm256_cvtps_epi32(n);
  const __m256i bits =
      _mm256_slli_epi32(_mm256_add_epi32(ni, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(r, _mm256_castsi256_ps(bits));
}

__attribute__((target("avx2"))) static inline __m256 fast_tanh_ps(__m256 x) {
  const __m256 signmask = _mm256_set1_ps(-0.0f);
  const __m256 sign = _mm256_and_ps(x, signmask);
  const __m256 ax = _mm256_andnot_ps(signmask, x);
  // |x| < 0.625: x + x*z*P(z)/Q(z)
  const __m256 z = _mm256_mul_ps(x, x);
  const __m256 num = _mm256_add_ps(
      _mm256_mul_ps(_mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(kTP0F), z),
                                  _mm256_set1_ps(kTP1F)),
                    z),
      _mm256_set1_ps(kTP2F));
  const __m256 den = _mm256_add_ps(
      _mm256_mul_ps(
          _mm256_add_ps(
              _mm256_mul_ps(_mm256_add_ps(z, _mm256_set1_ps(kTQ0F)), z),
              _mm256_set1_ps(kTQ1F)),
          z),
      _mm256_set1_ps(kTQ2F));
  const __m256 small = _mm256_add_ps(
      x, _mm256_mul_ps(_mm256_mul_ps(x, z), _mm256_div_ps(num, den)));
  // |x| >= 0.625: 1 - 2/(exp(2|x|) + 1), saturated past kTanhSat.
  const __m256 e = fast_exp_ps(_mm256_add_ps(ax, ax));
  __m256 large = _mm256_sub_ps(
      _mm256_set1_ps(1.0f),
      _mm256_div_ps(_mm256_set1_ps(2.0f),
                    _mm256_add_ps(e, _mm256_set1_ps(1.0f))));
  const __m256 sat = _mm256_cmp_ps(ax, _mm256_set1_ps(kTanhSatF), _CMP_GE_OQ);
  large = _mm256_blendv_ps(large, _mm256_set1_ps(1.0f), sat);
  large = _mm256_or_ps(large, sign);
  const __m256 small_mask =
      _mm256_cmp_ps(ax, _mm256_set1_ps(kTanhSmallF), _CMP_LT_OQ);
  return _mm256_blendv_ps(large, small, small_mask);
}

__attribute__((target("avx2"))) static void tanh_block_avx2_f(const float* a,
                                                              float* out,
                                                              int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(out + i, fast_tanh_ps(_mm256_loadu_ps(a + i)));
  for (; i < n; ++i) out[i] = fast_tanh_scalar_f(a[i]);
}

#endif  // MF_HAVE_AVX2_KERNELS

void map_unary(const real* a, real* out, int64_t n, sfn::Tanh) {
#ifdef MF_HAVE_AVX2_KERNELS
  if (fast_tanh_active()) {
    parallel_for(n, [&](int64_t begin, int64_t end) {
      tanh_block_avx2(a + begin, out + begin, end - begin);
    });
    return;
  }
#endif
  parallel_for(n, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) out[i] = sfn::Tanh{}(a[i]);
  });
}

void tanh_block_inplace(real* x, int64_t n) {
#ifdef MF_HAVE_AVX2_KERNELS
  if (fast_tanh_active()) {
    tanh_block_avx2(x, x, n);
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) x[i] = sfn::Tanh{}(x[i]);
}

void map_unary(const float* a, float* out, int64_t n, sfn::Tanh) {
#ifdef MF_HAVE_AVX2_KERNELS
  if (fast_tanh_active()) {
    parallel_for(n, [&](int64_t begin, int64_t end) {
      tanh_block_avx2_f(a + begin, out + begin, end - begin);
    });
    return;
  }
#endif
  parallel_for(n, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) out[i] = sfn::Tanh{}(a[i]);
  });
}

void tanh_block_inplace(float* x, int64_t n) {
#ifdef MF_HAVE_AVX2_KERNELS
  if (fast_tanh_active()) {
    tanh_block_avx2_f(x, x, n);
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) x[i] = sfn::Tanh{}(x[i]);
}

// ---- GELU: x / (1 + exp(t)) ----
//
// gelu(x) = 0.5·x·(1 + tanh(u)) with u = √(2/π)·(x + 0.044715·x³) equals
// x / (1 + e^t) with t = −2u = x·(a + b·x²), a = −2·√(2/π), b = a·0.044715:
// one divide and no tanh. One lane formula, written once over a small
// per-ISA ops struct, evaluates it:
//   t = x·fma(b, x², a), clamped to ±708 (f32: ±87);
//   k = fma(t, log2e, S) with S = 1.5·2^52 + 1023 (f32: 1.5·2^23 + 127),
//     so n = k − S = round(t·log2e) and bits(k) << 52 (f32: << 23) = 2^n;
//   r = t − n·ln2_hi − n·ln2_lo in two FMAs, and exp(r) by FMA Horner on
//     the Taylor coefficients (degree 12; f32: degree 7);
//   gelu = x / (1 + exp(r)·2^n), or x·0 where t hit the upper clamp, which
//     keeps gelu(+inf) = +inf, gelu(−inf) = NaN and gelu(x ≤ −30) = −0.
// Every step is one IEEE operation, so the 4-lane AVX2+FMA and the 8-lane
// AVX-512F f64 tiers (8 and 16 lanes at f32) give the same bits, and tails
// run through the same lanes (a zero-padded block on AVX2, masked loads and
// stores on AVX-512): an element's value never depends on its chunk. CPUs
// with neither tier run the sfn::Gelu functor (std::tanh).

namespace {

template <typename T>
struct GeluConsts;

template <>
struct GeluConsts<double> {
  static constexpr double kA = -2 * sfn::gelu_coeff<double>;
  static constexpr double kB = kA * sfn::gelu_cubic<double>;
  static constexpr double kClamp = 708;
  static constexpr double kLog2e = kLog2E;
  static constexpr double kShift = 0x1.8p52 + 1023;
  static constexpr double kLn2Hi = kExpC1;
  static constexpr double kLn2Lo = kExpC2;
  static constexpr int kDegree = 12;
};

template <>
struct GeluConsts<float> {
  static constexpr float kA = -2 * sfn::gelu_coeff<float>;
  static constexpr float kB = kA * sfn::gelu_cubic<float>;
  static constexpr float kClamp = 87;
  static constexpr float kLog2e = kLog2EF;
  static constexpr float kShift = 0x1.8p23f + 127;
  static constexpr float kLn2Hi = kExpC1F;
  static constexpr float kLn2Lo = kExpC2F;
  static constexpr int kDegree = 7;
};

/// 1/k! at the element width: the Taylor coefficients of exp.
template <typename T>
constexpr T inv_factorial(int k) {
  double f = 1;
  for (int i = 2; i <= k; ++i) f *= i;
  return static_cast<T>(1.0 / f);
}

/// p = exp(r) by Horner from the degree-kDegree coefficient down to 1/0!.
template <class O, int... I>
inline void exp_poly(typename O::V& p, const typename O::V& r,
                     std::integer_sequence<int, I...>) {
  using T = typename O::T;
  constexpr int kDeg = GeluConsts<T>::kDegree;
  typename O::V c;
  O::set1(p, inv_factorial<T>(kDeg));
  ((O::set1(c, inv_factorial<T>(kDeg - 1 - I)), O::fma(p, p, r, c)), ...);
}

/// gelu on every lane of x, in place. Ops calls write their first argument
/// (no vector passes by value, so the template itself needs no target).
template <class O>
inline void gelu_lane(typename O::V& x) {
  using T = typename O::T;
  using C = GeluConsts<T>;
  typename O::V x2, t, k, n, r, p, c0, c1;
  typename O::M over;
  O::mul(x2, x, x);
  O::set1(c0, C::kB);
  O::set1(c1, C::kA);
  O::fma(t, c0, x2, c1);
  O::mul(t, x, t);
  O::set1(c0, C::kClamp);
  O::set1(c1, -C::kClamp);
  O::ge(over, t, c0);
  O::max(t, t, c1);
  O::min(t, t, c0);
  O::set1(c0, C::kLog2e);
  O::set1(c1, C::kShift);
  O::fma(k, t, c0, c1);
  O::sub(n, k, c1);
  O::set1(c0, -C::kLn2Hi);
  O::fma(r, n, c0, t);
  O::set1(c0, -C::kLn2Lo);
  O::fma(r, n, c0, r);
  exp_poly<O>(p, r, std::make_integer_sequence<int, C::kDegree>{});
  O::pow2(k, k);
  O::mul(p, p, k);
  O::set1(c0, T(1));
  O::add(p, c0, p);
  O::div(p, x, p);
  O::set1(c0, T(0));
  O::mul(c0, x, c0);
  O::select(x, over, c0, p);
}

template <class O>
inline void gelu_span(const typename O::T* a, typename O::T* out, int64_t n) {
  typename O::V x;
  int64_t i = 0;
  for (; i + O::kLanes <= n; i += O::kLanes) {
    O::load(x, a + i);
    gelu_lane<O>(x);
    O::store(out + i, x);
  }
  if (i < n) {
    O::load_part(x, a + i, n - i);
    gelu_lane<O>(x);
    O::store_part(out + i, x, n - i);
  }
}

}  // namespace

#ifdef MF_HAVE_AVX2_KERNELS
static bool cpu_has_avx512f() {
  static const bool has = __builtin_cpu_supports("avx512f");
  return has;
}

#define MF_AVX2_FMA __attribute__((target("avx2,fma")))
#define MF_AVX512F __attribute__((target("avx512f")))

namespace {

struct Avx2F64 {
  using T = double;
  using V = __m256d;
  using M = __m256d;
  static constexpr int64_t kLanes = 4;
  MF_AVX2_FMA static void load(V& r, const T* p) { r = _mm256_loadu_pd(p); }
  MF_AVX2_FMA static void store(T* p, const V& v) { _mm256_storeu_pd(p, v); }
  // Tails run as one zero-padded block through the full-width lane.
  MF_AVX2_FMA static void load_part(V& r, const T* p, int64_t n) {
    T buf[kLanes] = {};
    std::copy_n(p, n, buf);
    r = _mm256_loadu_pd(buf);
  }
  MF_AVX2_FMA static void store_part(T* p, const V& v, int64_t n) {
    T buf[kLanes];
    _mm256_storeu_pd(buf, v);
    std::copy_n(buf, n, p);
  }
  MF_AVX2_FMA static void set1(V& r, T c) { r = _mm256_set1_pd(c); }
  MF_AVX2_FMA static void add(V& r, const V& a, const V& b) {
    r = _mm256_add_pd(a, b);
  }
  MF_AVX2_FMA static void sub(V& r, const V& a, const V& b) {
    r = _mm256_sub_pd(a, b);
  }
  MF_AVX2_FMA static void mul(V& r, const V& a, const V& b) {
    r = _mm256_mul_pd(a, b);
  }
  MF_AVX2_FMA static void div(V& r, const V& a, const V& b) {
    r = _mm256_div_pd(a, b);
  }
  MF_AVX2_FMA static void fma(V& r, const V& a, const V& b, const V& c) {
    r = _mm256_fmadd_pd(a, b, c);
  }
  MF_AVX2_FMA static void max(V& r, const V& a, const V& b) {
    r = _mm256_max_pd(a, b);
  }
  MF_AVX2_FMA static void min(V& r, const V& a, const V& b) {
    r = _mm256_min_pd(a, b);
  }
  MF_AVX2_FMA static void ge(M& m, const V& a, const V& b) {
    m = _mm256_cmp_pd(a, b, _CMP_GE_OQ);
  }
  MF_AVX2_FMA static void select(V& r, const M& m, const V& yes, const V& no) {
    r = _mm256_blendv_pd(no, yes, m);
  }
  MF_AVX2_FMA static void pow2(V& r, const V& k) {
    r = _mm256_castsi256_pd(_mm256_slli_epi64(_mm256_castpd_si256(k), 52));
  }
};

struct Avx2F32 {
  using T = float;
  using V = __m256;
  using M = __m256;
  static constexpr int64_t kLanes = 8;
  MF_AVX2_FMA static void load(V& r, const T* p) { r = _mm256_loadu_ps(p); }
  MF_AVX2_FMA static void store(T* p, const V& v) { _mm256_storeu_ps(p, v); }
  // Tails run as one zero-padded block through the full-width lane.
  MF_AVX2_FMA static void load_part(V& r, const T* p, int64_t n) {
    T buf[kLanes] = {};
    std::copy_n(p, n, buf);
    r = _mm256_loadu_ps(buf);
  }
  MF_AVX2_FMA static void store_part(T* p, const V& v, int64_t n) {
    T buf[kLanes];
    _mm256_storeu_ps(buf, v);
    std::copy_n(buf, n, p);
  }
  MF_AVX2_FMA static void set1(V& r, T c) { r = _mm256_set1_ps(c); }
  MF_AVX2_FMA static void add(V& r, const V& a, const V& b) {
    r = _mm256_add_ps(a, b);
  }
  MF_AVX2_FMA static void sub(V& r, const V& a, const V& b) {
    r = _mm256_sub_ps(a, b);
  }
  MF_AVX2_FMA static void mul(V& r, const V& a, const V& b) {
    r = _mm256_mul_ps(a, b);
  }
  MF_AVX2_FMA static void div(V& r, const V& a, const V& b) {
    r = _mm256_div_ps(a, b);
  }
  MF_AVX2_FMA static void fma(V& r, const V& a, const V& b, const V& c) {
    r = _mm256_fmadd_ps(a, b, c);
  }
  MF_AVX2_FMA static void max(V& r, const V& a, const V& b) {
    r = _mm256_max_ps(a, b);
  }
  MF_AVX2_FMA static void min(V& r, const V& a, const V& b) {
    r = _mm256_min_ps(a, b);
  }
  MF_AVX2_FMA static void ge(M& m, const V& a, const V& b) {
    m = _mm256_cmp_ps(a, b, _CMP_GE_OQ);
  }
  MF_AVX2_FMA static void select(V& r, const M& m, const V& yes, const V& no) {
    r = _mm256_blendv_ps(no, yes, m);
  }
  MF_AVX2_FMA static void pow2(V& r, const V& k) {
    r = _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_castps_si256(k), 23));
  }
};

// AVX-512F: the maskz_ forms of max, min and the shift take a zero source
// where the plain intrinsics read an undefined one (GCC 12 reports that
// as -Wmaybe-uninitialized); with an all-ones mask they are the same op.
struct Avx512F64 {
  using T = double;
  using V = __m512d;
  using M = __mmask8;
  static constexpr int64_t kLanes = 8;
  static constexpr M kAll = 0xFF;
  MF_AVX512F static void load(V& r, const T* p) { r = _mm512_loadu_pd(p); }
  MF_AVX512F static void store(T* p, const V& v) { _mm512_storeu_pd(p, v); }
  MF_AVX512F static void load_part(V& r, const T* p, int64_t n) {
    r = _mm512_maskz_loadu_pd(static_cast<M>((1u << n) - 1), p);
  }
  MF_AVX512F static void store_part(T* p, const V& v, int64_t n) {
    _mm512_mask_storeu_pd(p, static_cast<M>((1u << n) - 1), v);
  }
  MF_AVX512F static void set1(V& r, T c) { r = _mm512_set1_pd(c); }
  MF_AVX512F static void add(V& r, const V& a, const V& b) {
    r = _mm512_add_pd(a, b);
  }
  MF_AVX512F static void sub(V& r, const V& a, const V& b) {
    r = _mm512_sub_pd(a, b);
  }
  MF_AVX512F static void mul(V& r, const V& a, const V& b) {
    r = _mm512_mul_pd(a, b);
  }
  MF_AVX512F static void div(V& r, const V& a, const V& b) {
    r = _mm512_div_pd(a, b);
  }
  MF_AVX512F static void fma(V& r, const V& a, const V& b, const V& c) {
    r = _mm512_fmadd_pd(a, b, c);
  }
  MF_AVX512F static void max(V& r, const V& a, const V& b) {
    r = _mm512_maskz_max_pd(kAll, a, b);
  }
  MF_AVX512F static void min(V& r, const V& a, const V& b) {
    r = _mm512_maskz_min_pd(kAll, a, b);
  }
  MF_AVX512F static void ge(M& m, const V& a, const V& b) {
    m = _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ);
  }
  MF_AVX512F static void select(V& r, const M& m, const V& yes, const V& no) {
    r = _mm512_mask_blend_pd(m, no, yes);
  }
  MF_AVX512F static void pow2(V& r, const V& k) {
    r = _mm512_castsi512_pd(
        _mm512_maskz_slli_epi64(kAll, _mm512_castpd_si512(k), 52));
  }
};

struct Avx512F32 {
  using T = float;
  using V = __m512;
  using M = __mmask16;
  static constexpr int64_t kLanes = 16;
  static constexpr M kAll = 0xFFFF;
  MF_AVX512F static void load(V& r, const T* p) { r = _mm512_loadu_ps(p); }
  MF_AVX512F static void store(T* p, const V& v) { _mm512_storeu_ps(p, v); }
  MF_AVX512F static void load_part(V& r, const T* p, int64_t n) {
    r = _mm512_maskz_loadu_ps(static_cast<M>((1u << n) - 1), p);
  }
  MF_AVX512F static void store_part(T* p, const V& v, int64_t n) {
    _mm512_mask_storeu_ps(p, static_cast<M>((1u << n) - 1), v);
  }
  MF_AVX512F static void set1(V& r, T c) { r = _mm512_set1_ps(c); }
  MF_AVX512F static void add(V& r, const V& a, const V& b) {
    r = _mm512_add_ps(a, b);
  }
  MF_AVX512F static void sub(V& r, const V& a, const V& b) {
    r = _mm512_sub_ps(a, b);
  }
  MF_AVX512F static void mul(V& r, const V& a, const V& b) {
    r = _mm512_mul_ps(a, b);
  }
  MF_AVX512F static void div(V& r, const V& a, const V& b) {
    r = _mm512_div_ps(a, b);
  }
  MF_AVX512F static void fma(V& r, const V& a, const V& b, const V& c) {
    r = _mm512_fmadd_ps(a, b, c);
  }
  MF_AVX512F static void max(V& r, const V& a, const V& b) {
    r = _mm512_maskz_max_ps(kAll, a, b);
  }
  MF_AVX512F static void min(V& r, const V& a, const V& b) {
    r = _mm512_maskz_min_ps(kAll, a, b);
  }
  MF_AVX512F static void ge(M& m, const V& a, const V& b) {
    m = _mm512_cmp_ps_mask(a, b, _CMP_GE_OQ);
  }
  MF_AVX512F static void select(V& r, const M& m, const V& yes, const V& no) {
    r = _mm512_mask_blend_ps(m, no, yes);
  }
  MF_AVX512F static void pow2(V& r, const V& k) {
    r = _mm512_castsi512_ps(
        _mm512_maskz_slli_epi32(kAll, _mm512_castps_si512(k), 23));
  }
};

}  // namespace

// flatten inlines the lane template and every ops call into these four
// bodies, so each compiles as one loop at its own ISA.
__attribute__((target("avx2,fma"), flatten)) static void gelu_span_avx2(
    const double* a, double* out, int64_t n) {
  gelu_span<Avx2F64>(a, out, n);
}
__attribute__((target("avx2,fma"), flatten)) static void gelu_span_avx2(
    const float* a, float* out, int64_t n) {
  gelu_span<Avx2F32>(a, out, n);
}
__attribute__((target("avx512f"), flatten)) static void gelu_span_avx512(
    const double* a, double* out, int64_t n) {
  gelu_span<Avx512F64>(a, out, n);
}
__attribute__((target("avx512f"), flatten)) static void gelu_span_avx512(
    const float* a, float* out, int64_t n) {
  gelu_span<Avx512F32>(a, out, n);
}

#undef MF_AVX2_FMA
#undef MF_AVX512F
#endif  // MF_HAVE_AVX2_KERNELS

int gelu_lanes() {
#ifdef MF_HAVE_AVX2_KERNELS
  static const int lanes = cpu_has_avx512f()                  ? 8
                           : cpu_has_avx2() && cpu_has_fma() ? 4
                                                              : 1;
  return lanes;
#else
  return 1;
#endif
}

namespace {
/// GELU on the tier with `lanes` f64 lanes (8: AVX-512F, 4: AVX2+FMA);
/// false, writing nothing, when the CPU lacks it.
template <typename T>
bool gelu_on_tier(int lanes, const T* a, T* out, int64_t n) {
#ifdef MF_HAVE_AVX2_KERNELS
  if (lanes == 8 && cpu_has_avx512f()) {
    gelu_span_avx512(a, out, n);
    return true;
  }
  if (lanes == 4 && cpu_has_avx2() && cpu_has_fma()) {
    gelu_span_avx2(a, out, n);
    return true;
  }
#endif
  (void)lanes, (void)a, (void)out, (void)n;
  return false;
}

/// The one GELU entry: the widest tier the CPU has, else the functor.
template <typename T>
void gelu_block(const T* a, T* out, int64_t n) {
  if (gelu_on_tier(gelu_lanes(), a, out, n)) return;
  for (int64_t i = 0; i < n; ++i) out[i] = sfn::Gelu{}(a[i]);
}
}  // namespace

namespace detail {
bool gelu_avx2_fma(const double* a, double* out, int64_t n) {
  return gelu_on_tier(4, a, out, n);
}
bool gelu_avx2_fma(const float* a, float* out, int64_t n) {
  return gelu_on_tier(4, a, out, n);
}
bool gelu_avx512f(const double* a, double* out, int64_t n) {
  return gelu_on_tier(8, a, out, n);
}
bool gelu_avx512f(const float* a, float* out, int64_t n) {
  return gelu_on_tier(8, a, out, n);
}
}  // namespace detail

void map_unary(const real* a, real* out, int64_t n, sfn::Gelu) {
  parallel_for(n, [&](int64_t begin, int64_t end) {
    gelu_block(a + begin, out + begin, end - begin);
  });
}

void map_unary(const float* a, float* out, int64_t n, sfn::Gelu) {
  parallel_for(n, [&](int64_t begin, int64_t end) {
    gelu_block(a + begin, out + begin, end - begin);
  });
}

void gelu_block_inplace(real* x, int64_t n) { gelu_block(x, x, n); }

void gelu_block_inplace(float* x, int64_t n) { gelu_block(x, x, n); }

void matmul(const real* a, const real* b, const real* bias, real* out,
            int64_t m, int64_t k, int64_t n) {
  // Tiling gate: block only when b overflows one tile's cache footprint
  // (k*n > kTileK*kTileN elements = 256 KiB). Narrow GEMMs — the
  // width-64 shapes of the fig8 inference path and their k-heavy
  // training backwards — keep the fused i-k-j loop, whose single pass
  // over `out` beats two whenever b is already cache-resident. The two
  // paths accumulate in the same kk order, so results are bitwise
  // identical regardless of which one runs. Decided once, outside the
  // worker lambda, so the hot loops compile unperturbed.
  const bool b_fits_one_tile = k * n <= kTileK * kTileN;
#ifdef MF_HAVE_AVX2_KERNELS
  const bool use_fma = fma_kernels_active();
#endif
  parallel_for(m, k * n, [&](int64_t begin, int64_t end) {
    if (b_fits_one_tile) {
#ifdef MF_HAVE_AVX2_KERNELS
      if (use_fma) {
        int64_t i0 = begin;
        for (; i0 + 4 <= end; i0 += 4) {
          matmul_rows4_fma(a + i0 * k, a + (i0 + 1) * k, a + (i0 + 2) * k,
                           a + (i0 + 3) * k, b, bias, out + i0 * n, k, n);
        }
        for (; i0 < end; ++i0) {
          matmul_rows1_fma(a + i0 * k, b, bias, out + i0 * n, k, n);
        }
        return;
      }
#endif
      // b fits one tile: register-blocked micro-kernel. Four rows of a
      // share every b load, and each row's 4-column accumulator strip
      // lives in registers across the whole k loop — the naive loop's
      // per-kk reload/store of the output row was store-port-bound.
      // For every output element the additions still run in ascending
      // kk order and zero a-elements still contribute nothing, so the
      // result is bitwise identical to the naive i-k-j loop.
      // 4x4 fits the baseline 16-register SSE2 budget: 16 accumulator
      // doubles in 8 xmm, leaving room for the shared b loads and the
      // four row broadcasts.
      constexpr int64_t kRb = 4;  // rows of a per micro-tile
      constexpr int64_t kJb = 4;  // columns of out per accumulator strip
      int64_t i0 = begin;
      for (; i0 + kRb <= end; i0 += kRb) {
        const real* a0 = a + (i0 + 0) * k;
        const real* a1 = a + (i0 + 1) * k;
        const real* a2 = a + (i0 + 2) * k;
        const real* a3 = a + (i0 + 3) * k;
        for (int64_t j0 = 0; j0 < n; j0 += kJb) {
          const int64_t jw = std::min(kJb, n - j0);
          real acc0[kJb], acc1[kJb], acc2[kJb], acc3[kJb];
          if (bias) {
            for (int64_t j = 0; j < jw; ++j) {
              acc0[j] = acc1[j] = acc2[j] = acc3[j] = bias[j0 + j];
            }
          } else {
            for (int64_t j = 0; j < jw; ++j) {
              acc0[j] = acc1[j] = acc2[j] = acc3[j] = 0;
            }
          }
          if (jw == kJb) {
            for (int64_t kk = 0; kk < k; ++kk) {
              const real* brow = b + kk * n + j0;
              const real av0 = a0[kk], av1 = a1[kk], av2 = a2[kk], av3 = a3[kk];
              if (av0 != 0) {
                for (int64_t j = 0; j < kJb; ++j) acc0[j] += av0 * brow[j];
              }
              if (av1 != 0) {
                for (int64_t j = 0; j < kJb; ++j) acc1[j] += av1 * brow[j];
              }
              if (av2 != 0) {
                for (int64_t j = 0; j < kJb; ++j) acc2[j] += av2 * brow[j];
              }
              if (av3 != 0) {
                for (int64_t j = 0; j < kJb; ++j) acc3[j] += av3 * brow[j];
              }
            }
          } else {
            for (int64_t kk = 0; kk < k; ++kk) {
              const real* brow = b + kk * n + j0;
              const real av0 = a0[kk], av1 = a1[kk], av2 = a2[kk], av3 = a3[kk];
              if (av0 != 0) {
                for (int64_t j = 0; j < jw; ++j) acc0[j] += av0 * brow[j];
              }
              if (av1 != 0) {
                for (int64_t j = 0; j < jw; ++j) acc1[j] += av1 * brow[j];
              }
              if (av2 != 0) {
                for (int64_t j = 0; j < jw; ++j) acc2[j] += av2 * brow[j];
              }
              if (av3 != 0) {
                for (int64_t j = 0; j < jw; ++j) acc3[j] += av3 * brow[j];
              }
            }
          }
          real* orow = out + i0 * n + j0;
          for (int64_t j = 0; j < jw; ++j) orow[j] = acc0[j];
          for (int64_t j = 0; j < jw; ++j) orow[n + j] = acc1[j];
          for (int64_t j = 0; j < jw; ++j) orow[2 * n + j] = acc2[j];
          for (int64_t j = 0; j < jw; ++j) orow[3 * n + j] = acc3[j];
        }
      }
      // Remainder rows (< kRb): the naive per-row loop.
      for (int64_t i = i0; i < end; ++i) {
        const real* arow = a + i * k;
        real* orow = out + i * n;
        if (bias) {
          for (int64_t j = 0; j < n; ++j) orow[j] = bias[j];
        } else {
          for (int64_t j = 0; j < n; ++j) orow[j] = 0;
        }
        for (int64_t kk = 0; kk < k; ++kk) {
          const real av = arow[kk];
          if (av == 0) continue;
          const real* brow = b + kk * n;
          for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
        }
      }
      return;
    }
    // Blocked i-k-j: for each (k, n) tile of b, stream all rows of the
    // chunk over it before moving on, so the tile is loaded once per
    // chunk instead of once per row. For fixed (i, j), kk still runs
    // monotonically, so the summation order — and hence the result — is
    // bitwise identical to the unblocked loop.
    for (int64_t i = begin; i < end; ++i) {
      real* orow = out + i * n;
      if (bias) {
        for (int64_t j = 0; j < n; ++j) orow[j] = bias[j];
      } else {
        for (int64_t j = 0; j < n; ++j) orow[j] = 0;
      }
    }
    for (int64_t kk0 = 0; kk0 < k; kk0 += kTileK) {
      const int64_t kk1 = std::min(k, kk0 + kTileK);
      for (int64_t j0 = 0; j0 < n; j0 += kTileN) {
        const int64_t j1 = std::min(n, j0 + kTileN);
        for (int64_t i = begin; i < end; ++i) {
          const real* arow = a + i * k;
          real* orow = out + i * n;
          for (int64_t kk = kk0; kk < kk1; ++kk) {
            const real av = arow[kk];
            if (av == 0) continue;
            const real* brow = b + kk * n;
#ifdef MF_HAVE_AVX2_KERNELS
            if (use_fma) {
              axpy_fma(brow + j0, orow + j0, av, j1 - j0);
              continue;
            }
#endif
            for (int64_t j = j0; j < j1; ++j) orow[j] += av * brow[j];
          }
        }
      }
    }
  });
}

void matmul(const float* a, const float* b, const float* bias, float* out,
            int64_t m, int64_t k, int64_t n) {
  // Float GEMM for the compiled f32 compute path. Same tiling gate as the
  // double tier (elements, not bytes: the b panel that matters is half the
  // size, so this errs toward the fused loop, which is the right bias for
  // the narrow SDNet shapes). The vector path needs AVX2+FMA together —
  // they co-occur on every AVX2 CPU since Haswell — and falls back to the
  // same deterministic scalar i-k-j loop otherwise.
  const bool b_fits_one_tile = k * n <= kTileK * kTileN;
#ifdef MF_HAVE_AVX2_KERNELS
  const bool use_vec = fma_kernels_active();
#endif
  parallel_for(m, k * n, [&](int64_t begin, int64_t end) {
    if (b_fits_one_tile) {
#ifdef MF_HAVE_AVX2_KERNELS
      if (use_vec) {
        int64_t i0 = begin;
        for (; i0 + 4 <= end; i0 += 4) {
          matmul_rows4_fma_f(a + i0 * k, a + (i0 + 1) * k, a + (i0 + 2) * k,
                             a + (i0 + 3) * k, b, bias, out + i0 * n, k, n);
        }
        for (; i0 < end; ++i0) {
          matmul_rows1_fma_f(a + i0 * k, b, bias, out + i0 * n, k, n);
        }
        return;
      }
#endif
      for (int64_t i = begin; i < end; ++i) {
        const float* arow = a + i * k;
        float* orow = out + i * n;
        if (bias) {
          for (int64_t j = 0; j < n; ++j) orow[j] = bias[j];
        } else {
          for (int64_t j = 0; j < n; ++j) orow[j] = 0;
        }
        for (int64_t kk = 0; kk < k; ++kk) {
          const float av = arow[kk];
          const float* brow = b + kk * n;
          for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
        }
      }
      return;
    }
    // Blocked i-k-j over (k, n) tiles of b, as in the double tier.
    for (int64_t i = begin; i < end; ++i) {
      float* orow = out + i * n;
      if (bias) {
        for (int64_t j = 0; j < n; ++j) orow[j] = bias[j];
      } else {
        for (int64_t j = 0; j < n; ++j) orow[j] = 0;
      }
    }
    for (int64_t kk0 = 0; kk0 < k; kk0 += kTileK) {
      const int64_t kk1 = std::min(k, kk0 + kTileK);
      for (int64_t j0 = 0; j0 < n; j0 += kTileN) {
        const int64_t j1 = std::min(n, j0 + kTileN);
        for (int64_t i = begin; i < end; ++i) {
          const float* arow = a + i * k;
          float* orow = out + i * n;
          for (int64_t kk = kk0; kk < kk1; ++kk) {
            const float av = arow[kk];
            const float* brow = b + kk * n;
#ifdef MF_HAVE_AVX2_KERNELS
            if (use_vec) {
              axpy_fma_f(brow + j0, orow + j0, av, j1 - j0);
              continue;
            }
#endif
            for (int64_t j = j0; j < j1; ++j) orow[j] += av * brow[j];
          }
        }
      }
    }
  });
}

namespace {
template <typename T>
void transpose_impl(const T* a, T* out, int64_t m, int64_t n) {
  parallel_for(m, n, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i)
      for (int64_t j = 0; j < n; ++j) out[j * m + i] = a[i * n + j];
  });
}
}  // namespace

void transpose(const real* a, real* out, int64_t m, int64_t n) {
  transpose_impl(a, out, m, n);
}

void transpose(const float* a, float* out, int64_t m, int64_t n) {
  transpose_impl(a, out, m, n);
}

namespace {
template <typename T>
void conv1d_forward_impl(const T* input, const T* weight, const T* bias,
                         T* out, int64_t B, int64_t Cin, int64_t L,
                         int64_t Cout, int64_t K, int64_t padding) {
  const int64_t Lout = L + 2 * padding - K + 1;
  parallel_for(B * Cout, Cin * K * Lout, [&](int64_t begin, int64_t end) {
    for (int64_t bc = begin; bc < end; ++bc) {
      const int64_t b = bc / Cout;
      const int64_t co = bc % Cout;
      T* orow = out + bc * Lout;
      const T fill = bias ? bias[co] : T(0);
      for (int64_t t = 0; t < Lout; ++t) orow[t] = fill;
      for (int64_t ci = 0; ci < Cin; ++ci) {
        const T* irow = input + (b * Cin + ci) * L;
        const T* wrow = weight + (co * Cin + ci) * K;
        for (int64_t t = 0; t < Lout; ++t) {
          T acc = 0;
          const int64_t k0 = std::max<int64_t>(0, padding - t);
          const int64_t k1 = std::min<int64_t>(K, L + padding - t);
          for (int64_t k = k0; k < k1; ++k) acc += wrow[k] * irow[t + k - padding];
          orow[t] += acc;
        }
      }
    }
  });
}

template <typename T>
void conv1d_grad_input_impl(const T* grad_out, const T* weight, T* grad_input,
                            int64_t B, int64_t Cin, int64_t L, int64_t Cout,
                            int64_t K, int64_t padding) {
  const int64_t Lout = L + 2 * padding - K + 1;
  // Threads over batch: output channels of one batch element write into the
  // same grad_input rows, so they stay within one thread.
  parallel_for(B, Cout * Cin * K * Lout, [&](int64_t begin, int64_t end) {
    for (int64_t b = begin; b < end; ++b)
      for (int64_t co = 0; co < Cout; ++co)
        for (int64_t t = 0; t < Lout; ++t) {
          const T g = grad_out[(b * Cout + co) * Lout + t];
          if (g == 0) continue;
          for (int64_t ci = 0; ci < Cin; ++ci)
            for (int64_t k = 0; k < K; ++k) {
              const int64_t src = t + k - padding;
              if (src < 0 || src >= L) continue;
              grad_input[(b * Cin + ci) * L + src] +=
                  g * weight[(co * Cin + ci) * K + k];
            }
        }
  });
}

template <typename T>
void conv1d_grad_weight_impl(const T* grad_out, const T* input,
                             T* grad_weight, int64_t B, int64_t Cin, int64_t L,
                             int64_t Cout, int64_t K, int64_t padding) {
  const int64_t Lout = L + 2 * padding - K + 1;
  // Threads over output channels: all batches accumulate into one channel's
  // weight slice, so the batch loop stays within one thread.
  parallel_for(Cout, B * Cin * K * Lout, [&](int64_t begin, int64_t end) {
    for (int64_t co = begin; co < end; ++co)
      for (int64_t b = 0; b < B; ++b)
        for (int64_t t = 0; t < Lout; ++t) {
          const T g = grad_out[(b * Cout + co) * Lout + t];
          if (g == 0) continue;
          for (int64_t ci = 0; ci < Cin; ++ci)
            for (int64_t k = 0; k < K; ++k) {
              const int64_t src = t + k - padding;
              if (src < 0 || src >= L) continue;
              grad_weight[(co * Cin + ci) * K + k] +=
                  g * input[(b * Cin + ci) * L + src];
            }
        }
  });
}

template <typename T>
void conv1d_grad_bias_impl(const T* grad_out, T* grad_bias, int64_t B,
                           int64_t Cout, int64_t Lout) {
  parallel_for(Cout, B * Lout, [&](int64_t begin, int64_t end) {
    for (int64_t co = begin; co < end; ++co) {
      T acc = 0;
      for (int64_t b = 0; b < B; ++b) {
        const T* row = grad_out + (b * Cout + co) * Lout;
        for (int64_t t = 0; t < Lout; ++t) acc += row[t];
      }
      grad_bias[co] += acc;
    }
  });
}
}  // namespace

void conv1d_forward(const real* input, const real* weight, const real* bias,
                    real* out, int64_t B, int64_t Cin, int64_t L, int64_t Cout,
                    int64_t K, int64_t padding) {
  conv1d_forward_impl(input, weight, bias, out, B, Cin, L, Cout, K, padding);
}

void conv1d_forward(const float* input, const float* weight, const float* bias,
                    float* out, int64_t B, int64_t Cin, int64_t L,
                    int64_t Cout, int64_t K, int64_t padding) {
  conv1d_forward_impl(input, weight, bias, out, B, Cin, L, Cout, K, padding);
}

void conv1d_grad_input(const real* grad_out, const real* weight,
                       real* grad_input, int64_t B, int64_t Cin, int64_t L,
                       int64_t Cout, int64_t K, int64_t padding) {
  conv1d_grad_input_impl(grad_out, weight, grad_input, B, Cin, L, Cout, K,
                         padding);
}

void conv1d_grad_input(const float* grad_out, const float* weight,
                       float* grad_input, int64_t B, int64_t Cin, int64_t L,
                       int64_t Cout, int64_t K, int64_t padding) {
  conv1d_grad_input_impl(grad_out, weight, grad_input, B, Cin, L, Cout, K,
                         padding);
}

void conv1d_grad_weight(const real* grad_out, const real* input,
                        real* grad_weight, int64_t B, int64_t Cin, int64_t L,
                        int64_t Cout, int64_t K, int64_t padding) {
  conv1d_grad_weight_impl(grad_out, input, grad_weight, B, Cin, L, Cout, K,
                          padding);
}

void conv1d_grad_weight(const float* grad_out, const float* input,
                        float* grad_weight, int64_t B, int64_t Cin, int64_t L,
                        int64_t Cout, int64_t K, int64_t padding) {
  conv1d_grad_weight_impl(grad_out, input, grad_weight, B, Cin, L, Cout, K,
                          padding);
}

void conv1d_grad_bias(const real* grad_out, real* grad_bias, int64_t B,
                      int64_t Cout, int64_t Lout) {
  conv1d_grad_bias_impl(grad_out, grad_bias, B, Cout, Lout);
}

void conv1d_grad_bias(const float* grad_out, float* grad_bias, int64_t B,
                      int64_t Cout, int64_t Lout) {
  conv1d_grad_bias_impl(grad_out, grad_bias, B, Cout, Lout);
}

// ---- dtype casts ----

void cast_buffer(const double* src, float* dst, int64_t n) {
  parallel_for(n, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i)
      dst[i] = static_cast<float>(src[i]);
  });
}

void cast_buffer(const float* src, double* dst, int64_t n) {
  parallel_for(n, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i)
      dst[i] = static_cast<double>(src[i]);
  });
}

}  // namespace mf::ad::kernels
