#include "ad/kernels.hpp"

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

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
  if (nd > kMaxPlanRank) {
    throw std::invalid_argument("BroadcastPlan: rank > 8 unsupported");
  }
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
  if (nd > kMaxPlanRank) {
    throw std::invalid_argument("ReducePlan: rank > 8 unsupported");
  }
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
/// Step the reduced-axis counter `rid` (last reduced axis fastest) and the
/// source offset `roff` to the next reduced index.
void next_reduced(const ReducePlan& plan, int64_t* rid, int64_t& roff) {
  for (std::size_t d = plan.red_sizes.size(); d-- > 0;) {
    roff += plan.red_src_strides[d];
    if (++rid[d] < plan.red_sizes[d]) return;
    roff -= plan.red_src_strides[d] * plan.red_sizes[d];
    rid[d] = 0;
  }
}

/// Source offset of the kept-axis index `o`, decomposed over the first
/// `n_kept` kept axes.
int64_t kept_offset(const ReducePlan& plan, std::size_t n_kept, int64_t o) {
  int64_t base = 0;
  for (std::size_t d = n_kept; d-- > 0;) {
    base += (o % plan.out_sizes[d]) * plan.out_src_strides[d];
    o /= plan.out_sizes[d];
  }
  return base;
}

// Shared by both widths. Each output sums its preimage into a double
// accumulator from +0, reduced indices in row-major order, and narrows
// once at the store: for T = real the plain sum, for T = float the
// mixed-precision stability rule (reduce at master width). When src's
// innermost axis is kept, a dst row's outputs are contiguous in src too,
// so whole source rows are added into a row of accumulators (kRowChunk
// columns at a time, on the stack) — the same adds in the same order per
// output, so the same bits as one gather loop per output.
template <typename T>
void reduce_broadcast_impl(const ReducePlan& plan, const T* src, T* dst) {
  const std::size_t n_kept = plan.out_sizes.size();
  if (plan.n_out == 0) return;
  if (n_kept > 0 && plan.out_src_strides[n_kept - 1] == 1) {
    constexpr int64_t kRowChunk = 256;
    const int64_t row = plan.out_sizes[n_kept - 1];
    const int64_t chunks = (row + kRowChunk - 1) / kRowChunk;
    // One item is one chunk of one dst row.
    const int64_t items = plan.n_out / row * chunks;
    const int64_t cost = plan.n_red * std::min(row, kRowChunk);
    parallel_for(items, cost, [&](int64_t begin, int64_t end) {
      double acc[kRowChunk];
      int64_t rid[kMaxPlanRank];
      for (int64_t item = begin; item < end; ++item) {
        const int64_t q = item / chunks;
        const int64_t c0 = (item % chunks) * kRowChunk;
        const int64_t w = std::min(kRowChunk, row - c0);
        const T* s = src + kept_offset(plan, n_kept - 1, q) + c0;
        std::fill_n(acc, w, 0.0);
        std::fill_n(rid, plan.red_sizes.size(), int64_t{0});
        int64_t roff = 0;
        for (int64_t r = 0; r < plan.n_red; ++r) {
          const T* sr = s + roff;
          for (int64_t j = 0; j < w; ++j) acc[j] += sr[j];
          next_reduced(plan, rid, roff);
        }
        T* d = dst + q * row + c0;
        for (int64_t j = 0; j < w; ++j) d[j] = static_cast<T>(acc[j]);
      }
    });
    return;
  }
  parallel_for(plan.n_out, plan.n_red, [&](int64_t begin, int64_t end) {
    int64_t rid[kMaxPlanRank];
    for (int64_t o = begin; o < end; ++o) {
      const T* s = src + kept_offset(plan, n_kept, o);
      double acc = 0;
      std::fill_n(rid, plan.red_sizes.size(), int64_t{0});
      int64_t roff = 0;
      for (int64_t r = 0; r < plan.n_red; ++r) {
        acc += s[roff];
        next_reduced(plan, rid, roff);
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

// The scalar matmul tier's cache-block sizes (in elements): one b tile is
// kTileK x kTileN doubles (256 KiB), sized so the tile stays resident while
// every row of the thread's chunk streams over it.
constexpr int64_t kTileK = 64;
constexpr int64_t kTileN = 512;

namespace {

// ---- the functor loops: the scalar tier, and on every tier the ops
// with no lane formula ----

template <typename T>
void unary_functors(const T* a, T* out, int64_t n, UnaryOp op, real s) {
  auto run = [&](auto f) {
    for (int64_t i = 0; i < n; ++i) out[i] = f(a[i]);
  };
  switch (op) {
    case UnaryOp::kAddScalar: run(sfn::AddScalar{s}); break;
    case UnaryOp::kMulScalar: run(sfn::MulScalar{s}); break;
    case UnaryOp::kPowScalar: run(sfn::PowScalar{s}); break;
    case UnaryOp::kNeg: run(sfn::Neg{}); break;
    case UnaryOp::kExp: run(sfn::Exp{}); break;
    case UnaryOp::kLog: run(sfn::Log{}); break;
    case UnaryOp::kSqrt: run(sfn::Sqrt{}); break;
    case UnaryOp::kTanh: run(sfn::Tanh{}); break;
    case UnaryOp::kAbs: run(sfn::Abs{}); break;
    case UnaryOp::kSign: run(sfn::Sign{}); break;
    case UnaryOp::kGelu: run(sfn::Gelu{}); break;
    case UnaryOp::kGeluD1: run(sfn::GeluDeriv<1>{}); break;
    case UnaryOp::kGeluD2: run(sfn::GeluDeriv<2>{}); break;
    case UnaryOp::kGeluD3: run(sfn::GeluDeriv<3>{}); break;
  }
}

template <typename T>
void binary_functors(const T* a, const T* b, T* out, int64_t n,
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

/// The scalar matmul tier, serial over `rows` rows: every output element
/// accumulates acc + a(i, kk)·b[kk][j] from its bias (or +0) in ascending
/// kk, so both paths below give the bits of the naive i-k-j loop. a(i, kk)
/// is a[i·lda + kk], or a[kk·lda + i] for the TN form (TransA). The tiling
/// gate blocks only when b overflows one tile's cache footprint (k·n >
/// kTileK·kTileN elements): narrow GEMMs keep the register-blocked loop,
/// whose single pass over `out` beats two whenever b is already
/// cache-resident.
template <typename T, bool TransA>
void matmul_scalar(const T* a, int64_t lda, const T* b, const T* bias,
                   T* out, int64_t rows, int64_t k, int64_t n) {
  auto at = [&](int64_t i, int64_t kk) {
    return TransA ? a[kk * lda + i] : a[i * lda + kk];
  };
  if (k * n <= kTileK * kTileN) {
    // Four rows of a share every b load, and each row's 4-column
    // accumulator strip stays in registers across the whole k loop: 16
    // accumulators fit the baseline 16-register SSE2 budget, leaving room
    // for the shared b loads and the four row broadcasts.
    constexpr int64_t kRb = 4;  // rows of a per micro-tile
    constexpr int64_t kJb = 4;  // columns of out per accumulator strip
    int64_t i0 = 0;
    for (; i0 + kRb <= rows; i0 += kRb) {
      for (int64_t j0 = 0; j0 < n; j0 += kJb) {
        T acc0[kJb], acc1[kJb], acc2[kJb], acc3[kJb];
        // `w` is a compile-time kJb on whole strips, so their loops unroll.
        auto strip = [&](auto w) {
          for (int64_t j = 0; j < w; ++j) {
            acc0[j] = acc1[j] = acc2[j] = acc3[j] = bias ? bias[j0 + j] : T(0);
          }
          for (int64_t kk = 0; kk < k; ++kk) {
            const T* brow = b + kk * n + j0;
            const T av0 = at(i0, kk), av1 = at(i0 + 1, kk),
                    av2 = at(i0 + 2, kk), av3 = at(i0 + 3, kk);
            for (int64_t j = 0; j < w; ++j) acc0[j] += av0 * brow[j];
            for (int64_t j = 0; j < w; ++j) acc1[j] += av1 * brow[j];
            for (int64_t j = 0; j < w; ++j) acc2[j] += av2 * brow[j];
            for (int64_t j = 0; j < w; ++j) acc3[j] += av3 * brow[j];
          }
          T* orow = out + i0 * n + j0;
          for (int64_t j = 0; j < w; ++j) orow[j] = acc0[j];
          for (int64_t j = 0; j < w; ++j) orow[n + j] = acc1[j];
          for (int64_t j = 0; j < w; ++j) orow[2 * n + j] = acc2[j];
          for (int64_t j = 0; j < w; ++j) orow[3 * n + j] = acc3[j];
        };
        if (j0 + kJb <= n) {
          strip(std::integral_constant<int64_t, kJb>{});
        } else {
          strip(n - j0);
        }
      }
    }
    // Remainder rows (< kRb): the naive per-row loop.
    for (int64_t i = i0; i < rows; ++i) {
      T* orow = out + i * n;
      for (int64_t j = 0; j < n; ++j) orow[j] = bias ? bias[j] : T(0);
      for (int64_t kk = 0; kk < k; ++kk) {
        const T av = at(i, kk);
        const T* brow = b + kk * n;
        for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
      }
    }
    return;
  }
  // Blocked i-k-j: for each (k, n) tile of b, stream all rows over it
  // before moving on, so the tile is loaded once per call instead of once
  // per row. For fixed (i, j), kk still runs in ascending order.
  for (int64_t i = 0; i < rows; ++i) {
    T* orow = out + i * n;
    for (int64_t j = 0; j < n; ++j) orow[j] = bias ? bias[j] : T(0);
  }
  for (int64_t kk0 = 0; kk0 < k; kk0 += kTileK) {
    const int64_t kk1 = std::min(k, kk0 + kTileK);
    for (int64_t j0 = 0; j0 < n; j0 += kTileN) {
      const int64_t j1 = std::min(n, j0 + kTileN);
      for (int64_t i = 0; i < rows; ++i) {
        T* orow = out + i * n;
        for (int64_t kk = kk0; kk < kk1; ++kk) {
          const T av = at(i, kk);
          const T* brow = b + kk * n;
          for (int64_t j = j0; j < j1; ++j) orow[j] += av * brow[j];
        }
      }
    }
  }
}

// ---- the vector tiers: lane formulas over a per-ISA ops struct ----
//
// Each formula is written once as a template over an ops struct (Avx2F64,
// Avx2F32, Avx512F64, Avx512F32 below). Ops calls write their first
// argument, and no vector passes by value, so the templates themselves
// need no target attribute.

// Cephes tanh and exp coefficients (f32 narrows each to float once).
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

// ---- GELU: x / (1 + exp(t)) ----
//
// gelu(x) = 0.5·x·(1 + tanh(u)) with u = √(2/π)·(x + 0.044715·x³) equals
// x / (1 + e^t) with t = −2u = x·(a + b·x²), a = −2·√(2/π), b = a·0.044715:
// one divide and no tanh. The lane formula:
//   t = x·fma(b, x², a), clamped to ±708 (f32: ±87);
//   k = fma(t, log2e, S) with S = 1.5·2^52 + 1023 (f32: 1.5·2^23 + 127),
//     so n = k − S = round(t·log2e) and bits(k) << 52 (f32: << 23) = 2^n;
//   r = t − n·ln2_hi − n·ln2_lo in two FMAs, and exp(r) by FMA Horner on
//     the Taylor coefficients (degree 12; f32: degree 7);
//   gelu = x / (1 + exp(r)·2^n), or x·0 where t hit the upper clamp, which
//     keeps gelu(+inf) = +inf, gelu(−inf) = NaN and gelu(x ≤ −30) = −0.

template <typename T>
struct GeluConsts;

template <>
struct GeluConsts<double> {
  static constexpr double kA = sfn::gelu_ta<double>;
  static constexpr double kB = sfn::gelu_tb<double>;
  static constexpr double kClamp = sfn::gelu_clamp<double>;
  static constexpr double kLog2e = kLog2E;
  static constexpr double kShift = 0x1.8p52 + 1023;
  static constexpr double kLn2Hi = kExpC1;
  static constexpr double kLn2Lo = kExpC2;
  static constexpr int kDegree = 12;
};

template <>
struct GeluConsts<float> {
  static constexpr float kA = sfn::gelu_ta<float>;
  static constexpr float kB = sfn::gelu_tb<float>;
  static constexpr float kClamp = sfn::gelu_clamp<float>;
  static constexpr float kLog2e = static_cast<float>(kLog2E);
  static constexpr float kShift = 0x1.8p23f + 127;
  static constexpr float kLn2Hi = static_cast<float>(kExpC1);
  static constexpr float kLn2Lo = static_cast<float>(kExpC2);
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

/// e = exp(t) on every lane, t = x·(A + B·x²) clamped to ±kClamp; `t`
/// keeps the unclamped value for the callers' clamp masks.
template <class O>
inline void gelu_exp(typename O::V& e, typename O::V& t,
                     const typename O::V& x) {
  using T = typename O::T;
  using C = GeluConsts<T>;
  typename O::V x2, k, n, r, c0, c1;
  O::mul(x2, x, x);
  O::set1(c0, C::kB);
  O::set1(c1, C::kA);
  O::fma(t, c0, x2, c1);
  O::mul(t, x, t);
  O::set1(c0, C::kClamp);
  O::set1(c1, -C::kClamp);
  O::max(r, t, c1);
  O::min(r, r, c0);
  O::set1(c0, C::kLog2e);
  O::set1(c1, C::kShift);
  O::fma(k, r, c0, c1);
  O::sub(n, k, c1);
  O::set1(c0, -C::kLn2Hi);
  O::fma(r, n, c0, r);
  O::set1(c0, -C::kLn2Lo);
  O::fma(r, n, c0, r);
  exp_poly<O>(e, r, std::make_integer_sequence<int, C::kDegree>{});
  O::pow2(k, k);
  O::mul(e, e, k);
}

/// gelu on every lane of x, in place.
template <class O>
inline void gelu_lane(typename O::V& x) {
  using T = typename O::T;
  typename O::V e, t, c;
  typename O::M over;
  gelu_exp<O>(e, t, x);
  O::set1(c, GeluConsts<T>::kClamp);
  O::ge(over, t, c);
  O::set1(c, T(1));
  O::add(e, c, e);
  O::div(e, x, e);
  O::set1(c, T(0));
  O::mul(c, x, c);
  O::select(x, over, c, e);
}

/// gelu⁽ᴷ⁾ (K = 1, 2, 3) on every lane of x, in place: sfn::GeluDeriv's
/// terms on GELU's exp, with FMAs. s = −T·v = (1 − 2p)·v carries tanh's
/// sign so that every subtracted term is an FMA addend.
template <class O, int K>
inline void gelu_deriv_lane(typename O::V& x) {
  using T = typename O::T;
  typename O::V e, t, p, q, v, w, d, c;
  typename O::M over, under;
  gelu_exp<O>(e, t, x);
  O::set1(c, GeluConsts<T>::kClamp);
  O::ge(over, t, c);
  O::set1(c, -GeluConsts<T>::kClamp);
  O::ge(under, c, t);
  O::set1(c, T(1));
  O::add(p, c, e);
  O::div(p, c, p);  // p = 1/(1 + e)
  O::mul(q, e, p);
  O::mul(q, q, p);  // q = e·p·p
  O::set1(c, sfn::gelu_3ac<T>);
  O::set1(v, sfn::gelu_coeff<T>);
  O::mul(t, x, x);  // x² from here on
  O::fma(v, c, t, v);  // v = c + 3ac·x²
  O::mul(w, x, v);
  if constexpr (K == 1) {
    O::add(w, w, w);
    O::fma(d, w, q, p);  // p + 2x·v·q
    O::set1(c, T(1));
    O::select(d, under, c, d);
  } else {
    typename O::V s, h;
    O::add(s, p, p);
    O::set1(c, T(1));
    O::sub(s, c, s);
    O::mul(s, s, v);  // s = −T·v
    O::fma(h, w, s, v);
    O::set1(c, sfn::gelu_3ac<T>);
    O::fma(h, c, t, h);  // h = v − x·T·v² + 3ac·x²
    O::set1(c, T(4));
    O::mul(q, q, c);  // 4q from here on
    if constexpr (K == 2) {
      O::mul(d, q, h);
    } else {
      static_assert(K == 3);
      O::set1(c, sfn::gelu_12ac<T>);
      O::mul(d, c, x);
      O::fma(d, s, v, d);  // − T·v²
      O::mul(c, c, t);
      O::fma(d, c, s, d);  // − 12ac·x²·T·v
      O::add(c, s, s);
      O::fma(d, c, h, d);  // − 2T·v·h
      O::mul(c, q, w);
      O::mul(v, v, v);
      O::set1(e, T(0));
      O::sub(c, e, c);
      O::fma(d, c, v, d);  // − 4x·q·v³
      O::mul(d, q, d);
    }
    O::set1(c, T(0));
    O::select(d, under, c, d);
  }
  O::set1(c, T(0));
  O::select(x, over, c, d);
}

// ---- tanh: Cephes-style, without FMA ----
//
// tanh(x) = x + x·z·P(z)/Q(z), z = x², below |x| = 0.625, else
// 1 − 2/(exp(2|x|) + 1) with x's sign, and ±1 from |x| = 19.0625 on. The
// exp is Cephes' rational one: n = round(y·log2e) by a round op, then
// r = y − n·ln2_hi − n·ln2_lo and exp(r) = 1 + 2·r·P(r²)/(Q(r²) − r·P(r²)),
// scaled by 2^n from bits(n + S) as in GELU (n + S is exact). Each step is
// one IEEE operation and none is an FMA: the -ffp-contract=off build keeps
// it so, and GELU's fused shifter fma(y, log2e, S) would round once where
// round(y·log2e) rounds twice. f32 runs the same steps on the f64
// coefficients narrowed to float.

/// p = (…(c0·z + c1)·z + …)·z + cN by separate multiplies and adds, each
/// coefficient narrowed to the element width.
template <class O, typename... D>
inline void horner(typename O::V& p, const typename O::V& z, double c0,
                   D... cs) {
  using T = typename O::T;
  typename O::V c;
  O::set1(p, static_cast<T>(c0));
  ((O::mul(p, p, z), O::set1(c, static_cast<T>(cs)), O::add(p, p, c)), ...);
}

/// exp(y) on every lane, in place, for y in tanh's range [1.25, 38.125).
template <class O>
inline void tanh_exp(typename O::V& y) {
  using T = typename O::T;
  typename O::V n, z, p, q, c;
  O::set1(c, static_cast<T>(kLog2E));
  O::mul(n, y, c);
  O::round(n, n);
  O::set1(c, static_cast<T>(kExpC1));
  O::mul(c, n, c);
  O::sub(y, y, c);
  O::set1(c, static_cast<T>(kExpC2));
  O::mul(c, n, c);
  O::sub(y, y, c);
  O::mul(z, y, y);
  horner<O>(p, z, kEP0, kEP1, kEP2);
  O::mul(p, y, p);
  horner<O>(q, z, kEQ0, kEQ1, kEQ2, kEQ3);
  O::sub(q, q, p);
  O::div(p, p, q);
  O::set1(c, T(2));
  O::mul(p, c, p);
  O::set1(c, T(1));
  O::add(p, c, p);
  O::set1(c, GeluConsts<T>::kShift);
  O::add(n, n, c);
  O::pow2(n, n);
  O::mul(y, p, n);
}

/// tanh on every lane of x, in place.
template <class O>
inline void tanh_lane(typename O::V& x) {
  using T = typename O::T;
  typename O::V sign, ax, z, small, large, q, one, c;
  typename O::M mask;
  O::set1(c, T(-0.0));
  O::and_(sign, x, c);
  O::andnot(ax, c, x);
  // |x| < 0.625: x + x·z·(P(z)/Q(z)).
  O::mul(z, x, x);
  horner<O>(small, z, kTP0, kTP1, kTP2);
  horner<O>(q, z, 1.0, kTQ0, kTQ1, kTQ2);
  O::div(small, small, q);
  O::mul(q, x, z);
  O::mul(small, q, small);
  O::add(small, x, small);
  // |x| >= 0.625: 1 − 2/(exp(2|x|) + 1), and 1 from kTanhSat on.
  O::add(large, ax, ax);
  tanh_exp<O>(large);
  O::set1(one, T(1));
  O::add(large, large, one);
  O::set1(c, T(2));
  O::div(large, c, large);
  O::sub(large, one, large);
  O::set1(c, static_cast<T>(kTanhSat));
  O::ge(mask, ax, c);
  O::select(large, mask, one, large);
  O::set1(c, static_cast<T>(kTanhSmall));
  O::ge(mask, ax, c);
  O::select(x, mask, large, small);
  // x's sign: the small branch has it already, except that it maps −0 to
  // +0.
  O::or_(x, x, sign);
}

// ---- one span and one opcode switch per family ----

/// op on every lane of x, in place; `s` is the broadcast scalar operand.
template <class O, UnaryOp Op>
inline void unary_lane(typename O::V& x,
                       [[maybe_unused]] const typename O::V& s) {
  using T = typename O::T;
  typename O::V m;
  if constexpr (Op == UnaryOp::kAddScalar) {
    O::add(x, x, s);
  } else if constexpr (Op == UnaryOp::kMulScalar) {
    O::mul(x, x, s);
  } else if constexpr (Op == UnaryOp::kNeg) {
    O::set1(m, T(-0.0));
    O::xor_(x, x, m);
  } else if constexpr (Op == UnaryOp::kAbs) {
    O::set1(m, T(-0.0));
    O::andnot(x, m, x);
  } else if constexpr (Op == UnaryOp::kSqrt) {
    O::sqrt(x, x);
  } else if constexpr (Op == UnaryOp::kTanh) {
    tanh_lane<O>(x);
  } else if constexpr (Op == UnaryOp::kGelu) {
    gelu_lane<O>(x);
  } else if constexpr (Op == UnaryOp::kGeluD1) {
    gelu_deriv_lane<O, 1>(x);
  } else if constexpr (Op == UnaryOp::kGeluD2) {
    gelu_deriv_lane<O, 2>(x);
  } else {
    static_assert(Op == UnaryOp::kGeluD3);
    gelu_deriv_lane<O, 3>(x);
  }
}

/// out[i] = op(a[i]) over [0, n): whole vectors, then the tail through
/// masked lanes. Returns true, for unary_lanes' switch.
template <class O, UnaryOp Op>
inline bool unary_span(const typename O::T* a, typename O::T* out, int64_t n,
                       typename O::T s) {
  typename O::V x, c;
  O::set1(c, s);
  int64_t i = 0;
  for (; i + O::kLanes <= n; i += O::kLanes) {
    O::load(x, a + i);
    unary_lane<O, Op>(x, c);
    O::store(out + i, x);
  }
  if (i < n) {
    typename O::Tail m;
    O::tail(m, n - i);
    O::load(x, a + i, m);
    unary_lane<O, Op>(x, c);
    O::store(out + i, x, m);
  }
  return true;
}

/// unary_span for `op`; false, writing nothing, for the ops with no lane
/// formula.
template <class O>
inline bool unary_lanes(const typename O::T* a, typename O::T* out,
                        int64_t n, UnaryOp op, typename O::T s) {
  using U = UnaryOp;
  switch (op) {
    case U::kAddScalar: return unary_span<O, U::kAddScalar>(a, out, n, s);
    case U::kMulScalar: return unary_span<O, U::kMulScalar>(a, out, n, s);
    case U::kNeg: return unary_span<O, U::kNeg>(a, out, n, s);
    case U::kSqrt: return unary_span<O, U::kSqrt>(a, out, n, s);
    case U::kTanh: return unary_span<O, U::kTanh>(a, out, n, s);
    case U::kAbs: return unary_span<O, U::kAbs>(a, out, n, s);
    case U::kGelu: return unary_span<O, U::kGelu>(a, out, n, s);
    case U::kGeluD1: return unary_span<O, U::kGeluD1>(a, out, n, s);
    case U::kGeluD2: return unary_span<O, U::kGeluD2>(a, out, n, s);
    case U::kGeluD3: return unary_span<O, U::kGeluD3>(a, out, n, s);
    case U::kPowScalar:
    case U::kExp:
    case U::kLog:
    case U::kSign:
      return false;
  }
  return false;
}

/// x op y on every lane, into x.
template <class O, BinaryOp Op>
inline void binary_lane(typename O::V& x, const typename O::V& y) {
  if constexpr (Op == BinaryOp::kAdd) {
    O::add(x, x, y);
  } else if constexpr (Op == BinaryOp::kSub) {
    O::sub(x, x, y);
  } else if constexpr (Op == BinaryOp::kMul) {
    O::mul(x, x, y);
  } else {
    O::div(x, x, y);
  }
}

/// out[i] = a[i] op b[i] over [0, n): whole vectors, then the tail through
/// masked lanes.
template <class O, BinaryOp Op>
inline void binary_span(const typename O::T* a, const typename O::T* b,
                        typename O::T* out, int64_t n) {
  typename O::V x, y;
  int64_t i = 0;
  for (; i + O::kLanes <= n; i += O::kLanes) {
    O::load(x, a + i);
    O::load(y, b + i);
    binary_lane<O, Op>(x, y);
    O::store(out + i, x);
  }
  if (i < n) {
    typename O::Tail m;
    O::tail(m, n - i);
    O::load(x, a + i, m);
    O::load(y, b + i, m);
    binary_lane<O, Op>(x, y);
    O::store(out + i, x, m);
  }
}

template <class O>
inline void binary_lanes(const typename O::T* a, const typename O::T* b,
                         typename O::T* out, int64_t n, BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: binary_span<O, BinaryOp::kAdd>(a, b, out, n); break;
    case BinaryOp::kSub: binary_span<O, BinaryOp::kSub>(a, b, out, n); break;
    case BinaryOp::kMul: binary_span<O, BinaryOp::kMul>(a, b, out, n); break;
    case BinaryOp::kDiv: binary_span<O, BinaryOp::kDiv>(a, b, out, n); break;
  }
}

// ---- FMA matmul: one register-blocked micro-kernel over the ops structs ----
//
// A block keeps R rows × C vectors of out in accumulator registers across
// the whole k loop, so each b load feeds R FMAs: 4 rows × 2 ymm (8
// accumulators of 16 registers) on AVX2+FMA, 8 rows × 2 zmm (16 of 32) on
// AVX-512F. Every output element accumulates fma(a(i, kk), b[kk][j], acc)
// from its bias (or +0) in ascending kk, whichever block, strip or tail
// computes it, so both tiers give the bits of the naive std::fma loop. The
// row and column loops must unroll for the accumulators to stay in
// registers: without the pragmas GCC leaves them rolled at -O2, and the
// 8 × 2 zmm block spills. a(i, kk) is a[i·lda + kk]; with TransA (the TN
// form) it is a[kk·lda + i], so a block's R broadcasts per kk read R
// adjacent elements of one row of the stored a.

/// out rows [0, R) × columns [0, C·kLanes) of a·b (+ bias); a Masked block
/// (C = 1) covers the fewer than kLanes columns that `m` enables.
template <class O, int R, int C, bool Masked, bool TransA>
inline void matmul_block(const typename O::T* a, int64_t lda,
                         const typename O::T* b, const typename O::T* bias,
                         typename O::T* out, int64_t k, int64_t n,
                         const typename O::Tail& m) {
  using T = typename O::T;
  constexpr int64_t L = O::kLanes;
  typename O::V acc[R][C], bv[C], av;
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int c = 0; c < C; ++c) {
      if (!bias) {
        O::set1(acc[r][c], T(0));
      } else if constexpr (Masked) {
        O::load(acc[r][c], bias, m);
      } else {
        O::load(acc[r][c], bias + c * L);
      }
    }
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const T* brow = b + kk * n;
#pragma GCC unroll 2
    for (int c = 0; c < C; ++c) {
      if constexpr (Masked) {
        O::load(bv[c], brow, m);
      } else {
        O::load(bv[c], brow + c * L);
      }
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      O::set1(av, TransA ? a[kk * lda + r] : a[r * lda + kk]);
#pragma GCC unroll 2
      for (int c = 0; c < C; ++c) O::fma(acc[r][c], av, bv[c], acc[r][c]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int c = 0; c < C; ++c) {
      if constexpr (Masked) {
        O::store(out + r * n, acc[r][c], m);
      } else {
        O::store(out + r * n + c * L, acc[r][c]);
      }
    }
  }
}

/// out rows [0, R) of a·b (+ bias): two-vector blocks, then at most one
/// one-vector block, then the masked tail of n % kLanes columns.
template <class O, int R, bool TransA>
inline void matmul_rows(const typename O::T* a, int64_t lda,
                        const typename O::T* b, const typename O::T* bias,
                        typename O::T* out, int64_t k, int64_t n,
                        const typename O::Tail& m) {
  constexpr int64_t L = O::kLanes;
  auto at = [&](int64_t j) { return bias ? bias + j : nullptr; };
  int64_t j = 0;
  for (; j + 2 * L <= n; j += 2 * L) {
    matmul_block<O, R, 2, false, TransA>(a, lda, b + j, at(j), out + j, k, n,
                                         m);
  }
  if (j + L <= n) {
    matmul_block<O, R, 1, false, TransA>(a, lda, b + j, at(j), out + j, k, n,
                                         m);
    j += L;
  }
  if (j < n) {
    matmul_block<O, R, 1, true, TransA>(a, lda, b + j, at(j), out + j, k, n,
                                        m);
  }
}

/// out = a·b (+ bias) over `rows` rows: R at a time, then four (when R is
/// 8), then one at a time. Row i of out starts at a + i·lda, or at column
/// a + i with TransA.
template <class O, int R, bool TransA>
inline void matmul_span(const typename O::T* a, int64_t lda,
                        const typename O::T* b, const typename O::T* bias,
                        typename O::T* out, int64_t rows, int64_t k,
                        int64_t n) {
  typename O::Tail m;
  O::tail(m, n % O::kLanes);
  const int64_t step = TransA ? 1 : lda;  // a offset of one row of out
  int64_t i = 0;
  for (; i + R <= rows; i += R) {
    matmul_rows<O, R, TransA>(a + i * step, lda, b, bias, out + i * n, k, n,
                              m);
  }
  if constexpr (R > 4) {
    if (i + 4 <= rows) {
      matmul_rows<O, 4, TransA>(a + i * step, lda, b, bias, out + i * n, k,
                                n, m);
      i += 4;
    }
  }
  for (; i < rows; ++i) {
    matmul_rows<O, 1, TransA>(a + i * step, lda, b, bias, out + i * n, k, n,
                              m);
  }
}

// ---- conv1d: zero-padded rows on the ops structs ----
//
// Each pass copies the operand rows of one batch row into zero-padded rows
// of the calling thread, then runs lanes over them: every tap of every
// output position is one plain load, with no bounds test. Each element
// keeps the direct loop's order of separately rounded multiplies and adds:
//  * forward: out = bias (or +0); per input channel a sub-sum starts at +0,
//    takes a + w[k]·x[t + k − p] for k ascending, and is added to out;
//  * grad_input: each element adds g·w straight into itself, for output
//    channel ascending, then tap k descending (so t ascending);
//  * grad_weight: lanes over the K taps, each adding g·x into itself for
//    batch row ascending, then t ascending.
// A padded tap adds w·(±0) (g·(±0) for grad_weight) = ±0 to a sum that
// started at +0 and so is never −0: with finite factors it leaves the bits
// unchanged, and every tier gives the direct loop's bits. An infinite or
// NaN factor at a padded tap gives NaN, the IEEE value of the zero-padded
// sum.

/// The scalar tier as an ops struct of one lane, so the conv1d templates
/// run on every tier. A one-lane tail is never partial: the masked forms
/// are never reached.
template <typename E>
struct ScalarOps {
  using T = E;
  using V = E;
  using Tail = bool;
  static constexpr int64_t kLanes = 1;
  static void load(V& r, const T* p) { r = *p; }
  static void store(T* p, const V& v) { *p = v; }
  static void tail(Tail& m, int64_t n) { m = n > 0; }
  static void load(V& r, const T* p, const Tail& m) { r = m ? *p : T(0); }
  static void store(T* p, const V& v, const Tail& m) {
    if (m) *p = v;
  }
  static void set1(V& r, T c) { r = c; }
  static void add(V& r, const V& a, const V& b) { r = a + b; }
  static void mul(V& r, const V& a, const V& b) { r = a * b; }
};

/// Which conv1d kernel a ConvCall runs.
enum class ConvPass : std::uint8_t { kForward, kGradInput, kGradWeight };

/// One conv1d kernel call with the public entry's arguments: a and b are
/// (input, weight) for the forward pass, (grad_out, weight) for
/// grad_input and (grad_out, input) for grad_weight.
template <typename T>
struct ConvCall {
  ConvPass pass;
  const T* a;
  const T* b;
  const T* bias;
  T* out;
  int64_t B, Cin, L, Cout, K, P;
  int64_t lout() const { return L + 2 * P - K + 1; }
};

/// Slack after the last padded row: one vector of the widest tier (16 f32
/// lanes), so whole-vector loads and stores past a row's end stay in the
/// scratch. The lanes of out positions past the end are never stored.
constexpr int64_t kConvSlack = 16;

/// `n` elements of the calling thread's conv1d scratch, which only grows.
template <typename T>
T* conv_scratch(int64_t n) {
  static thread_local std::vector<T> scratch;
  const auto len = static_cast<std::size_t>(n);
  if (scratch.size() < len) scratch.resize(len);
  return scratch.data();
}

/// rows × width zero-padded rows: element u of row r is src[r·n + u −
/// shift] where 0 ≤ u − shift < n, else +0. Whole-vector stores may write
/// up to kLanes − 1 elements past a row (the next row rewrites them, and
/// the last row's land in the slack); loads from src are masked at its
/// end.
template <class O>
inline void pad_rows(typename O::T* dst, const typename O::T* src,
                     int64_t rows, int64_t n, int64_t shift, int64_t width) {
  using T = typename O::T;
  constexpr int64_t L = O::kLanes;
  const int64_t lo = std::clamp<int64_t>(shift, 0, width);
  const int64_t hi = std::clamp<int64_t>(shift + n, lo, width);
  typename O::V v, zero;
  typename O::Tail m;
  O::set1(zero, T(0));
  O::tail(m, (hi - lo) % L);
  for (int64_t r = 0; r < rows; ++r, dst += width, src += n) {
    const T* s = src + lo - shift;
    for (int64_t u = 0; u < lo; u += L) O::store(dst + u, zero);
    int64_t u = lo;
    for (; u + L <= hi; u += L) {
      O::load(v, s + (u - lo));
      O::store(dst + u, v);
    }
    if (u < hi) {
      O::load(v, s + (u - lo), m);  // +0 past hi
      O::store(dst + u, v);
    }
    for (u = hi; u < width; u += L) O::store(dst + u, zero);
  }
}

/// The forward and grad_input passes of one batch row, as a correlation
/// over padded rows: out row r, position t, takes w(r, i, j)·x_i[t + j]
/// for input row i ascending, then tap j ascending, with x_i at x +
/// i·width and w(r, i, j) = w[r·wr + i·wi + j·wj]. Forward (Fwd) starts
/// each out row at its bias (or +0) and adds one sub-sum per input row;
/// grad_input adds each x·w straight into the stored out.
template <typename T>
struct ConvRows {
  const T* x;
  int64_t width, in_rows;
  const T* w;
  int64_t wr, wi, wj, taps;
  const T* bias;
  T* out;
  int64_t len, out_rows;  // out is out_rows × len
};

/// Out rows [r0, r0 + R) × positions [t0, t0 + C·kLanes) of a ConvRows
/// pass, R·C accumulators in flight; a Masked block (C = 1) stores the
/// positions `m` enables.
template <class O, bool Fwd, int R, int C, bool Masked>
inline void conv_block(const ConvRows<typename O::T>& c, int64_t r0,
                       int64_t t0, const typename O::Tail& m) {
  using T = typename O::T;
  constexpr int64_t L = O::kLanes;
  typename O::V acc[R][C], xv[C], wv, prod;
  [[maybe_unused]] typename O::V sub[R][C];
  T* out = c.out + r0 * c.len + t0;
#pragma GCC unroll 2
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < C; ++v) {
      if constexpr (Fwd) {
        O::set1(acc[r][v], c.bias ? c.bias[r0 + r] : T(0));
      } else if constexpr (Masked) {
        O::load(acc[r][v], out + r * c.len, m);
      } else {
        O::load(acc[r][v], out + r * c.len + v * L);
      }
    }
  }
  for (int64_t i = 0; i < c.in_rows; ++i) {
    const T* xrow = c.x + i * c.width + t0;
    const T* wrow = c.w + r0 * c.wr + i * c.wi;
    if constexpr (Fwd) {
#pragma GCC unroll 2
      for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
        for (int v = 0; v < C; ++v) O::set1(sub[r][v], T(0));
      }
    }
    for (int64_t j = 0; j < c.taps; ++j) {
#pragma GCC unroll 2
      for (int v = 0; v < C; ++v) O::load(xv[v], xrow + j + v * L);
#pragma GCC unroll 2
      for (int r = 0; r < R; ++r) {
        O::set1(wv, wrow[r * c.wr + j * c.wj]);
#pragma GCC unroll 2
        for (int v = 0; v < C; ++v) {
          if constexpr (Fwd) {
            O::mul(prod, wv, xv[v]);
            O::add(sub[r][v], sub[r][v], prod);
          } else {
            O::mul(prod, xv[v], wv);
            O::add(acc[r][v], acc[r][v], prod);
          }
        }
      }
    }
    if constexpr (Fwd) {
#pragma GCC unroll 2
      for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
        for (int v = 0; v < C; ++v) O::add(acc[r][v], acc[r][v], sub[r][v]);
      }
    }
  }
#pragma GCC unroll 2
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < C; ++v) {
      if constexpr (Masked) {
        O::store(out + r * c.len, acc[r][v], m);
      } else {
        O::store(out + r * c.len + v * L, acc[r][v]);
      }
    }
  }
}

/// Out rows [r0, r0 + R) of a ConvRows pass: two-vector blocks, then at
/// most one one-vector block, then the masked tail of len % kLanes.
template <class O, bool Fwd, int R>
inline void conv_strip(const ConvRows<typename O::T>& c, int64_t r0,
                       const typename O::Tail& m) {
  constexpr int64_t L = O::kLanes;
  int64_t t = 0;
  for (; t + 2 * L <= c.len; t += 2 * L) {
    conv_block<O, Fwd, R, 2, false>(c, r0, t, m);
  }
  if (t + L <= c.len) {
    conv_block<O, Fwd, R, 1, false>(c, r0, t, m);
    t += L;
  }
  if (t < c.len) conv_block<O, Fwd, R, 1, true>(c, r0, t, m);
}

/// Every out row of a ConvRows pass, two at a time, then the last odd one.
template <class O, bool Fwd>
inline void conv_rows(const ConvRows<typename O::T>& c) {
  typename O::Tail m;
  O::tail(m, c.len % O::kLanes);
  int64_t r = 0;
  for (; r + 2 <= c.out_rows; r += 2) conv_strip<O, Fwd, 2>(c, r, m);
  if (r < c.out_rows) conv_strip<O, Fwd, 1>(c, r, m);
}

/// grad_weight of one batch row for R (output, input) channel pairs
/// [p0, p0 + R), pair p = co·Cin + ci, over the taps [k0, k0 + kLanes):
/// each lane adds g[co][t]·x_ci[t + k] into the stored grad_weight for t
/// ascending. x holds the batch row's padded input rows (stride width)
/// from tap k0 on, gw the grad_weight from tap k0 on; a Masked block
/// covers the K − k0 < kLanes taps `m` enables.
template <class O, int R, bool Masked>
inline void conv_gw_block(const typename O::T* g, const typename O::T* x,
                          typename O::T* gw, int64_t p0, int64_t Cin,
                          int64_t K, int64_t Lout, int64_t width,
                          const typename O::Tail& m) {
  using T = typename O::T;
  typename O::V acc[R], gv, xv, prod;
  const T* grow[R];
  const T* xrow[R];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    const int64_t p = p0 + r;
    grow[r] = g + p / Cin * Lout;
    xrow[r] = x + p % Cin * width;
    if constexpr (Masked) {
      O::load(acc[r], gw + p * K, m);
    } else {
      O::load(acc[r], gw + p * K);
    }
  }
  for (int64_t t = 0; t < Lout; ++t) {
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      O::set1(gv, grow[r][t]);
      O::load(xv, xrow[r] + t);
      O::mul(prod, gv, xv);
      O::add(acc[r], acc[r], prod);
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    if constexpr (Masked) {
      O::store(gw + (p0 + r) * K, acc[r], m);
    } else {
      O::store(gw + (p0 + r) * K, acc[r]);
    }
  }
}

/// grad_weight of one batch row for the channel pairs [p, end), four at
/// a time, then two, then one, on the taps from k0.
template <class O, bool Masked>
inline void conv_gw_pairs(const typename O::T* g, const typename O::T* x,
                          typename O::T* gw, int64_t p, int64_t end,
                          int64_t Cin, int64_t K, int64_t Lout, int64_t width,
                          const typename O::Tail& m) {
  for (; p + 4 <= end; p += 4) {
    conv_gw_block<O, 4, Masked>(g, x, gw, p, Cin, K, Lout, width, m);
  }
  if (p + 2 <= end) {
    conv_gw_block<O, 2, Masked>(g, x, gw, p, Cin, K, Lout, width, m);
    p += 2;
  }
  if (p < end) conv_gw_block<O, 1, Masked>(g, x, gw, p, Cin, K, Lout, width, m);
}

/// Items [begin, end) of a conv1d call on one serial thread: batch rows
/// for the forward and grad_input passes, output channels for
/// grad_weight (whose every element sums over all batch rows). `scratch`
/// holds the padded rows of one batch row plus kConvSlack.
template <class O>
inline void conv_pass(const ConvCall<typename O::T>& c,
                      typename O::T* scratch, int64_t begin, int64_t end) {
  using T = typename O::T;
  const int64_t Lout = c.lout(), K = c.K, Cin = c.Cin, Cout = c.Cout;
  switch (c.pass) {
    case ConvPass::kForward: {
      ConvRows<T> r{.x = scratch, .width = Lout + K - 1, .in_rows = Cin,
                    .w = c.b, .wr = Cin * K, .wi = K, .wj = 1, .taps = K,
                    .bias = c.bias, .out = c.out, .len = Lout,
                    .out_rows = Cout};
      for (int64_t b = begin; b < end; ++b) {
        pad_rows<O>(scratch, c.a + b * Cin * c.L, Cin, c.L, c.P, r.width);
        r.out = c.out + b * Cout * Lout;
        conv_rows<O, true>(r);
      }
      break;
    }
    case ConvPass::kGradInput: {
      // Out row ci takes grad_out row co at tap j = K − 1 − k: the weights
      // run backwards from w[co][ci][K − 1], and the padded grad_out rows
      // are shifted so that x_co[s + j] is grad_out[co][s + p − k].
      ConvRows<T> r{.x = scratch, .width = c.L + K - 1, .in_rows = Cout,
                    .w = c.b + K - 1, .wr = K, .wi = Cin * K, .wj = -1,
                    .taps = K, .bias = nullptr, .out = c.out, .len = c.L,
                    .out_rows = Cin};
      for (int64_t b = begin; b < end; ++b) {
        pad_rows<O>(scratch, c.a + b * Cout * Lout, Cout, Lout, K - 1 - c.P,
                    r.width);
        r.out = c.out + b * Cin * c.L;
        conv_rows<O, false>(r);
      }
      break;
    }
    case ConvPass::kGradWeight: {
      constexpr int64_t L = O::kLanes;
      const int64_t width = Lout + K - 1;
      typename O::Tail m;
      O::tail(m, K % L);
      for (int64_t b = 0; b < c.B; ++b) {
        pad_rows<O>(scratch, c.b + b * Cin * c.L, Cin, c.L, c.P, width);
        const T* g = c.a + b * Cout * Lout;
        for (int64_t k0 = 0; k0 < K; k0 += L) {
          if (k0 + L <= K) {
            conv_gw_pairs<O, false>(g, scratch + k0, c.out + k0, begin * Cin,
                                    end * Cin, Cin, K, Lout, width, m);
          } else {
            conv_gw_pairs<O, true>(g, scratch + k0, c.out + k0, begin * Cin,
                                   end * Cin, Cin, K, Lout, width, m);
          }
        }
      }
      break;
    }
  }
}
}  // namespace

#ifdef MF_HAVE_AVX2_KERNELS
#define MF_AVX2_FMA __attribute__((target("avx2,fma")))
#define MF_AVX512F __attribute__((target("avx512f")))

namespace {

// tail(m, n) enables the first n < kLanes lanes: a masked load reads only
// those (the rest read as zero) and a masked store writes only those, so a
// tail never touches memory past its n elements. and_, andnot (~a & b),
// or_ and xor_ act on the bits.
struct Avx2F64 {
  using T = double;
  using V = __m256d;
  using M = __m256d;
  using Tail = __m256i;
  static constexpr int64_t kLanes = 4;
  MF_AVX2_FMA static void load(V& r, const T* p) { r = _mm256_loadu_pd(p); }
  MF_AVX2_FMA static void store(T* p, const V& v) { _mm256_storeu_pd(p, v); }
  MF_AVX2_FMA static void tail(Tail& m, int64_t n) {
    m = _mm256_cmpgt_epi64(_mm256_set1_epi64x(n),
                           _mm256_setr_epi64x(0, 1, 2, 3));
  }
  MF_AVX2_FMA static void load(V& r, const T* p, const Tail& m) {
    r = _mm256_maskload_pd(p, m);
  }
  MF_AVX2_FMA static void store(T* p, const V& v, const Tail& m) {
    _mm256_maskstore_pd(p, m, v);
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
  MF_AVX2_FMA static void sqrt(V& r, const V& a) { r = _mm256_sqrt_pd(a); }
  MF_AVX2_FMA static void round(V& r, const V& a) {
    r = _mm256_round_pd(a, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  MF_AVX2_FMA static void max(V& r, const V& a, const V& b) {
    r = _mm256_max_pd(a, b);
  }
  MF_AVX2_FMA static void min(V& r, const V& a, const V& b) {
    r = _mm256_min_pd(a, b);
  }
  MF_AVX2_FMA static void and_(V& r, const V& a, const V& b) {
    r = _mm256_and_pd(a, b);
  }
  MF_AVX2_FMA static void andnot(V& r, const V& a, const V& b) {
    r = _mm256_andnot_pd(a, b);
  }
  MF_AVX2_FMA static void or_(V& r, const V& a, const V& b) {
    r = _mm256_or_pd(a, b);
  }
  MF_AVX2_FMA static void xor_(V& r, const V& a, const V& b) {
    r = _mm256_xor_pd(a, b);
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
  using Tail = __m256i;
  static constexpr int64_t kLanes = 8;
  MF_AVX2_FMA static void load(V& r, const T* p) { r = _mm256_loadu_ps(p); }
  MF_AVX2_FMA static void store(T* p, const V& v) { _mm256_storeu_ps(p, v); }
  MF_AVX2_FMA static void tail(Tail& m, int64_t n) {
    m = _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  MF_AVX2_FMA static void load(V& r, const T* p, const Tail& m) {
    r = _mm256_maskload_ps(p, m);
  }
  MF_AVX2_FMA static void store(T* p, const V& v, const Tail& m) {
    _mm256_maskstore_ps(p, m, v);
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
  MF_AVX2_FMA static void sqrt(V& r, const V& a) { r = _mm256_sqrt_ps(a); }
  MF_AVX2_FMA static void round(V& r, const V& a) {
    r = _mm256_round_ps(a, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  MF_AVX2_FMA static void max(V& r, const V& a, const V& b) {
    r = _mm256_max_ps(a, b);
  }
  MF_AVX2_FMA static void min(V& r, const V& a, const V& b) {
    r = _mm256_min_ps(a, b);
  }
  MF_AVX2_FMA static void and_(V& r, const V& a, const V& b) {
    r = _mm256_and_ps(a, b);
  }
  MF_AVX2_FMA static void andnot(V& r, const V& a, const V& b) {
    r = _mm256_andnot_ps(a, b);
  }
  MF_AVX2_FMA static void or_(V& r, const V& a, const V& b) {
    r = _mm256_or_ps(a, b);
  }
  MF_AVX2_FMA static void xor_(V& r, const V& a, const V& b) {
    r = _mm256_xor_ps(a, b);
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

// AVX-512F: the maskz_ forms of max, min, sqrt, round, andnot and the
// shift take a zero source where the plain intrinsics read an undefined
// one (GCC 12 reports that as -Wmaybe-uninitialized); with an all-ones
// mask they are the same op. The bit ops go through the integer forms on
// cast vectors: and/andnot/or/xor on pd and ps are AVX-512DQ, which the
// tier does not require.
struct Avx512F64 {
  using T = double;
  using V = __m512d;
  using M = __mmask8;
  using Tail = M;
  static constexpr int64_t kLanes = 8;
  static constexpr M kAll = 0xFF;
  MF_AVX512F static void load(V& r, const T* p) { r = _mm512_loadu_pd(p); }
  MF_AVX512F static void store(T* p, const V& v) { _mm512_storeu_pd(p, v); }
  MF_AVX512F static void tail(Tail& m, int64_t n) {
    m = static_cast<M>((1u << n) - 1);
  }
  MF_AVX512F static void load(V& r, const T* p, const Tail& m) {
    r = _mm512_maskz_loadu_pd(m, p);
  }
  MF_AVX512F static void store(T* p, const V& v, const Tail& m) {
    _mm512_mask_storeu_pd(p, m, v);
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
  MF_AVX512F static void sqrt(V& r, const V& a) {
    r = _mm512_maskz_sqrt_pd(kAll, a);
  }
  MF_AVX512F static void round(V& r, const V& a) {
    r = _mm512_maskz_roundscale_pd(
        kAll, a, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  MF_AVX512F static void max(V& r, const V& a, const V& b) {
    r = _mm512_maskz_max_pd(kAll, a, b);
  }
  MF_AVX512F static void min(V& r, const V& a, const V& b) {
    r = _mm512_maskz_min_pd(kAll, a, b);
  }
  MF_AVX512F static void and_(V& r, const V& a, const V& b) {
    r = _mm512_castsi512_pd(
        _mm512_and_epi64(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
  }
  MF_AVX512F static void andnot(V& r, const V& a, const V& b) {
    r = _mm512_castsi512_pd(_mm512_maskz_andnot_epi64(
        kAll, _mm512_castpd_si512(a), _mm512_castpd_si512(b)));
  }
  MF_AVX512F static void or_(V& r, const V& a, const V& b) {
    r = _mm512_castsi512_pd(
        _mm512_or_epi64(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
  }
  MF_AVX512F static void xor_(V& r, const V& a, const V& b) {
    r = _mm512_castsi512_pd(
        _mm512_xor_epi64(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
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
  using Tail = M;
  static constexpr int64_t kLanes = 16;
  static constexpr M kAll = 0xFFFF;
  MF_AVX512F static void load(V& r, const T* p) { r = _mm512_loadu_ps(p); }
  MF_AVX512F static void store(T* p, const V& v) { _mm512_storeu_ps(p, v); }
  MF_AVX512F static void tail(Tail& m, int64_t n) {
    m = static_cast<M>((1u << n) - 1);
  }
  MF_AVX512F static void load(V& r, const T* p, const Tail& m) {
    r = _mm512_maskz_loadu_ps(m, p);
  }
  MF_AVX512F static void store(T* p, const V& v, const Tail& m) {
    _mm512_mask_storeu_ps(p, m, v);
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
  MF_AVX512F static void sqrt(V& r, const V& a) {
    r = _mm512_maskz_sqrt_ps(kAll, a);
  }
  MF_AVX512F static void round(V& r, const V& a) {
    r = _mm512_maskz_roundscale_ps(
        kAll, a, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  MF_AVX512F static void max(V& r, const V& a, const V& b) {
    r = _mm512_maskz_max_ps(kAll, a, b);
  }
  MF_AVX512F static void min(V& r, const V& a, const V& b) {
    r = _mm512_maskz_min_ps(kAll, a, b);
  }
  MF_AVX512F static void and_(V& r, const V& a, const V& b) {
    r = _mm512_castsi512_ps(
        _mm512_and_epi32(_mm512_castps_si512(a), _mm512_castps_si512(b)));
  }
  MF_AVX512F static void andnot(V& r, const V& a, const V& b) {
    r = _mm512_castsi512_ps(_mm512_maskz_andnot_epi32(
        kAll, _mm512_castps_si512(a), _mm512_castps_si512(b)));
  }
  MF_AVX512F static void or_(V& r, const V& a, const V& b) {
    r = _mm512_castsi512_ps(
        _mm512_or_epi32(_mm512_castps_si512(a), _mm512_castps_si512(b)));
  }
  MF_AVX512F static void xor_(V& r, const V& a, const V& b) {
    r = _mm512_castsi512_ps(
        _mm512_xor_epi32(_mm512_castps_si512(a), _mm512_castps_si512(b)));
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

/// The ops structs of element type T.
template <typename T>
struct Isa {
  using Avx2 = std::conditional_t<std::is_same_v<T, double>, Avx2F64, Avx2F32>;
  using Avx512 =
      std::conditional_t<std::is_same_v<T, double>, Avx512F64, Avx512F32>;
};

// flatten inlines the templates and every ops call into these bodies, so
// each family compiles as one loop nest per opcode at its own ISA.
template <typename T>
__attribute__((target("avx2,fma"), flatten)) bool unary_avx2(
    const T* a, T* out, int64_t n, UnaryOp op, T s) {
  return unary_lanes<typename Isa<T>::Avx2>(a, out, n, op, s);
}
template <typename T>
__attribute__((target("avx512f"), flatten)) bool unary_avx512(
    const T* a, T* out, int64_t n, UnaryOp op, T s) {
  return unary_lanes<typename Isa<T>::Avx512>(a, out, n, op, s);
}
template <typename T>
__attribute__((target("avx2,fma"), flatten)) void binary_avx2(
    const T* a, const T* b, T* out, int64_t n, BinaryOp op) {
  binary_lanes<typename Isa<T>::Avx2>(a, b, out, n, op);
}
template <typename T>
__attribute__((target("avx512f"), flatten)) void binary_avx512(
    const T* a, const T* b, T* out, int64_t n, BinaryOp op) {
  binary_lanes<typename Isa<T>::Avx512>(a, b, out, n, op);
}
template <typename T, bool TransA>
__attribute__((target("avx2,fma"), flatten)) void matmul_avx2(
    const T* a, int64_t lda, const T* b, const T* bias, T* out, int64_t m,
    int64_t k, int64_t n) {
  matmul_span<typename Isa<T>::Avx2, 4, TransA>(a, lda, b, bias, out, m, k,
                                                n);
}
template <typename T, bool TransA>
__attribute__((target("avx512f"), flatten)) void matmul_avx512(
    const T* a, int64_t lda, const T* b, const T* bias, T* out, int64_t m,
    int64_t k, int64_t n) {
  matmul_span<typename Isa<T>::Avx512, 8, TransA>(a, lda, b, bias, out, m, k,
                                                  n);
}
template <typename T>
__attribute__((target("avx2,fma"), flatten)) void conv_avx2(
    const ConvCall<T>& c, T* scratch, int64_t begin, int64_t end) {
  conv_pass<typename Isa<T>::Avx2>(c, scratch, begin, end);
}
template <typename T>
__attribute__((target("avx512f"), flatten)) void conv_avx512(
    const ConvCall<T>& c, T* scratch, int64_t begin, int64_t end) {
  conv_pass<typename Isa<T>::Avx512>(c, scratch, begin, end);
}

}  // namespace

#undef MF_AVX2_FMA
#undef MF_AVX512F
#endif  // MF_HAVE_AVX2_KERNELS

namespace {

/// True when the CPU has the tier with `lanes` f64 lanes: 8 for AVX-512F,
/// 4 for AVX2+FMA, 1 for the scalar loops.
bool cpu_has_tier(int lanes) {
#ifdef MF_HAVE_AVX2_KERNELS
  static const bool avx512f = __builtin_cpu_supports("avx512f");
  static const bool avx2_fma =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (lanes == 8) return avx512f;
  if (lanes == 4) return avx2_fma;
#endif
  return lanes == 1;
}

// One serial body per family on the tier with `lanes` f64 lanes; false,
// writing nothing, when the CPU lacks it. Ops with no lane formula run the
// functor loop on every tier.

template <typename T>
bool unary_tier(int lanes, const T* a, T* out, int64_t n, UnaryOp op,
                real s) {
  if (!cpu_has_tier(lanes)) return false;
#ifdef MF_HAVE_AVX2_KERNELS
  const T c = static_cast<T>(s);
  if (lanes == 8 && unary_avx512(a, out, n, op, c)) return true;
  if (lanes == 4 && unary_avx2(a, out, n, op, c)) return true;
#endif
  unary_functors(a, out, n, op, s);
  return true;
}

template <typename T>
bool binary_tier(int lanes, const T* a, const T* b, T* out, int64_t n,
                 BinaryOp op) {
  if (!cpu_has_tier(lanes)) return false;
#ifdef MF_HAVE_AVX2_KERNELS
  if (lanes == 8) {
    binary_avx512(a, b, out, n, op);
    return true;
  }
  if (lanes == 4) {
    binary_avx2(a, b, out, n, op);
    return true;
  }
#endif
  binary_functors(a, b, out, n, op);
  return true;
}

/// `rows` rows of out on a tier the CPU has: NN reads a as rows × k with
/// row stride lda, TN (TransA) reads columns [0, rows) of a stored k × lda.
template <typename T, bool TransA>
void matmul_rows_on(int lanes, const T* a, int64_t lda, const T* b,
                    const T* bias, T* out, int64_t rows, int64_t k,
                    int64_t n) {
#ifdef MF_HAVE_AVX2_KERNELS
  if (lanes == 8) {
    matmul_avx512<T, TransA>(a, lda, b, bias, out, rows, k, n);
    return;
  }
  if (lanes == 4) {
    matmul_avx2<T, TransA>(a, lda, b, bias, out, rows, k, n);
    return;
  }
#endif
  matmul_scalar<T, TransA>(a, lda, b, bias, out, rows, k, n);
}

/// bᵀ for the NT form: b [n × k] packed into a [k × n] panel of the
/// calling thread. The panel only grows, so steady-state calls allocate
/// nothing; threads that split the call's rows share it read-only.
template <typename T>
const T* pack_transposed(const T* b, int64_t n, int64_t k) {
  static thread_local std::vector<T> panel;
  const auto len = static_cast<std::size_t>(n * k);
  if (panel.size() < len) panel.resize(len);
  T* p = panel.data();
  for (int64_t j = 0; j < n; ++j) {
    for (int64_t kk = 0; kk < k; ++kk) p[kk * n + j] = b[j * k + kk];
  }
  return p;
}

/// Every form of the GEMM on the tier with `lanes` lanes; false, writing
/// nothing, when the CPU lacks it. `split(rows, cost, f)` runs f(begin,
/// end) over a partition of out's rows: parallel_for for the public entry,
/// one serial call for the tier tests. NT packs bᵀ and runs NN.
template <typename T, typename Split>
bool matmul_form(int lanes, MatmulForm form, const T* a, const T* b,
                 const T* bias, T* out, int64_t m, int64_t k, int64_t n,
                 Split&& split) {
  if (bias && form != MatmulForm::kNN) {
    throw std::invalid_argument("matmul: a bias needs the NN form");
  }
  if (!cpu_has_tier(lanes)) return false;
  if (form == MatmulForm::kNT) b = pack_transposed(b, n, k);
  split(m, k * n, [&](int64_t begin, int64_t end) {
    if (form == MatmulForm::kTN) {
      matmul_rows_on<T, true>(lanes, a + begin, m, b, bias, out + begin * n,
                              end - begin, k, n);
    } else {
      matmul_rows_on<T, false>(lanes, a + begin * k, k, b, bias,
                               out + begin * n, end - begin, k, n);
    }
  });
  return true;
}

template <typename T>
void map_unary_impl(const T* a, T* out, int64_t n, UnaryOp op, real s) {
  const int lanes = gelu_lanes();
  parallel_for(n, [&](int64_t begin, int64_t end) {
    unary_tier(lanes, a + begin, out + begin, end - begin, op, s);
  });
}

template <typename T>
void map_binary_impl(const T* a, const T* b, T* out, int64_t n,
                     BinaryOp op) {
  const int lanes = gelu_lanes();
  parallel_for(n, [&](int64_t begin, int64_t end) {
    binary_tier(lanes, a + begin, b + begin, out + begin, end - begin, op);
  });
}

/// Threads over rows: each output element accumulates in one thread in kk
/// order, so the result does not depend on the thread count.
template <typename T>
void matmul_impl(const T* a, const T* b, const T* bias, T* out, int64_t m,
                 int64_t k, int64_t n, MatmulForm form) {
  matmul_form(gelu_lanes(), form, a, b, bias, out, m, k, n,
              [](int64_t rows, int64_t cost, auto&& f) {
                parallel_for(rows, cost, f);
              });
}

template <typename T>
bool matmul_tier(int lanes, MatmulForm form, const T* a, const T* b,
                 const T* bias, T* out, int64_t m, int64_t k, int64_t n) {
  return matmul_form(lanes, form, a, b, bias, out, m, k, n,
                     [](int64_t rows, int64_t, auto&& f) {
                       if (rows > 0) f(int64_t{0}, rows);
                     });
}

/// A conv1d call on the tier with `lanes` lanes; false, writing nothing,
/// when the CPU lacks it. `split(items, cost, f)` runs f(begin, end) over
/// a partition of the items (batch rows, or output channels for
/// grad_weight): parallel_for for the public entries, one serial call for
/// the tier tests. Each element is summed in one thread, so the bits do
/// not depend on the split.
template <typename T, typename Split>
bool conv_form(int lanes, const ConvCall<T>& c, Split&& split) {
  if (!cpu_has_tier(lanes)) return false;
  const int64_t Lout = c.lout();
  if (Lout <= 0) return true;
  const bool grad_input = c.pass == ConvPass::kGradInput;
  const int64_t padded = grad_input ? c.Cout * (c.L + c.K - 1)
                                    : c.Cin * (Lout + c.K - 1);
  const int64_t taps = c.Cin * c.K * Lout;  // per batch row and out channel
  const bool by_channel = c.pass == ConvPass::kGradWeight;
  split(by_channel ? c.Cout : c.B, taps * (by_channel ? c.B : c.Cout),
        [&](int64_t begin, int64_t end) {
          T* scratch = conv_scratch<T>(padded + kConvSlack);
#ifdef MF_HAVE_AVX2_KERNELS
          if (lanes == 8) return conv_avx512(c, scratch, begin, end);
          if (lanes == 4) return conv_avx2(c, scratch, begin, end);
#endif
          conv_pass<ScalarOps<T>>(c, scratch, begin, end);
        });
  return true;
}

template <typename T>
void conv_impl(const ConvCall<T>& c) {
  conv_form(gelu_lanes(), c, [](int64_t items, int64_t cost, auto&& f) {
    parallel_for(items, cost, f);
  });
}

template <typename T>
bool conv_tier(int lanes, const ConvCall<T>& c) {
  return conv_form(lanes, c, [](int64_t items, int64_t, auto&& f) {
    if (items > 0) f(int64_t{0}, items);
  });
}

}  // namespace

int gelu_lanes() {
  static const int lanes = cpu_has_tier(8) ? 8 : cpu_has_tier(4) ? 4 : 1;
  return lanes;
}

namespace detail {
bool unary_on_tier(int lanes, const double* a, double* out, int64_t n,
                   UnaryOp op, double scalar) {
  return unary_tier(lanes, a, out, n, op, scalar);
}
bool unary_on_tier(int lanes, const float* a, float* out, int64_t n,
                   UnaryOp op, double scalar) {
  return unary_tier(lanes, a, out, n, op, scalar);
}
bool binary_on_tier(int lanes, const double* a, const double* b,
                    double* out, int64_t n, BinaryOp op) {
  return binary_tier(lanes, a, b, out, n, op);
}
bool binary_on_tier(int lanes, const float* a, const float* b, float* out,
                    int64_t n, BinaryOp op) {
  return binary_tier(lanes, a, b, out, n, op);
}
bool matmul_on_tier(int lanes, MatmulForm form, const double* a,
                    const double* b, const double* bias, double* out,
                    int64_t m, int64_t k, int64_t n) {
  return matmul_tier(lanes, form, a, b, bias, out, m, k, n);
}
bool matmul_on_tier(int lanes, MatmulForm form, const float* a,
                    const float* b, const float* bias, float* out, int64_t m,
                    int64_t k, int64_t n) {
  return matmul_tier(lanes, form, a, b, bias, out, m, k, n);
}
bool conv1d_forward_on_tier(int lanes, const double* input,
                            const double* weight, const double* bias,
                            double* out, int64_t B, int64_t Cin, int64_t L,
                            int64_t Cout, int64_t K, int64_t padding) {
  return conv_tier<double>(lanes, {ConvPass::kForward, input, weight, bias,
                                   out, B, Cin, L, Cout, K, padding});
}
bool conv1d_forward_on_tier(int lanes, const float* input,
                            const float* weight, const float* bias,
                            float* out, int64_t B, int64_t Cin, int64_t L,
                            int64_t Cout, int64_t K, int64_t padding) {
  return conv_tier<float>(lanes, {ConvPass::kForward, input, weight, bias,
                                  out, B, Cin, L, Cout, K, padding});
}
bool conv1d_grad_input_on_tier(int lanes, const double* grad_out,
                               const double* weight, double* grad_input,
                               int64_t B, int64_t Cin, int64_t L,
                               int64_t Cout, int64_t K, int64_t padding) {
  return conv_tier<double>(lanes, {ConvPass::kGradInput, grad_out, weight,
                                   nullptr, grad_input, B, Cin, L, Cout, K,
                                   padding});
}
bool conv1d_grad_input_on_tier(int lanes, const float* grad_out,
                               const float* weight, float* grad_input,
                               int64_t B, int64_t Cin, int64_t L,
                               int64_t Cout, int64_t K, int64_t padding) {
  return conv_tier<float>(lanes, {ConvPass::kGradInput, grad_out, weight,
                                  nullptr, grad_input, B, Cin, L, Cout, K,
                                  padding});
}
bool conv1d_grad_weight_on_tier(int lanes, const double* grad_out,
                                const double* input, double* grad_weight,
                                int64_t B, int64_t Cin, int64_t L,
                                int64_t Cout, int64_t K, int64_t padding) {
  return conv_tier<double>(lanes, {ConvPass::kGradWeight, grad_out, input,
                                   nullptr, grad_weight, B, Cin, L, Cout, K,
                                   padding});
}
bool conv1d_grad_weight_on_tier(int lanes, const float* grad_out,
                                const float* input, float* grad_weight,
                                int64_t B, int64_t Cin, int64_t L,
                                int64_t Cout, int64_t K, int64_t padding) {
  return conv_tier<float>(lanes, {ConvPass::kGradWeight, grad_out, input,
                                  nullptr, grad_weight, B, Cin, L, Cout, K,
                                  padding});
}
}  // namespace detail

void unary_block(const real* a, real* out, int64_t n, UnaryOp op,
                 real scalar) {
  unary_tier(gelu_lanes(), a, out, n, op, scalar);
}
void unary_block(const float* a, float* out, int64_t n, UnaryOp op,
                 real scalar) {
  unary_tier(gelu_lanes(), a, out, n, op, scalar);
}
void binary_block(const real* a, const real* b, real* out, int64_t n,
                  BinaryOp op) {
  binary_tier(gelu_lanes(), a, b, out, n, op);
}
void binary_block(const float* a, const float* b, float* out, int64_t n,
                  BinaryOp op) {
  binary_tier(gelu_lanes(), a, b, out, n, op);
}
void map_unary(const real* a, real* out, int64_t n, UnaryOp op, real scalar) {
  map_unary_impl(a, out, n, op, scalar);
}
void map_unary(const float* a, float* out, int64_t n, UnaryOp op,
               real scalar) {
  map_unary_impl(a, out, n, op, scalar);
}
void map_binary(const real* a, const real* b, real* out, int64_t n,
                BinaryOp op) {
  map_binary_impl(a, b, out, n, op);
}
void map_binary(const float* a, const float* b, float* out, int64_t n,
                BinaryOp op) {
  map_binary_impl(a, b, out, n, op);
}

void matmul(const real* a, const real* b, const real* bias, real* out,
            int64_t m, int64_t k, int64_t n, MatmulForm form) {
  matmul_impl(a, b, bias, out, m, k, n, form);
}

void matmul(const float* a, const float* b, const float* bias, float* out,
            int64_t m, int64_t k, int64_t n, MatmulForm form) {
  matmul_impl(a, b, bias, out, m, k, n, form);
}

namespace {
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
  conv_impl<real>({ConvPass::kForward, input, weight, bias, out, B, Cin, L,
                   Cout, K, padding});
}

void conv1d_forward(const float* input, const float* weight, const float* bias,
                    float* out, int64_t B, int64_t Cin, int64_t L,
                    int64_t Cout, int64_t K, int64_t padding) {
  conv_impl<float>({ConvPass::kForward, input, weight, bias, out, B, Cin, L,
                    Cout, K, padding});
}

void conv1d_grad_input(const real* grad_out, const real* weight,
                       real* grad_input, int64_t B, int64_t Cin, int64_t L,
                       int64_t Cout, int64_t K, int64_t padding) {
  conv_impl<real>({ConvPass::kGradInput, grad_out, weight, nullptr,
                   grad_input, B, Cin, L, Cout, K, padding});
}

void conv1d_grad_input(const float* grad_out, const float* weight,
                       float* grad_input, int64_t B, int64_t Cin, int64_t L,
                       int64_t Cout, int64_t K, int64_t padding) {
  conv_impl<float>({ConvPass::kGradInput, grad_out, weight, nullptr,
                    grad_input, B, Cin, L, Cout, K, padding});
}

void conv1d_grad_weight(const real* grad_out, const real* input,
                        real* grad_weight, int64_t B, int64_t Cin, int64_t L,
                        int64_t Cout, int64_t K, int64_t padding) {
  conv_impl<real>({ConvPass::kGradWeight, grad_out, input, nullptr,
                   grad_weight, B, Cin, L, Cout, K, padding});
}

void conv1d_grad_weight(const float* grad_out, const float* input,
                        float* grad_weight, int64_t B, int64_t Cin, int64_t L,
                        int64_t Cout, int64_t K, int64_t padding) {
  conv_impl<float>({ConvPass::kGradWeight, grad_out, input, nullptr,
                    grad_weight, B, Cin, L, Cout, K, padding});
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
