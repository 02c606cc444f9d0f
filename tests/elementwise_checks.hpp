// Elementwise kernel conformance checks shared by test_kernels (f64) and
// test_precision (f32). The sweeps run every UnaryOp and BinaryOp, n =
// 1..17 and 1,003, on tiers 1, 4 and 8 (the scalar loops, AVX2+FMA and
// AVX-512F), with operands that end at guard pages:
//  * every tier equals the sfn:: functor bitwise, ±0, ±inf and NaN
//    included, except tanh's and GELU's vector lanes, whose two tiers
//    agree bitwise instead; the public entries give the widest tier's
//    bits;
//  * whole-array, per-element, odd-chunk, in-place and threaded calls of
//    the public entries agree bitwise;
//  * tanh and GELU against references: special values, error bounds and
//    pinned bits.
#pragma once

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "ad/kernels.hpp"
#include "ad/scalar_fns.hpp"
#include "util/rng.hpp"

namespace elementwise_checks {

namespace kernels = mf::ad::kernels;
namespace sfn = mf::ad::sfn;
using kernels::BinaryOp;
using kernels::UnaryOp;

/// Restores the kernel grain and thread count on every exit path.
/// serial(): nothing threads; threaded(): grain 1, so even 1-element maps
/// take the parallel path (when OpenMP is available).
class KernelConfigGuard {
 public:
  KernelConfigGuard()
      : grain_(kernels::grain()), threads_(kernels::max_threads()) {}
  ~KernelConfigGuard() {
    kernels::set_grain(grain_);
    kernels::set_num_threads(threads_);
  }
  KernelConfigGuard(const KernelConfigGuard&) = delete;
  KernelConfigGuard& operator=(const KernelConfigGuard&) = delete;

  void serial() { kernels::set_grain(std::numeric_limits<int64_t>::max()); }
  void threaded(int n_threads = 4) {
    kernels::set_grain(1);
    kernels::set_num_threads(n_threads);
  }

 private:
  int64_t grain_;
  int threads_;
};

/// n elements that end where an inaccessible page begins, so a kernel that
/// reads or writes one element past the end faults instead of passing.
template <typename T>
class GuardedBuffer {
 public:
  explicit GuardedBuffer(int64_t n) {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(T);
    span_ = (bytes + page - 1) / page * page + page;
    void* base = mmap(nullptr, span_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw std::bad_alloc();
    base_ = static_cast<char*>(base);
    if (mprotect(base_ + span_ - page, page, PROT_NONE) != 0) {
      munmap(base_, span_);
      throw std::bad_alloc();
    }
    data_ = reinterpret_cast<T*>(base_ + span_ - page - bytes);
    size_ = n;
  }
  ~GuardedBuffer() { munmap(base_, span_); }
  GuardedBuffer(const GuardedBuffer&) = delete;
  GuardedBuffer& operator=(const GuardedBuffer&) = delete;

  T* begin() { return data_; }
  T* end() { return data_ + size_; }

 private:
  char* base_ = nullptr;
  std::size_t span_ = 0;
  T* data_ = nullptr;
  int64_t size_ = 0;
};

template <typename T>
bool same_bits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Empty when got[0, n) equals want bitwise, else the first mismatch.
template <typename T>
std::string first_mismatch(const T* got, const T* want, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (!same_bits(got[i], want[i])) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "i=%lld: %a vs %a",
                    static_cast<long long>(i), static_cast<double>(got[i]),
                    static_cast<double>(want[i]));
      return buf;
    }
  }
  return "";
}

template <typename T>
void expect_bitwise(const std::vector<T>& got, const std::vector<T>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  const std::string bad =
      first_mismatch(got.data(), want.data(), static_cast<int64_t>(got.size()));
  ASSERT_TRUE(bad.empty()) << what << ", " << bad;
}

inline constexpr UnaryOp kUnaryOps[] = {
    UnaryOp::kAddScalar, UnaryOp::kMulScalar, UnaryOp::kPowScalar,
    UnaryOp::kNeg,       UnaryOp::kExp,       UnaryOp::kLog,
    UnaryOp::kSqrt,      UnaryOp::kTanh,      UnaryOp::kAbs,
    UnaryOp::kSign,      UnaryOp::kGelu,      UnaryOp::kGeluD1,
    UnaryOp::kGeluD2,    UnaryOp::kGeluD3};
static_assert(std::size(kUnaryOps) == kernels::kUnaryOpCount);
inline constexpr BinaryOp kBinaryOps[] = {BinaryOp::kAdd, BinaryOp::kSub,
                                          BinaryOp::kMul, BinaryOp::kDiv};
inline constexpr int kTiers[] = {1, 4, 8};

inline std::string name(UnaryOp op) {
  static constexpr const char* kNames[] = {
      "add_scalar", "mul_scalar", "pow_scalar", "neg",     "exp",
      "log",        "sqrt",       "tanh",       "abs",     "sign",
      "gelu",       "gelu_d1",    "gelu_d2",    "gelu_d3"};
  static_assert(std::size(kNames) == kernels::kUnaryOpCount);
  return kNames[static_cast<int>(op)];
}
inline std::string name(BinaryOp op) {
  static const char* const kNames[] = {"add", "sub", "mul", "div"};
  return kNames[static_cast<int>(op)];
}

/// The lengths every sweep runs: each tail of the 4-, 8- and 16-lane
/// vectors, and a long array.
inline std::vector<int64_t> sweep_sizes() {
  std::vector<int64_t> v;
  for (int64_t n = 1; n <= 17; ++n) v.push_back(n);
  v.push_back(1003);
  return v;
}

/// The scalar operand the sweeps pass with op: add_scalar's and
/// mul_scalar's operand, pow_scalar's exponent.
inline double scalar_of(UnaryOp op) {
  switch (op) {
    case UnaryOp::kAddScalar: return 0.75;
    case UnaryOp::kMulScalar: return -1.25;
    case UnaryOp::kPowScalar: return 1.5;
    default: return 0;
  }
}

/// True for the ops whose vector lanes approximate the functor instead of
/// reproducing it: tanh, GELU and GELU's derivatives.
inline bool approximated(UnaryOp op) {
  return op == UnaryOp::kTanh || op == UnaryOp::kGelu ||
         op == UnaryOp::kGeluD1 || op == UnaryOp::kGeluD2 ||
         op == UnaryOp::kGeluD3;
}

template <typename T>
T functor(UnaryOp op, double s, T x) {
  switch (op) {
    case UnaryOp::kAddScalar: return sfn::AddScalar{s}(x);
    case UnaryOp::kMulScalar: return sfn::MulScalar{s}(x);
    case UnaryOp::kPowScalar: return sfn::PowScalar{s}(x);
    case UnaryOp::kNeg: return sfn::Neg{}(x);
    case UnaryOp::kExp: return sfn::Exp{}(x);
    case UnaryOp::kLog: return sfn::Log{}(x);
    case UnaryOp::kSqrt: return sfn::Sqrt{}(x);
    case UnaryOp::kTanh: return sfn::Tanh{}(x);
    case UnaryOp::kAbs: return sfn::Abs{}(x);
    case UnaryOp::kSign: return sfn::Sign{}(x);
    case UnaryOp::kGelu: return sfn::Gelu{}(x);
    case UnaryOp::kGeluD1: return sfn::GeluDeriv<1>{}(x);
    case UnaryOp::kGeluD2: return sfn::GeluDeriv<2>{}(x);
    case UnaryOp::kGeluD3: return sfn::GeluDeriv<3>{}(x);
  }
  return x;
}

template <typename T>
T functor(BinaryOp op, T x, T y) {
  switch (op) {
    case BinaryOp::kAdd: return sfn::Add{}(x, y);
    case BinaryOp::kSub: return sfn::Sub{}(x, y);
    case BinaryOp::kMul: return sfn::Mul{}(x, y);
    case BinaryOp::kDiv: return sfn::Div{}(x, y);
  }
  return x;
}

/// n operands uniform in [-12, 12], every third one replaced (from an
/// offset that depends on the seed, so specials land on every lane) by ±0,
/// ±inf, NaN, tanh's branch points, GELU's upper-clamp input −25, or a
/// tiny or huge value.
template <typename T>
std::vector<T> inputs(int64_t n, unsigned seed) {
  const T inf = std::numeric_limits<T>::infinity();
  const T specials[] = {T(0),      -T(0),   inf,      -inf,
                        std::numeric_limits<T>::quiet_NaN(),
                        T(0.625),  T(-0.625), T(19.0625), T(-25),
                        T(1e-30),  T(-3e30)};
  constexpr std::size_t kSpecials = std::size(specials);
  mf::util::Rng rng(seed);
  std::vector<T> x(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<T>(rng.uniform(-12.0, 12.0));
    if (i % 3 == seed % 3) x[i] = specials[(i / 3 + seed) % kSpecials];
  }
  return x;
}

/// Copies x to the end of a guarded buffer.
template <typename T>
const T* place(GuardedBuffer<T>& buf, const std::vector<T>& x) {
  T* p = buf.end() - static_cast<int64_t>(x.size());
  std::copy(x.begin(), x.end(), p);
  return p;
}

/// Runs `on_tier(lanes, out)` on each tier into a guarded output that
/// starts out NaN; a tier the CPU lacks must return false and write
/// nothing. Returns the outputs of the tiers that ran.
template <typename T, typename OnTier>
std::vector<std::pair<int, std::vector<T>>> run_tiers(int64_t n,
                                                      OnTier on_tier) {
  std::vector<std::pair<int, std::vector<T>>> got;
  GuardedBuffer<T> out(n);
  T* o = out.begin();
  for (const int lanes : kTiers) {
    std::fill(o, o + n, std::numeric_limits<T>::quiet_NaN());
    if (!on_tier(lanes, o)) {
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_TRUE(std::isnan(o[i])) << "tier " << lanes << " wrote";
      }
      continue;
    }
    got.emplace_back(lanes, std::vector<T>(o, o + n));
  }
  return got;
}

/// Every tier against the functor and the tiers against each other, then
/// the public entries against the widest tier, for every op and size.
template <typename T>
void expect_tiers_conform() {
  const int widest = kernels::gelu_lanes();
  for (const int64_t n : sweep_sizes()) {
    const auto seed = static_cast<unsigned>(n);
    GuardedBuffer<T> abuf(n), bbuf(n);
    const T* a = place(abuf, inputs<T>(n, seed));
    const T* b = place(bbuf, inputs<T>(n, seed + 1));
    for (const UnaryOp op : kUnaryOps) {
      const double s = scalar_of(op);
      const std::string at = name(op) + " n=" + std::to_string(n);
      std::vector<T> want(static_cast<std::size_t>(n));
      for (int64_t i = 0; i < n; ++i) want[i] = functor(op, s, a[i]);
      const auto got = run_tiers<T>(n, [&](int lanes, T* o) {
        return kernels::detail::unary_on_tier(lanes, a, o, n, op, s);
      });
      const std::vector<T>* lanes4 = nullptr;
      for (const auto& [lanes, y] : got) {
        if (lanes == widest) {
          std::vector<T> entry(y.size());
          kernels::unary_block(a, entry.data(), n, op, s);
          expect_bitwise(entry, y, "unary_block vs widest tier, " + at);
          kernels::map_unary(a, entry.data(), n, op, s);
          expect_bitwise(entry, y, "map_unary vs widest tier, " + at);
        }
        if (lanes > 1 && approximated(op)) {
          if (lanes == 4) lanes4 = &y;
          if (lanes == 8 && lanes4) {
            expect_bitwise(y, *lanes4, "tier 8 vs tier 4, " + at);
          }
          continue;
        }
        expect_bitwise(y, want, "tier " + std::to_string(lanes) +
                                    " vs sfn functor, " + at);
      }
    }
    for (const BinaryOp op : kBinaryOps) {
      const std::string at = name(op) + " n=" + std::to_string(n);
      std::vector<T> want(static_cast<std::size_t>(n));
      for (int64_t i = 0; i < n; ++i) want[i] = functor(op, a[i], b[i]);
      const auto got = run_tiers<T>(n, [&](int lanes, T* o) {
        return kernels::detail::binary_on_tier(lanes, a, b, o, n, op);
      });
      for (const auto& [lanes, y] : got) {
        expect_bitwise(y, want, "tier " + std::to_string(lanes) +
                                    " vs sfn functor, " + at);
      }
      std::vector<T> entry(static_cast<std::size_t>(n));
      kernels::binary_block(a, b, entry.data(), n, op);
      expect_bitwise(entry, want, "binary_block, " + at);
      kernels::map_binary(a, b, entry.data(), n, op);
      expect_bitwise(entry, want, "map_binary, " + at);
    }
  }
}

/// f(off, len) over [0, n) in chunks of 1, 3, 5, ... elements, so the
/// chunks start at every lane offset.
template <typename F>
void for_odd_chunks(int64_t n, F f) {
  int64_t off = 0;
  for (int64_t c = 1; off < n; c += 2) {
    const int64_t len = std::min(c, n - off);
    f(off, len);
    off += len;
  }
}

/// For every op and size, the per-element results of the public block
/// entries equal whole-array calls of both entries, serial and threaded
/// (grain 1, 4 threads), in place, and in odd chunks.
template <typename T>
void expect_entries_chunk_invariant() {
  KernelConfigGuard guard;
  for (const int64_t n : sweep_sizes()) {
    const auto seed = 50 + static_cast<unsigned>(n);
    const std::vector<T> a = inputs<T>(n, seed);
    const std::vector<T> b = inputs<T>(n, seed + 1);
    std::vector<T> want(a.size()), y(a.size());
    auto check = [&](const std::string& what) {
      expect_bitwise(y, want, what + " n=" + std::to_string(n));
    };
    for (const UnaryOp op : kUnaryOps) {
      const double s = scalar_of(op);
      const std::string at = name(op) + " ";
      guard.serial();
      for (int64_t i = 0; i < n; ++i) {
        kernels::unary_block(&a[i], &want[i], 1, op, s);
      }
      kernels::map_unary(a.data(), y.data(), n, op, s);
      check(at + "map_unary serial");
      kernels::unary_block(a.data(), y.data(), n, op, s);
      check(at + "unary_block");
      y = a;
      kernels::unary_block(y.data(), y.data(), n, op, s);
      check(at + "unary_block in place");
      for_odd_chunks(n, [&](int64_t off, int64_t len) {
        kernels::unary_block(a.data() + off, y.data() + off, len, op, s);
      });
      check(at + "unary_block odd chunks");
      for_odd_chunks(n, [&](int64_t off, int64_t len) {
        kernels::map_unary(a.data() + off, y.data() + off, len, op, s);
      });
      check(at + "map_unary odd chunks");
      guard.threaded();
      kernels::map_unary(a.data(), y.data(), n, op, s);
      check(at + "map_unary threaded");
    }
    for (const BinaryOp op : kBinaryOps) {
      const std::string at = name(op) + " ";
      guard.serial();
      for (int64_t i = 0; i < n; ++i) {
        kernels::binary_block(&a[i], &b[i], &want[i], 1, op);
      }
      kernels::map_binary(a.data(), b.data(), y.data(), n, op);
      check(at + "map_binary serial");
      kernels::binary_block(a.data(), b.data(), y.data(), n, op);
      check(at + "binary_block");
      y = a;
      kernels::binary_block(y.data(), b.data(), y.data(), n, op);
      check(at + "binary_block in place over a");
      y = b;
      kernels::binary_block(a.data(), y.data(), y.data(), n, op);
      check(at + "binary_block in place over b");
      for_odd_chunks(n, [&](int64_t off, int64_t len) {
        kernels::binary_block(a.data() + off, b.data() + off, y.data() + off,
                              len, op);
      });
      check(at + "binary_block odd chunks");
      for_odd_chunks(n, [&](int64_t off, int64_t len) {
        kernels::map_binary(a.data() + off, b.data() + off, y.data() + off,
                            len, op);
      });
      check(at + "map_binary odd chunks");
      guard.threaded();
      kernels::map_binary(a.data(), b.data(), y.data(), n, op);
      check(at + "map_binary threaded");
    }
  }
}

// ---- tanh ----

/// |got − want| in ulps of want.
template <typename T>
double ulps(T got, T want) {
  const T a = std::fabs(want);
  const T ulp = std::nextafter(a, std::numeric_limits<T>::infinity()) - a;
  return std::fabs(static_cast<double>(got) - static_cast<double>(want)) /
         static_cast<double>(ulp);
}

/// tanh through the public entry: odd, within `max_ulps` of std::tanh over
/// a dense grid of [−25, 25] and over tiny magnitudes, ±1 from 19.0625 on
/// and at ±inf, ±0 kept, and NaN mapped to NaN.
template <typename T>
void expect_tanh_sane(double max_ulps) {
  std::vector<T> x;
  for (int64_t i = 0; i <= 200000; ++i) {
    x.push_back(static_cast<T>(-25.0 + 50.0 * static_cast<double>(i) / 2e5));
  }
  for (double v = 1e-30; v < 1; v *= 1.05) x.push_back(static_cast<T>(v));
  const auto n = static_cast<int64_t>(x.size());
  std::vector<T> neg(x.size()), y(x.size()), yn(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) neg[i] = -x[i];
  kernels::map_unary(x.data(), y.data(), n, UnaryOp::kTanh, 0);
  kernels::map_unary(neg.data(), yn.data(), n, UnaryOp::kTanh, 0);
  double worst = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_TRUE(same_bits(yn[i], -y[i])) << "not odd at " << x[i];
    ASSERT_LE(std::fabs(y[i]), T(1)) << x[i];
    if (std::fabs(x[i]) >= T(19.0625)) {
      ASSERT_EQ(std::fabs(y[i]), T(1)) << x[i];
    }
    worst = std::max(worst, ulps(y[i], std::tanh(x[i])));
  }
  EXPECT_LE(worst, max_ulps);
  const T inf = std::numeric_limits<T>::infinity();
  const std::vector<T> sx = {T(0), -T(0), inf, -inf,
                             std::numeric_limits<T>::quiet_NaN()};
  std::vector<T> sy(sx.size());
  kernels::map_unary(sx.data(), sy.data(), 5, UnaryOp::kTanh, 0);
  EXPECT_TRUE(same_bits(sy[0], T(0)));
  EXPECT_TRUE(same_bits(sy[1], -T(0)));
  EXPECT_EQ(sy[2], T(1));
  EXPECT_EQ(sy[3], T(-1));
  EXPECT_TRUE(std::isnan(sy[4]));
}

/// The vector tiers reproduce recorded tanh bits: {input, output} pairs
/// covering both branches, their boundary ±0.625, the saturation point
/// ±19.0625 and the exp range, including inputs whose exp exponent
/// round(2|x|·log2e) sits on a rounding tie.
template <typename T>
void expect_tanh_pinned(const std::vector<std::pair<T, T>>& pins) {
  std::vector<T> x, want;
  for (const auto& [in, out] : pins) {
    x.push_back(in);
    want.push_back(out);
  }
  const auto n = static_cast<int64_t>(x.size());
  int tiers = 0;
  for (const int lanes : {4, 8}) {
    std::vector<T> y(x.size());
    if (!kernels::detail::unary_on_tier(lanes, x.data(), y.data(), n,
                                        UnaryOp::kTanh, 0)) {
      continue;
    }
    ++tiers;
    expect_bitwise(y, want, "tier " + std::to_string(lanes));
    for (int64_t i = 0; i < n; ++i) {
      T one = 0;
      kernels::detail::unary_on_tier(lanes, &x[i], &one, 1, UnaryOp::kTanh, 0);
      EXPECT_TRUE(same_bits(one, want[i]))
          << "tier " << lanes << " one element, x=" << x[i];
    }
  }
  if (tiers == 0) GTEST_SKIP() << "CPU has no vector tier";
}

// ---- GELU ----

/// gelu(x) = x / (1 + e^(-2u)), u = sqrt(2/pi) (x + 0.044715 x^3), in long
/// double: the identity avoids 1 + tanh(u)'s cancellation for x << 0.
inline long double gelu_reference(long double x) {
  const long double pi = 3.141592653589793238462643383279502884L;
  const long double u = std::sqrt(2.0L / pi) * (x + 0.044715L * x * x * x);
  return x / (1.0L + std::exp(-2.0L * u));
}

/// Max |gelu - reference| over a dense grid of [lo, hi], through the
/// public entry point (the widest tier the CPU has).
template <typename T>
double gelu_max_abs_error(double lo, double hi, int64_t points) {
  std::vector<T> x(static_cast<std::size_t>(points));
  for (int64_t i = 0; i < points; ++i) {
    const double f = static_cast<double>(i) / static_cast<double>(points - 1);
    x[static_cast<std::size_t>(i)] = static_cast<T>(lo + (hi - lo) * f);
  }
  std::vector<T> y(x.size());
  kernels::map_unary(x.data(), y.data(), points, UnaryOp::kGelu, 0);
  long double worst = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const long double err =
        std::fabs(static_cast<long double>(y[i]) - gelu_reference(x[i]));
    worst = std::max(worst, err);
  }
  return static_cast<double>(worst);
}

/// +inf -> +inf, -inf -> NaN, NaN -> NaN, ±0 -> ±0, x <= -30 -> -0 and a
/// huge finite x -> x, through map_unary and in-place unary_block.
template <typename T>
void expect_gelu_special_values(T huge) {
  const T inf = std::numeric_limits<T>::infinity();
  const std::vector<T> x = {inf, -inf, std::numeric_limits<T>::quiet_NaN(),
                            T(0), -T(0), T(-30), T(-100), huge, -huge};
  const auto n = static_cast<int64_t>(x.size());
  std::vector<T> mapped(x.size());
  kernels::map_unary(x.data(), mapped.data(), n, UnaryOp::kGelu, 0);
  std::vector<T> inplace = x;
  kernels::unary_block(inplace.data(), inplace.data(), n, UnaryOp::kGelu, 0);
  for (const auto* y : {&mapped, &inplace}) {
    const auto& v = *y;
    EXPECT_EQ(v[0], inf);
    EXPECT_TRUE(std::isnan(v[1]));
    EXPECT_TRUE(std::isnan(v[2]));
    EXPECT_TRUE(same_bits(v[3], T(0)));
    EXPECT_TRUE(same_bits(v[4], -T(0)));
    EXPECT_TRUE(same_bits(v[5], -T(0)));
    EXPECT_TRUE(same_bits(v[6], -T(0)));
    EXPECT_EQ(v[7], huge);
    EXPECT_TRUE(same_bits(v[8], -T(0)));
  }
}

// ---- GELU's derivatives ----

/// gelu⁽ᴷ⁾(x), K = 0..3, in long double, from the p-form of sfn::GeluDeriv:
/// e = e^t, t = −2u, p = 1/(1 + e), T = 2p − 1, q = e·p², v = du/dx.
inline long double gelu_deriv_reference(int k, long double x) {
  const long double pi = 3.141592653589793238462643383279502884L;
  const long double c = std::sqrt(2.0L / pi);
  const long double a = 0.044715L;
  const long double e = std::exp(-2.0L * c * (x + a * x * x * x));
  const long double p = 1.0L / (1.0L + e);
  const long double q = e * p * p;
  const long double v = c * (1.0L + 3.0L * a * x * x);
  const long double t = 2.0L * p - 1.0L;
  const long double h = v - x * t * v * v + 3.0L * a * c * x * x;
  switch (k) {
    case 0: return x * p;
    case 1: return p + 2.0L * x * v * q;
    case 2: return 4.0L * q * h;
    default:
      return 4.0L * q *
             (12.0L * a * c * x - t * v * v - 4.0L * x * q * v * v * v -
              12.0L * a * c * x * x * t * v - 2.0L * t * v * h);
  }
}

inline constexpr UnaryOp kGeluDerivs[] = {UnaryOp::kGeluD1, UnaryOp::kGeluD2,
                                          UnaryOp::kGeluD3};

/// On every tier the CPU has, each derivative stays within
/// `eps_multiple`·ε·max|gelu⁽ᴷ⁾| of the long-double reference on a dense
/// grid of [−12, 12]. The bound is absolute: gelu″ and gelu‴ have roots,
/// where an ulp bound cannot hold. The reference itself is first checked
/// against central differences of the order below it.
template <typename T>
void expect_gelu_derivs_within_bound(double eps_multiple) {
  for (int k = 1; k <= 3; ++k) {
    for (long double x = -8; x <= 8; x += 0.0625L) {
      const long double h = 1e-6L;
      const long double fd = (gelu_deriv_reference(k - 1, x + h) -
                              gelu_deriv_reference(k - 1, x - h)) /
                             (2 * h);
      ASSERT_NEAR(static_cast<double>(fd),
                  static_cast<double>(gelu_deriv_reference(k, x)), 1e-9)
          << "reference order " << k << " at x=" << static_cast<double>(x);
    }
  }
  constexpr int64_t kPoints = 240001;
  std::vector<T> x(kPoints), y(kPoints);
  for (int64_t i = 0; i < kPoints; ++i) {
    x[i] = static_cast<T>(-12.0 + 24.0 * static_cast<double>(i) /
                                      static_cast<double>(kPoints - 1));
  }
  const double eps = std::numeric_limits<T>::epsilon();
  for (int k = 1; k <= 3; ++k) {
    const UnaryOp op = kGeluDerivs[k - 1];
    std::vector<long double> want(x.size());
    long double max_abs = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      want[i] = gelu_deriv_reference(k, x[i]);
      max_abs = std::max(max_abs, std::fabs(want[i]));
    }
    for (const int lanes : kTiers) {
      if (!kernels::detail::unary_on_tier(lanes, x.data(), y.data(), kPoints,
                                          op, 0)) {
        continue;
      }
      long double worst = 0;
      T worst_x = 0;
      for (std::size_t i = 0; i < x.size(); ++i) {
        const long double err =
            std::fabs(static_cast<long double>(y[i]) - want[i]);
        if (err > worst) {
          worst = err;
          worst_x = x[i];
        }
      }
      EXPECT_LE(static_cast<double>(worst / max_abs) / eps, eps_multiple)
          << name(op) << " tier " << lanes << ", worst at x=" << worst_x;
    }
  }
}

/// On every tier the CPU has: gelu′(+inf) = 1, gelu′(−inf) = 0, gelu″ and
/// gelu‴ = +0 at ±inf and past the exp clamp, NaN -> NaN, and at ±0
/// gelu′ = 0.5, gelu″ = √(2/π) at the element width and gelu‴ = +0.
template <typename T>
void expect_gelu_deriv_special_values() {
  const T inf = std::numeric_limits<T>::infinity();
  const std::vector<T> x = {inf,   -inf, std::numeric_limits<T>::quiet_NaN(),
                            T(0),  -T(0), T(40),
                            T(-40)};
  const std::vector<std::vector<T>> want = {
      {T(1), T(0), T(0), T(0.5), T(0.5), T(1), T(0)},
      {T(0), T(0), T(0), sfn::gelu_coeff<T>, sfn::gelu_coeff<T>, T(0), T(0)},
      {T(0), T(0), T(0), T(0), T(0), T(0), T(0)}};
  const auto n = static_cast<int64_t>(x.size());
  for (int k = 1; k <= 3; ++k) {
    const UnaryOp op = kGeluDerivs[k - 1];
    for (const int lanes : kTiers) {
      std::vector<T> y(x.size());
      if (!kernels::detail::unary_on_tier(lanes, x.data(), y.data(), n, op,
                                          0)) {
        continue;
      }
      for (std::size_t i = 0; i < x.size(); ++i) {
        const std::string at =
            name(op) + " tier " + std::to_string(lanes) + " at x=" +
            std::to_string(static_cast<double>(x[i]));
        if (i == 2) {
          EXPECT_TRUE(std::isnan(y[i])) << at;
        } else {
          EXPECT_TRUE(same_bits(y[i], want[k - 1][i]))
              << at << ": " << y[i];
        }
      }
    }
  }
}

}  // namespace elementwise_checks
