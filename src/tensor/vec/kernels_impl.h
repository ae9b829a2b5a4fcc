#ifndef PPN_TENSOR_VEC_KERNELS_IMPL_H_
#define PPN_TENSOR_VEC_KERNELS_IMPL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/vec/kernels.h"
#include "tensor/vec/vec.h"

/// \file
/// Kernel bodies, templated on the `Vectorized<float>` implementation.
/// kernels_scalar.cc instantiates them with `VecScalar`; kernels_avx2.cc
/// (the only TU built with -mavx2) instantiates them with `VecAvx2`.
/// Nothing here may depend on the ISA except through the Vec type.
///
/// Bit-identity rules (DESIGN.md §2.8):
///  - Reductions (matmul, sum_rows, col2im) keep ONE accumulator per
///    output element, summed in the reference order. SIMD lanes only
///    ever hold DISTINCT output elements, so widening the vector cannot
///    reorder any element's sum.
///  - Elementwise kernels replicate the scalar expression tree per lane
///    (a select stays a select, a multiply-by-mask stays a multiply).
///  - Tails run the same lane ops under a partial mask (vmaskmovps
///    semantics), never a different formula.
///  - Transcendentals are polynomials in plain multiplies and adds (no
///    libm, no FMA); their int32-lane steps mirror the ISA exactly.

namespace ppn::vec::detail {

// ---------------------------------------------------------------------------
// Elementwise drivers: full vectors, then one masked tail step.
// ---------------------------------------------------------------------------

template <class Vec, class Fn>
inline void ApplyUnary(Fn fn, const float* a, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + Vec::kWidth <= n; i += Vec::kWidth) {
    fn(Vec::LoadU(a + i)).StoreU(out + i);
  }
  const int64_t rest = n - i;
  if (rest > 0) {
    fn(Vec::LoadPartial(a + i, rest)).StorePartial(out + i, rest);
  }
}

template <class Vec, class Fn>
inline void ApplyBinary(Fn fn, const float* a, const float* b, float* out,
                        int64_t n) {
  int64_t i = 0;
  for (; i + Vec::kWidth <= n; i += Vec::kWidth) {
    fn(Vec::LoadU(a + i), Vec::LoadU(b + i)).StoreU(out + i);
  }
  const int64_t rest = n - i;
  if (rest > 0) {
    fn(Vec::LoadPartial(a + i, rest), Vec::LoadPartial(b + i, rest))
        .StorePartial(out + i, rest);
  }
}

// ---------------------------------------------------------------------------
// Transcendentals: Cephes-style range reduction plus a minimax polynomial
// (S. L. Moshier's single-precision expf/logf/tanhf coefficients). Each
// body is one expression tree of separately rounded multiplies and adds,
// so every Vec implementation computes the same bits. Special inputs
// (NaN, ±Inf, ±0, negatives for log) are settled by selects at the end,
// never by what the polynomial happens to make of them.
// ---------------------------------------------------------------------------

constexpr uint32_t kSignBit = 0x80000000u;

// NaN lanes of x pass through unchanged, whatever the body computed.
template <class Vec>
inline Vec KeepNaN(Vec x, Vec result) {
  return Vec::Blend(Vec::Unordered(x, x), x, result);
}

// 2^k for lanes holding integral floats k in [-126, 127]: k + 127 placed
// in the exponent field.
template <class Vec>
inline Vec Pow2(Vec k) {
  return Vec::template ShiftLeftInt32<23>(
      Vec::AddInt32(Vec::ConvertToInt32(k), Vec::BroadcastBits(127)));
}

// e^x, max error 1 ULP on normal results. Results below FLT_MIN
// underflow gradually (within 1 ULP of 2^-149), e^x > FLT_MAX is +Inf,
// e^-Inf = +0.
template <class Vec>
inline Vec ExpBody(Vec x) {
  // Past [-104, 89] e^x rounds to 0 or overflows; the clamped input
  // still does, and n below stays in [-150, 128]. A NaN lane clamps to
  // 89 (Min returns its second operand on NaN); KeepNaN restores it.
  const Vec clamped = Vec::Max(Vec::Min(x, Vec::Broadcast(89.0f)),
                               Vec::Broadcast(-104.0f));
  // x = n ln2 + r, |r| <= ln2 / 2. ln2 is split so that n * hi is exact.
  const Vec n = Vec::Round(clamped * Vec::Broadcast(1.44269504088896341f));
  Vec r = clamped - n * Vec::Broadcast(0.693359375f);
  r = r - n * Vec::Broadcast(-2.12194440e-4f);
  const Vec z = r * r;
  Vec p = Vec::Broadcast(1.9875691500e-4f);
  p = p * r + Vec::Broadcast(1.3981999507e-3f);
  p = p * r + Vec::Broadcast(8.3334519073e-3f);
  p = p * r + Vec::Broadcast(4.1665795894e-2f);
  p = p * r + Vec::Broadcast(1.6666665459e-1f);
  p = p * r + Vec::Broadcast(5.0000001201e-1f);
  const Vec y = (p * z + r) + Vec::Broadcast(1.0f);
  // y * 2^n as (y * 2^(n-h)) * 2^h with h = round(n/2): both factors are
  // normal floats for every n in range, the first product is exact, and
  // the second rounds once — into a denormal when the result is tiny.
  const Vec h = Vec::Round(n * Vec::Broadcast(0.5f));
  return KeepNaN(x, (y * Pow2(n - h)) * Pow2(h));
}

// ln x, max error 1 ULP. ln(+Inf) = +Inf, ln(±0) = -Inf, ln(x < 0) = NaN.
template <class Vec>
inline Vec LogBody(Vec x) {
  const Vec one = Vec::Broadcast(1.0f);
  // Denormals are scaled by 2^23 first so the exponent field is exact.
  const Vec denormal = Vec::Lt(x, Vec::Broadcast(1.17549435e-38f));
  const Vec scaled = Vec::Blend(denormal, x * Vec::Broadcast(8388608.0f), x);
  // frexp: x = m 2^e with m in [0.5, 1).
  Vec e = Vec::ConvertFromInt32(Vec::template ShiftRightInt32<23>(scaled)) -
          Vec::Blend(denormal, Vec::Broadcast(149.0f), Vec::Broadcast(126.0f));
  Vec m = Vec::Or(Vec::And(scaled, Vec::BroadcastBits(0x007FFFFFu)),
                  Vec::BroadcastBits(0x3F000000u));
  // m < sqrt(1/2): use 2m - 1 and e - 1, else m - 1 (both exact).
  const Vec below = Vec::Lt(m, Vec::Broadcast(0.707106781186547524f));
  m = (m - one) + Vec::And(below, m);
  e = e - Vec::And(below, one);
  const Vec z = m * m;
  Vec p = Vec::Broadcast(7.0376836292e-2f);
  p = p * m + Vec::Broadcast(-1.1514610310e-1f);
  p = p * m + Vec::Broadcast(1.1676998740e-1f);
  p = p * m + Vec::Broadcast(-1.2420140846e-1f);
  p = p * m + Vec::Broadcast(1.4249322787e-1f);
  p = p * m + Vec::Broadcast(-1.6668057665e-1f);
  p = p * m + Vec::Broadcast(2.0000714765e-1f);
  p = p * m + Vec::Broadcast(-2.4999993993e-1f);
  p = p * m + Vec::Broadcast(3.3333331174e-1f);
  Vec y = p * m * z;
  y = y + e * Vec::Broadcast(-2.12194440e-4f);
  y = y + Vec::Broadcast(-0.5f) * z;
  Vec result = (m + y) + e * Vec::Broadcast(0.693359375f);
  result = Vec::Blend(Vec::Gt(x, Vec::Broadcast(3.40282347e38f)), x, result);
  result = Vec::Blend(Vec::Gt(x, Vec::Zero()), result,
                      Vec::BroadcastBits(0xFF800000u));  // -Inf
  result = Vec::Blend(Vec::Lt(x, Vec::Zero()), Vec::BroadcastBits(0x7FC00000u),
                      result);  // NaN
  return KeepNaN(x, result);
}

// tanh x, max error 1.5 ULP; odd, so tanh(±0) = ±0 and tanh(±Inf) = ±1.
template <class Vec>
inline Vec TanhBody(Vec x) {
  const Vec one = Vec::Broadcast(1.0f);
  const Vec z = Vec::Abs(x);
  // |x| >= 0.625: 1 - 2 / (e^2|x| + 1).
  const Vec large = one - Vec::Broadcast(2.0f) / (ExpBody(z + z) + one);
  // |x| < 0.625: |x| + |x|^3 P(x^2).
  const Vec z2 = z * z;
  Vec p = Vec::Broadcast(-5.70498872745e-3f);
  p = p * z2 + Vec::Broadcast(2.06390887954e-2f);
  p = p * z2 + Vec::Broadcast(-5.37397155531e-2f);
  p = p * z2 + Vec::Broadcast(1.33314422036e-1f);
  p = p * z2 + Vec::Broadcast(-3.33332819422e-1f);
  const Vec small = p * z2 * z + z;
  const Vec magnitude =
      Vec::Blend(Vec::Lt(z, Vec::Broadcast(0.625f)), small, large);
  // magnitude has a clear sign bit (also +0 for x = ±0): take x's.
  return KeepNaN(x,
                 Vec::Or(magnitude, Vec::And(x, Vec::BroadcastBits(kSignBit))));
}

// 1 / (1 + e^-x), max error 2.5 ULP: with e = e^-|x| <= 1 (never
// overflows) it is 1 / (1 + e) for x >= 0 and e / (1 + e) for x < 0.
template <class Vec>
inline Vec SigmoidBody(Vec x) {
  const Vec one = Vec::Broadcast(1.0f);
  const Vec e = ExpBody(Vec::Or(x, Vec::BroadcastBits(kSignBit)));  // -|x|
  const Vec numerator = Vec::Blend(Vec::Lt(x, Vec::Zero()), e, one);
  return KeepNaN(x, numerator / (one + e));
}

template <class Vec>
void UnaryKernel(UnaryOp op, const float* a, float* out, int64_t n, float p0,
                 float p1) {
  const Vec zero = Vec::Zero();
  switch (op) {
    case UnaryOp::kAddScalar: {
      const Vec s = Vec::Broadcast(p0);
      ApplyUnary<Vec>([s](Vec x) { return x + s; }, a, out, n);
      return;
    }
    case UnaryOp::kMulScalar: {
      const Vec s = Vec::Broadcast(p0);
      ApplyUnary<Vec>([s](Vec x) { return x * s; }, a, out, n);
      return;
    }
    case UnaryOp::kReluFwd:
      // x > 0 ? x : 0 — a true select (not a max: NaN must fall through
      // to the zero branch exactly like the scalar ternary).
      ApplyUnary<Vec>(
          [zero](Vec x) { return Vec::Blend(Vec::Gt(x, zero), x, zero); }, a,
          out, n);
      return;
    case UnaryOp::kAbsFwd:
      ApplyUnary<Vec>([](Vec x) { return Vec::Abs(x); }, a, out, n);
      return;
    case UnaryOp::kClampFwd: {
      // x < lo ? lo : (x > hi ? hi : x). Applying the hi-clamp first and
      // letting the lo-clamp override gives the same value for every
      // input (lo <= hi), including NaN (both compares false -> x).
      const Vec lo = Vec::Broadcast(p0);
      const Vec hi = Vec::Broadcast(p1);
      ApplyUnary<Vec>(
          [lo, hi](Vec x) {
            const Vec capped = Vec::Blend(Vec::Gt(x, hi), hi, x);
            return Vec::Blend(Vec::Lt(x, lo), lo, capped);
          },
          a, out, n);
      return;
    }
    case UnaryOp::kSqrtFwd:
      ApplyUnary<Vec>([](Vec x) { return Vec::Sqrt(x); }, a, out, n);
      return;
    case UnaryOp::kExpFwd:
      ApplyUnary<Vec>([](Vec x) { return ExpBody(x); }, a, out, n);
      return;
    case UnaryOp::kLogFwd:
      ApplyUnary<Vec>([](Vec x) { return LogBody(x); }, a, out, n);
      return;
    case UnaryOp::kTanhFwd:
      ApplyUnary<Vec>([](Vec x) { return TanhBody(x); }, a, out, n);
      return;
    case UnaryOp::kSigmoidFwd:
      ApplyUnary<Vec>([](Vec x) { return SigmoidBody(x); }, a, out, n);
      return;
  }
}

template <class Vec>
void BinaryKernel(BinaryOp op, const float* a, const float* b, float* out,
                  int64_t n, float p0, float p1) {
  const Vec zero = Vec::Zero();
  const Vec one = Vec::Broadcast(1.0f);
  switch (op) {
    case BinaryOp::kAdd:
      ApplyBinary<Vec>([](Vec x, Vec y) { return x + y; }, a, b, out, n);
      return;
    case BinaryOp::kSub:
      ApplyBinary<Vec>([](Vec x, Vec y) { return x - y; }, a, b, out, n);
      return;
    case BinaryOp::kMul:
      ApplyBinary<Vec>([](Vec x, Vec y) { return x * y; }, a, b, out, n);
      return;
    case BinaryOp::kDiv:
      ApplyBinary<Vec>([](Vec x, Vec y) { return x / y; }, a, b, out, n);
      return;
    case BinaryOp::kTanhBwd:
      ApplyBinary<Vec>([one](Vec g, Vec y) { return g * (one - y * y); }, a, b,
                       out, n);
      return;
    case BinaryOp::kSigmoidBwd:
      ApplyBinary<Vec>([one](Vec g, Vec y) { return g * (y * (one - y)); }, a,
                       b, out, n);
      return;
    case BinaryOp::kReluBwd:
      // g * (x > 0 ? 1 : 0): the scalar code MULTIPLIES by the mask
      // (Inf * 0 => NaN), so the vector path must too.
      ApplyBinary<Vec>(
          [zero, one](Vec g, Vec x) {
            return g * Vec::Blend(Vec::Gt(x, zero), one, zero);
          },
          a, b, out, n);
      return;
    case BinaryOp::kAbsBwd: {
      const Vec neg_one = Vec::Broadcast(-1.0f);
      ApplyBinary<Vec>(
          [zero, one, neg_one](Vec g, Vec x) {
            const Vec negative = Vec::Blend(Vec::Lt(x, zero), neg_one, zero);
            return g * Vec::Blend(Vec::Gt(x, zero), one, negative);
          },
          a, b, out, n);
      return;
    }
    case BinaryOp::kSqrtBwd: {
      const Vec eps = Vec::Broadcast(1e-12f);
      const Vec half = Vec::Broadcast(0.5f);
      ApplyBinary<Vec>(
          [eps, half](Vec g, Vec y) {
            const Vec floored = Vec::Blend(Vec::Gt(y, eps), y, eps);
            return g * (half / floored);
          },
          a, b, out, n);
      return;
    }
    case BinaryOp::kClampBwd: {
      const Vec lo = Vec::Broadcast(p0);
      const Vec hi = Vec::Broadcast(p1);
      ApplyBinary<Vec>(
          [zero, one, lo, hi](Vec g, Vec x) {
            const Vec inside = Vec::And(Vec::Gt(x, lo), Vec::Lt(x, hi));
            return g * Vec::Blend(inside, one, zero);
          },
          a, b, out, n);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Blocked matmul. Same structure as the pre-SIMD kernel (8-row register
// blocks, j vectorized, ascending-k single accumulators); the interior
// microkernel now holds its 8 j-lane accumulators in Vec registers.
// ---------------------------------------------------------------------------

constexpr int64_t kIB = 8;

template <class Vec, bool kATransposed>
inline void MicroKernel(const float* a, int64_t lda, const float* b,
                        int64_t ldb, float* out, int64_t ldo, int64_t k) {
  Vec acc[kIB];
  for (int64_t i = 0; i < kIB; ++i) acc[i] = Vec::Zero();
  for (int64_t p = 0; p < k; ++p) {
    const Vec b_row = Vec::LoadU(b + p * ldb);
    for (int64_t i = 0; i < kIB; ++i) {
      const float av = kATransposed ? a[p * lda + i] : a[i * lda + p];
      acc[i] = Vec::MulAdd(Vec::Broadcast(av), b_row, acc[i]);
    }
  }
  for (int64_t i = 0; i < kIB; ++i) acc[i].StoreU(out + i * ldo);
}

// Variable-size remainder block (right/bottom edges): scalar loops with
// the same accumulator discipline. Edge work is O(edge * k); keeping it
// scalar costs little and stays trivially bit-identical.
template <class Vec, bool kATransposed>
inline void EdgeBlock(const float* a, int64_t lda, const float* b, int64_t ldb,
                      float* out, int64_t ldo, int64_t k, int64_t ib,
                      int64_t jb) {
  float acc[kIB][Vec::kWidth] = {};
  for (int64_t p = 0; p < k; ++p) {
    const float* b_row = b + p * ldb;
    for (int64_t i = 0; i < ib; ++i) {
      const float av = kATransposed ? a[p * lda + i] : a[i * lda + p];
      for (int64_t j = 0; j < jb; ++j) acc[i][j] += av * b_row[j];
    }
  }
  for (int64_t i = 0; i < ib; ++i) {
    for (int64_t j = 0; j < jb; ++j) out[i * ldo + j] = acc[i][j];
  }
}

template <class Vec, bool kATransposed>
void BlockedMatMul(const float* a, int64_t lda, const float* b, int64_t ldb,
                   float* out, int64_t m, int64_t n, int64_t k,
                   bool parallel_ok) {
  constexpr int64_t kJB = Vec::kWidth;
  // OpenMP splits row blocks; every output element is computed wholly by
  // one thread with the same per-element order, so any thread count gives
  // bit-identical results.
#ifdef _OPENMP
#pragma omp parallel for if (parallel_ok && m * n * k > 65536) schedule(static)
#else
  (void)parallel_ok;
#endif
  for (int64_t i0 = 0; i0 < m; i0 += kIB) {
    const int64_t ib = m - i0 < kIB ? m - i0 : kIB;
    // A's row-block origin: row i0 in the row-major layout, column i0 in
    // the transposed layout.
    const float* a_block = kATransposed ? a + i0 : a + i0 * lda;
    float* out_block = out + i0 * n;
    int64_t j0 = 0;
    if (ib == kIB) {
      for (; j0 + kJB <= n; j0 += kJB) {
        MicroKernel<Vec, kATransposed>(a_block, lda, b + j0, ldb,
                                       out_block + j0, n, k);
      }
    }
    for (; j0 < n; j0 += kJB) {
      const int64_t jb = n - j0 < kJB ? n - j0 : kJB;
      EdgeBlock<Vec, kATransposed>(a_block, lda, b + j0, ldb, out_block + j0, n,
                                   k, ib, jb);
    }
  }
}

// ---------------------------------------------------------------------------
// im2col / col2im.
// ---------------------------------------------------------------------------

// For output pixels whose every tap is in bounds, the patch is a fixed
// gather pattern: tap (ch, ky, kx) reads base + ch*h*w + ky*dil_h*w +
// kx*dil_w where base is the pixel's top-left input element. The
// interior fast path precomputes those offsets once and gathers; only
// boundary pixels (and inputs too large for int32 offsets) take the
// bounds-checked scalar loop. Pure data movement: bit-identity is free.
template <class Vec>
void Im2Col(const float* pi, float* pc, const Im2ColArgs& g, bool parallel_ok) {
  const int64_t plane = g.h * g.w;
  const bool gatherable = g.c * plane <= INT32_MAX;
  std::vector<int32_t> rel;
  if (gatherable) {
    rel.reserve(static_cast<size_t>(g.patch));
    for (int64_t ch = 0; ch < g.c; ++ch) {
      for (int64_t ky = 0; ky < g.kernel_h; ++ky) {
        for (int64_t kx = 0; kx < g.kernel_w; ++kx) {
          rel.push_back(static_cast<int32_t>(ch * plane + ky * g.dilation_h * g.w +
                                             kx * g.dilation_w));
        }
      }
    }
  }
  const int32_t* rel_data = rel.data();
  // Tap extents: pixel (oy, ox) is interior iff its first and last taps
  // are in bounds on both axes.
  const int64_t span_y = g.dilation_h * (g.kernel_h - 1);
  const int64_t span_x = g.dilation_w * (g.kernel_w - 1);
#ifdef _OPENMP
#pragma omp parallel for \
    if (parallel_ok && g.n * g.out_h * g.out_w * g.patch > 65536) \
    schedule(static)
#else
  (void)parallel_ok;
#endif
  for (int64_t b = 0; b < g.n; ++b) {
    const float* batch = pi + b * g.c * plane;
    for (int64_t oy = 0; oy < g.out_h; ++oy) {
      const int64_t y0 = oy - g.pad_top;
      const bool y_interior = y0 >= 0 && y0 + span_y < g.h;
      for (int64_t ox = 0; ox < g.out_w; ++ox) {
        float* col = pc + ((b * g.out_h + oy) * g.out_w + ox) * g.patch;
        const int64_t x0 = ox - g.pad_left;
        if (gatherable && y_interior && x0 >= 0 && x0 + span_x < g.w) {
          const float* base = batch + y0 * g.w + x0;
          int64_t ci = 0;
          for (; ci + Vec::kWidth <= g.patch; ci += Vec::kWidth) {
            Vec::Gather(base, rel_data + ci).StoreU(col + ci);
          }
          for (; ci < g.patch; ++ci) col[ci] = base[rel_data[ci]];
          continue;
        }
        int64_t col_index = 0;
        for (int64_t ch = 0; ch < g.c; ++ch) {
          for (int64_t ky = 0; ky < g.kernel_h; ++ky) {
            const int64_t in_y = y0 + ky * g.dilation_h;
            for (int64_t kx = 0; kx < g.kernel_w; ++kx) {
              const int64_t in_x = x0 + kx * g.dilation_w;
              float value = 0.0f;
              if (in_y >= 0 && in_y < g.h && in_x >= 0 && in_x < g.w) {
                value = batch[(ch * g.h + in_y) * g.w + in_x];
              }
              col[col_index++] = value;
            }
          }
        }
      }
    }
  }
}

// Adjoint scatter-add. Overlapping patches accumulate into shared
// pixels, so vector lanes could not hold distinct output elements along
// the patch axis in general; the kernel stays scalar (its cost is small
// next to the conv matmuls) and identical in both tables.
template <class Vec>
void Col2Im(const float* pc, float* pi, const Im2ColArgs& g, bool parallel_ok) {
  // Parallel over the batch only: overlapping patches of one image
  // accumulate into shared pixels, but images never alias each other, and
  // the within-image accumulation order is untouched (bit-identical).
#ifdef _OPENMP
#pragma omp parallel for \
    if (parallel_ok && g.n * g.out_h * g.out_w * g.patch > 65536) \
    schedule(static)
#else
  (void)parallel_ok;
#endif
  for (int64_t b = 0; b < g.n; ++b) {
    for (int64_t oy = 0; oy < g.out_h; ++oy) {
      for (int64_t ox = 0; ox < g.out_w; ++ox) {
        const float* col = pc + ((b * g.out_h + oy) * g.out_w + ox) * g.patch;
        int64_t col_index = 0;
        for (int64_t ch = 0; ch < g.c; ++ch) {
          for (int64_t ky = 0; ky < g.kernel_h; ++ky) {
            const int64_t in_y = oy - g.pad_top + ky * g.dilation_h;
            for (int64_t kx = 0; kx < g.kernel_w; ++kx) {
              const int64_t in_x = ox - g.pad_left + kx * g.dilation_w;
              const float value = col[col_index++];
              if (in_y >= 0 && in_y < g.h && in_x >= 0 && in_x < g.w) {
                pi[((b * g.c + ch) * g.h + in_y) * g.w + in_x] += value;
              }
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Row reductions / broadcasts. Lanes are distinct output columns; each
// out[j] sums its m terms in ascending row order, exactly the reference
// loop.
// ---------------------------------------------------------------------------

template <class Vec>
void SumRows(const float* a, float* out, int64_t m, int64_t n) {
  int64_t j = 0;
  for (; j + Vec::kWidth <= n; j += Vec::kWidth) {
    Vec acc = Vec::Zero();
    for (int64_t i = 0; i < m; ++i) {
      acc = acc + Vec::LoadU(a + i * n + j);
    }
    acc.StoreU(out + j);
  }
  const int64_t rest = n - j;
  if (rest > 0) {
    Vec acc = Vec::Zero();
    for (int64_t i = 0; i < m; ++i) {
      acc = acc + Vec::LoadPartial(a + i * n + j, rest);
    }
    acc.StorePartial(out + j, rest);
  }
}

template <class Vec>
void AddRowVector(const float* a, const float* b, float* out, int64_t m,
                  int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const float* row = a + i * n;
    float* out_row = out + i * n;
    int64_t j = 0;
    for (; j + Vec::kWidth <= n; j += Vec::kWidth) {
      (Vec::LoadU(row + j) + Vec::LoadU(b + j)).StoreU(out_row + j);
    }
    const int64_t rest = n - j;
    if (rest > 0) {
      (Vec::LoadPartial(row + j, rest) + Vec::LoadPartial(b + j, rest))
          .StorePartial(out_row + j, rest);
    }
  }
}

// ---------------------------------------------------------------------------
// LSTM cell. Rows are independent, so OpenMP over rows keeps every bit;
// along a row, lanes are hidden units (full vectors, then one masked
// tail), and each gate's block sits `hidden` floats after the previous.
// ---------------------------------------------------------------------------

// Full-vector or masked-tail access to `count` <= kWidth lanes.
template <class Vec>
inline Vec LoadLanes(const float* p, int64_t count) {
  return count == Vec::kWidth ? Vec::LoadU(p) : Vec::LoadPartial(p, count);
}

template <class Vec>
inline void StoreLanes(Vec v, float* p, int64_t count) {
  if (count == Vec::kWidth) {
    v.StoreU(p);
  } else {
    v.StorePartial(p, count);
  }
}

// Row-parallel only when a step carries enough work to pay for the fork.
constexpr int64_t kLstmParallelElements = 4096;

template <class Vec>
void LstmCell(const float* xw, const float* hw, const float* bias,
              const float* c_prev, float* gates, float* c, float* tanh_c,
              float* h, int64_t n, int64_t hidden, bool parallel_ok) {
  const int64_t width = 4 * hidden;
#ifdef _OPENMP
#pragma omp parallel for \
    if (parallel_ok && n * hidden >= kLstmParallelElements) schedule(static)
#else
  (void)parallel_ok;
#endif
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t j = 0; j < hidden; j += Vec::kWidth) {
      const int64_t count =
          hidden - j < Vec::kWidth ? hidden - j : int64_t{Vec::kWidth};
      // Pre-activation of gate block `b`: (xw + hw) + bias.
      const auto z = [&](int64_t b) {
        const int64_t at = r * width + b * hidden + j;
        const Vec sum =
            LoadLanes<Vec>(xw + at, count) + LoadLanes<Vec>(hw + at, count);
        return sum + LoadLanes<Vec>(bias + b * hidden + j, count);
      };
      const Vec i = SigmoidBody(z(0));
      const Vec f = SigmoidBody(z(1));
      const Vec g = TanhBody(z(2));
      const Vec o = SigmoidBody(z(3));
      const int64_t at = r * hidden + j;
      const Vec cell = f * LoadLanes<Vec>(c_prev + at, count) + i * g;
      const Vec tc = TanhBody(cell);
      float* gate_row = gates + r * width + j;
      StoreLanes(i, gate_row, count);
      StoreLanes(f, gate_row + hidden, count);
      StoreLanes(g, gate_row + 2 * hidden, count);
      StoreLanes(o, gate_row + 3 * hidden, count);
      StoreLanes(cell, c + at, count);
      StoreLanes(tc, tanh_c + at, count);
      StoreLanes(o * tc, h + at, count);
    }
  }
}

template <class Vec>
void LstmCellBwd(const float* gates, const float* c_prev, const float* tanh_c,
                 const float* dh, float* dc, float* dz, int64_t n,
                 int64_t hidden, bool parallel_ok) {
  const int64_t width = 4 * hidden;
  const Vec one = Vec::Broadcast(1.0f);
#ifdef _OPENMP
#pragma omp parallel for \
    if (parallel_ok && n * hidden >= kLstmParallelElements) schedule(static)
#else
  (void)parallel_ok;
#endif
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t j = 0; j < hidden; j += Vec::kWidth) {
      const int64_t count =
          hidden - j < Vec::kWidth ? hidden - j : int64_t{Vec::kWidth};
      const float* gate_row = gates + r * width + j;
      const Vec i = LoadLanes<Vec>(gate_row, count);
      const Vec f = LoadLanes<Vec>(gate_row + hidden, count);
      const Vec g = LoadLanes<Vec>(gate_row + 2 * hidden, count);
      const Vec o = LoadLanes<Vec>(gate_row + 3 * hidden, count);
      const int64_t at = r * hidden + j;
      const Vec tc = LoadLanes<Vec>(tanh_c + at, count);
      const Vec dh_row = LoadLanes<Vec>(dh + at, count);
      // h = o * tanh(c): dc gains dh * o * (1 - tanh(c)^2).
      const Vec dcell =
          LoadLanes<Vec>(dc + at, count) + (dh_row * o) * (one - tc * tc);
      float* dz_row = dz + r * width + j;
      StoreLanes((dcell * g) * (i * (one - i)), dz_row, count);
      StoreLanes((dcell * LoadLanes<Vec>(c_prev + at, count)) * (f * (one - f)),
                 dz_row + hidden, count);
      StoreLanes((dcell * i) * (one - g * g), dz_row + 2 * hidden, count);
      StoreLanes((dh_row * tc) * (o * (one - o)), dz_row + 3 * hidden, count);
      StoreLanes(dcell * f, dc + at, count);
    }
  }
}

template <class Vec>
KernelTable MakeTable() {
  KernelTable table;
  table.matmul = &BlockedMatMul<Vec, /*kATransposed=*/false>;
  table.matmul_ta = &BlockedMatMul<Vec, /*kATransposed=*/true>;
  table.im2col = &Im2Col<Vec>;
  table.col2im = &Col2Im<Vec>;
  table.sum_rows = &SumRows<Vec>;
  table.add_row_vector = &AddRowVector<Vec>;
  table.unary = &UnaryKernel<Vec>;
  table.binary = &BinaryKernel<Vec>;
  table.lstm_cell = &LstmCell<Vec>;
  table.lstm_cell_bwd = &LstmCellBwd<Vec>;
  return table;
}

}  // namespace ppn::vec::detail

#endif  // PPN_TENSOR_VEC_KERNELS_IMPL_H_
