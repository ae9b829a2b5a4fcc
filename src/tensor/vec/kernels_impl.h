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
///  - Reductions (matmul, the conv kernels, sum_rows) keep ONE
///    accumulator per output element, summed in the reference order.
///    SIMD lanes only ever hold DISTINCT output elements, so widening the
///    vector cannot reorder any element's sum.
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
    case BinaryOp::kReluScaleBwd: {
      // kReluBwd, then the multiply by the dropout scale.
      const Vec scale = Vec::Broadcast(p0);
      ApplyBinary<Vec>(
          [zero, one, scale](Vec g, Vec y) {
            return (g * Vec::Blend(Vec::Gt(y, zero), one, zero)) * scale;
          },
          a, b, out, n);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Blocked matmul. 8-row register blocks, j vectorized, ascending-k single
// accumulators: the interior microkernel holds its 8 j-lane accumulators
// in Vec registers and broadcasts A one scalar at a time. Since A enters
// only through that scalar, the body is generic over how A is read (the
// operands below): a conv reads its column matrix in place, and every
// element still sums the same products in the same order.
// ---------------------------------------------------------------------------

constexpr int64_t kIB = 8;

// A(i, p) = a[i * lda + p].
struct DenseA {
  const float* a;
  int64_t lda;
  float operator()(int64_t i, int64_t p) const { return a[i * lda + p]; }
  DenseA RowsFrom(int64_t i0) const { return {a + i0 * lda, lda}; }
};

// A(i, p) = a[p * lda + i] (transposed layout).
struct TransposedA {
  const float* a;
  int64_t lda;
  float operator()(int64_t i, int64_t p) const { return a[p * lda + i]; }
  TransposedA RowsFrom(int64_t i0) const { return {a + i0, lda}; }
};

// A = cols, a conv's implicit column matrix: A(r, p) = columns[row[r] +
// tap[p]] (kernels.h, ConvArgs).
struct ColumnsA {
  const float* columns;
  const int64_t* row;
  const int64_t* tap;
  float operator()(int64_t i, int64_t p) const {
    return columns[row[i] + tap[p]];
  }
  ColumnsA RowsFrom(int64_t i0) const { return {columns, row + i0, tap}; }
};

// A = colsᵀ: A(p, r) = columns[row[r] + tap[p]].
struct ColumnsTA {
  const float* columns;
  const int64_t* row;
  const int64_t* tap;
  float operator()(int64_t i, int64_t p) const {
    return columns[row[p] + tap[i]];
  }
  ColumnsTA RowsFrom(int64_t i0) const { return {columns, row, tap + i0}; }
};

// `store` (kernels.h, ConvStore) is applied to each finished accumulator
// as it is stored; its pointers are already offset to the block (the mask
// shares the output's row stride ldo). Every step is the elementwise
// kernel's own expression, so a fused store has the bits of the separate
// passes.
template <class Vec, class AOperand>
inline void MicroKernel(AOperand a, const float* b, int64_t ldb,
                        float* out, int64_t ldo, int64_t k,
                        const ConvStore& store) {
  Vec acc[kIB];
  for (int64_t i = 0; i < kIB; ++i) acc[i] = Vec::Zero();
  for (int64_t p = 0; p < k; ++p) {
    const Vec b_row = Vec::LoadU(b + p * ldb);
    for (int64_t i = 0; i < kIB; ++i) {
      acc[i] = Vec::MulAdd(Vec::Broadcast(a(i, p)), b_row, acc[i]);
    }
  }
  if (store.bias != nullptr) {
    const Vec b_vec = Vec::LoadU(store.bias);
    for (int64_t i = 0; i < kIB; ++i) acc[i] = acc[i] + b_vec;
  }
  if (store.mask != nullptr) {
    for (int64_t i = 0; i < kIB; ++i) {
      acc[i] = acc[i] * Vec::LoadU(store.mask + i * ldo);
    }
  }
  if (store.relu) {
    const Vec zero = Vec::Zero();
    for (int64_t i = 0; i < kIB; ++i) {
      acc[i] = Vec::Blend(Vec::Gt(acc[i], zero), acc[i], zero);
    }
  }
  for (int64_t i = 0; i < kIB; ++i) acc[i].StoreU(out + i * ldo);
}

// Variable-size remainder block (right/bottom edges): scalar loops with
// the same accumulator discipline. Edge work is O(edge * k); keeping it
// scalar costs little and stays trivially bit-identical.
template <class Vec, class AOperand>
inline void EdgeBlock(AOperand a, const float* b, int64_t ldb,
                      float* out, int64_t ldo, int64_t k, int64_t ib,
                      int64_t jb, const ConvStore& store) {
  float acc[kIB][Vec::kWidth] = {};
  for (int64_t p = 0; p < k; ++p) {
    const float* b_row = b + p * ldb;
    for (int64_t i = 0; i < ib; ++i) {
      const float av = a(i, p);
      for (int64_t j = 0; j < jb; ++j) acc[i][j] += av * b_row[j];
    }
  }
  for (int64_t i = 0; i < ib; ++i) {
    for (int64_t j = 0; j < jb; ++j) {
      float v = acc[i][j];
      if (store.bias != nullptr) v = v + store.bias[j];
      if (store.mask != nullptr) v = v * store.mask[i * ldo + j];
      if (store.relu) v = v > 0.0f ? v : 0.0f;
      out[i * ldo + j] = v;
    }
  }
}

// `store` offset to the block at row i0, column j0 of an output with row
// stride ldo.
inline ConvStore StoreAt(const ConvStore& store, int64_t i0, int64_t j0,
                         int64_t ldo) {
  return {store.bias != nullptr ? store.bias + j0 : nullptr,
          store.mask != nullptr ? store.mask + i0 * ldo + j0 : nullptr,
          store.relu};
}

// out [m, n] = A · b, then `store`, b rows `b + p * ldb` contiguous.
template <class Vec, class AOperand>
void BlockedMatMul(AOperand a, const float* b, int64_t ldb, float* out,
                   int64_t m, int64_t n, int64_t k, const ConvStore& store,
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
    const AOperand a_block = a.RowsFrom(i0);
    float* out_block = out + i0 * n;
    int64_t j0 = 0;
    if (ib == kIB) {
      for (; j0 + kJB <= n; j0 += kJB) {
        MicroKernel<Vec>(a_block, b + j0, ldb, out_block + j0, n, k,
                         StoreAt(store, i0, j0, n));
      }
    }
    for (; j0 < n; j0 += kJB) {
      const int64_t jb = n - j0 < kJB ? n - j0 : kJB;
      EdgeBlock<Vec>(a_block, b + j0, ldb, out_block + j0, n, k, ib, jb,
                     StoreAt(store, i0, j0, n));
    }
  }
}

template <class Vec>
void MatMul(const float* a, int64_t lda, const float* b, int64_t ldb,
            float* out, int64_t m, int64_t n, int64_t k, bool parallel_ok) {
  BlockedMatMul<Vec>(DenseA{a, lda}, b, ldb, out, m, n, k, ConvStore{},
                     parallel_ok);
}

// ---------------------------------------------------------------------------
// Weight gradients: out [m, n] = Aᵀ·G, out[i, j] = Σ_r A(i, r)·G[r, j] over
// the k rows r of G [k, n] (rows `g + r * ldg`). A tile is up to
// kWeightGradRows output rows × two vectors of columns, so each broadcast
// of A feeds two multiply-adds; its accumulators stay in registers (the
// tile height is a template parameter and the loops over it unroll), a
// column tail runs the same lane ops under a partial mask, and every
// element sums its products over r ascending from +0 into one accumulator,
// as the naive loop does. OpenMP splits the (row block × column tile)
// grid, so the LSTM's 4- and 16-row weight gradients still spread over
// every thread. Six rows × two vectors is 12 accumulators, which with the
// two G vectors and a broadcast fits the 16 AVX2 registers.
// ---------------------------------------------------------------------------

constexpr int64_t kWeightGradRows = 6;

template <class Vec, int64_t kRows, int64_t kVecs, class AOperand>
inline void WeightGradTile(AOperand a, const float* g, int64_t ldg,
                           float* out, int64_t ldo, int64_t k, int64_t cols) {
  // Lanes of the last vector: all of them except at the column tail.
  const int64_t last = cols - (kVecs - 1) * Vec::kWidth;
  Vec acc[kRows][kVecs];
#pragma GCC unroll 8
  for (int64_t i = 0; i < kRows; ++i) {
#pragma GCC unroll 2
    for (int64_t v = 0; v < kVecs; ++v) acc[i][v] = Vec::Zero();
  }
  for (int64_t r = 0; r < k; ++r) {
    const float* g_row = g + r * ldg;
    Vec g_vec[kVecs];
    if constexpr (kVecs == 2) g_vec[0] = Vec::LoadU(g_row);
    g_vec[kVecs - 1] =
        LoadLanes<Vec>(g_row + (kVecs - 1) * Vec::kWidth, last);
#pragma GCC unroll 8
    for (int64_t i = 0; i < kRows; ++i) {
      const Vec a_ir = Vec::Broadcast(a(i, r));
#pragma GCC unroll 2
      for (int64_t v = 0; v < kVecs; ++v) {
        acc[i][v] = Vec::MulAdd(a_ir, g_vec[v], acc[i][v]);
      }
    }
  }
#pragma GCC unroll 8
  for (int64_t i = 0; i < kRows; ++i) {
    if constexpr (kVecs == 2) acc[i][0].StoreU(out + i * ldo);
    StoreLanes(acc[i][kVecs - 1], out + i * ldo + (kVecs - 1) * Vec::kWidth,
               last);
  }
}

// A tile of `rows` <= kWeightGradRows rows, each height its own
// instantiation.
template <class Vec, int64_t kVecs, class AOperand>
inline void WeightGradTileRows(AOperand a, const float* g, int64_t ldg,
                               float* out, int64_t ldo, int64_t k,
                               int64_t rows, int64_t cols) {
  static_assert(kWeightGradRows == 6, "one case per tile height");
  switch (rows) {
    case 1: return WeightGradTile<Vec, 1, kVecs>(a, g, ldg, out, ldo, k, cols);
    case 2: return WeightGradTile<Vec, 2, kVecs>(a, g, ldg, out, ldo, k, cols);
    case 3: return WeightGradTile<Vec, 3, kVecs>(a, g, ldg, out, ldo, k, cols);
    case 4: return WeightGradTile<Vec, 4, kVecs>(a, g, ldg, out, ldo, k, cols);
    case 5: return WeightGradTile<Vec, 5, kVecs>(a, g, ldg, out, ldo, k, cols);
    default:
      return WeightGradTile<Vec, 6, kVecs>(a, g, ldg, out, ldo, k, cols);
  }
}

template <class Vec, class AOperand>
void WeightGrad(AOperand a, const float* g, int64_t ldg, float* out,
                int64_t m, int64_t n, int64_t k, bool parallel_ok) {
  constexpr int64_t kCols = 2 * Vec::kWidth;
  const int64_t col_tiles = (n + kCols - 1) / kCols;
  const int64_t tiles =
      (m + kWeightGradRows - 1) / kWeightGradRows * col_tiles;
  // Every output element is computed wholly inside one tile, so any thread
  // count gives the same bits.
#ifdef _OPENMP
#pragma omp parallel for if (parallel_ok && m * n * k > 65536) schedule(static)
#else
  (void)parallel_ok;
#endif
  for (int64_t t = 0; t < tiles; ++t) {
    const int64_t i0 = t / col_tiles * kWeightGradRows;
    const int64_t j0 = t % col_tiles * kCols;
    const int64_t rows = m - i0 < kWeightGradRows ? m - i0 : kWeightGradRows;
    const int64_t cols = n - j0 < kCols ? n - j0 : kCols;
    float* out_tile = out + i0 * n + j0;
    if (cols > Vec::kWidth) {
      WeightGradTileRows<Vec, 2>(a.RowsFrom(i0), g + j0, ldg, out_tile, n, k,
                                 rows, cols);
    } else {
      WeightGradTileRows<Vec, 1>(a.RowsFrom(i0), g + j0, ldg, out_tile, n, k,
                                 rows, cols);
    }
  }
}

template <class Vec>
void MatMulTransA(const float* a, int64_t lda, const float* b, int64_t ldb,
                  float* out, int64_t m, int64_t n, int64_t k,
                  bool parallel_ok) {
  WeightGrad<Vec>(TransposedA{a, lda}, b, ldb, out, m, n, k, parallel_ok);
}

// ---------------------------------------------------------------------------
// Convolution without column matrices (DESIGN.md §2.8). The forward is the
// blocked matmul and the weight gradient the weight-gradient body, both over
// the implicit-column view, so each output element sums exactly the products
// the column-matrix GEMM summed, in its order: the forward over patch
// entries p ascending, the weight gradient over output rows r ascending
// (col * grad where the GEMM had grad * col; IEEE multiplication commutes).
// The weight gradient's patch order only decides where each sum is stored.
// Padding taps read the padded copy's +0.0f, so 0 * Inf is NaN as before.
// ---------------------------------------------------------------------------

template <class Vec>
void ConvForward(const ConvArgs& g, const float* weight_t,
                 const ConvStore& store, float* out, bool parallel_ok) {
  const int64_t rows = g.n * g.out_h * g.out_w;
  const int64_t patch = g.c * g.kernel_h * g.kernel_w;
  BlockedMatMul<Vec>(ColumnsA{g.columns, g.row, g.tap}, weight_t, g.c_out,
                     out, rows, g.c_out, patch, store, parallel_ok);
}

template <class Vec>
void ConvWeightGrad(const ConvArgs& g, const float* grad, float* out,
                    bool parallel_ok) {
  const int64_t rows = g.n * g.out_h * g.out_w;
  const int64_t patch = g.c * g.kernel_h * g.kernel_w;
  WeightGrad<Vec>(ColumnsTA{g.columns, g.row, g.tap}, grad, g.c_out, out,
                  patch, g.c_out, rows, parallel_ok);
}

// The input gradient is the column gradient grad · filter scattered back
// onto the input. Its reference sums fix the order: each column-gradient
// element sums its c_out products in ascending order from +0, and the
// scatter adds the elements landing on one input element to a zeroed image
// in ascending output row, i.e. descending (ky, kx). The gather below
// forms those sums in that order without the column gradient, one input
// element at a time, lanes over channels (distinct elements). Out-of-bounds taps are skipped, as the scatter skipped them,
// so a filter tap that only ever reads padding never reaches dx. Runs of
// kGatherPixels neighbours along a row that share their in-bounds taps
// (so each tap reads consecutive output rows) go through one register
// block; the other pixels go one at a time. The loops over a block's
// pixels are unrolled so that acc and dot stay in registers (at -O2 GCC
// keeps such arrays on the stack).
constexpr int64_t kGatherPixels = 4;

template <class Vec, int64_t kPixels>
inline void GatherPixels(const ConvArgs& g, const float* grad,
                         const float* weight_taps, float* dx, int64_t b,
                         int64_t y, int64_t x, int64_t ky_lo, int64_t ky_hi,
                         int64_t kx_lo, int64_t kx_hi) {
  for (int64_t ch = 0; ch < g.c; ch += Vec::kWidth) {
    const int64_t lanes =
        g.c - ch < Vec::kWidth ? g.c - ch : int64_t{Vec::kWidth};
    Vec acc[kPixels];
#pragma GCC unroll 8
    for (int64_t i = 0; i < kPixels; ++i) acc[i] = Vec::Zero();
    for (int64_t ky = ky_hi; ky >= ky_lo; --ky) {
      const int64_t oy = y + g.pad_top - ky * g.dilation_h;
      for (int64_t kx = kx_hi; kx >= kx_lo; --kx) {
        const int64_t ox = x + g.pad_left - kx * g.dilation_w;
        const float* grad_rows =
            grad + ((b * g.out_h + oy) * g.out_w + ox) * g.c_out;
        const float* w =
            weight_taps + (ky * g.kernel_w + kx) * g.c_out * g.c + ch;
        Vec dot[kPixels];
#pragma GCC unroll 8
        for (int64_t i = 0; i < kPixels; ++i) dot[i] = Vec::Zero();
        for (int64_t o = 0; o < g.c_out; ++o) {
          const Vec w_o = LoadLanes<Vec>(w + o * g.c, lanes);
#pragma GCC unroll 8
          for (int64_t i = 0; i < kPixels; ++i) {
            dot[i] = Vec::MulAdd(Vec::Broadcast(grad_rows[i * g.c_out + o]),
                                 w_o, dot[i]);
          }
        }
#pragma GCC unroll 8
        for (int64_t i = 0; i < kPixels; ++i) acc[i] = acc[i] + dot[i];
      }
    }
    float* out = dx + ((b * g.h + y) * g.w + x) * g.c + ch;
#pragma GCC unroll 8
    for (int64_t i = 0; i < kPixels; ++i) {
      StoreLanes(acc[i], out + i * g.c, lanes);
    }
  }
}

// First and last kernel index k in [0, kernel) whose output coordinate
// `at + pad - k * dilation` lies in [0, out): a contiguous range, empty
// (first > last) when no tap reaches an output.
inline void InBoundsTaps(int64_t at, int64_t pad, int64_t dilation,
                         int64_t kernel, int64_t out, int64_t* first,
                         int64_t* last) {
  *first = kernel;
  *last = -1;
  for (int64_t k = 0; k < kernel; ++k) {
    const int64_t o = at + pad - k * dilation;
    if (o >= 0 && o < out) {
      if (*first == kernel) *first = k;
      *last = k;
    }
  }
}

template <class Vec>
void ConvInputGrad(const ConvArgs& g, const float* grad,
                   const float* weight_taps, float* dx, bool parallel_ok) {
  std::vector<int64_t> kx_lo(static_cast<size_t>(g.w));
  std::vector<int64_t> kx_hi(static_cast<size_t>(g.w));
  for (int64_t x = 0; x < g.w; ++x) {
    InBoundsTaps(x, g.pad_left, g.dilation_w, g.kernel_w, g.out_w, &kx_lo[x],
                 &kx_hi[x]);
  }
  const int64_t work =
      g.n * g.out_h * g.out_w * g.c * g.kernel_h * g.kernel_w * g.c_out;
#ifdef _OPENMP
#pragma omp parallel for if (parallel_ok && work > 65536) schedule(static)
#else
  (void)parallel_ok;
  (void)work;
#endif
  for (int64_t by = 0; by < g.n * g.h; ++by) {
    const int64_t b = by / g.h;
    const int64_t y = by % g.h;
    int64_t ky_lo;
    int64_t ky_hi;
    InBoundsTaps(y, g.pad_top, g.dilation_h, g.kernel_h, g.out_h, &ky_lo,
                 &ky_hi);
    int64_t x = 0;
    while (x < g.w) {
      int64_t run = 1;
      while (run < kGatherPixels && x + run < g.w &&
             kx_lo[x + run] == kx_lo[x] && kx_hi[x + run] == kx_hi[x]) {
        ++run;
      }
      if (run == kGatherPixels) {
        GatherPixels<Vec, kGatherPixels>(g, grad, weight_taps, dx, b, y, x,
                                         ky_lo, ky_hi, kx_lo[x], kx_hi[x]);
      } else {
        run = 1;
        GatherPixels<Vec, 1>(g, grad, weight_taps, dx, b, y, x, ky_lo, ky_hi,
                             kx_lo[x], kx_hi[x]);
      }
      x += run;
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
  table.matmul = &MatMul<Vec>;
  table.matmul_ta = &MatMulTransA<Vec>;
  table.conv_forward = &ConvForward<Vec>;
  table.conv_weight_grad = &ConvWeightGrad<Vec>;
  table.conv_input_grad = &ConvInputGrad<Vec>;
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
