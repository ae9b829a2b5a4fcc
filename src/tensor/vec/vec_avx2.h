#ifndef PPN_TENSOR_VEC_VEC_AVX2_H_
#define PPN_TENSOR_VEC_VEC_AVX2_H_

/// \file
/// AVX2 implementation of the `Vectorized<float>` concept (vec.h). Only
/// meaningful in translation units compiled with -mavx2; everything is
/// guarded so including this header from a portable TU is harmless.
///
/// The whole point of this type is bit-identity with VecScalar: every
/// lane op is one correctly-rounded IEEE-754 single operation, `MulAdd`
/// is an explicit vmulps+vaddps pair (never vfmadd — the TU compiles
/// with -ffp-contract=off and without -mfma), and the comparison /
/// blend / masked-memory semantics are the ISA's, which VecScalar
/// mirrors loop-for-loop.

#ifdef __AVX2__

#include <immintrin.h>

#include <cstdint>

namespace ppn::vec {

class VecAvx2 {
 public:
  static constexpr int kWidth = 8;

  VecAvx2() = default;
  explicit VecAvx2(__m256 raw) : raw_(raw) {}

  static VecAvx2 Broadcast(float value) {
    return VecAvx2(_mm256_set1_ps(value));
  }

  static VecAvx2 Zero() { return VecAvx2(_mm256_setzero_ps()); }

  static VecAvx2 LoadU(const float* ptr) {
    return VecAvx2(_mm256_loadu_ps(ptr));
  }

  static VecAvx2 Load(const float* ptr) { return VecAvx2(_mm256_load_ps(ptr)); }

  /// vmaskmovps load: lanes < count are read, the rest are +0.0f. Never
  /// touches memory past ptr[count-1], so tails at the end of a mapped
  /// region are safe.
  static VecAvx2 LoadPartial(const float* ptr, int64_t count) {
    return VecAvx2(_mm256_maskload_ps(ptr, TailMask(count)));
  }

  void StoreU(float* ptr) const { _mm256_storeu_ps(ptr, raw_); }

  void Store(float* ptr) const { _mm256_store_ps(ptr, raw_); }

  void StorePartial(float* ptr, int64_t count) const {
    _mm256_maskstore_ps(ptr, TailMask(count), raw_);
  }

  friend VecAvx2 operator+(const VecAvx2& a, const VecAvx2& b) {
    return VecAvx2(_mm256_add_ps(a.raw_, b.raw_));
  }
  friend VecAvx2 operator-(const VecAvx2& a, const VecAvx2& b) {
    return VecAvx2(_mm256_sub_ps(a.raw_, b.raw_));
  }
  friend VecAvx2 operator*(const VecAvx2& a, const VecAvx2& b) {
    return VecAvx2(_mm256_mul_ps(a.raw_, b.raw_));
  }
  friend VecAvx2 operator/(const VecAvx2& a, const VecAvx2& b) {
    return VecAvx2(_mm256_div_ps(a.raw_, b.raw_));
  }

  static VecAvx2 MulAdd(const VecAvx2& a, const VecAvx2& b,
                        const VecAvx2& acc) {
    // Explicit mul + add; the TU is built without -mfma and with
    // -ffp-contract=off, so this can never contract into an FMA.
    return VecAvx2(_mm256_add_ps(acc.raw_, _mm256_mul_ps(a.raw_, b.raw_)));
  }

  static VecAvx2 Min(const VecAvx2& a, const VecAvx2& b) {
    return VecAvx2(_mm256_min_ps(a.raw_, b.raw_));
  }

  static VecAvx2 Max(const VecAvx2& a, const VecAvx2& b) {
    return VecAvx2(_mm256_max_ps(a.raw_, b.raw_));
  }

  static VecAvx2 Gt(const VecAvx2& a, const VecAvx2& b) {
    return VecAvx2(_mm256_cmp_ps(a.raw_, b.raw_, _CMP_GT_OQ));
  }

  static VecAvx2 Lt(const VecAvx2& a, const VecAvx2& b) {
    return VecAvx2(_mm256_cmp_ps(a.raw_, b.raw_, _CMP_LT_OQ));
  }

  static VecAvx2 And(const VecAvx2& a, const VecAvx2& b) {
    return VecAvx2(_mm256_and_ps(a.raw_, b.raw_));
  }

  static VecAvx2 Abs(const VecAvx2& a) {
    const __m256 sign_mask = _mm256_set1_ps(-0.0f);
    return VecAvx2(_mm256_andnot_ps(sign_mask, a.raw_));
  }

  static VecAvx2 Unordered(const VecAvx2& a, const VecAvx2& b) {
    return VecAvx2(_mm256_cmp_ps(a.raw_, b.raw_, _CMP_UNORD_Q));
  }

  static VecAvx2 Or(const VecAvx2& a, const VecAvx2& b) {
    return VecAvx2(_mm256_or_ps(a.raw_, b.raw_));
  }

  static VecAvx2 Round(const VecAvx2& a) {
    return VecAvx2(
        _mm256_round_ps(a.raw_, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
  }

  static VecAvx2 ConvertToInt32(const VecAvx2& a) {
    return VecAvx2(_mm256_castsi256_ps(_mm256_cvttps_epi32(a.raw_)));
  }

  static VecAvx2 ConvertFromInt32(const VecAvx2& a) {
    return VecAvx2(_mm256_cvtepi32_ps(_mm256_castps_si256(a.raw_)));
  }

  static VecAvx2 AddInt32(const VecAvx2& a, const VecAvx2& b) {
    return VecAvx2(_mm256_castsi256_ps(_mm256_add_epi32(
        _mm256_castps_si256(a.raw_), _mm256_castps_si256(b.raw_))));
  }

  template <int kBits>
  static VecAvx2 ShiftLeftInt32(const VecAvx2& a) {
    return VecAvx2(_mm256_castsi256_ps(
        _mm256_slli_epi32(_mm256_castps_si256(a.raw_), kBits)));
  }

  template <int kBits>
  static VecAvx2 ShiftRightInt32(const VecAvx2& a) {
    return VecAvx2(_mm256_castsi256_ps(
        _mm256_srli_epi32(_mm256_castps_si256(a.raw_), kBits)));
  }

  static VecAvx2 BroadcastBits(uint32_t bits) {
    return VecAvx2(
        _mm256_castsi256_ps(_mm256_set1_epi32(static_cast<int>(bits))));
  }

  static VecAvx2 Blend(const VecAvx2& mask, const VecAvx2& if_true,
                       const VecAvx2& if_false) {
    return VecAvx2(_mm256_blendv_ps(if_false.raw_, if_true.raw_, mask.raw_));
  }

 private:
  /// Integer mask with the top bit set in lanes [0, count).
  static __m256i TailMask(int64_t count) {
    const __m256i lane_index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                              lane_index);
  }

  __m256 raw_;
};

}  // namespace ppn::vec

#endif  // __AVX2__

#endif  // PPN_TENSOR_VEC_VEC_AVX2_H_
