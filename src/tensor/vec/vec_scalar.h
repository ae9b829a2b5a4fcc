#ifndef PPN_TENSOR_VEC_VEC_SCALAR_H_
#define PPN_TENSOR_VEC_VEC_SCALAR_H_

#include <bit>
#include <cmath>
#include <cstdint>

/// \file
/// Portable fallback implementation of the `Vectorized<float>` concept
/// (see vec.h for the concept contract): eight lanes held in a plain
/// float array, every operation a fixed-count loop the compiler may
/// autovectorize to whatever the baseline ISA offers. Semantics mirror
/// the AVX2 implementation EXACTLY — including the quirks:
///
///  - `Blend` and the partial load/store select on the lane's TOP BIT
///    only (vblendvps / vmaskmovps semantics), not on zero/non-zero.
///  - Comparison masks are all-ones / all-zero lane bit patterns.
///  - `Min`/`Max` return the SECOND operand when either lane is NaN and
///    when comparing +0 with -0 (vminps/vmaxps semantics:
///    `a < b ? a : b` and `a > b ? a : b`), unlike std::min.
///  - `LoadPartial` fills masked-out lanes with +0.0f.
///  - `ConvertToInt32` truncates and gives INT32_MIN for NaN and
///    out-of-range lanes (vcvttps2dq), so no lane ever hits C++'s
///    undefined float->int conversion.
///
/// Because every lane op is the same IEEE-754 single operation the AVX2
/// lane performs, kernels written against this concept produce the same
/// bits under either implementation.

namespace ppn::vec {

class VecScalar {
 public:
  static constexpr int kWidth = 8;

  VecScalar() = default;

  static VecScalar Broadcast(float value) {
    VecScalar out;
    for (int i = 0; i < kWidth; ++i) out.lane_[i] = value;
    return out;
  }

  static VecScalar Zero() { return Broadcast(0.0f); }

  /// Unaligned load of kWidth floats.
  static VecScalar LoadU(const float* ptr) {
    VecScalar out;
    for (int i = 0; i < kWidth; ++i) out.lane_[i] = ptr[i];
    return out;
  }

  /// Aligned load (pointer must be 32-byte aligned; the pool's 64-byte
  /// buffers qualify at offset 0).
  static VecScalar Load(const float* ptr) { return LoadU(ptr); }

  /// Masked load of the first `count` lanes; the rest read as +0.0f
  /// (vmaskmovps semantics). 0 <= count <= kWidth.
  static VecScalar LoadPartial(const float* ptr, int64_t count) {
    VecScalar out = Zero();
    for (int64_t i = 0; i < count; ++i) out.lane_[i] = ptr[i];
    return out;
  }

  void StoreU(float* ptr) const {
    for (int i = 0; i < kWidth; ++i) ptr[i] = lane_[i];
  }

  void Store(float* ptr) const { StoreU(ptr); }

  /// Masked store of the first `count` lanes; the rest of the
  /// destination is untouched.
  void StorePartial(float* ptr, int64_t count) const {
    for (int64_t i = 0; i < count; ++i) ptr[i] = lane_[i];
  }

  friend VecScalar operator+(const VecScalar& a, const VecScalar& b) {
    VecScalar out;
    for (int i = 0; i < kWidth; ++i) out.lane_[i] = a.lane_[i] + b.lane_[i];
    return out;
  }
  friend VecScalar operator-(const VecScalar& a, const VecScalar& b) {
    VecScalar out;
    for (int i = 0; i < kWidth; ++i) out.lane_[i] = a.lane_[i] - b.lane_[i];
    return out;
  }
  friend VecScalar operator*(const VecScalar& a, const VecScalar& b) {
    VecScalar out;
    for (int i = 0; i < kWidth; ++i) out.lane_[i] = a.lane_[i] * b.lane_[i];
    return out;
  }
  friend VecScalar operator/(const VecScalar& a, const VecScalar& b) {
    VecScalar out;
    for (int i = 0; i < kWidth; ++i) out.lane_[i] = a.lane_[i] / b.lane_[i];
    return out;
  }

  /// acc + a*b as two separate correctly-rounded operations — never an
  /// FMA (-ffp-contract=off semantics; the bit-identity contract).
  static VecScalar MulAdd(const VecScalar& a, const VecScalar& b,
                          const VecScalar& acc) {
    return acc + a * b;
  }

  /// vminps: per lane `a < b ? a : b` (returns b when either is NaN).
  static VecScalar Min(const VecScalar& a, const VecScalar& b) {
    VecScalar out;
    for (int i = 0; i < kWidth; ++i) {
      out.lane_[i] = a.lane_[i] < b.lane_[i] ? a.lane_[i] : b.lane_[i];
    }
    return out;
  }

  /// vmaxps: per lane `a > b ? a : b` (returns b when either is NaN).
  static VecScalar Max(const VecScalar& a, const VecScalar& b) {
    VecScalar out;
    for (int i = 0; i < kWidth; ++i) {
      out.lane_[i] = a.lane_[i] > b.lane_[i] ? a.lane_[i] : b.lane_[i];
    }
    return out;
  }

  /// All-ones mask where a > b (ordered, quiet — vcmpps _CMP_GT_OQ).
  static VecScalar Gt(const VecScalar& a, const VecScalar& b) {
    VecScalar out;
    for (int i = 0; i < kWidth; ++i) {
      out.lane_[i] =
          std::bit_cast<float>(a.lane_[i] > b.lane_[i] ? 0xFFFFFFFFu : 0u);
    }
    return out;
  }

  /// All-ones mask where a < b.
  static VecScalar Lt(const VecScalar& a, const VecScalar& b) {
    VecScalar out;
    for (int i = 0; i < kWidth; ++i) {
      out.lane_[i] =
          std::bit_cast<float>(a.lane_[i] < b.lane_[i] ? 0xFFFFFFFFu : 0u);
    }
    return out;
  }

  /// Bitwise AND of lane patterns (for combining masks).
  static VecScalar And(const VecScalar& a, const VecScalar& b) {
    VecScalar out;
    for (int i = 0; i < kWidth; ++i) {
      out.lane_[i] = std::bit_cast<float>(std::bit_cast<uint32_t>(a.lane_[i]) &
                                          std::bit_cast<uint32_t>(b.lane_[i]));
    }
    return out;
  }

  /// Clears every sign bit (vandps with 0x7FFFFFFF): exact std::fabs,
  /// including for NaN payloads.
  static VecScalar Abs(const VecScalar& a) {
    VecScalar out;
    for (int i = 0; i < kWidth; ++i) {
      out.lane_[i] = std::bit_cast<float>(std::bit_cast<uint32_t>(a.lane_[i]) &
                                          0x7FFFFFFFu);
    }
    return out;
  }

  /// All-ones mask where a or b is NaN (unordered — vcmpps _CMP_UNORD_Q).
  static VecScalar Unordered(const VecScalar& a, const VecScalar& b) {
    VecScalar out;
    for (int i = 0; i < kWidth; ++i) {
      const bool nan = a.lane_[i] != a.lane_[i] || b.lane_[i] != b.lane_[i];
      out.lane_[i] = std::bit_cast<float>(nan ? 0xFFFFFFFFu : 0u);
    }
    return out;
  }

  /// Bitwise OR of lane patterns.
  static VecScalar Or(const VecScalar& a, const VecScalar& b) {
    VecScalar out;
    for (int i = 0; i < kWidth; ++i) {
      out.lane_[i] = std::bit_cast<float>(std::bit_cast<uint32_t>(a.lane_[i]) |
                                          std::bit_cast<uint32_t>(b.lane_[i]));
    }
    return out;
  }

  /// Correctly-rounded square root (vsqrtps; std::sqrt gives the same
  /// bits, including the default NaN for negative lanes).
  static VecScalar Sqrt(const VecScalar& a) {
    VecScalar out;
    for (int i = 0; i < kWidth; ++i) out.lane_[i] = std::sqrt(a.lane_[i]);
    return out;
  }

  /// Round to the nearest integer, ties to even (vroundps with
  /// _MM_FROUND_TO_NEAREST_INT; std::nearbyint under the default
  /// rounding mode).
  static VecScalar Round(const VecScalar& a) {
    VecScalar out;
    for (int i = 0; i < kWidth; ++i) out.lane_[i] = std::nearbyint(a.lane_[i]);
    return out;
  }

  // Integer lane operations. An "int32 lane" is the lane's 32-bit pattern
  // read as a two's-complement integer; the Vec type does not change.

  /// Float -> int32 lanes, truncating toward zero (vcvttps2dq): NaN and
  /// out-of-range lanes give INT32_MIN (0x80000000).
  static VecScalar ConvertToInt32(const VecScalar& a) {
    VecScalar out;
    for (int i = 0; i < kWidth; ++i) {
      const float v = a.lane_[i];
      const bool in_range = v >= -2147483648.0f && v < 2147483648.0f;
      const uint32_t bits =
          in_range ? static_cast<uint32_t>(static_cast<int32_t>(v))
                   : 0x80000000u;
      out.lane_[i] = std::bit_cast<float>(bits);
    }
    return out;
  }

  /// Int32 lanes -> float, rounding to nearest even (vcvtdq2ps).
  static VecScalar ConvertFromInt32(const VecScalar& a) {
    VecScalar out;
    for (int i = 0; i < kWidth; ++i) {
      out.lane_[i] =
          static_cast<float>(std::bit_cast<int32_t>(a.lane_[i]));
    }
    return out;
  }

  /// Int32 lane add, wrapping (vpaddd).
  static VecScalar AddInt32(const VecScalar& a, const VecScalar& b) {
    VecScalar out;
    for (int i = 0; i < kWidth; ++i) {
      out.lane_[i] = std::bit_cast<float>(std::bit_cast<uint32_t>(a.lane_[i]) +
                                          std::bit_cast<uint32_t>(b.lane_[i]));
    }
    return out;
  }

  /// Int32 lane shift left by kBits (vpslld).
  template <int kBits>
  static VecScalar ShiftLeftInt32(const VecScalar& a) {
    VecScalar out;
    for (int i = 0; i < kWidth; ++i) {
      out.lane_[i] =
          std::bit_cast<float>(std::bit_cast<uint32_t>(a.lane_[i]) << kBits);
    }
    return out;
  }

  /// Int32 lane logical shift right by kBits (vpsrld).
  template <int kBits>
  static VecScalar ShiftRightInt32(const VecScalar& a) {
    VecScalar out;
    for (int i = 0; i < kWidth; ++i) {
      out.lane_[i] =
          std::bit_cast<float>(std::bit_cast<uint32_t>(a.lane_[i]) >> kBits);
    }
    return out;
  }

  /// Broadcast of a 32-bit lane pattern (an int32 constant or a float
  /// given by its bits).
  static VecScalar BroadcastBits(uint32_t bits) {
    return Broadcast(std::bit_cast<float>(bits));
  }

  /// vgatherdps: lane i reads base[idx[i]]. All eight indices must be
  /// in bounds (no masking).
  static VecScalar Gather(const float* base, const int32_t* idx) {
    VecScalar out;
    for (int i = 0; i < kWidth; ++i) out.lane_[i] = base[idx[i]];
    return out;
  }

  /// vblendvps: lane i takes `if_true` when mask lane i's TOP BIT is
  /// set, else `if_false`.
  static VecScalar Blend(const VecScalar& mask, const VecScalar& if_true,
                         const VecScalar& if_false) {
    VecScalar out;
    for (int i = 0; i < kWidth; ++i) {
      const bool top = (std::bit_cast<uint32_t>(mask.lane_[i]) >> 31) != 0;
      out.lane_[i] = top ? if_true.lane_[i] : if_false.lane_[i];
    }
    return out;
  }

 private:
  float lane_[kWidth];
};

}  // namespace ppn::vec

#endif  // PPN_TENSOR_VEC_VEC_SCALAR_H_
