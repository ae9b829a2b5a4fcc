#ifndef PPN_TENSOR_VEC_VEC_H_
#define PPN_TENSOR_VEC_VEC_H_

/// \file
/// The `Vectorized<float>` concept: a fixed-width bundle of 8 float
/// lanes with load/store (aligned, unaligned, and masked-partial),
/// arithmetic, an explicitly FMA-free `MulAdd`, min/max, square root,
/// round-to-nearest-even, comparisons that produce lane masks (ordered
/// `Gt`/`Lt` and the NaN test `Unordered`), bitwise `And`/`Or`/`Abs`,
/// sign-bit `Blend` selection, and the few int32-lane operations the
/// transcendental kernels use to build and read exponents
/// (`ConvertToInt32`/`ConvertFromInt32`, `AddInt32`, `ShiftLeftInt32`,
/// `ShiftRightInt32`, `BroadcastBits`).
///
/// Two implementations exist:
///   - `VecScalar` (vec_scalar.h): plain loops, compiled everywhere.
///   - `VecAvx2`   (vec_avx2.h):  AVX2 intrinsics, only defined in TUs
///     built with -mavx2 (kernels_avx2.cc).
///
/// Kernels in kernels_impl.h are templates over the implementation, so
/// each translation unit of src/tensor/vec instantiates the full kernel
/// set for exactly one ISA. Runtime selection between the resulting
/// tables happens in tensor/dispatch.{h,cc} (CPUID + PPN_SIMD).
///
/// THE CONTRACT: every lane operation is one correctly-rounded IEEE-754
/// single-precision operation, identical between implementations — no
/// FMA contraction, no approximate reciprocals, no reassociation.
/// Kernels that additionally keep each output element's reduction terms
/// in ascending order with a single accumulator (the repo-wide matmul
/// rule, DESIGN.md §2.4) are therefore bit-identical across VecScalar,
/// VecAvx2, and the pre-SIMD kernels.

#include "tensor/vec/vec_avx2.h"
#include "tensor/vec/vec_scalar.h"

#endif  // PPN_TENSOR_VEC_VEC_H_
