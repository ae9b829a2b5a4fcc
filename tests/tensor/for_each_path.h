#ifndef PPN_TESTS_TENSOR_FOR_EACH_PATH_H_
#define PPN_TESTS_TENSOR_FOR_EACH_PATH_H_

#include "tensor/dispatch.h"

namespace ppn {

// Runs `fn` once per available dispatch path (scalar always; AVX2 when
// the host supports it), with the path forced for the duration. Tests
// written against this helper therefore prove scalar==reference and
// avx2==reference, i.e. scalar==avx2 bit-for-bit.
template <typename Fn>
void ForEachPath(Fn fn) {
  {
    dispatch::ScopedForcePath force(dispatch::SimdPath::kScalar);
    fn("scalar");
  }
  if (dispatch::Avx2Available()) {
    dispatch::ScopedForcePath force(dispatch::SimdPath::kAvx2);
    fn("avx2");
  }
}

}  // namespace ppn

#endif  // PPN_TESTS_TENSOR_FOR_EACH_PATH_H_
