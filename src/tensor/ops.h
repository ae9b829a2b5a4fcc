#ifndef PPN_TENSOR_OPS_H_
#define PPN_TENSOR_OPS_H_

#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "tensor/tensor.h"
#include "tensor/vec/kernels.h"

/// \file
/// Raw (non-differentiable) tensor kernels. The autograd layer composes
/// these into differentiable operations. All binary elementwise kernels
/// require identical shapes; broadcasting is handled one level up.
///
/// Kernel rules (see DESIGN.md "Memory & kernel architecture" and §2.8):
///  - Outputs that are fully overwritten come from `Tensor::Uninitialized`
///    (skips the zero-fill); accumulating outputs zero-init.
///  - Every matmul variant accumulates each output element's k terms in
///    ascending order with a single float accumulator, so blocked /
///    vectorized / OpenMP versions stay bit-identical to the naive
///    reference loops at any block size or thread count.
///  - Hot kernels route through `tensor/dispatch.h` to a per-ISA
///    `vec::KernelTable` (scalar always; AVX2 when the CPU has it, or as
///    forced by PPN_SIMD). Every table obeys the same accumulation-order
///    contract, so the dispatch choice never changes any output bit.
///  - Convolutions never materialize a column matrix: `ConvForward`,
///    `ConvInputGrad` and `ConvWeightGrad` read the input in place and
///    give the bits of the column-matrix GEMMs they replace.

namespace ppn {

/// c = a + b (same shape).
Tensor Add(const Tensor& a, const Tensor& b);
/// c = a - b (same shape).
Tensor Sub(const Tensor& a, const Tensor& b);
/// c = a * b elementwise (same shape).
Tensor Mul(const Tensor& a, const Tensor& b);
/// c = a / b elementwise (same shape).
Tensor Div(const Tensor& a, const Tensor& b);

/// c = a + s.
Tensor AddScalar(const Tensor& a, float s);
/// c = a * s.
Tensor MulScalar(const Tensor& a, float s);

/// Dispatched elementwise kernel over one input: out_i = op(a_i; p0).
/// See `vec::UnaryOp` for the op catalogue: every activation forward of
/// the autograd layer, transcendentals included, is one of its entries.
Tensor EltwiseUnary(vec::UnaryOp op, const Tensor& a, float p0 = 0.0f);

/// Dispatched elementwise kernel over two same-shaped inputs:
/// out_i = op(a_i, b_i; p0). The *Bwd ops fuse an activation
/// derivative with the incoming gradient (a = grad, b = saved tensor).
Tensor EltwiseBinary(vec::BinaryOp op, const Tensor& a, const Tensor& b,
                     float p0 = 0.0f);

/// Matrix product of a [m,k] and b [k,n] -> [m,n].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// `MatMul` over raw row-major buffers inside larger tensors: writes
/// out [m,n] = a [m,k] · b [k,n] (every element; out must not alias a or
/// b). Counted and dispatched like `MatMul`, with the same bits.
void MatMulInto(const float* a, const float* b, float* out, int64_t m,
                int64_t n, int64_t k);

/// Matrix product a^T b of a [k,m] and b [k,n] -> [m,n].
Tensor MatMulTransA(const Tensor& a, const Tensor& b);

/// Matrix product a b^T of a [m,k] and b [n,k] -> [m,n].
Tensor MatMulTransB(const Tensor& a, const Tensor& b);

/// Transpose of a 2-D tensor.
Tensor Transpose2D(const Tensor& a);

/// Sum of all elements.
double SumAll(const Tensor& a);

/// Mean of all elements (numel must be > 0).
double MeanAll(const Tensor& a);

/// Column sums of a [m,n] matrix -> [n].
Tensor SumRows(const Tensor& a);

/// Broadcast-add a row vector b [n] to every row of a [m,n].
Tensor AddRowVector(const Tensor& a, const Tensor& b);

/// Concatenation of tensors along `axis`. All inputs must agree on every
/// other dimension.
Tensor Concat(const std::vector<Tensor>& parts, int axis);

/// Slice of length `length` starting at `start` along `axis` (copy).
Tensor Narrow(const Tensor& a, int axis, int64_t start, int64_t length);

/// Writes `src` into `dst` at offset `start` along `axis` (in place;
/// dst and src must agree on every other dimension).
void NarrowInto(Tensor* dst, const Tensor& src, int axis, int64_t start);

/// Uniform random tensor in [lo, hi).
Tensor RandomUniform(std::vector<int64_t> shape, float lo, float hi, Rng* rng);

/// Normal random tensor.
Tensor RandomNormal(std::vector<int64_t> shape, float mean, float stddev,
                    Rng* rng);

/// Inverted-dropout mask: element i is +0.0f when the i-th
/// `rng->Bernoulli(p)` of a serial loop would return true, else
/// 1/(1 - p), and `rng` ends where that loop would leave it. Requires
/// 0 <= p < 1. With `InnerParallelEnabled()` and enough elements, thread
/// t of T draws elements [n·t/T, n·(t+1)/T) from a copy of `rng` jumped
/// ahead by `Rng::Discard`; the mask and the final state do not depend on
/// the thread count.
Tensor DropoutMask(const std::vector<int64_t>& shape, float p, Rng* rng);

/// Parameters of a 2-D convolution. Stride is fixed at 1 (the only stride
/// the paper's architecture uses).
struct Conv2dGeometry {
  int64_t kernel_h = 1;
  int64_t kernel_w = 1;
  int64_t dilation_h = 1;
  int64_t dilation_w = 1;
  int64_t pad_top = 0;
  int64_t pad_bottom = 0;
  int64_t pad_left = 0;
  int64_t pad_right = 0;

  /// Output height for input height `h` (stride 1).
  int64_t OutH(int64_t h) const {
    return h + pad_top + pad_bottom - dilation_h * (kernel_h - 1);
  }
  /// Output width for input width `w` (stride 1).
  int64_t OutW(int64_t w) const {
    return w + pad_left + pad_right - dilation_w * (kernel_w - 1);
  }
};

/// A conv layer's output pass, done as the forward stores each element:
/// after the bias, inverted dropout (times a `DropoutMask` drawn from `rng`
/// at rate `dropout`, when `dropout` > 0), then the ReLU x > 0 ? x : 0
/// (when `relu`). The default does neither: a plain conv.
struct ConvOutputPass {
  float dropout = 0.0f;  ///< drop probability p in [0, 1); 0 draws no mask
  Rng* rng = nullptr;    ///< the mask's stream; required when dropout > 0
  bool relu = false;
};

/// The three kernels of a stride-1 convolution over a channels-last input
/// x [N, H, W, C_in] with filter w [C_out, C_in, kh, kw]. Each is a GEMM
/// over the conv's column matrix cols [N·OutH·OutW, C_in·kh·kw] (rows in
/// (n, oy, ox) order, patch entries in (channel, ky, kx) order, zeros at
/// padding taps), with that GEMM's bits; none builds cols, each reads x in
/// place through an implicit-column view (vec::ConvArgs). Each checks the
/// geometry and shapes first, with a named message: kernel sizes and
/// dilations >= 1, pads >= 0, a weight matching the input, a non-empty
/// output.

/// Output [N, OutH, OutW, C_out] = cols · w^T (+ bias [C_out] on every
/// pixel when `bias` is non-null, as `AddRowVector` adds it), then `pass`:
/// the bits of `AddRowVector`, `Mul` by the mask and `kReluFwd` run one
/// after another. Draws the mask after every check.
Tensor ConvForward(const Tensor& input, const Tensor& weight,
                   const Tensor* bias, const Conv2dGeometry& geometry,
                   const ConvOutputPass& pass = {});

/// Input gradient [N, H, W, C_in] for the output gradient `grad`
/// [N, OutH, OutW, C_out]: the column gradient grad · w scattered back
/// onto the input (the adjoint of cols), in ascending output row, without
/// building the column gradient.
Tensor ConvInputGrad(const Tensor& grad, const Tensor& weight,
                     const std::vector<int64_t>& input_shape,
                     const Conv2dGeometry& geometry);

/// Weight gradient [C_out, C_in, kh, kw] = grad^T · cols.
Tensor ConvWeightGrad(const Tensor& input, const Tensor& grad,
                      const Conv2dGeometry& geometry);

}  // namespace ppn

#endif  // PPN_TENSOR_OPS_H_
