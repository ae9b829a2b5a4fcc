#ifndef PPN_TENSOR_VEC_KERNELS_H_
#define PPN_TENSOR_VEC_KERNELS_H_

#include <cstdint>

/// \file
/// The per-ISA kernel table. Each entry is a raw-pointer kernel with the
/// same signature in every implementation; `tensor/dispatch.h` selects
/// one table at startup (CPUID + PPN_SIMD) and `tensor/ops.cc` /
/// `autograd/ops.cc` call through it. Elementwise kernels are enumerated
/// (rather than templated on a functor) because the AVX2 bodies must
/// live in the one TU compiled with -mavx2; the enum covers every
/// elementwise op the autograd layer emits. The transcendental forwards
/// (exp/log/tanh/sigmoid) are polynomial bodies written once against the
/// Vec concept (kernels_impl.h), so they too are bit-identical across
/// tables; they do not call libm.

namespace ppn::vec {

/// Elementwise kernels of one input (plus up to two float parameters).
enum class UnaryOp : int {
  kAddScalar,  ///< x + p0
  kMulScalar,  ///< x * p0
  kReluFwd,    ///< x > 0 ? x : 0
  kAbsFwd,     ///< |x| (sign bit cleared; NaN payload preserved)
  kClampFwd,   ///< x < p0 ? p0 : (x > p1 ? p1 : x)
  kSqrtFwd,    ///< sqrt(x), correctly rounded (same bits as std::sqrt)
  kExpFwd,     ///< e^x             (max error 1 ULP)
  kLogFwd,     ///< ln x            (max error 1 ULP)
  kTanhFwd,    ///< tanh x          (max error 1.5 ULP)
  kSigmoidFwd, ///< 1 / (1 + e^-x)  (max error 2.5 ULP)
};

/// Elementwise kernels of two inputs (plus up to two float parameters).
/// The *Bwd entries fuse an activation derivative with the incoming
/// gradient: a = grad, b = the saved forward tensor (output or input,
/// matching autograd/ops.cc).
enum class BinaryOp : int {
  kAdd,         ///< a + b
  kSub,         ///< a - b
  kMul,         ///< a * b
  kDiv,         ///< a / b
  kTanhBwd,     ///< g * (1 - y*y)           (b = tanh output y)
  kSigmoidBwd,  ///< g * (y * (1 - y))       (b = sigmoid output y)
  kReluBwd,     ///< g * (x > 0 ? 1 : 0)     (b = forward input x)
  kAbsBwd,      ///< g * sign(x), sign(0)=0  (b = forward input x)
  kSqrtBwd,     ///< g * (0.5 / max(y,1e-12))(b = sqrt output y)
  kClampBwd,    ///< g * (p0 < x && x < p1 ? 1 : 0)
};

/// Geometry for the im2col/col2im kernels — a flattened, dependency-free
/// mirror of `Conv2dGeometry` plus the derived sizes (tensor/ops.cc
/// fills it; kernels never recompute shapes).
struct Im2ColArgs {
  int64_t n, c, h, w;          ///< input [N, C, H, W]
  int64_t out_h, out_w;        ///< output spatial dims (stride 1)
  int64_t patch;               ///< c * kernel_h * kernel_w
  int64_t kernel_h, kernel_w;
  int64_t dilation_h, dilation_w;
  int64_t pad_top, pad_left;
};

/// One ISA's kernel set. All pointers are always non-null in a built
/// table. `parallel_ok` mirrors InnerParallelEnabled() at each call.
struct KernelTable {
  /// out[m,n] = A·B where A(i,p) = a[i*lda+p], B rows `b + p*ldb`
  /// contiguous. Single ascending-k accumulator per output element.
  void (*matmul)(const float* a, int64_t lda, const float* b, int64_t ldb,
                 float* out, int64_t m, int64_t n, int64_t k, bool parallel_ok);
  /// Same with A(i,p) = a[p*lda+i] (transposed-A layout).
  void (*matmul_ta)(const float* a, int64_t lda, const float* b, int64_t ldb,
                    float* out, int64_t m, int64_t n, int64_t k,
                    bool parallel_ok);
  /// Lowers input [N,C,H,W] to columns [N*out_h*out_w, patch].
  void (*im2col)(const float* input, float* columns, const Im2ColArgs& args,
                 bool parallel_ok);
  /// Adjoint scatter-add of im2col. `image` must be zero-initialized.
  void (*col2im)(const float* columns, float* image, const Im2ColArgs& args,
                 bool parallel_ok);
  /// Column sums of a [m,n] matrix into out[n]. Writes every output
  /// column exactly once (no zero init required).
  void (*sum_rows)(const float* a, float* out, int64_t m, int64_t n);
  /// out[i,:] = a[i,:] + b[:] for a [m,n] and b [n].
  void (*add_row_vector)(const float* a, const float* b, float* out, int64_t m,
                         int64_t n);
  /// Enumerated elementwise kernels over flat arrays of n floats.
  void (*unary)(UnaryOp op, const float* a, float* out, int64_t n, float p0,
                float p1);
  void (*binary)(BinaryOp op, const float* a, const float* b, float* out,
                 int64_t n, float p0, float p1);
  /// One LSTM time step over n rows of hidden size h, gate order
  /// (i, f, g, o), with the per-step composition's expression tree:
  ///   z = (xw + hw) + bias            xw, hw [n, 4h]; bias [4h]
  ///   i, f, o = sigmoid(z.i, z.f, z.o); g = tanh(z.g)
  ///   c = f * c_prev + i * g;  tanh_c = tanh(c);  h = o * tanh_c
  /// Writes the activated gates [n, 4h] and c, tanh_c, h [n, h]. `c` may
  /// alias `c_prev`; no other pointers may alias.
  void (*lstm_cell)(const float* xw, const float* hw, const float* bias,
                    const float* c_prev, float* gates, float* c,
                    float* tanh_c, float* h, int64_t n, int64_t hidden,
                    bool parallel_ok);
  /// Backward of `lstm_cell` given its saved gates, c_prev and tanh_c and
  /// the incoming dh [n, h]. `dc` [n, h] holds dL/dc_t on entry (the part
  /// from step t+1) and dL/dc_{t-1} on return; `dz` [n, 4h] receives
  /// dL/dz, the gradient of the gates' pre-activations.
  void (*lstm_cell_bwd)(const float* gates, const float* c_prev,
                        const float* tanh_c, const float* dh, float* dc,
                        float* dz, int64_t n, int64_t hidden,
                        bool parallel_ok);
};

/// The portable table (VecScalar). Always available.
const KernelTable& ScalarKernels();

/// The AVX2 table (VecAvx2), or nullptr when this binary was built
/// without the AVX2 translation unit (non-x86 target). Calling into the
/// table on a CPU without AVX2 is illegal — dispatch.cc guards this.
const KernelTable* Avx2KernelsOrNull();

}  // namespace ppn::vec

#endif  // PPN_TENSOR_VEC_KERNELS_H_
