#ifndef PPN_AUTOGRAD_OPS_H_
#define PPN_AUTOGRAD_OPS_H_

#include <vector>

#include "autograd/variable.h"
#include "common/random.h"
#include "tensor/ops.h"

/// \file
/// Differentiable operations. Each returns a new graph node; gradients flow
/// to any parent created by `Parameter` (or any op depending on one).
/// Binary elementwise ops require identical shapes except where noted.

namespace ppn::ag {

/// Elementwise a + b.
Var Add(const Var& a, const Var& b);
/// Elementwise a - b.
Var Sub(const Var& a, const Var& b);
/// Elementwise a * b.
Var Mul(const Var& a, const Var& b);
/// a + s.
Var AddScalar(const Var& a, float s);
/// a * s.
Var MulScalar(const Var& a, float s);
/// -a.
Var Neg(const Var& a);

/// Elementwise natural log (caller guarantees positivity).
Var Log(const Var& a);
/// Elementwise tanh.
Var Tanh(const Var& a);
/// Elementwise logistic sigmoid.
Var Sigmoid(const Var& a);
/// Elementwise max(x, 0).
Var Relu(const Var& a);
/// Elementwise |x| (subgradient 0 at x == 0).
Var Abs(const Var& a);

/// Matrix product [m,k] x [k,n] -> [m,n].
Var MatMul(const Var& a, const Var& b);
/// Adds row vector b [n] to each row of a [m,n].
Var AddRowVector(const Var& a, const Var& b);

/// Sum of all elements -> scalar (shape {1}).
Var SumAll(const Var& a);
/// Mean of all elements -> scalar (shape {1}).
Var MeanAll(const Var& a);
/// Broadcast of a scalar (shape {1}) to `shape`.
Var BroadcastScalar(const Var& scalar, std::vector<int64_t> shape);
/// Population variance of all elements -> scalar. Composite op.
Var VarianceAll(const Var& a);

/// Reshape (same element count). Gradient reshapes back.
Var Reshape(const Var& a, std::vector<int64_t> shape);
/// Concatenation along `axis`.
Var ConcatVars(const std::vector<Var>& parts, int axis);
/// Slice of length `length` at `start` along `axis`.
Var NarrowVar(const Var& a, int axis, int64_t start, int64_t length);

/// Row-wise softmax of a 2-D tensor [m,n].
Var SoftmaxRows(const Var& a);

/// Single-layer LSTM over a whole sequence, as ONE tape node: x
/// [N, T, I], w_ih [I, 4H], w_hh [H, 4H], bias [4H], gate order
/// (i, f, g, o), zero initial state; returns the last hidden state h_T
/// [N, H]. The forward equals the per-step composition of ops in this
/// file (z = (x_t·w_ih + h·w_hh) + bias, sigmoid/tanh gates,
/// c = f·c + i·g, h = o·tanh(c)) bit for bit. When the node records, it
/// keeps every step's gates and cell state for a hand-written BPTT
/// backward; otherwise (InferenceMode, or nothing requires grad) it keeps
/// only the running c and h.
Var LstmSequence(const Var& x, const Var& w_ih, const Var& w_hh,
                 const Var& bias);

/// 2-D convolution, stride 1, channels-last: input [N, H, W, C_in], weight
/// [C_out, C_in, kh, kw], optional bias [C_out] (pass nullptr to skip),
/// geometry describing dilation and asymmetric zero padding, then the
/// layer's output pass (tensor/ops.h): inverted dropout at rate
/// `pass.dropout` (the caller passes 0 outside training) and a ReLU. Output
/// [N, OutH, OutW, C_out]. ONE tape node with the bits of Conv2d →
/// Dropout → Relu as separate nodes, keeping only its parents and output
/// y: the backward forms dZ = (dY·[y > 0])·scale in one pass (`· scale`
/// only when a mask was drawn; DESIGN.md §2.8), then runs `ConvInputGrad`,
/// `ConvWeightGrad` and the bias sum. No column matrix is built or kept,
/// and every value has the bits of the column-matrix GEMMs. Element i of
/// the mask is dropped exactly when the i-th `pass.rng->Bernoulli(p)`
/// would return true, and the stream ends where that loop would leave it.
/// Aborts with a named message on a kernel size or dilation below 1, a
/// negative pad, a weight that does not match the input, an empty output,
/// or dropout without the ReLU (the backward reads the mask off y).
Var Conv2d(const Var& input, const Var& weight, const Var& bias,
           const Conv2dGeometry& geometry, const ConvOutputPass& pass = {});

}  // namespace ppn::ag

#endif  // PPN_AUTOGRAD_OPS_H_
