#include "autograd/ops.h"

#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/parallel.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "tensor/dispatch.h"

namespace ppn::ag {

namespace {

bool AnyRequiresGrad(const std::vector<Var>& parents) {
  for (const Var& p : parents) {
    PPN_CHECK(p != nullptr);
    if (p->requires_grad()) return true;
  }
  return false;
}

// Builds an op node. If no parent requires gradients — or the thread is
// inside an `InferenceMode` scope — the node is a plain constant and the
// tape edge is dropped (keeps inference graphs flat and lets forward
// intermediates free as soon as their last consumer runs).
Var MakeOp(Tensor value, std::vector<Var> parents,
           std::function<void(Node*)> backward_fn) {
  const bool requires_grad = GradEnabled() && AnyRequiresGrad(parents);
  auto node = std::make_shared<Node>(std::move(value), requires_grad);
  if (requires_grad) {
    node->parents = std::move(parents);
    node->backward_fn = std::move(backward_fn);
    if (obs::Enabled()) {
      static thread_local obs::Counter& tape_nodes =
          obs::GetCounter("autograd.tape.nodes");
      tape_nodes.Add(1.0);
    }
  }
  return node;
}

void MaybeAccumulate(const Var& parent, const Tensor& delta) {
  if (parent->requires_grad()) parent->AccumulateGrad(delta);
}

}  // namespace

Var Add(const Var& a, const Var& b) {
  return MakeOp(ppn::Add(a->value(), b->value()), {a, b}, [](Node* self) {
    MaybeAccumulate(self->parents[0], self->grad());
    MaybeAccumulate(self->parents[1], self->grad());
  });
}

Var Sub(const Var& a, const Var& b) {
  return MakeOp(ppn::Sub(a->value(), b->value()), {a, b}, [](Node* self) {
    MaybeAccumulate(self->parents[0], self->grad());
    MaybeAccumulate(self->parents[1], MulScalar(self->grad(), -1.0f));
  });
}

Var Mul(const Var& a, const Var& b) {
  return MakeOp(ppn::Mul(a->value(), b->value()), {a, b}, [](Node* self) {
    const Var& a = self->parents[0];
    const Var& b = self->parents[1];
    MaybeAccumulate(a, ppn::Mul(self->grad(), b->value()));
    MaybeAccumulate(b, ppn::Mul(self->grad(), a->value()));
  });
}

Var Div(const Var& a, const Var& b) {
  return MakeOp(ppn::Div(a->value(), b->value()), {a, b}, [](Node* self) {
    const Var& a = self->parents[0];
    const Var& b = self->parents[1];
    // d(a/b)/da = 1/b ; d(a/b)/db = -a/b^2.
    MaybeAccumulate(a, ppn::Div(self->grad(), b->value()));
    if (b->requires_grad()) {
      Tensor b2 = ppn::Mul(b->value(), b->value());
      Tensor db = ppn::Div(ppn::Mul(self->grad(), a->value()), b2);
      b->AccumulateGrad(MulScalar(db, -1.0f));
    }
  });
}

Var AddScalar(const Var& a, float s) {
  return MakeOp(ppn::AddScalar(a->value(), s), {a}, [](Node* self) {
    MaybeAccumulate(self->parents[0], self->grad());
  });
}

Var MulScalar(const Var& a, float s) {
  return MakeOp(ppn::MulScalar(a->value(), s), {a}, [s](Node* self) {
    MaybeAccumulate(self->parents[0], ppn::MulScalar(self->grad(), s));
  });
}

Var Neg(const Var& a) { return MulScalar(a, -1.0f); }

// Every activation forward and fused backward routes through
// EltwiseUnary/EltwiseBinary and so picks up the dispatched SIMD tables
// (tensor/dispatch.h). Exp/Log/Tanh/Sigmoid are the kernel table's own
// polynomial bodies (vec/kernels_impl.h), not libm: the same bits on every
// path, within 1-2.5 ULP of the true value (DESIGN.md §2.8). Sqrt is
// the correctly rounded square root, the same bits as std::sqrt.

Var Exp(const Var& a) {
  Tensor out = ppn::EltwiseUnary(vec::UnaryOp::kExpFwd, a->value());
  return MakeOp(std::move(out), {a}, [](Node* self) {
    // d exp(x) = exp(x) dx, and self->value() is exp(x).
    MaybeAccumulate(self->parents[0], ppn::Mul(self->grad(), self->value()));
  });
}

Var Log(const Var& a) {
  Tensor out = ppn::EltwiseUnary(vec::UnaryOp::kLogFwd, a->value());
  return MakeOp(std::move(out), {a}, [](Node* self) {
    MaybeAccumulate(self->parents[0],
                    ppn::Div(self->grad(), self->parents[0]->value()));
  });
}

Var Tanh(const Var& a) {
  Tensor out = ppn::EltwiseUnary(vec::UnaryOp::kTanhFwd, a->value());
  return MakeOp(std::move(out), {a}, [](Node* self) {
    Tensor dx =
        ppn::EltwiseBinary(vec::BinaryOp::kTanhBwd, self->grad(), self->value());
    MaybeAccumulate(self->parents[0], dx);
  });
}

Var Sigmoid(const Var& a) {
  Tensor out = ppn::EltwiseUnary(vec::UnaryOp::kSigmoidFwd, a->value());
  return MakeOp(std::move(out), {a}, [](Node* self) {
    Tensor dx = ppn::EltwiseBinary(vec::BinaryOp::kSigmoidBwd, self->grad(),
                                   self->value());
    MaybeAccumulate(self->parents[0], dx);
  });
}

Var Relu(const Var& a) {
  Tensor out = ppn::EltwiseUnary(vec::UnaryOp::kReluFwd, a->value());
  return MakeOp(std::move(out), {a}, [](Node* self) {
    Tensor dx = ppn::EltwiseBinary(vec::BinaryOp::kReluBwd, self->grad(),
                                   self->parents[0]->value());
    MaybeAccumulate(self->parents[0], dx);
  });
}

Var Abs(const Var& a) {
  Tensor out = ppn::EltwiseUnary(vec::UnaryOp::kAbsFwd, a->value());
  return MakeOp(std::move(out), {a}, [](Node* self) {
    Tensor dx = ppn::EltwiseBinary(vec::BinaryOp::kAbsBwd, self->grad(),
                                   self->parents[0]->value());
    MaybeAccumulate(self->parents[0], dx);
  });
}

Var Sqrt(const Var& a) {
  Tensor out = ppn::EltwiseUnary(vec::UnaryOp::kSqrtFwd, a->value());
  return MakeOp(std::move(out), {a}, [](Node* self) {
    Tensor dx = ppn::EltwiseBinary(vec::BinaryOp::kSqrtBwd, self->grad(),
                                   self->value());
    MaybeAccumulate(self->parents[0], dx);
  });
}

Var Clamp(const Var& a, float lo, float hi) {
  PPN_CHECK_LE(lo, hi);
  Tensor out = ppn::EltwiseUnary(vec::UnaryOp::kClampFwd, a->value(), lo, hi);
  return MakeOp(std::move(out), {a}, [lo, hi](Node* self) {
    Tensor dx = ppn::EltwiseBinary(vec::BinaryOp::kClampBwd, self->grad(),
                                   self->parents[0]->value(), lo, hi);
    MaybeAccumulate(self->parents[0], dx);
  });
}

Var MatMul(const Var& a, const Var& b) {
  return MakeOp(ppn::MatMul(a->value(), b->value()), {a, b}, [](Node* self) {
    const Var& a = self->parents[0];
    const Var& b = self->parents[1];
    // dA = dY B^T ; dB = A^T dY.
    if (a->requires_grad()) {
      a->AccumulateGrad(ppn::MatMulTransB(self->grad(), b->value()));
    }
    if (b->requires_grad()) {
      b->AccumulateGrad(ppn::MatMulTransA(a->value(), self->grad()));
    }
  });
}

Var Transpose2D(const Var& a) {
  return MakeOp(ppn::Transpose2D(a->value()), {a}, [](Node* self) {
    MaybeAccumulate(self->parents[0], ppn::Transpose2D(self->grad()));
  });
}

Var AddRowVector(const Var& a, const Var& b) {
  return MakeOp(ppn::AddRowVector(a->value(), b->value()), {a, b},
                [](Node* self) {
                  MaybeAccumulate(self->parents[0], self->grad());
                  MaybeAccumulate(self->parents[1], ppn::SumRows(self->grad()));
                });
}

Var SumAll(const Var& a) {
  Tensor out({1});
  out.MutableData()[0] = static_cast<float>(ppn::SumAll(a->value()));
  return MakeOp(std::move(out), {a}, [](Node* self) {
    const float g = self->grad()[0];
    MaybeAccumulate(self->parents[0],
                    Tensor::Full(self->parents[0]->shape(), g));
  });
}

Var MeanAll(const Var& a) {
  PPN_CHECK_GT(a->numel(), 0);
  return MulScalar(SumAll(a), 1.0f / static_cast<float>(a->numel()));
}

Var BroadcastScalar(const Var& scalar, std::vector<int64_t> shape) {
  PPN_CHECK_EQ(scalar->numel(), 1);
  Tensor out = Tensor::Full(shape, scalar->value()[0]);
  return MakeOp(std::move(out), {scalar}, [](Node* self) {
    Tensor g({1});
    g.MutableData()[0] = static_cast<float>(ppn::SumAll(self->grad()));
    MaybeAccumulate(self->parents[0], g);
  });
}

Var VarianceAll(const Var& a) {
  Var mean = MeanAll(a);
  Var centered = Sub(a, BroadcastScalar(mean, a->shape()));
  return MeanAll(Mul(centered, centered));
}

Var Reshape(const Var& a, std::vector<int64_t> shape) {
  // Reshaped() shares the buffer, which is safe here because ops never
  // mutate their inputs; the node still materializes distinct grad storage.
  Tensor out = a->value().Reshaped(shape);
  return MakeOp(std::move(out), {a}, [](Node* self) {
    MaybeAccumulate(self->parents[0],
                    self->grad().Reshaped(self->parents[0]->shape()));
  });
}

Var ConcatVars(const std::vector<Var>& parts, int axis) {
  PPN_CHECK(!parts.empty());
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const Var& p : parts) values.push_back(p->value());
  Tensor out = ppn::Concat(values, axis);
  const int ndim = parts[0]->value().ndim();
  const int norm_axis = axis < 0 ? axis + ndim : axis;
  return MakeOp(std::move(out), parts, [norm_axis](Node* self) {
    int64_t offset = 0;
    for (const Var& parent : self->parents) {
      const int64_t length = parent->shape()[norm_axis];
      MaybeAccumulate(parent,
                      ppn::Narrow(self->grad(), norm_axis, offset, length));
      offset += length;
    }
  });
}

Var NarrowVar(const Var& a, int axis, int64_t start, int64_t length) {
  Tensor out = ppn::Narrow(a->value(), axis, start, length);
  const int ndim = a->value().ndim();
  const int norm_axis = axis < 0 ? axis + ndim : axis;
  return MakeOp(std::move(out), {a}, [norm_axis, start](Node* self) {
    const Var& parent = self->parents[0];
    if (!parent->requires_grad()) return;
    Tensor padded(parent->shape());
    ppn::NarrowInto(&padded, self->grad(), norm_axis, start);
    parent->AccumulateGrad(padded);
  });
}

Var SoftmaxRows(const Var& a) {
  PPN_CHECK_EQ(a->value().ndim(), 2);
  const int64_t m = a->value().dim(0);
  const int64_t n = a->value().dim(1);
  Tensor out = Tensor::Uninitialized(a->shape());
  const float* pa = a->value().Data();
  float* po = out.MutableData();
  for (int64_t i = 0; i < m; ++i) {
    const float* row = pa + i * n;
    float* out_row = po + i * n;
    float max_value = row[0];
    for (int64_t j = 1; j < n; ++j) max_value = std::max(max_value, row[j]);
    float total = 0.0f;
    for (int64_t j = 0; j < n; ++j) {
      out_row[j] = std::exp(row[j] - max_value);
      total += out_row[j];
    }
    for (int64_t j = 0; j < n; ++j) out_row[j] /= total;
  }
  return MakeOp(std::move(out), {a}, [m, n](Node* self) {
    const Var& parent = self->parents[0];
    if (!parent->requires_grad()) return;
    // dx_j = y_j * (dy_j - sum_k dy_k y_k), per row.
    Tensor dx = Tensor::Uninitialized(parent->shape());
    const float* y = self->value().Data();
    const float* dy = self->grad().Data();
    float* px = dx.MutableData();
    for (int64_t i = 0; i < m; ++i) {
      const float* y_row = y + i * n;
      const float* dy_row = dy + i * n;
      float inner = 0.0f;
      for (int64_t j = 0; j < n; ++j) inner += dy_row[j] * y_row[j];
      float* dx_row = px + i * n;
      for (int64_t j = 0; j < n; ++j) {
        dx_row[j] = y_row[j] * (dy_row[j] - inner);
      }
    }
    parent->AccumulateGrad(dx);
  });
}

namespace {

// Raw kernel: permutes 4-D tensor axes.
Tensor PermuteTensor4(const Tensor& a, const std::array<int, 4>& axes) {
  PPN_CHECK_EQ(a.ndim(), 4);
  bool seen[4] = {false, false, false, false};
  for (const int axis : axes) {
    PPN_CHECK(axis >= 0 && axis < 4);
    PPN_CHECK(!seen[axis]) << "duplicate axis in permutation";
    seen[axis] = true;
  }
  const auto& in_shape = a.shape();
  std::vector<int64_t> out_shape(4);
  for (int i = 0; i < 4; ++i) out_shape[i] = in_shape[axes[i]];
  Tensor out = Tensor::Uninitialized(out_shape);
  // Input strides.
  int64_t in_strides[4];
  in_strides[3] = 1;
  for (int i = 2; i >= 0; --i) in_strides[i] = in_strides[i + 1] * in_shape[i + 1];
  const float* pa = a.Data();
  float* po = out.MutableData();
  int64_t out_index = 0;
  for (int64_t i0 = 0; i0 < out_shape[0]; ++i0) {
    for (int64_t i1 = 0; i1 < out_shape[1]; ++i1) {
      for (int64_t i2 = 0; i2 < out_shape[2]; ++i2) {
        for (int64_t i3 = 0; i3 < out_shape[3]; ++i3) {
          const int64_t out_coord[4] = {i0, i1, i2, i3};
          int64_t in_index = 0;
          for (int d = 0; d < 4; ++d) {
            in_index += out_coord[d] * in_strides[axes[d]];
          }
          po[out_index++] = pa[in_index];
        }
      }
    }
  }
  return out;
}

}  // namespace

Var Permute4(const Var& a, const std::array<int, 4>& axes) {
  Tensor out = PermuteTensor4(a->value(), axes);
  // Inverse permutation for the backward pass.
  std::array<int, 4> inverse{};
  for (int i = 0; i < 4; ++i) inverse[axes[i]] = i;
  return MakeOp(std::move(out), {a}, [inverse](Node* self) {
    MaybeAccumulate(self->parents[0], PermuteTensor4(self->grad(), inverse));
  });
}

Var Dropout(const Var& a, float p, bool training, Rng* rng) {
  PPN_CHECK(p >= 0.0f && p < 1.0f);
  if (!training || p == 0.0f) return a;
  PPN_CHECK(rng != nullptr);
  const float scale = 1.0f / (1.0f - p);
  Tensor mask = Tensor::Uninitialized(a->shape());
  float* pm = mask.MutableData();
  for (int64_t i = 0; i < mask.numel(); ++i) {
    pm[i] = rng->Bernoulli(p) ? 0.0f : scale;
  }
  Tensor out = ppn::Mul(a->value(), mask);
  return MakeOp(std::move(out), {a}, [mask](Node* self) {
    MaybeAccumulate(self->parents[0], ppn::Mul(self->grad(), mask));
  });
}

namespace {

// [d0, d1, d2] -> [d1, d0, d2]: moves whole rows of d2 floats.
Tensor SwapLeadingAxes(const Tensor& a) {
  PPN_CHECK_EQ(a.ndim(), 3);
  const int64_t d0 = a.dim(0);
  const int64_t d1 = a.dim(1);
  const int64_t d2 = a.dim(2);
  Tensor out = Tensor::Uninitialized({d1, d0, d2});
  const float* pa = a.Data();
  float* po = out.MutableData();
  for (int64_t i0 = 0; i0 < d0; ++i0) {
    for (int64_t i1 = 0; i1 < d1; ++i1) {
      std::memcpy(po + (i1 * d0 + i0) * d2, pa + (i0 * d1 + i1) * d2,
                  static_cast<size_t>(d2) * sizeof(float));
    }
  }
  return out;
}

}  // namespace

Var LstmSequence(const Var& x, const Var& w_ih, const Var& w_hh,
                 const Var& bias) {
  PPN_CHECK_EQ(x->value().ndim(), 3);
  const int64_t n = x->value().dim(0);
  const int64_t steps = x->value().dim(1);
  const int64_t in = x->value().dim(2);
  PPN_CHECK_GT(steps, 0);
  PPN_CHECK_EQ(w_hh->value().ndim(), 2);
  const int64_t hidden = w_hh->value().dim(0);
  const int64_t width = 4 * hidden;
  PPN_CHECK(w_ih->shape() == std::vector<int64_t>({in, width}))
      << "LstmSequence: w_ih " << ShapeToString(w_ih->shape());
  PPN_CHECK(w_hh->shape() == std::vector<int64_t>({hidden, width}))
      << "LstmSequence: w_hh " << ShapeToString(w_hh->shape());
  PPN_CHECK(bias->shape() == std::vector<int64_t>({width}))
      << "LstmSequence: bias " << ShapeToString(bias->shape());

  // Recording keeps [T, N, ·] buffers for the backward; otherwise one
  // slot of each is reused and c, h run in place.
  const bool record =
      GradEnabled() && AnyRequiresGrad({x, w_ih, w_hh, bias});
  const int64_t kept = record ? steps : 1;
  const int64_t nh = n * hidden;
  const Tensor x_tm = SwapLeadingAxes(x->value());  // [T, N, I]
  Tensor gates = Tensor::Uninitialized({kept, n, width});
  Tensor cells = Tensor::Uninitialized({kept, n, hidden});
  Tensor tanh_cells = Tensor::Uninitialized({kept, n, hidden});
  // Slot t holds h_{t-1}, the rows dW_hh sums over; slot 0 is h_0 = 0.
  Tensor h_prev(std::vector<int64_t>{kept, n, hidden});
  const Tensor c0(std::vector<int64_t>{n, hidden});
  Tensor h_last = Tensor::Uninitialized({n, hidden});
  Tensor xw = Tensor::Uninitialized({n, width});
  Tensor hw = Tensor::Uninitialized({n, width});

  const vec::KernelTable& kernels = dispatch::Kernels();
  const bool parallel_ok = InnerParallelEnabled();
  for (int64_t t = 0; t < steps; ++t) {
    const int64_t slot = record ? t : 0;
    const float* c_prev =
        t == 0 ? c0.Data() : cells.Data() + (record ? t - 1 : 0) * nh;
    float* h_next = t + 1 < steps
                        ? h_prev.MutableData() + (record ? t + 1 : 0) * nh
                        : h_last.MutableData();
    ppn::MatMulInto(x_tm.Data() + t * n * in, w_ih->value().Data(),
                    xw.MutableData(), n, width, in);
    ppn::MatMulInto(h_prev.Data() + slot * nh, w_hh->value().Data(),
                    hw.MutableData(), n, width, hidden);
    kernels.lstm_cell(xw.Data(), hw.Data(), bias->value().Data(), c_prev,
                      gates.MutableData() + slot * n * width,
                      cells.MutableData() + slot * nh,
                      tanh_cells.MutableData() + slot * nh, h_next, n, hidden,
                      parallel_ok);
  }
  if (!record) return Constant(std::move(h_last));

  return MakeOp(
      std::move(h_last), {x, w_ih, w_hh, bias},
      [x_tm, gates, cells, tanh_cells, h_prev, c0, n, steps, in,
       hidden](Node* self) {
        const Var& x = self->parents[0];
        const Var& w_ih = self->parents[1];
        const Var& w_hh = self->parents[2];
        const Var& bias = self->parents[3];
        const int64_t width = 4 * hidden;
        const int64_t nh = n * hidden;
        // Backpropagation through time: one cell backward per step, and
        // dh_{t-1} = dz_t · w_hh^T between steps. Every step's dz is kept
        // so each weight gradient is ONE GEMM over all T·N rows.
        Tensor dz = Tensor::Uninitialized({steps * n, width});
        Tensor dh = self->grad().Clone();
        Tensor dc(std::vector<int64_t>{n, hidden});
        const Tensor w_hh_t = ppn::Transpose2D(w_hh->value());  // [4H, H]
        const vec::KernelTable& kernels = dispatch::Kernels();
        const bool parallel_ok = InnerParallelEnabled();
        for (int64_t t = steps - 1; t >= 0; --t) {
          const float* c_prev =
              t == 0 ? c0.Data() : cells.Data() + (t - 1) * nh;
          float* dz_t = dz.MutableData() + t * n * width;
          kernels.lstm_cell_bwd(gates.Data() + t * n * width, c_prev,
                                tanh_cells.Data() + t * nh, dh.Data(),
                                dc.MutableData(), dz_t, n, hidden,
                                parallel_ok);
          if (t > 0) {
            ppn::MatMulInto(dz_t, w_hh_t.Data(), dh.MutableData(), n, hidden,
                            width);
          }
        }
        MaybeAccumulate(bias, ppn::SumRows(dz));
        if (w_ih->requires_grad()) {
          w_ih->AccumulateGrad(
              ppn::MatMulTransA(x_tm.Reshaped({steps * n, in}), dz));
        }
        if (w_hh->requires_grad()) {
          w_hh->AccumulateGrad(
              ppn::MatMulTransA(h_prev.Reshaped({steps * n, hidden}), dz));
        }
        if (x->requires_grad()) {
          const Tensor dx_tm = ppn::MatMulTransB(dz, w_ih->value());
          x->AccumulateGrad(
              SwapLeadingAxes(dx_tm.Reshaped({steps, n, in})));
        }
      });
}

Var Conv2d(const Var& input, const Var& weight, const Var& bias,
           const Conv2dGeometry& geometry) {
  PPN_CHECK_EQ(input->value().ndim(), 4);
  PPN_CHECK_EQ(weight->value().ndim(), 4);
  const int64_t batch = input->value().dim(0);
  const int64_t c_in = input->value().dim(1);
  const int64_t h = input->value().dim(2);
  const int64_t w = input->value().dim(3);
  const int64_t c_out = weight->value().dim(0);
  PPN_CHECK_EQ(weight->value().dim(1), c_in);
  PPN_CHECK_EQ(weight->value().dim(2), geometry.kernel_h);
  PPN_CHECK_EQ(weight->value().dim(3), geometry.kernel_w);
  const int64_t out_h = geometry.OutH(h);
  const int64_t out_w = geometry.OutW(w);
  const int64_t patch = c_in * geometry.kernel_h * geometry.kernel_w;
  if (obs::Enabled()) {
    static thread_local obs::Counter& calls =
        obs::GetCounter("nn.conv2d.calls");
    static thread_local obs::Counter& flops =
        obs::GetCounter("nn.conv2d.flops");
    calls.Add(1.0);
    flops.Add(2.0 * static_cast<double>(batch * out_h * out_w) *
              static_cast<double>(patch) * static_cast<double>(c_out));
  }
  obs::Span span("nn.conv2d.forward", /*min_duration_us=*/20.0);
  span.AddArg("batch", static_cast<double>(batch));
  span.AddArg("c_out", static_cast<double>(c_out));

  Tensor columns = Im2Col(input->value(), geometry);  // [B*OH*OW, patch]
  Tensor weight_matrix = weight->value().Reshaped({c_out, patch});
  Tensor out_matrix = ppn::MatMulTransB(columns, weight_matrix);
  if (bias != nullptr) {
    PPN_CHECK_EQ(bias->value().ndim(), 1);
    PPN_CHECK_EQ(bias->value().dim(0), c_out);
    out_matrix = ppn::AddRowVector(out_matrix, bias->value());
  }
  // Rearrange [B*OH*OW, C_out] -> [B, C_out, OH, OW].
  Tensor out = Tensor::Uninitialized({batch, c_out, out_h, out_w});
  {
    const float* pm = out_matrix.Data();
    float* po = out.MutableData();
    // Pure permutation, disjoint per image: safe and bit-identical.
#ifdef _OPENMP
#pragma omp parallel for \
    if (InnerParallelEnabled() && batch * c_out * out_h * out_w > 65536) \
    schedule(static)
#endif
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t oy = 0; oy < out_h; ++oy) {
        for (int64_t ox = 0; ox < out_w; ++ox) {
          const float* row = pm + ((b * out_h + oy) * out_w + ox) * c_out;
          for (int64_t co = 0; co < c_out; ++co) {
            po[((b * c_out + co) * out_h + oy) * out_w + ox] = row[co];
          }
        }
      }
    }
  }

  std::vector<Var> parents = {input, weight};
  if (bias != nullptr) parents.push_back(bias);
  const std::vector<int64_t> input_shape = input->value().shape();
  const bool has_bias = bias != nullptr;
  return MakeOp(
      std::move(out), std::move(parents),
      [columns, geometry, input_shape, batch, c_out, out_h, out_w, patch,
       has_bias](Node* self) {
        const Var& input = self->parents[0];
        const Var& weight = self->parents[1];
        // Inverse rearrangement: grad [B, C_out, OH, OW] -> [B*OH*OW, C_out].
        Tensor grad_matrix =
            Tensor::Uninitialized({batch * out_h * out_w, c_out});
        {
          const float* pg = self->grad().Data();
          float* pm = grad_matrix.MutableData();
          // Pure permutation, disjoint per image: safe and bit-identical.
#ifdef _OPENMP
#pragma omp parallel for \
    if (InnerParallelEnabled() && batch * c_out * out_h * out_w > 65536) \
    schedule(static)
#endif
          for (int64_t b = 0; b < batch; ++b) {
            for (int64_t co = 0; co < c_out; ++co) {
              for (int64_t oy = 0; oy < out_h; ++oy) {
                for (int64_t ox = 0; ox < out_w; ++ox) {
                  pm[((b * out_h + oy) * out_w + ox) * c_out + co] =
                      pg[((b * c_out + co) * out_h + oy) * out_w + ox];
                }
              }
            }
          }
        }
        if (input->requires_grad()) {
          Tensor weight_matrix = weight->value().Reshaped({c_out, patch});
          Tensor grad_columns = ppn::MatMul(grad_matrix, weight_matrix);
          input->AccumulateGrad(
              Col2Im(grad_columns, input_shape, geometry));
        }
        if (weight->requires_grad()) {
          Tensor grad_weight = ppn::MatMulTransA(grad_matrix, columns);
          weight->AccumulateGrad(grad_weight.Reshaped(weight->shape()));
        }
        if (has_bias) {
          const Var& bias = self->parents[2];
          MaybeAccumulate(bias, ppn::SumRows(grad_matrix));
        }
      });
}

}  // namespace ppn::ag
