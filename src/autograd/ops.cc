#include "autograd/ops.h"

#include <cmath>
#include <cstdint>
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

// A temporary delta is handed over, not copied (Node::AccumulateGrad).
void MaybeAccumulate(const Var& parent, Tensor&& delta) {
  if (parent->requires_grad()) parent->AccumulateGrad(std::move(delta));
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
// (tensor/dispatch.h). Log/Tanh/Sigmoid are the kernel table's own
// polynomial bodies (vec/kernels_impl.h), not libm: the same bits on every
// path, within 1-2.5 ULP of the true value (DESIGN.md §2.8).

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
    MaybeAccumulate(self->parents[0], std::move(dx));
  });
}

Var Sigmoid(const Var& a) {
  Tensor out = ppn::EltwiseUnary(vec::UnaryOp::kSigmoidFwd, a->value());
  return MakeOp(std::move(out), {a}, [](Node* self) {
    Tensor dx = ppn::EltwiseBinary(vec::BinaryOp::kSigmoidBwd, self->grad(),
                                   self->value());
    MaybeAccumulate(self->parents[0], std::move(dx));
  });
}

Var Relu(const Var& a) {
  Tensor out = ppn::EltwiseUnary(vec::UnaryOp::kReluFwd, a->value());
  return MakeOp(std::move(out), {a}, [](Node* self) {
    Tensor dx = ppn::EltwiseBinary(vec::BinaryOp::kReluBwd, self->grad(),
                                   self->parents[0]->value());
    MaybeAccumulate(self->parents[0], std::move(dx));
  });
}

Var Abs(const Var& a) {
  Tensor out = ppn::EltwiseUnary(vec::UnaryOp::kAbsFwd, a->value());
  return MakeOp(std::move(out), {a}, [](Node* self) {
    Tensor dx = ppn::EltwiseBinary(vec::BinaryOp::kAbsBwd, self->grad(),
                                   self->parents[0]->value());
    MaybeAccumulate(self->parents[0], std::move(dx));
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
    MaybeAccumulate(self->parents[0], std::move(g));
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
    parent->AccumulateGrad(std::move(padded));
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
    parent->AccumulateGrad(std::move(dx));
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
           const Conv2dGeometry& geometry, const ConvOutputPass& pass) {
  PPN_CHECK(pass.dropout == 0.0f || pass.relu)
      << "conv dropout needs the ReLU: the backward reads the mask off the "
         "output";
  obs::Span span("nn.conv2d.forward", /*min_duration_us=*/20.0);
  // ConvForward checks the rate, the geometry and every shape before any
  // work.
  Tensor out = ConvForward(input->value(), weight->value(),
                           bias != nullptr ? &bias->value() : nullptr,
                           geometry, pass);
  const int64_t rows = out.dim(0) * out.dim(1) * out.dim(2);
  const int64_t c_out = out.dim(3);
  if (obs::Enabled()) {
    static thread_local obs::Counter& calls =
        obs::GetCounter("nn.conv2d.calls");
    static thread_local obs::Counter& flops =
        obs::GetCounter("nn.conv2d.flops");
    calls.Add(1.0);
    const int64_t patch =
        input->value().dim(3) * geometry.kernel_h * geometry.kernel_w;
    flops.Add(2.0 * static_cast<double>(rows) * static_cast<double>(patch) *
              static_cast<double>(c_out));
  }
  span.AddArg("batch", static_cast<double>(out.dim(0)));
  span.AddArg("c_out", static_cast<double>(c_out));

  std::vector<Var> parents = {input, weight};
  if (bias != nullptr) parents.push_back(bias);
  const bool has_bias = bias != nullptr;
  const bool relu = pass.relu;
  // 0 when no mask was drawn: the backward then skips the multiply.
  const float scale = pass.dropout > 0.0f ? 1.0f / (1.0f - pass.dropout) : 0.0f;
  return MakeOp(
      std::move(out), std::move(parents),
      [geometry, rows, c_out, has_bias, relu, scale](Node* self) {
        const Var& input = self->parents[0];
        const Var& weight = self->parents[1];
        // dZ, the gradient of the conv's own output z. Where y > 0 the
        // ReLU passed z·mask > 0, so that mask element was `scale`; where
        // y = 0, dY·0 is a signed zero or NaN, and multiplying it by scale
        // or by the mask's +0 keeps it (the mask is never negative). So
        // today's (dY·[z·mask > 0])·mask is (dY·[y > 0])·scale.
        Tensor relu_grad;
        if (relu) {
          relu_grad =
              scale != 0.0f
                  ? ppn::EltwiseBinary(vec::BinaryOp::kReluScaleBwd,
                                       self->grad(), self->value(), scale)
                  : ppn::EltwiseBinary(vec::BinaryOp::kReluBwd, self->grad(),
                                       self->value());
        }
        const Tensor& dz = relu ? relu_grad : self->grad();
        if (input->requires_grad()) {
          input->AccumulateGrad(ConvInputGrad(dz, weight->value(),
                                              input->shape(), geometry));
        }
        if (weight->requires_grad()) {
          weight->AccumulateGrad(ConvWeightGrad(input->value(), dz, geometry));
        }
        if (has_bias) {
          MaybeAccumulate(self->parents[2],
                          ppn::SumRows(dz.Reshaped({rows, c_out})));
        }
      });
}

}  // namespace ppn::ag
