#include "tensor/ops.h"

#include <bit>
#include <cmath>
#include <cstring>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/check.h"
#include "common/parallel.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "tensor/dispatch.h"

namespace ppn {

namespace {

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  PPN_CHECK(SameShape(a, b)) << op << ": shape mismatch "
                             << ShapeToString(a.shape()) << " vs "
                             << ShapeToString(b.shape());
}

/// Shared by the three matmul variants: one call, 2·m·n·k FLOPs.
inline void RecordMatMul(int64_t m, int64_t n, int64_t k) {
  if (obs::Enabled()) {
    static thread_local obs::Counter& calls =
        obs::GetCounter("tensor.matmul.calls");
    static thread_local obs::Counter& flops =
        obs::GetCounter("tensor.matmul.flops");
    calls.Add(1.0);
    flops.Add(2.0 * static_cast<double>(m) * static_cast<double>(n) *
              static_cast<double>(k));
  }
}

// ---------------------------------------------------------------------------
// The kernel bodies live in src/tensor/vec/ (one instantiation per ISA,
// selected at runtime by tensor/dispatch.{h,cc} — CPUID + PPN_SIMD).
// All variants keep ONE float accumulator per output element that sums
// its k terms in ascending order — the exact summation order of the
// naive i/p/j loops — so register blocking, SIMD over j (lanes are
// distinct output elements), and OpenMP over row blocks are all
// bit-identical to the reference kernels AND across dispatch paths. Do
// not introduce per-element partial sums (k-splitting); see DESIGN.md
// §2.4 and §2.8.
// ---------------------------------------------------------------------------

}  // namespace

Tensor EltwiseUnary(vec::UnaryOp op, const Tensor& a, float p0) {
  Tensor out = Tensor::Uninitialized(a.shape());
  dispatch::Kernels().unary(op, a.Data(), out.MutableData(), a.numel(), p0);
  return out;
}

Tensor EltwiseBinary(vec::BinaryOp op, const Tensor& a, const Tensor& b,
                     float p0) {
  CheckSameShape(a, b, "EltwiseBinary");
  Tensor out = Tensor::Uninitialized(a.shape());
  dispatch::Kernels().binary(op, a.Data(), b.Data(), out.MutableData(),
                             a.numel(), p0);
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Add");
  return EltwiseBinary(vec::BinaryOp::kAdd, a, b);
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Sub");
  return EltwiseBinary(vec::BinaryOp::kSub, a, b);
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Mul");
  return EltwiseBinary(vec::BinaryOp::kMul, a, b);
}

Tensor Div(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Div");
  return EltwiseBinary(vec::BinaryOp::kDiv, a, b);
}

Tensor AddScalar(const Tensor& a, float s) {
  return EltwiseUnary(vec::UnaryOp::kAddScalar, a, s);
}

Tensor MulScalar(const Tensor& a, float s) {
  return EltwiseUnary(vec::UnaryOp::kMulScalar, a, s);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  PPN_CHECK_EQ(a.ndim(), 2);
  PPN_CHECK_EQ(b.ndim(), 2);
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  const int64_t n = b.dim(1);
  PPN_CHECK_EQ(k, b.dim(0)) << "MatMul inner dims " << ShapeToString(a.shape())
                            << " x " << ShapeToString(b.shape());
  Tensor out = Tensor::Uninitialized({m, n});
  MatMulInto(a.Data(), b.Data(), out.MutableData(), m, n, k);
  return out;
}

void MatMulInto(const float* a, const float* b, float* out, int64_t m,
                int64_t n, int64_t k) {
  RecordMatMul(m, n, k);
  // Matmuls run at very high frequency; only trace the ones big enough to
  // show up on a timeline.
  obs::Span span("tensor.matmul", /*min_duration_us=*/20.0);
  span.AddArg("m", static_cast<double>(m));
  span.AddArg("n", static_cast<double>(n));
  span.AddArg("k", static_cast<double>(k));
  dispatch::Kernels().matmul(a, k, b, n, out, m, n, k, InnerParallelEnabled());
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  PPN_CHECK_EQ(a.ndim(), 2);
  PPN_CHECK_EQ(b.ndim(), 2);
  const int64_t k = a.dim(0);
  const int64_t m = a.dim(1);
  const int64_t n = b.dim(1);
  PPN_CHECK_EQ(k, b.dim(0));
  RecordMatMul(m, n, k);
  obs::Span span("tensor.matmul_ta", /*min_duration_us=*/20.0);
  Tensor out = Tensor::Uninitialized({m, n});
  // a is [k, m]: A(i,p) = a[p*m + i], contiguous across the register
  // block's i dimension.
  dispatch::Kernels().matmul_ta(a.Data(), m, b.Data(), n, out.MutableData(), m,
                                n, k, InnerParallelEnabled());
  return out;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  PPN_CHECK_EQ(a.ndim(), 2);
  PPN_CHECK_EQ(b.ndim(), 2);
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  const int64_t n = b.dim(0);
  PPN_CHECK_EQ(k, b.dim(1));
  RecordMatMul(m, n, k);
  obs::Span span("tensor.matmul_tb", /*min_duration_us=*/20.0);
  // B's rows are the dot-product operands here, so the j-contiguous
  // blocked kernel needs B^T. The transpose costs n*k against the m*n*k
  // multiply: a clear win whenever several output rows amortize it. For
  // very short outputs fall back to direct row dots (same ascending-p
  // order — and the fallback is shared by every dispatch path, so all
  // paths stay bit-identical to the naive kernel).
  if (m >= 4) {
    Tensor bt = Transpose2D(b);  // [k, n]
    Tensor out = Tensor::Uninitialized({m, n});
    dispatch::Kernels().matmul(a.Data(), k, bt.Data(), n, out.MutableData(), m,
                               n, k, InnerParallelEnabled());
    return out;
  }
  Tensor out = Tensor::Uninitialized({m, n});
  const float* pa = a.Data();
  const float* pb = b.Data();
  float* po = out.MutableData();
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = pa + i * k;
    float* out_row = po + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* b_row = pb + j * k;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
      out_row[j] = acc;
    }
  }
  return out;
}

Tensor Transpose2D(const Tensor& a) {
  PPN_CHECK_EQ(a.ndim(), 2);
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  Tensor out = Tensor::Uninitialized({n, m});
  const float* pa = a.Data();
  float* po = out.MutableData();
  // Tiled to keep both the source rows and the destination rows in cache
  // for large matrices (pure data movement: no float ops to reorder).
  constexpr int64_t kTile = 32;
  for (int64_t i0 = 0; i0 < m; i0 += kTile) {
    const int64_t i_end = i0 + kTile < m ? i0 + kTile : m;
    for (int64_t j0 = 0; j0 < n; j0 += kTile) {
      const int64_t j_end = j0 + kTile < n ? j0 + kTile : n;
      for (int64_t i = i0; i < i_end; ++i) {
        for (int64_t j = j0; j < j_end; ++j) po[j * m + i] = pa[i * n + j];
      }
    }
  }
  return out;
}

double SumAll(const Tensor& a) {
  // One double accumulator over the flat array. NOT dispatched: a
  // vectorized version would split the accumulator across lanes and
  // change the summation order (and therefore the bits).
  double total = 0.0;
  const float* pa = a.Data();
  for (int64_t i = 0; i < a.numel(); ++i) total += pa[i];
  return total;
}

double MeanAll(const Tensor& a) {
  PPN_CHECK_GT(a.numel(), 0);
  return SumAll(a) / static_cast<double>(a.numel());
}

Tensor SumRows(const Tensor& a) {
  PPN_CHECK_EQ(a.ndim(), 2);
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  // The kernel writes every output column exactly once (per-column
  // register accumulators), so no zero init is needed.
  Tensor out = Tensor::Uninitialized({n});
  dispatch::Kernels().sum_rows(a.Data(), out.MutableData(), m, n);
  return out;
}

Tensor AddRowVector(const Tensor& a, const Tensor& b) {
  PPN_CHECK_EQ(a.ndim(), 2);
  PPN_CHECK_EQ(b.ndim(), 1);
  PPN_CHECK_EQ(a.dim(1), b.dim(0));
  Tensor out = Tensor::Uninitialized(a.shape());
  dispatch::Kernels().add_row_vector(a.Data(), b.Data(), out.MutableData(),
                                     a.dim(0), a.dim(1));
  return out;
}

namespace {

// Computes the product of dims before `axis` (outer), the dim at `axis`,
// and the product of dims after (inner).
void AxisSplit(const std::vector<int64_t>& shape, int axis, int64_t* outer,
               int64_t* axis_len, int64_t* inner) {
  *outer = 1;
  *inner = 1;
  for (int i = 0; i < axis; ++i) *outer *= shape[i];
  *axis_len = shape[axis];
  for (size_t i = axis + 1; i < shape.size(); ++i) *inner *= shape[i];
}

int NormalizeAxis(int axis, int ndim) {
  if (axis < 0) axis += ndim;
  PPN_CHECK(axis >= 0 && axis < ndim) << "axis out of range";
  return axis;
}

inline void CopyFloats(float* dst, const float* src, int64_t count) {
  if (count > 0) {
    std::memcpy(dst, src, static_cast<size_t>(count) * sizeof(float));
  }
}

}  // namespace

Tensor Concat(const std::vector<Tensor>& parts, int axis) {
  PPN_CHECK(!parts.empty());
  const int ndim = parts[0].ndim();
  axis = NormalizeAxis(axis, ndim);
  std::vector<int64_t> out_shape = parts[0].shape();
  int64_t total_axis = 0;
  for (const Tensor& part : parts) {
    PPN_CHECK_EQ(part.ndim(), ndim);
    for (int d = 0; d < ndim; ++d) {
      if (d != axis) {
        PPN_CHECK_EQ(part.shape()[d], out_shape[d])
            << "Concat: incompatible shapes along non-concat axis " << d;
      }
    }
    total_axis += part.shape()[axis];
  }
  out_shape[axis] = total_axis;
  // Every element is written exactly once below: one memcpy per part per
  // outer slice, directly into place (the seed zero-filled the output and
  // then copied each part a second time through NarrowInto).
  Tensor out = Tensor::Uninitialized(out_shape);
  int64_t outer;
  int64_t axis_len;
  int64_t inner;
  AxisSplit(out_shape, axis, &outer, &axis_len, &inner);
  float* po = out.MutableData();
  int64_t offset = 0;
  for (const Tensor& part : parts) {
    const int64_t part_axis = part.shape()[axis];
    const int64_t row = part_axis * inner;
    const float* ps = part.Data();
    for (int64_t o = 0; o < outer; ++o) {
      CopyFloats(po + (o * axis_len + offset) * inner, ps + o * row, row);
    }
    offset += part_axis;
  }
  return out;
}

Tensor Narrow(const Tensor& a, int axis, int64_t start, int64_t length) {
  axis = NormalizeAxis(axis, a.ndim());
  PPN_CHECK(start >= 0 && length >= 0 && start + length <= a.shape()[axis])
      << "Narrow out of range: start=" << start << " length=" << length
      << " dim=" << a.shape()[axis];
  std::vector<int64_t> out_shape = a.shape();
  out_shape[axis] = length;
  Tensor out = Tensor::Uninitialized(out_shape);
  int64_t outer;
  int64_t axis_len;
  int64_t inner;
  AxisSplit(a.shape(), axis, &outer, &axis_len, &inner);
  const float* pa = a.Data();
  float* po = out.MutableData();
  for (int64_t o = 0; o < outer; ++o) {
    CopyFloats(po + o * length * inner, pa + (o * axis_len + start) * inner,
               length * inner);
  }
  return out;
}

void NarrowInto(Tensor* dst, const Tensor& src, int axis, int64_t start) {
  axis = NormalizeAxis(axis, dst->ndim());
  PPN_CHECK_EQ(src.ndim(), dst->ndim());
  for (int d = 0; d < dst->ndim(); ++d) {
    if (d != axis) {
      PPN_CHECK_EQ(src.shape()[d], dst->shape()[d]);
    }
  }
  const int64_t length = src.shape()[axis];
  PPN_CHECK(start >= 0 && start + length <= dst->shape()[axis]);
  int64_t outer;
  int64_t axis_len;
  int64_t inner;
  AxisSplit(dst->shape(), axis, &outer, &axis_len, &inner);
  const float* ps = src.Data();
  float* pd = dst->MutableData();
  for (int64_t o = 0; o < outer; ++o) {
    CopyFloats(pd + (o * axis_len + start) * inner, ps + o * length * inner,
               length * inner);
  }
}

Tensor RandomUniform(std::vector<int64_t> shape, float lo, float hi,
                     Rng* rng) {
  PPN_CHECK(rng != nullptr);
  Tensor out = Tensor::Uninitialized(std::move(shape));
  float* po = out.MutableData();
  for (int64_t i = 0; i < out.numel(); ++i) {
    po[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return out;
}

Tensor RandomNormal(std::vector<int64_t> shape, float mean, float stddev,
                    Rng* rng) {
  PPN_CHECK(rng != nullptr);
  Tensor out = Tensor::Uninitialized(std::move(shape));
  float* po = out.MutableData();
  for (int64_t i = 0; i < out.numel(); ++i) {
    po[i] = static_cast<float>(rng->Normal(mean, stddev));
  }
  return out;
}

Tensor DropoutMask(const std::vector<int64_t>& shape, float p, Rng* rng) {
  PPN_CHECK(p >= 0.0f && p < 1.0f) << "dropout rate must be in [0, 1):" << p;
  PPN_CHECK(rng != nullptr);
  // Element i is dropped iff draw i has Uniform() < p, as Rng::Bernoulli
  // decides. Uniform() is q·2^-53 for the integer q = u >> 11, exact in
  // double, so the test is q < ceil(p·2^53), which is exact too. The mask
  // element is `scale`'s bits ANDed with all ones or all zeros (+0.0f):
  // no branch on the draw.
  const uint64_t threshold =
      static_cast<uint64_t>(std::ceil(static_cast<double>(p) * 0x1.0p53));
  const uint32_t scale_bits = std::bit_cast<uint32_t>(1.0f / (1.0f - p));
  Tensor mask = Tensor::Uninitialized(shape);
  float* pm = mask.MutableData();
  const int64_t n = mask.numel();
  const Rng start = *rng;
  // Draws elements [begin, end) from the stream's draw `begin` on, and
  // stores the stream's state after them in `*end_state` when non-null.
  const auto draw = [&](int64_t begin, int64_t end, Rng* end_state) {
    Rng jumped = start;
    jumped.Discard(static_cast<uint64_t>(begin));
    Rng stream = jumped;  // never address-taken, so it stays in registers
    for (int64_t i = begin; i < end; ++i) {
      const uint32_t keep = (stream.NextUint64() >> 11) >= threshold;
      pm[i] = std::bit_cast<float>(scale_bits & (0u - keep));
    }
    if (end_state != nullptr) *end_state = stream;
  };
#ifdef _OPENMP
  // Below this many elements a mask is drawn on one thread: a jump costs
  // about 2 µs, what ~1k draws do, plus the team's start-up.
  constexpr int64_t kParallelMaskDraws = 32768;
  if (InnerParallelEnabled() && n >= kParallelMaskDraws &&
      omp_get_max_threads() > 1) {
#pragma omp parallel
    {
      const int64_t t = omp_get_thread_num();
      const int64_t threads = omp_get_num_threads();
      // The last chunk ends at draw n, where the serial loop ends.
      draw(n * t / threads, n * (t + 1) / threads,
           t == threads - 1 ? rng : nullptr);
    }
    return mask;
  }
#endif
  draw(0, n, rng);
  return mask;
}

namespace {

// Checks a conv's geometry and shapes, each with a named message, and
// returns its kernel arguments without the implicit-column view.
vec::ConvArgs CheckConv(const std::vector<int64_t>& input_shape,
                        const std::vector<int64_t>& weight_shape,
                        const Conv2dGeometry& g) {
  PPN_CHECK(g.kernel_h >= 1 && g.kernel_w >= 1 && g.dilation_h >= 1 &&
            g.dilation_w >= 1)
      << "conv kernel and dilation must be >= 1: kernel_h" << g.kernel_h
      << "kernel_w" << g.kernel_w << "dilation_h" << g.dilation_h
      << "dilation_w" << g.dilation_w;
  PPN_CHECK(g.pad_top >= 0 && g.pad_bottom >= 0 && g.pad_left >= 0 &&
            g.pad_right >= 0)
      << "conv pads must be >= 0: pad_top" << g.pad_top << "pad_bottom"
      << g.pad_bottom << "pad_left" << g.pad_left << "pad_right"
      << g.pad_right;
  PPN_CHECK(input_shape.size() == 4 && weight_shape.size() == 4 &&
            weight_shape[1] == input_shape[3] &&
            weight_shape[2] == g.kernel_h && weight_shape[3] == g.kernel_w)
      << "conv weight" << ShapeToString(weight_shape)
      << "does not match input" << ShapeToString(input_shape)
      << "and kernel_h" << g.kernel_h << "kernel_w" << g.kernel_w
      << "(want input [N, H, W, C_in], weight [C_out, C_in, kernel_h, "
         "kernel_w])";
  vec::ConvArgs args{};
  args.n = input_shape[0];
  args.h = input_shape[1];
  args.w = input_shape[2];
  args.c = input_shape[3];
  args.out_h = g.OutH(args.h);
  args.out_w = g.OutW(args.w);
  args.c_out = weight_shape[0];
  PPN_CHECK(args.out_h > 0 && args.out_w > 0)
      << "conv output is empty for input" << ShapeToString(input_shape)
      << "and this geometry: out_h" << args.out_h << "out_w" << args.out_w;
  args.kernel_h = g.kernel_h;
  args.kernel_w = g.kernel_w;
  args.dilation_h = g.dilation_h;
  args.dilation_w = g.dilation_w;
  args.pad_top = g.pad_top;
  args.pad_left = g.pad_left;
  return args;
}

// Orders of a conv's patch entries p. The forward sums over p, so it keeps
// the column matrix's (channel, ky, kx) order. The weight gradient only
// places its results by p: tap-major (ky, kx, channel) puts adjacent
// channels of one tap, one run of the channels-last input, in a tile.
enum class PatchOrder { kChannelMajor, kTapMajor };

// The implicit-column view of a conv over `input` (vec::ConvArgs): the
// input itself, or its zero-padded copy [N, H + pad_top + pad_bottom,
// W + pad_left + pad_right, C] when the geometry pads, a base offset per
// output row and an offset per patch entry in `order`.
struct ColumnView {
  vec::ConvArgs shape;
  Tensor columns;
  std::vector<int64_t> row;
  std::vector<int64_t> tap;

  // Kernel arguments pointing into this view.
  vec::ConvArgs Args() const {
    vec::ConvArgs args = shape;
    args.columns = columns.Data();
    args.row = row.data();
    args.tap = tap.data();
    return args;
  }
};

ColumnView MakeColumnView(const Tensor& input, const vec::ConvArgs& args,
                          const Conv2dGeometry& g, PatchOrder order) {
  ColumnView view;
  view.shape = args;
  const int64_t padded_h = args.h + g.pad_top + g.pad_bottom;
  const int64_t padded_w = args.w + g.pad_left + g.pad_right;
  if (padded_h == args.h && padded_w == args.w) {
    view.columns = input;
  } else {
    view.columns = Tensor({args.n, padded_h, padded_w, args.c});
    const int64_t row_floats = args.w * args.c;
    for (int64_t b = 0; b < args.n; ++b) {
      for (int64_t y = 0; y < args.h; ++y) {
        CopyFloats(view.columns.MutableData() +
                       ((b * padded_h + y + g.pad_top) * padded_w +
                        g.pad_left) *
                           args.c,
                   input.Data() + (b * args.h + y) * row_floats, row_floats);
      }
    }
  }
  view.row.reserve(static_cast<size_t>(args.n * args.out_h * args.out_w));
  for (int64_t b = 0; b < args.n; ++b) {
    for (int64_t oy = 0; oy < args.out_h; ++oy) {
      for (int64_t ox = 0; ox < args.out_w; ++ox) {
        view.row.push_back(((b * padded_h + oy) * padded_w + ox) * args.c);
      }
    }
  }
  const int64_t taps = g.kernel_h * g.kernel_w;
  view.tap.resize(static_cast<size_t>(args.c * taps));
  for (int64_t ch = 0; ch < args.c; ++ch) {
    for (int64_t ky = 0; ky < g.kernel_h; ++ky) {
      for (int64_t kx = 0; kx < g.kernel_w; ++kx) {
        const int64_t t = ky * g.kernel_w + kx;
        const int64_t p =
            order == PatchOrder::kChannelMajor ? ch * taps + t : t * args.c + ch;
        view.tap[static_cast<size_t>(p)] =
            (ky * g.dilation_h * padded_w + kx * g.dilation_w) * args.c + ch;
      }
    }
  }
  return view;
}

}  // namespace

Tensor ConvForward(const Tensor& input, const Tensor& weight,
                   const Tensor* bias, const Conv2dGeometry& g,
                   const ConvOutputPass& pass) {
  const vec::ConvArgs args = CheckConv(input.shape(), weight.shape(), g);
  if (bias != nullptr) {
    PPN_CHECK(bias->ndim() == 1 && bias->dim(0) == args.c_out)
        << "conv bias" << ShapeToString(bias->shape())
        << "does not match weight" << ShapeToString(weight.shape());
  }
  PPN_CHECK(pass.dropout >= 0.0f && pass.dropout < 1.0f)
      << "dropout rate must be in [0, 1):" << pass.dropout;
  const int64_t rows = args.n * args.out_h * args.out_w;
  const int64_t patch = args.c * g.kernel_h * g.kernel_w;
  const std::vector<int64_t> out_shape = {args.n, args.out_h, args.out_w,
                                          args.c_out};
  // Nothing else draws from `pass.rng` here, so drawing the mask before
  // the GEMM leaves the stream as a Dropout after the conv did.
  const Tensor mask = pass.dropout > 0.0f
                          ? DropoutMask(out_shape, pass.dropout, pass.rng)
                          : Tensor();
  RecordMatMul(rows, args.c_out, patch);
  obs::Span span("tensor.conv.forward", /*min_duration_us=*/20.0);
  const ColumnView view =
      MakeColumnView(input, args, g, PatchOrder::kChannelMajor);
  const Tensor weight_t = Transpose2D(weight.Reshaped({args.c_out, patch}));
  Tensor out = Tensor::Uninitialized(out_shape);
  const vec::ConvStore store{bias != nullptr ? bias->Data() : nullptr,
                             pass.dropout > 0.0f ? mask.Data() : nullptr,
                             pass.relu};
  dispatch::Kernels().conv_forward(view.Args(), weight_t.Data(), store,
                                   out.MutableData(), InnerParallelEnabled());
  return out;
}

Tensor ConvInputGrad(const Tensor& grad, const Tensor& weight,
                     const std::vector<int64_t>& input_shape,
                     const Conv2dGeometry& g) {
  const vec::ConvArgs args = CheckConv(input_shape, weight.shape(), g);
  PPN_CHECK(grad.shape() == std::vector<int64_t>({args.n, args.out_h,
                                                  args.out_w, args.c_out}))
      << "conv output gradient" << ShapeToString(grad.shape())
      << "does not match the output of input" << ShapeToString(input_shape);
  const int64_t taps = g.kernel_h * g.kernel_w;
  RecordMatMul(args.n * args.out_h * args.out_w, args.c * taps, args.c_out);
  obs::Span span("tensor.conv.input_grad", /*min_duration_us=*/20.0);
  // [C_out, C_in, kh, kw] -> [kh·kw, C_out, C_in]: each tap's filter rows
  // with channels contiguous, the gather's lanes.
  Tensor weight_taps = Tensor::Uninitialized({taps, args.c_out, args.c});
  const float* pw = weight.Data();
  float* pt = weight_taps.MutableData();
  for (int64_t o = 0; o < args.c_out; ++o) {
    for (int64_t ch = 0; ch < args.c; ++ch) {
      for (int64_t t = 0; t < taps; ++t) {
        pt[(t * args.c_out + o) * args.c + ch] =
            pw[(o * args.c + ch) * taps + t];
      }
    }
  }
  Tensor dx = Tensor::Uninitialized(input_shape);
  dispatch::Kernels().conv_input_grad(args, grad.Data(), weight_taps.Data(),
                                      dx.MutableData(),
                                      InnerParallelEnabled());
  return dx;
}

Tensor ConvWeightGrad(const Tensor& input, const Tensor& grad,
                      const Conv2dGeometry& g) {
  PPN_CHECK_EQ(grad.ndim(), 4);
  const int64_t c_out = grad.dim(3);
  const int64_t c_in = input.ndim() == 4 ? input.dim(3) : 0;
  const vec::ConvArgs args = CheckConv(
      input.shape(), {c_out, c_in, g.kernel_h, g.kernel_w}, g);
  PPN_CHECK(grad.shape() == std::vector<int64_t>({args.n, args.out_h,
                                                  args.out_w, args.c_out}))
      << "conv output gradient" << ShapeToString(grad.shape())
      << "does not match the output of input" << ShapeToString(input.shape());
  const int64_t rows = args.n * args.out_h * args.out_w;
  const int64_t patch = args.c * g.kernel_h * g.kernel_w;
  RecordMatMul(c_out, patch, rows);
  obs::Span span("tensor.conv.weight_grad", /*min_duration_us=*/20.0);
  const ColumnView view = MakeColumnView(input, args, g, PatchOrder::kTapMajor);
  // dW^T [kh·kw·C_in, C_out], patch entries tap-major: one tile row per
  // patch entry, so every thread gets work even when C_out is 8.
  Tensor tap_grad = Tensor::Uninitialized({patch, c_out});
  dispatch::Kernels().conv_weight_grad(view.Args(), grad.Data(),
                                       tap_grad.MutableData(),
                                       InnerParallelEnabled());
  // [kh·kw, C_in, C_out] -> [C_out, C_in, kh, kw].
  const int64_t taps = g.kernel_h * g.kernel_w;
  Tensor weight_grad =
      Tensor::Uninitialized({c_out, args.c, g.kernel_h, g.kernel_w});
  const float* pt = tap_grad.Data();
  float* pw = weight_grad.MutableData();
  for (int64_t o = 0; o < c_out; ++o) {
    for (int64_t ch = 0; ch < args.c; ++ch) {
      for (int64_t t = 0; t < taps; ++t) {
        pw[(o * args.c + ch) * taps + t] = pt[(t * args.c + ch) * c_out + o];
      }
    }
  }
  return weight_grad;
}

}  // namespace ppn
