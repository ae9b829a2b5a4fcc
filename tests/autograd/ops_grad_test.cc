#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <gtest/gtest.h>

#include "../tensor/for_each_path.h"
#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "nn/conv.h"
#include "tensor/ops.h"

namespace ppn::ag {
namespace {

// Every differentiable op is verified against central finite differences.
// Inputs are kept away from non-smooth points (|x| for Abs, kinks for Relu
// and Clamp) by construction.

struct GradCase {
  std::string name;
  ScalarGraphFn fn;
  std::vector<Tensor> inputs;
  double tolerance = 2e-2;
};

class OpGradTest : public ::testing::TestWithParam<GradCase> {};

TEST_P(OpGradTest, MatchesFiniteDifferences) {
  const GradCase& test_case = GetParam();
  const GradCheckResult result =
      CheckGradients(test_case.fn, test_case.inputs);
  EXPECT_LT(result.max_rel_error, test_case.tolerance)
      << test_case.name << " abs_err=" << result.max_abs_error;
}

Tensor SmallTensor() { return Tensor({2, 3}, {0.5f, -1.2f, 2.0f, 0.8f, -0.4f, 1.5f}); }
Tensor PositiveTensor() { return Tensor({2, 3}, {0.5f, 1.2f, 2.0f, 0.8f, 0.4f, 1.5f}); }

std::vector<GradCase> MakeCases() {
  std::vector<GradCase> cases;
  auto add_case = [&](std::string name, ScalarGraphFn fn,
                      std::vector<Tensor> inputs, double tol = 2e-2) {
    cases.push_back({std::move(name), std::move(fn), std::move(inputs), tol});
  };

  add_case("Add", [](const std::vector<Var>& in) {
    return SumAll(Add(in[0], in[1]));
  }, {SmallTensor(), PositiveTensor()});

  add_case("Sub", [](const std::vector<Var>& in) {
    return SumAll(Mul(Sub(in[0], in[1]), in[0]));
  }, {SmallTensor(), PositiveTensor()});

  add_case("Mul", [](const std::vector<Var>& in) {
    return SumAll(Mul(in[0], in[1]));
  }, {SmallTensor(), PositiveTensor()});

  add_case("AddScalar", [](const std::vector<Var>& in) {
    return SumAll(Mul(AddScalar(in[0], 2.0f), in[0]));
  }, {SmallTensor()});

  add_case("MulScalar", [](const std::vector<Var>& in) {
    return SumAll(Mul(MulScalar(in[0], -1.5f), in[0]));
  }, {SmallTensor()});

  add_case("Neg", [](const std::vector<Var>& in) {
    return SumAll(Mul(Neg(in[0]), in[0]));
  }, {SmallTensor()});

  add_case("Log", [](const std::vector<Var>& in) {
    return SumAll(Log(in[0]));
  }, {PositiveTensor()});

  add_case("Tanh", [](const std::vector<Var>& in) {
    return SumAll(Tanh(in[0]));
  }, {SmallTensor()});

  add_case("Sigmoid", [](const std::vector<Var>& in) {
    return SumAll(Sigmoid(in[0]));
  }, {SmallTensor()});

  // Relu inputs are away from 0 so finite differences are valid.
  add_case("Relu", [](const std::vector<Var>& in) {
    return SumAll(Relu(in[0]));
  }, {SmallTensor()});

  add_case("Abs", [](const std::vector<Var>& in) {
    return SumAll(Abs(in[0]));
  }, {SmallTensor()});

  add_case("MatMul", [](const std::vector<Var>& in) {
    return SumAll(MatMul(in[0], in[1]));
  }, {Tensor({2, 3}, {0.5f, -1.0f, 2.0f, 1.0f, 0.3f, -0.7f}),
      Tensor({3, 2}, {1.0f, 2.0f, -0.5f, 0.8f, 0.2f, -1.1f})});

  add_case("MatMulChained", [](const std::vector<Var>& in) {
    return SumAll(Mul(MatMul(in[0], in[1]), MatMul(in[0], in[1])));
  }, {Tensor({2, 2}, {0.5f, -1.0f, 2.0f, 1.0f}),
      Tensor({2, 2}, {1.0f, 2.0f, -0.5f, 0.8f})});

  add_case("AddRowVector", [](const std::vector<Var>& in) {
    return SumAll(Mul(AddRowVector(in[0], in[1]), in[0]));
  }, {SmallTensor(), Tensor({3}, {0.1f, -0.2f, 0.3f})});

  add_case("MeanAll", [](const std::vector<Var>& in) {
    return MeanAll(Mul(in[0], in[0]));
  }, {SmallTensor()});

  add_case("BroadcastScalar", [](const std::vector<Var>& in) {
    Var mean = MeanAll(in[0]);
    return SumAll(Mul(BroadcastScalar(mean, in[0]->shape()), in[0]));
  }, {SmallTensor()});

  add_case("VarianceAll", [](const std::vector<Var>& in) {
    return VarianceAll(in[0]);
  }, {SmallTensor()});

  add_case("Reshape", [](const std::vector<Var>& in) {
    Var r = Reshape(in[0], {3, 2});
    return SumAll(Mul(r, r));
  }, {SmallTensor()});

  add_case("Concat", [](const std::vector<Var>& in) {
    Var c = ConcatVars({in[0], in[1]}, 1);
    return SumAll(Mul(c, c));
  }, {SmallTensor(), PositiveTensor()});

  add_case("Narrow", [](const std::vector<Var>& in) {
    Var n = NarrowVar(in[0], 1, 1, 2);
    return SumAll(Mul(n, n));
  }, {SmallTensor()});

  add_case("SoftmaxRows", [](const std::vector<Var>& in) {
    Var s = SoftmaxRows(in[0]);
    // Weighted sum to give every output a distinct weight.
    return SumAll(Mul(s, Constant(Tensor({2, 3}, {1, 2, 3, 4, 5, 6}))));
  }, {SmallTensor()});

  // Conv2d on channels-last inputs [N, H, W, C]: plain, causal-padded,
  // and dilated geometries.
  {
    Conv2dGeometry plain;
    plain.kernel_h = 1;
    plain.kernel_w = 3;
    add_case("Conv2dValid", [plain](const std::vector<Var>& in) {
      Var y = Conv2d(in[0], in[1], in[2], plain);
      return SumAll(Mul(y, y));
    }, {Tensor({1, 2, 5, 2}, {0.1f, 0.7f, 0.4f, 0.2f, -0.2f,
                              -0.5f, 0.3f, 0.4f, 0.5f, -0.6f,
                              0.2f, 0.3f, -0.1f, 0.1f, 0.6f,
                              0.2f, -0.3f, -0.4f, 0.1f, 0.5f}),
        Tensor({3, 2, 1, 3}, {0.5f, -0.2f, 0.1f, 0.3f, 0.2f, -0.4f,
                              0.1f, 0.6f, -0.3f, 0.2f, -0.1f, 0.5f,
                              -0.2f, 0.3f, 0.4f, 0.1f, -0.5f, 0.2f}),
        Tensor({3}, {0.1f, -0.1f, 0.2f})});
  }
  {
    Conv2dGeometry causal;
    causal.kernel_w = 3;
    causal.dilation_w = 2;
    causal.pad_left = 4;
    add_case("Conv2dCausalDilated", [causal](const std::vector<Var>& in) {
      Var y = Conv2d(in[0], in[1], in[2], causal);
      return SumAll(Mul(y, y));
    }, {Tensor({1, 1, 6, 1}, {0.1f, 0.4f, -0.2f, 0.3f, 0.5f, -0.1f}),
        Tensor({2, 1, 1, 3}, {0.5f, -0.2f, 0.1f, 0.3f, 0.2f, -0.4f}),
        Tensor({2}, {0.05f, -0.05f})});
  }
  {
    Conv2dGeometry same_h;
    same_h.kernel_h = 3;
    same_h.pad_top = 1;
    same_h.pad_bottom = 1;
    add_case("Conv2dSameHeight", [same_h](const std::vector<Var>& in) {
      Var y = Conv2d(in[0], in[1], in[2], same_h);
      return SumAll(Mul(y, y));
    }, {Tensor({1, 3, 2, 1}, {0.1f, 0.4f, -0.2f, 0.3f, 0.5f, -0.1f}),
        Tensor({1, 1, 3, 1}, {0.5f, -0.2f, 0.1f}),
        Tensor({1}, {0.1f})});
  }

  // The fused LSTM: gradients for x [N,T,I], w_ih, w_hh and bias through
  // the hand-written BPTT (N=2, T=3, I=2, H=2).
  add_case("LstmSequence", [](const std::vector<Var>& in) {
    Var h = LstmSequence(in[0], in[1], in[2], in[3]);
    return SumAll(Mul(h, Constant(Tensor({2, 2}, {1.0f, -2.0f, 0.5f, 3.0f}))));
  }, {Tensor({2, 3, 2}, {0.5f, -1.0f, 0.3f, 0.8f, -0.6f, 0.2f,
                         -0.4f, 0.9f, 1.1f, -0.2f, 0.1f, 0.7f}),
      Tensor({2, 8}, {0.3f, -0.5f, 0.8f, 0.1f, -0.7f, 0.4f, 0.6f, -0.2f,
                      -0.3f, 0.2f, 0.5f, -0.9f, 0.4f, -0.1f, 0.7f, 0.3f}),
      Tensor({2, 8}, {0.6f, 0.1f, -0.4f, 0.3f, 0.2f, -0.8f, 0.5f, 0.9f,
                      -0.2f, 0.7f, 0.3f, -0.5f, -0.6f, 0.4f, 0.1f, -0.3f}),
      Tensor({8}, {0.1f, -0.2f, 1.0f, 1.0f, 0.3f, -0.1f, 0.2f, 0.05f})});

  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpGradTest, ::testing::ValuesIn(MakeCases()),
    [](const ::testing::TestParamInfo<GradCase>& info) {
      return info.param.name;
    });

// ag::Conv2d takes channels-last tensors. It must equal, bit for bit, the
// NCHW lowering it replaced, composed here from test-local pieces:
// transpose in, NCHW im2col, the same GEMM and bias, rearrange the GEMM
// output to NCHW and transpose out; backward runs the same steps in
// reverse (NCHW col2im for the input gradient).

// [N, H, W, C] -> [N, C, H, W] when `to_nchw`, else the inverse.
Tensor Transpose(const Tensor& t, bool to_nchw) {
  const int64_t n = t.dim(0);
  const int64_t h = to_nchw ? t.dim(1) : t.dim(2);
  const int64_t w = to_nchw ? t.dim(2) : t.dim(3);
  const int64_t c = to_nchw ? t.dim(3) : t.dim(1);
  Tensor out = to_nchw ? Tensor({n, c, h, w}) : Tensor({n, h, w, c});
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t y = 0; y < h; ++y) {
      for (int64_t x = 0; x < w; ++x) {
        for (int64_t ch = 0; ch < c; ++ch) {
          const int64_t nhwc = ((b * h + y) * w + x) * c + ch;
          const int64_t nchw = ((b * c + ch) * h + y) * w + x;
          out.MutableData()[to_nchw ? nchw : nhwc] =
              t.Data()[to_nchw ? nhwc : nchw];
        }
      }
    }
  }
  return out;
}

// NCHW im2col (fills `cols` from `image`) or col2im (adds `cols` into
// `image`), patch entries in (channel, ky, kx) order.
void NchwLowering(Tensor* image, Tensor* cols, const Conv2dGeometry& g,
                  bool to_cols) {
  const int64_t n = image->dim(0), c = image->dim(1);
  const int64_t h = image->dim(2), w = image->dim(3);
  int64_t col = 0;
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t oy = 0; oy < g.OutH(h); ++oy) {
      for (int64_t ox = 0; ox < g.OutW(w); ++ox) {
        for (int64_t ch = 0; ch < c; ++ch) {
          for (int64_t ky = 0; ky < g.kernel_h; ++ky) {
            for (int64_t kx = 0; kx < g.kernel_w; ++kx, ++col) {
              const int64_t y = oy - g.pad_top + ky * g.dilation_h;
              const int64_t x = ox - g.pad_left + kx * g.dilation_w;
              if (y < 0 || y >= h || x < 0 || x >= w) continue;
              float& pixel =
                  image->MutableData()[((b * c + ch) * h + y) * w + x];
              if (to_cols) {
                cols->MutableData()[col] = pixel;
              } else {
                pixel += cols->Data()[col];
              }
            }
          }
        }
      }
    }
  }
}

void ExpectSameBits(const Tensor& got, const Tensor& want, const char* label) {
  ASSERT_EQ(got.shape(), want.shape()) << label;
  for (int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_EQ(std::bit_cast<uint32_t>(got.Data()[i]),
              std::bit_cast<uint32_t>(want.Data()[i]))
        << label << " element " << i;
  }
}

TEST(Conv2dLayoutTest, MatchesNchwCompositionBitForBit) {
  const int64_t batch = 2, assets = 5, time = 9, c_in = 3, c_out = 4;
  Conv2dGeometry causal;
  causal.kernel_w = 3;
  causal.dilation_w = 2;
  causal.pad_left = 4;
  Conv2dGeometry correlational;
  correlational.kernel_h = assets;
  correlational.pad_top = (assets - 1) / 2;
  correlational.pad_bottom = (assets - 1) - correlational.pad_top;
  Conv2dGeometry valid;
  valid.kernel_w = 3;
  for (const Conv2dGeometry& g : {causal, correlational, valid}) {
    SCOPED_TRACE(testing::Message() << "kernel " << g.kernel_h << "x"
                                    << g.kernel_w);
    const int64_t out_h = g.OutH(assets), out_w = g.OutW(time);
    const int64_t rows = batch * out_h * out_w;
    const int64_t patch = c_in * g.kernel_h * g.kernel_w;
    Rng rng(31 + g.kernel_h + g.kernel_w);
    const Tensor input =
        RandomUniform({batch, assets, time, c_in}, -1.0f, 1.0f, &rng);
    const Tensor weight = RandomUniform(
        {c_out, c_in, g.kernel_h, g.kernel_w}, -1.0f, 1.0f, &rng);
    const Tensor bias = RandomUniform({c_out}, -1.0f, 1.0f, &rng);
    const Tensor grad_out =
        RandomUniform({batch, out_h, out_w, c_out}, -1.0f, 1.0f, &rng);

    Var x = Parameter(input.Clone());
    Var w = Parameter(weight.Clone());
    Var b = Parameter(bias.Clone());
    Var y = Conv2d(x, w, b, g);
    Backward(SumAll(Mul(y, Constant(grad_out.Clone()))));

    Tensor image = Transpose(input, /*to_nchw=*/true);
    Tensor cols({rows, patch});
    NchwLowering(&image, &cols, g, /*to_cols=*/true);
    const Tensor weight_matrix = weight.Reshaped({c_out, patch});
    const Tensor out_matrix = ppn::AddRowVector(
        ppn::MatMulTransB(cols, weight_matrix), bias);
    const Tensor out_nchw = Transpose(
        out_matrix.Reshaped({batch, out_h, out_w, c_out}), /*to_nchw=*/true);
    ExpectSameBits(y->value(), Transpose(out_nchw, /*to_nchw=*/false),
                   "output");

    // Backward of the transpose out, then the inverse NCHW rearrange.
    const Tensor grad_matrix =
        Transpose(Transpose(grad_out, /*to_nchw=*/true), /*to_nchw=*/false)
            .Reshaped({rows, c_out});
    Tensor grad_cols = ppn::MatMul(grad_matrix, weight_matrix);
    Tensor grad_image({batch, c_in, assets, time});
    NchwLowering(&grad_image, &grad_cols, g, /*to_cols=*/false);
    ExpectSameBits(x->grad(), Transpose(grad_image, /*to_nchw=*/false),
                   "input grad");
    const Tensor grad_weight = ppn::MatMulTransA(grad_matrix, cols);
    ExpectSameBits(w->grad(), grad_weight.Reshaped(weight.shape()),
                   "weight grad");
    ExpectSameBits(b->grad(), ppn::SumRows(grad_matrix), "bias grad");
  }
}

// The same composition, as a function of the conv's tensors: the output
// and the input, weight and bias gradients for output gradient `grad_out`.
struct ConvRun {
  Tensor out, input_grad, weight_grad, bias_grad;
};

ConvRun RunComposition(const Tensor& input, const Tensor& weight,
                       const Tensor& bias, const Tensor& grad_out,
                       const Conv2dGeometry& g) {
  const int64_t batch = input.dim(0), assets = input.dim(1);
  const int64_t time = input.dim(2), c_in = input.dim(3);
  const int64_t c_out = weight.dim(0);
  const int64_t out_h = g.OutH(assets), out_w = g.OutW(time);
  const int64_t rows = batch * out_h * out_w;
  const int64_t patch = c_in * g.kernel_h * g.kernel_w;
  Tensor image = Transpose(input, /*to_nchw=*/true);
  Tensor cols({rows, patch});
  NchwLowering(&image, &cols, g, /*to_cols=*/true);
  const Tensor weight_matrix = weight.Reshaped({c_out, patch});
  const Tensor grad_matrix = grad_out.Reshaped({rows, c_out});
  Tensor grad_cols = ppn::MatMul(grad_matrix, weight_matrix);
  Tensor grad_image({batch, c_in, assets, time});
  NchwLowering(&grad_image, &grad_cols, g, /*to_cols=*/false);
  return {ppn::AddRowVector(ppn::MatMulTransB(cols, weight_matrix), bias)
              .Reshaped({batch, out_h, out_w, c_out}),
          Transpose(grad_image, /*to_nchw=*/false),
          ppn::MatMulTransA(grad_matrix, cols).Reshaped(weight.shape()),
          ppn::SumRows(grad_matrix)};
}

ConvRun RunConv2d(const Tensor& input, const Tensor& weight,
                  const Tensor& bias, const Tensor& grad_out,
                  const Conv2dGeometry& g) {
  Var x = Parameter(input.Clone());
  Var w = Parameter(weight.Clone());
  Var b = Parameter(bias.Clone());
  Var y = Conv2d(x, w, b, g);
  Backward(SumAll(Mul(y, Constant(grad_out.Clone()))));
  return {y->value(), x->grad(), w->grad(), b->grad()};
}

// One EXPECT per tensor (these tensors run to 10^5 elements): the number
// of elements whose bits differ, and the first of them.
void ExpectBitEqual(const Tensor& got, const Tensor& want,
                    const std::string& label) {
  ASSERT_EQ(got.shape(), want.shape()) << label;
  int64_t mismatches = 0;
  int64_t first = -1;
  for (int64_t i = 0; i < got.numel(); ++i) {
    if (std::bit_cast<uint32_t>(got.Data()[i]) !=
        std::bit_cast<uint32_t>(want.Data()[i])) {
      if (first < 0) first = i;
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0) << label << ": first at " << first << " (got "
                           << (first < 0 ? 0.0f : got.Data()[first])
                           << ", want "
                           << (first < 0 ? 0.0f : want.Data()[first]) << ")";
}

void ExpectSameRun(const ConvRun& got, const ConvRun& want,
                   const std::string& label) {
  ExpectBitEqual(got.out, want.out, label + " output");
  ExpectBitEqual(got.input_grad, want.input_grad, label + " input grad");
  ExpectBitEqual(got.weight_grad, want.weight_grad, label + " weight grad");
  ExpectBitEqual(got.bias_grad, want.bias_grad, label + " bias grad");
}

// Every conv layer of PPN and EIIE at batch 9 (rows that fill whole 8x8
// register tiles and leave an edge), on every dispatch path and with the
// OpenMP loops on 1 and 4 threads: the time convs at dilation 1/2/4, the
// correlational conv (CCONV) at m = 11 and 16, Conv4 (VALID 1 x 30) and
// EIIE's VALID 1x3, over the paper's channel counts and an odd one.
TEST(Conv2dLayoutTest, MatchesCompositionAtPaperShapesBitForBit) {
  struct Layer {
    const char* name;
    Conv2dGeometry g;
    int64_t assets;
  };
  const Layer layers[] = {
      {"time d=1", nn::CausalTimeConvGeometry(3, 1), 11},
      {"time d=2", nn::CausalTimeConvGeometry(3, 2), 11},
      {"time d=4", nn::CausalTimeConvGeometry(3, 4), 11},
      {"CCONV m=11", nn::CorrelationalConvGeometry(11), 11},
      {"CCONV m=16", nn::CorrelationalConvGeometry(16), 16},
      {"Conv4", nn::ValidTimeConvGeometry(30), 11},
      {"EIIE 1x3", nn::ValidTimeConvGeometry(3), 11}};
  const int64_t batch = 9, time = 30;
#ifdef _OPENMP
  const int saved_threads = omp_get_max_threads();
  const int thread_counts[] = {1, 4};
#else
  const int thread_counts[] = {1};
#endif
  for (const Layer& layer : layers) {
    for (const int64_t c_in : {4, 8, 16}) {
      for (const int64_t c_out : {5, 8, 16}) {
        const Conv2dGeometry& g = layer.g;
        Rng rng(1000 * c_in + c_out);
        const Tensor input =
            RandomUniform({batch, layer.assets, time, c_in}, -1.0f, 1.0f, &rng);
        const Tensor weight = RandomUniform(
            {c_out, c_in, g.kernel_h, g.kernel_w}, -1.0f, 1.0f, &rng);
        const Tensor bias = RandomUniform({c_out}, -1.0f, 1.0f, &rng);
        const Tensor grad_out = RandomUniform(
            {batch, g.OutH(layer.assets), g.OutW(time), c_out}, -1.0f, 1.0f,
            &rng);
        const ConvRun want = RunComposition(input, weight, bias, grad_out, g);
        ForEachPath([&](const char* path) {
          for (const int threads : thread_counts) {
#ifdef _OPENMP
            omp_set_num_threads(threads);
#endif
            ExpectSameRun(RunConv2d(input, weight, bias, grad_out, g), want,
                          std::string(layer.name) + " C_in=" +
                              std::to_string(c_in) + " C_out=" +
                              std::to_string(c_out) + " " + path +
                              " threads=" + std::to_string(threads));
          }
        });
      }
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved_threads);
#endif
}

// Padding taps still multiply their zeros. A causal 1x3 conv at dilation 4
// over 6 periods: tap kx = 0 reads period t - 8, so it reads only padding,
// and tap kx = 1 reads padding at the first four outputs.
TEST(Conv2dLayoutTest, NonFiniteValuesAtPaddingMatchComposition) {
  const Conv2dGeometry g = nn::CausalTimeConvGeometry(3, 4);
  const int64_t batch = 2, assets = 3, time = 6, c_in = 3, c_out = 4;
  Rng rng(77);
  const Tensor input =
      RandomUniform({batch, assets, time, c_in}, -1.0f, 1.0f, &rng);
  const Tensor bias = RandomUniform({c_out}, -1.0f, 1.0f, &rng);
  const Tensor finite_weight =
      RandomUniform({c_out, c_in, 1, 3}, -1.0f, 1.0f, &rng);
  const Tensor finite_grad =
      RandomUniform({batch, assets, time, c_out}, -1.0f, 1.0f, &rng);
  const float inf = std::numeric_limits<float>::infinity();
  ForEachPath([&](const char* path) {
    SCOPED_TRACE(path);
    // An Inf weight on the padding-only tap of output channel 1: 0 * Inf
    // makes every output of that channel NaN and no other, and since the
    // tap never reads an input element, the input gradient stays finite.
    Tensor weight = finite_weight.Clone();
    weight.MutableData()[((1 * c_in + 2) * 1 + 0) * 3 + 0] = inf;
    ConvRun run = RunConv2d(input, weight, bias, finite_grad, g);
    ExpectSameRun(run, RunComposition(input, weight, bias, finite_grad, g),
                  "Inf weight");
    for (int64_t i = 0; i < run.out.numel(); ++i) {
      EXPECT_EQ(std::isnan(run.out.Data()[i]), i % c_out == 1) << i;
    }
    for (int64_t i = 0; i < run.input_grad.numel(); ++i) {
      EXPECT_TRUE(std::isfinite(run.input_grad.Data()[i])) << i;
    }
    // An Inf output gradient at a boundary output (the first period) meets
    // the zeros that taps kx = 0 and 1 read there: NaN in dW.
    Tensor grad = finite_grad.Clone();
    grad.MutableData()[((1 * assets + 2) * time + 0) * c_out + 3] = inf;
    run = RunConv2d(input, finite_weight, bias, grad, g);
    ExpectSameRun(run, RunComposition(input, finite_weight, bias, grad, g),
                  "Inf output gradient");
    for (int64_t ch = 0; ch < c_in; ++ch) {
      for (int64_t kx = 0; kx < 2; ++kx) {
        EXPECT_TRUE(std::isnan(run.weight_grad.Data()[(3 * c_in + ch) * 3 +
                                                      kx]))
            << "channel " << ch << " tap " << kx;
      }
    }
  });
}

TEST(Conv2dDeathTest, KernelAndDilationMustBeAtLeastOne) {
  Var x = Constant(Tensor({1, 2, 5, 1}));
  Conv2dGeometry empty_kernel;
  empty_kernel.kernel_w = 0;
  EXPECT_DEATH(Conv2d(x, Constant(Tensor({1, 1, 1, 0})), nullptr,
                      empty_kernel),
               "conv kernel and dilation must be >= 1");
  Conv2dGeometry no_dilation;
  no_dilation.dilation_h = 0;
  EXPECT_DEATH(Conv2d(x, Constant(Tensor({1, 1, 1, 1})), nullptr,
                      no_dilation),
               "conv kernel and dilation must be >= 1");
}

TEST(Conv2dDeathTest, PadsMustBeNonNegative) {
  Var x = Constant(Tensor({1, 2, 5, 1}));
  Conv2dGeometry g;
  g.kernel_w = 3;
  g.pad_left = -1;
  g.pad_right = 3;
  EXPECT_DEATH(Conv2d(x, Constant(Tensor({1, 1, 1, 3})), nullptr, g),
               "conv pads must be >= 0");
}

TEST(Conv2dDeathTest, WeightMustMatchInput) {
  Var x = Constant(Tensor({1, 2, 5, 3}));
  Conv2dGeometry g;
  g.kernel_w = 3;
  // C_in 2 against an input of 3 channels, and a 1x2 kernel against 1x3.
  EXPECT_DEATH(Conv2d(x, Constant(Tensor({4, 2, 1, 3})), nullptr, g),
               "conv weight \\[4, 2, 1, 3\\] does not match input");
  EXPECT_DEATH(Conv2d(x, Constant(Tensor({4, 3, 1, 2})), nullptr, g),
               "does not match input");
}

TEST(Conv2dDeathTest, OutputMustBeNonEmpty) {
  Var x = Constant(Tensor({1, 2, 3, 1}));
  const Conv2dGeometry g = nn::ValidTimeConvGeometry(5);
  EXPECT_DEATH(Conv2d(x, Constant(Tensor({1, 1, 1, 5})), nullptr, g),
               "conv output is empty");
}

TEST(Conv2dDeathTest, DropoutNeedsTheReluAndARate) {
  Rng rng(1);
  Var x = Constant(Tensor::Full({1, 2, 5, 1}, 1.0f));
  Var w = Constant(Tensor::Full({1, 1, 1, 1}, 1.0f));
  const Conv2dGeometry g;
  EXPECT_DEATH(Conv2d(x, w, nullptr, g, {.dropout = 0.2f, .rng = &rng}),
               "conv dropout needs the ReLU");
  EXPECT_DEATH(Conv2d(x, w, nullptr, g,
                      {.dropout = 1.0f, .rng = &rng, .relu = true}),
               "dropout rate must be in \\[0, 1\\)");
  EXPECT_DEATH(Conv2d(x, w, nullptr, g,
                      {.dropout = -0.5f, .rng = &rng, .relu = true}),
               "dropout rate must be in \\[0, 1\\)");
}

#ifdef _OPENMP
constexpr int kMaxTestThreads = 4;
#else
constexpr int kMaxTestThreads = 1;
#endif

// Runs `fn(threads)` with the OpenMP team at 1 to 4 threads (1 without
// OpenMP), restoring the caller's count afterwards.
template <typename Fn>
void ForEachThreadCount(Fn fn) {
#ifdef _OPENMP
  const int saved_threads = omp_get_max_threads();
#endif
  for (int threads = 1; threads <= kMaxTestThreads; ++threads) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#endif
    fn(threads);
  }
#ifdef _OPENMP
  omp_set_num_threads(saved_threads);
#endif
}

// The mask tests integer draws against ceil(p * 2^53); it must drop exactly
// the elements Rng::Bernoulli(p) drops, and leave the generator where that
// many Bernoulli draws leave it, on any number of threads. 84480 and 84481
// draw in parallel chunks (84481 splits unevenly at 2, 3 and 4 threads).
TEST(DropoutTest, MaskEqualsBernoulliStream) {
  ForEachThreadCount([](int threads) {
    for (const float p : {1e-7f, 0.1f, 0.2f, 1.0f / 3.0f, 0.5f, 0.9999999f}) {
      for (const int64_t n : {1, 7, 8, 9, 84480, 84481}) {
        Rng rng(static_cast<uint64_t>(n) * 31 + 7);
        Rng reference = rng;
        const Tensor mask = DropoutMask({n}, p, &rng);
        const float scale = 1.0f / (1.0f - p);
        Tensor want = Tensor::Uninitialized({n});
        for (int64_t i = 0; i < n; ++i) {
          want.MutableData()[i] = reference.Bernoulli(p) ? 0.0f : scale;
        }
        const std::string label = "p=" + std::to_string(p) + " n=" +
                                  std::to_string(n) + " threads=" +
                                  std::to_string(threads);
        ExpectBitEqual(mask, want, label);
        EXPECT_EQ(rng.NextUint64(), reference.NextUint64()) << label;
      }
    }
  });
}

TEST(DropoutTest, DropFractionNearP) {
  Rng rng(11);
  const Tensor mask = DropoutMask({20000}, 0.3f, &rng);
  int64_t zeros = 0;
  for (int64_t i = 0; i < mask.numel(); ++i) {
    if (mask.Data()[i] == 0.0f) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / mask.numel(), 0.3, 0.02);
}

// A 1x1 conv with weight 1 over ones outputs the mask itself: where it is
// zero the input gradient must be zero, where it is 2 (the inverted-dropout
// scale) the gradient must be 2.
TEST(DropoutTest, MaskIsConsistentBetweenForwardAndBackward) {
  Rng rng(3);
  Var x = Parameter(Tensor::Full({1, 1, 1000, 1}, 1.0f));
  Var w = Constant(Tensor::Full({1, 1, 1, 1}, 1.0f));
  Var y = Conv2d(x, w, nullptr, Conv2dGeometry(),
                 {.dropout = 0.5f, .rng = &rng, .relu = true});
  Backward(SumAll(y));
  for (int64_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(y->value()[i] == 0.0f || y->value()[i] == 2.0f) << i;
    EXPECT_EQ(x->grad()[i], y->value()[i]) << i;
  }
}

// Today's conv layer as three tape nodes, test-local: the plain conv, then
// the dropout node (a serial Bernoulli mask, multiplied in forward and
// backward), then the ReLU. `mask` receives the mask (empty when none is
// drawn).
Var ThreeNodeLayer(const Var& x, const Var& w, const Var& b,
                   const Conv2dGeometry& g, float p, bool training, Rng* rng,
                   Tensor* mask) {
  Var z = Conv2d(x, w, b, g);
  *mask = Tensor();
  if (training && p > 0.0f) {
    const float scale = 1.0f / (1.0f - p);
    *mask = Tensor::Uninitialized(z->shape());
    for (int64_t i = 0; i < mask->numel(); ++i) {
      mask->MutableData()[i] = rng->Bernoulli(p) ? 0.0f : scale;
    }
    z = Mul(z, Constant(mask->Clone()));
  }
  return Relu(z);
}

struct LayerRun {
  ConvRun conv;
  uint64_t next_draw;  // the dropout stream's next draw after the layer
  Tensor mask;         // ThreeNodeLayer's mask, for picking elements
};

// One forward and backward of the layer with output gradient `grad_out`,
// the dropout stream seeded with `seed`: the fused op, or ThreeNodeLayer.
LayerRun RunLayer(bool fused, const Tensor& input, const Tensor& weight,
                  const Tensor& bias, const Tensor& grad_out,
                  const Conv2dGeometry& g, float p, bool training,
                  uint64_t seed) {
  Rng rng(seed);
  Var x = Parameter(input.Clone());
  Var w = Parameter(weight.Clone());
  Var b = Parameter(bias.Clone());
  LayerRun run;
  Var y = fused ? Conv2d(x, w, b, g,
                         {.dropout = training ? p : 0.0f,
                          .rng = &rng,
                          .relu = true})
                : ThreeNodeLayer(x, w, b, g, p, training, &rng, &run.mask);
  Backward(SumAll(Mul(y, Constant(grad_out.Clone()))));
  run.conv = {y->value(), x->grad(), w->grad(), b->grad()};
  run.next_draw = rng.NextUint64();
  return run;
}

void ExpectSameLayerRun(const LayerRun& got, const LayerRun& want,
                        const std::string& label) {
  ExpectSameRun(got.conv, want.conv, label);
  EXPECT_EQ(got.next_draw, want.next_draw) << label << " next draw";
}

// The fused conv → dropout → ReLU equals the three nodes bit for bit:
// output, dX, dW, db and where the dropout stream ends, at every conv
// geometry of PPN, p in {0, 0.2}, training on and off, on every dispatch
// path at 1-4 threads. Batch 9 fills whole 8x8 tiles and leaves a row
// edge; C_out = 5 adds a column edge; the time convs and CCONVs draw their
// masks in parallel chunks (>= 32768 elements).
TEST(ConvOutputPassTest, EqualsConvDropoutReluNodesBitForBit) {
  struct Layer {
    const char* name;
    Conv2dGeometry g;
    int64_t assets;
  };
  const Layer layers[] = {
      {"time d=1", nn::CausalTimeConvGeometry(3, 1), 11},
      {"time d=2", nn::CausalTimeConvGeometry(3, 2), 11},
      {"time d=4", nn::CausalTimeConvGeometry(3, 4), 11},
      {"CCONV m=11", nn::CorrelationalConvGeometry(11), 11},
      {"CCONV m=16", nn::CorrelationalConvGeometry(16), 16},
      {"Conv4", nn::ValidTimeConvGeometry(30), 11}};
  const int64_t batch = 9, time = 30;
  for (const Layer& layer : layers) {
    for (const auto& [c_in, c_out] : {std::pair<int64_t, int64_t>{8, 16},
                                     std::pair<int64_t, int64_t>{3, 5}}) {
      const Conv2dGeometry& g = layer.g;
      Rng rng(100 * c_in + c_out + layer.assets);
      const Tensor input =
          RandomUniform({batch, layer.assets, time, c_in}, -1.0f, 1.0f, &rng);
      const Tensor weight = RandomUniform(
          {c_out, c_in, g.kernel_h, g.kernel_w}, -1.0f, 1.0f, &rng);
      const Tensor bias = RandomUniform({c_out}, -1.0f, 1.0f, &rng);
      const Tensor grad_out = RandomUniform(
          {batch, g.OutH(layer.assets), g.OutW(time), c_out}, -1.0f, 1.0f,
          &rng);
      for (const float p : {0.0f, 0.2f}) {
        for (const bool training : {false, true}) {
          ForEachPath([&](const char* path) {
            const LayerRun want = RunLayer(false, input, weight, bias,
                                           grad_out, g, p, training, 5);
            ForEachThreadCount([&](int threads) {
              ExpectSameLayerRun(
                  RunLayer(true, input, weight, bias, grad_out, g, p,
                           training, /*seed=*/5),
                  want,
                  std::string(layer.name) + " C_in=" + std::to_string(c_in) +
                      " C_out=" + std::to_string(c_out) +
                      " p=" + std::to_string(p) +
                      (training ? " training " : " eval ") + path +
                      " threads=" + std::to_string(threads));
            });
          });
        }
      }
    }
  }
}

// Non-finite values meet the mask and the ReLU the same way in both forms.
// An Inf weight on an interior tap makes pre-activations ±Inf and, where
// +Inf meets -Inf, NaN (the ReLU zeroes it); Inf and NaN output gradients
// land on elements the mask dropped and on elements the ReLU zeroed, where
// the three nodes form (dY·0)·mask and the fused op (dY·0)·scale.
TEST(ConvOutputPassTest, NonFiniteValuesMatchTheThreeNodes) {
  const Conv2dGeometry g = nn::CausalTimeConvGeometry(3, 2);
  const int64_t batch = 9, assets = 11, time = 30, c_in = 8, c_out = 16;
  const float p = 0.2f;
  Rng rng(91);
  const Tensor input =
      RandomUniform({batch, assets, time, c_in}, -1.0f, 1.0f, &rng);
  const Tensor finite_weight =
      RandomUniform({c_out, c_in, 1, 3}, -1.0f, 1.0f, &rng);
  const Tensor bias = RandomUniform({c_out}, -1.0f, 1.0f, &rng);
  const Tensor finite_grad =
      RandomUniform({batch, assets, time, c_out}, -1.0f, 1.0f, &rng);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();

  // Inf on tap kx = 2 (the current period) of channel 0 -> output channel 3,
  // and -Inf on channel 1 of the same tap: inputs of both signs give ±Inf,
  // and where both terms are infinite with opposite signs, NaN.
  Tensor weight = finite_weight.Clone();
  weight.MutableData()[((3 * c_in + 0) * 1 + 0) * 3 + 2] = inf;
  weight.MutableData()[((3 * c_in + 1) * 1 + 0) * 3 + 2] = -inf;
  const LayerRun inf_plain =
      RunLayer(false, input, weight, bias, finite_grad, g, p, true, 17);
  bool saw_nan = false;
  for (int64_t i = 0; i < inf_plain.conv.input_grad.numel(); ++i) {
    saw_nan |= std::isnan(inf_plain.conv.input_grad.Data()[i]);
  }
  EXPECT_TRUE(saw_nan) << "the Inf weight should reach dX as NaN";

  // Output gradients: +Inf and NaN on two elements the mask dropped, -Inf
  // and NaN on two kept elements the ReLU zeroed.
  const LayerRun plain =
      RunLayer(false, input, finite_weight, bias, finite_grad, g, p, true, 17);
  Tensor grad = finite_grad.Clone();
  int dropped = 0, zeroed = 0;
  for (int64_t i = 0; i < grad.numel(); ++i) {
    const bool kept = plain.mask.Data()[i] != 0.0f;
    const bool relu_zero = plain.conv.out.Data()[i] == 0.0f;
    if (!kept && dropped < 2) {
      grad.MutableData()[i] = dropped++ == 0 ? inf : nan;
    } else if (kept && relu_zero && zeroed < 2) {
      grad.MutableData()[i] = zeroed++ == 0 ? -inf : nan;
    }
  }
  ASSERT_EQ(dropped, 2);
  ASSERT_EQ(zeroed, 2);
  int64_t nan_bias = 0;
  const LayerRun grad_plain =
      RunLayer(false, input, finite_weight, bias, grad, g, p, true, 17);
  for (int64_t o = 0; o < c_out; ++o) {
    nan_bias += std::isnan(grad_plain.conv.bias_grad.Data()[o]);
  }
  EXPECT_GT(nan_bias, 0) << "the planted gradients should reach db as NaN";

  // Against the three nodes on the same path: where two NaNs meet in a sum
  // the scalar build may keep either payload (DESIGN.md §2.8), so the
  // paths need not agree with each other here.
  ForEachPath([&](const char* path) {
    const LayerRun inf_want =
        RunLayer(false, input, weight, bias, finite_grad, g, p, true, 17);
    const LayerRun grad_want =
        RunLayer(false, input, finite_weight, bias, grad, g, p, true, 17);
    ForEachThreadCount([&](int threads) {
      const std::string label =
          std::string(path) + " threads=" + std::to_string(threads);
      ExpectSameLayerRun(
          RunLayer(true, input, weight, bias, finite_grad, g, p, true, 17),
          inf_want, "Inf weight " + label);
      ExpectSameLayerRun(
          RunLayer(true, input, finite_weight, bias, grad, g, p, true, 17),
          grad_want, "non-finite dY " + label);
    });
  });
}

// Outside training the op draws nothing: the stream is untouched and the
// output is the conv's ReLU.
TEST(ConvOutputPassTest, NoDropoutDrawsNothing) {
  Rng rng(3);
  const Rng before = rng;
  Var x = Constant(RandomUniform({2, 3, 7, 4}, -1.0f, 1.0f, &rng));
  Var w = Constant(RandomUniform({5, 4, 1, 3}, -1.0f, 1.0f, &rng));
  const Conv2dGeometry g = nn::CausalTimeConvGeometry(3, 1);
  Rng dropout_rng = before;
  Var fused = Conv2d(x, w, nullptr, g, {.rng = &dropout_rng, .relu = true});
  ExpectBitEqual(fused->value(), Relu(Conv2d(x, w, nullptr, g))->value(),
                 "eval output");
  Rng untouched = before;
  EXPECT_EQ(dropout_rng.NextUint64(), untouched.NextUint64());
}

}  // namespace
}  // namespace ppn::ag
