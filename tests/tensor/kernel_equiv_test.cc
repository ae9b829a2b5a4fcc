#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/random.h"
#include "for_each_path.h"
#include "tensor/dispatch.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "tensor/vec/vec.h"

// Pins the blocked/vectorized kernels in tensor/ops.cc to the naive
// reference loops BIT-FOR-BIT — under EVERY dispatch path. The
// production kernels are allowed any blocking, SIMD width, or thread
// count as long as each output element's k terms accumulate in
// ascending order into a single float — these tests are the contract's
// enforcement (see DESIGN.md "Memory & kernel architecture" and §2.8).

namespace ppn {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kQNaN = std::numeric_limits<float>::quiet_NaN();

// Reference implementations: the seed repo's triple loops, one float
// accumulator per output element, k ascending.

Tensor NaiveMatMul(const Tensor& a, const Tensor& b) {
  const int64_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  Tensor out({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc += a.Data()[i * k + p] * b.Data()[p * n + j];
      }
      out.MutableData()[i * n + j] = acc;
    }
  }
  return out;
}

Tensor NaiveMatMulTransA(const Tensor& a, const Tensor& b) {
  const int64_t k = a.shape()[0], m = a.shape()[1], n = b.shape()[1];
  Tensor out({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc += a.Data()[p * m + i] * b.Data()[p * n + j];
      }
      out.MutableData()[i * n + j] = acc;
    }
  }
  return out;
}

Tensor NaiveMatMulTransB(const Tensor& a, const Tensor& b) {
  const int64_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[0];
  Tensor out({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc += a.Data()[i * k + p] * b.Data()[j * k + p];
      }
      out.MutableData()[i * n + j] = acc;
    }
  }
  return out;
}

// Channels-last conv lowering, written out: image [N, H, W, C], one
// column row per output pixel (n, oy, ox), patch entries in (channel, ky,
// kx) order. The scatter back visits pixels in the same order, so each
// image element sums its taps in ascending output-pixel order.
struct NaiveConvIndex {
  const std::vector<int64_t>& shape;
  const Conv2dGeometry& g;
  int64_t n() const { return shape[0]; }
  int64_t h() const { return shape[1]; }
  int64_t w() const { return shape[2]; }
  int64_t c() const { return shape[3]; }
  int64_t patch() const { return c() * g.kernel_h * g.kernel_w; }
  // Visits (column index, image index or -1 for padding) in column order.
  template <class Fn>
  void ForEachTap(Fn fn) const {
    int64_t col = 0;
    for (int64_t b = 0; b < n(); ++b) {
      for (int64_t oy = 0; oy < g.OutH(h()); ++oy) {
        for (int64_t ox = 0; ox < g.OutW(w()); ++ox) {
          for (int64_t ch = 0; ch < c(); ++ch) {
            for (int64_t ky = 0; ky < g.kernel_h; ++ky) {
              for (int64_t kx = 0; kx < g.kernel_w; ++kx) {
                const int64_t y = oy - g.pad_top + ky * g.dilation_h;
                const int64_t x = ox - g.pad_left + kx * g.dilation_w;
                const bool inside = y >= 0 && y < h() && x >= 0 && x < w();
                fn(col++, inside ? ((b * h() + y) * w() + x) * c() + ch : -1);
              }
            }
          }
        }
      }
    }
  }
};

Tensor NaiveIm2ColChannelsLast(const Tensor& image, const Conv2dGeometry& g) {
  const NaiveConvIndex index{image.shape(), g};
  Tensor cols({index.n() * g.OutH(index.h()) * g.OutW(index.w()),
               index.patch()});
  index.ForEachTap([&](int64_t col, int64_t pixel) {
    cols.MutableData()[col] = pixel < 0 ? 0.0f : image.Data()[pixel];
  });
  return cols;
}

Tensor NaiveCol2ImChannelsLast(const Tensor& cols,
                               const std::vector<int64_t>& shape,
                               const Conv2dGeometry& g) {
  const NaiveConvIndex index{shape, g};
  Tensor image(shape);
  index.ForEachTap([&](int64_t col, int64_t pixel) {
    if (pixel >= 0) image.MutableData()[pixel] += cols.Data()[col];
  });
  return image;
}

// EXPECT-style bitwise tensor equality. AllClose would hide both
// rounding drift and NaN-payload differences; bit_cast hides nothing.
void ExpectBitIdentical(const Tensor& got, const Tensor& want,
                        const char* label) {
  ASSERT_EQ(got.shape(), want.shape()) << label;
  const float* pg = got.Data();
  const float* pw = want.Data();
  for (int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_EQ(std::bit_cast<uint32_t>(pg[i]), std::bit_cast<uint32_t>(pw[i]))
        << label << ": element " << i << " got " << pg[i] << " want " << pw[i];
  }
}

// Random matrix with a sprinkling of exact zeros (the seed kernels had a
// `== 0.0f` fast path; zeros must still round-trip bit-identically) and
// negative values (exercises -0.0-adjacent products).
Tensor TestMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Tensor t = RandomUniform({rows, cols}, -2.0f, 2.0f, &rng);
  float* p = t.MutableData();
  for (int64_t i = 0; i < t.numel(); i += 7) p[i] = 0.0f;
  return t;
}

struct Dims {
  int64_t m, k, n;
};

// Odd shapes chosen to hit every edge path of the blocked driver: unit,
// sub-block, exact-block, non-multiple-of-block, tall/skinny in each
// dimension, one size big enough to trip the OpenMP branch, and
// SIMD-hostile cases — k=1 (single-term accumulators), n in {7, 9, 17}
// (odd vector tails around the 8-lane width), and zero-size extents
// (empty loops must not touch the null buffer).
const Dims kShapes[] = {
    {1, 1, 1},   {1, 5, 1},   {5, 9, 7},    {13, 21, 17}, {37, 3, 65},
    {3, 64, 2},  {8, 8, 8},   {16, 16, 16}, {64, 64, 64}, {2, 100, 9},
    {100, 2, 3}, {9, 7, 100}, {48, 48, 48}, {8, 1, 8},    {16, 1, 17},
    {8, 8, 7},   {9, 5, 9},   {24, 24, 17}, {0, 3, 4},    {3, 0, 4},
    {3, 4, 0},
};

TEST(KernelEquivalenceTest, MatMulBitIdenticalToNaive) {
  ForEachPath([](const char* path) {
    SCOPED_TRACE(path);
    for (const Dims& d : kShapes) {
      Tensor a = TestMatrix(d.m, d.k, 101 + d.m);
      Tensor b = TestMatrix(d.k, d.n, 202 + d.n);
      ExpectBitIdentical(MatMul(a, b), NaiveMatMul(a, b), "MatMul");
    }
  });
}

TEST(KernelEquivalenceTest, MatMulTransABitIdenticalToNaive) {
  ForEachPath([](const char* path) {
    SCOPED_TRACE(path);
    for (const Dims& d : kShapes) {
      Tensor a = TestMatrix(d.k, d.m, 303 + d.m);
      Tensor b = TestMatrix(d.k, d.n, 404 + d.n);
      ExpectBitIdentical(MatMulTransA(a, b), NaiveMatMulTransA(a, b),
                         "MatMulTransA");
    }
  });
}

TEST(KernelEquivalenceTest, MatMulTransBBitIdenticalToNaive) {
  ForEachPath([](const char* path) {
    SCOPED_TRACE(path);
    for (const Dims& d : kShapes) {
      Tensor a = TestMatrix(d.m, d.k, 505 + d.m);
      Tensor b = TestMatrix(d.n, d.k, 606 + d.n);
      ExpectBitIdentical(MatMulTransB(a, b), NaiveMatMulTransB(a, b),
                         "MatMulTransB");
    }
  });
}

// Inputs sliced out of a larger matrix with Narrow at an odd column
// offset: the slice copies element patterns that started at a
// misaligned address, and the odd widths keep every row's vector tail
// busy. (Kernels use unaligned loads throughout; this pins that no
// future "aligned fast path" sneaks in wrong.)
TEST(KernelEquivalenceTest, NarrowedViewsBitIdenticalAcrossPaths) {
  Tensor big_a = TestMatrix(21, 40, 1111);
  Tensor big_b = TestMatrix(40, 33, 2222);
  Tensor a = Narrow(big_a, /*axis=*/1, /*start=*/1, /*length=*/19);   // 21x19
  Tensor b2 = Narrow(big_b, /*axis=*/0, /*start=*/3, /*length=*/19);  // 19x33
  Tensor b = Narrow(b2, /*axis=*/1, /*start=*/5, /*length=*/17);      // 19x17
  Tensor want_sum;
  {
    dispatch::ScopedForcePath force(dispatch::SimdPath::kScalar);
    want_sum = SumRows(a);
  }
  ForEachPath([&](const char* path) {
    SCOPED_TRACE(path);
    ExpectBitIdentical(MatMul(a, b), NaiveMatMul(a, b), "MatMul/narrowed");
    ExpectBitIdentical(SumRows(a), want_sum, "SumRows/narrowed");
  });
  // Direct unaligned-pointer check on the raw tables: feed the
  // elementwise kernels a pointer offset by one float (4 bytes past the
  // pool's 64-byte line). Scalar and AVX2 must agree bitwise.
  if (dispatch::Avx2Available()) {
    Tensor x = TestMatrix(1, 64, 3333);
    Tensor ys(std::vector<int64_t>{63});
    Tensor yv(std::vector<int64_t>{63});
    const vec::KernelTable& scalar = vec::ScalarKernels();
    const vec::KernelTable& avx2 = *vec::Avx2KernelsOrNull();
    scalar.unary(vec::UnaryOp::kMulScalar, x.Data() + 1, ys.MutableData(), 63,
                 1.5f, 0.0f);
    avx2.unary(vec::UnaryOp::kMulScalar, x.Data() + 1, yv.MutableData(), 63,
               1.5f, 0.0f);
    ExpectBitIdentical(yv, ys, "unary/unaligned");
  }
}

// Every enumerated elementwise kernel, both paths, against the seed's
// scalar lambda — over odd tail sizes and a value set that includes
// +/-0, +/-Inf, NaN, denormals, and the clamp boundaries. The polynomial
// transcendentals have no libm twin; their reference is the scalar
// table (their accuracy is pinned in transcendental_test.cc).
TEST(KernelEquivalenceTest, ElementwiseOpsBitIdenticalAcrossPaths) {
  constexpr float kDenorm = 1e-40f;
  std::vector<float> specials = {0.0f,  -0.0f,   1.0f,   -1.0f, 0.5f,
                                 -2.5f, kInf,    -kInf,  kQNaN, kDenorm,
                                 -kDenorm, 1e30f, -1e30f, 0.25f, -0.75f};
  const int64_t sizes[] = {0, 1, 7, 8, 9, 16, 17, 100};
  const float lo = -1.0f, hi = 1.0f;
  // The dropout scale at p = 0.2. Not -1: a compiler may fold the
  // reference's x * -1.0f into a negation, which flips a NaN's sign.
  const float kDropoutScale = 1.25f;
  for (const int64_t n : sizes) {
    Tensor a = Tensor::Uninitialized({n});
    Tensor b = Tensor::Uninitialized({n});
    Rng rng(40 + n);
    for (int64_t i = 0; i < n; ++i) {
      // Mix specials with random values; b gets a shifted special cycle
      // so special-vs-special pairs occur.
      a.MutableData()[i] = (i % 3 == 0)
                               ? specials[i % specials.size()]
                               : static_cast<float>(rng.Uniform(-2.0, 2.0));
      b.MutableData()[i] = (i % 4 == 0)
                               ? specials[(i + 5) % specials.size()]
                               : static_cast<float>(rng.Uniform(-2.0, 2.0));
    }
    // Seed-exact references for each enum entry.
    auto ref_unary = [&](vec::UnaryOp op, float x) -> float {
      switch (op) {
        case vec::UnaryOp::kAddScalar: return x + 0.75f;
        case vec::UnaryOp::kMulScalar: return x * 0.75f;
        case vec::UnaryOp::kReluFwd: return x > 0.0f ? x : 0.0f;
        case vec::UnaryOp::kAbsFwd: return std::fabs(x);
        case vec::UnaryOp::kClampFwd: return x < lo ? lo : (x > hi ? hi : x);
        case vec::UnaryOp::kSqrtFwd: return std::sqrt(x);
        case vec::UnaryOp::kExpFwd:
        case vec::UnaryOp::kLogFwd:
        case vec::UnaryOp::kTanhFwd:
        case vec::UnaryOp::kSigmoidFwd:
          break;  // Reference: the scalar table.
      }
      return 0.0f;
    };
    auto ref_binary = [&](vec::BinaryOp op, float g, float y) -> float {
      switch (op) {
        case vec::BinaryOp::kAdd: return g + y;
        case vec::BinaryOp::kSub: return g - y;
        case vec::BinaryOp::kMul: return g * y;
        case vec::BinaryOp::kDiv: return g / y;
        case vec::BinaryOp::kTanhBwd: return g * (1.0f - y * y);
        case vec::BinaryOp::kSigmoidBwd: return g * (y * (1.0f - y));
        case vec::BinaryOp::kReluBwd: return g * (y > 0.0f ? 1.0f : 0.0f);
        case vec::BinaryOp::kAbsBwd:
          return g * (y > 0.0f ? 1.0f : (y < 0.0f ? -1.0f : 0.0f));
        case vec::BinaryOp::kSqrtBwd:
          return g * (0.5f / (y > 1e-12f ? y : 1e-12f));
        case vec::BinaryOp::kClampBwd:
          return g * ((y > lo && y < hi) ? 1.0f : 0.0f);
        case vec::BinaryOp::kReluScaleBwd:  // p0 = kDropoutScale
          return (g * (y > 0.0f ? 1.0f : 0.0f)) * kDropoutScale;
      }
      return 0.0f;
    };
    for (const vec::UnaryOp op :
         {vec::UnaryOp::kAddScalar, vec::UnaryOp::kMulScalar,
          vec::UnaryOp::kReluFwd, vec::UnaryOp::kAbsFwd,
          vec::UnaryOp::kClampFwd, vec::UnaryOp::kSqrtFwd,
          vec::UnaryOp::kExpFwd, vec::UnaryOp::kLogFwd,
          vec::UnaryOp::kTanhFwd, vec::UnaryOp::kSigmoidFwd}) {
      const float p0 = op == vec::UnaryOp::kClampFwd ? lo : 0.75f;
      const float p1 = op == vec::UnaryOp::kClampFwd ? hi : 0.0f;
      const bool polynomial =
          op == vec::UnaryOp::kExpFwd || op == vec::UnaryOp::kLogFwd ||
          op == vec::UnaryOp::kTanhFwd || op == vec::UnaryOp::kSigmoidFwd;
      Tensor want = Tensor::Uninitialized({n});
      if (polynomial) {
        dispatch::ScopedForcePath force(dispatch::SimdPath::kScalar);
        want = EltwiseUnary(op, a, p0, p1);
      } else {
        for (int64_t i = 0; i < n; ++i) {
          want.MutableData()[i] = ref_unary(op, a.Data()[i]);
        }
      }
      ForEachPath([&](const char* path) {
        SCOPED_TRACE(testing::Message() << path << " n=" << n << " unary op "
                                        << static_cast<int>(op));
        ExpectBitIdentical(EltwiseUnary(op, a, p0, p1), want, "unary");
      });
    }
    for (const vec::BinaryOp op :
         {vec::BinaryOp::kAdd, vec::BinaryOp::kSub, vec::BinaryOp::kMul,
          vec::BinaryOp::kDiv, vec::BinaryOp::kTanhBwd,
          vec::BinaryOp::kSigmoidBwd, vec::BinaryOp::kReluBwd,
          vec::BinaryOp::kAbsBwd, vec::BinaryOp::kSqrtBwd,
          vec::BinaryOp::kClampBwd, vec::BinaryOp::kReluScaleBwd}) {
      Tensor want = Tensor::Uninitialized({n});
      for (int64_t i = 0; i < n; ++i) {
        want.MutableData()[i] = ref_binary(op, a.Data()[i], b.Data()[i]);
      }
      ForEachPath([&](const char* path) {
        SCOPED_TRACE(testing::Message() << path << " n=" << n << " binary op "
                                        << static_cast<int>(op));
        const float p0 =
            op == vec::BinaryOp::kReluScaleBwd ? kDropoutScale : lo;
        ExpectBitIdentical(EltwiseBinary(op, a, b, p0, hi), want, "binary");
      });
    }
  }
}

// Row reductions and the conv kernels across paths, including odd
// column tails and the conv geometries the paper's network uses.
TEST(KernelEquivalenceTest, RowAndConvKernelsBitIdenticalAcrossPaths) {
  for (const int64_t n : {1LL, 7LL, 8LL, 9LL, 17LL, 100LL}) {
    Tensor a = TestMatrix(13, n, 50 + n);
    Tensor b = TestMatrix(1, n, 90 + n).Reshaped({n});
    Tensor want_sum(std::vector<int64_t>{n});
    for (int64_t i = 0; i < 13; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        want_sum.MutableData()[j] += a.Data()[i * n + j];
      }
    }
    Tensor want_arv = Tensor::Uninitialized({13, n});
    for (int64_t i = 0; i < 13; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        want_arv.MutableData()[i * n + j] = a.Data()[i * n + j] + b.Data()[j];
      }
    }
    ForEachPath([&](const char* path) {
      SCOPED_TRACE(testing::Message() << path << " n=" << n);
      ExpectBitIdentical(SumRows(a), want_sum, "SumRows");
      ExpectBitIdentical(AddRowVector(a, b), want_arv, "AddRowVector");
    });
  }
  // The three conv kernels against the column-matrix composition written
  // out above (naive columns, the naive GEMMs, the naive scatter): the
  // dilated causal time conv (kernel 1x3, dilation 2, left pad 4: boundary
  // AND interior pixels), the SAME correlational conv across all assets, a
  // VALID time conv and a symmetric 3x3, over channel counts around the
  // 8-lane width, odd widths and two output channel counts.
  struct Geo {
    Conv2dGeometry g;
    const char* label;
  };
  const int64_t assets = 5;
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
  Conv2dGeometry sym;
  sym.kernel_h = 3;
  sym.kernel_w = 3;
  sym.pad_top = 1;
  sym.pad_bottom = 1;
  sym.pad_left = 1;
  sym.pad_right = 1;
  const Geo geos[] = {{causal, "causal dilated"},
                      {correlational, "SAME correlational"},
                      {valid, "VALID"},
                      {sym, "3x3"}};
  for (const Geo& geo : geos) {
    for (const int64_t channels : {1LL, 3LL, 8LL, 16LL}) {
      for (const int64_t width : {7LL, 13LL}) {
        for (const int64_t c_out : {5LL, 8LL}) {
          Rng rng(100 * channels + 10 * width + c_out);
          const Tensor image =
              RandomUniform({2, assets, width, channels}, -2.0f, 2.0f, &rng);
          const Tensor weight =
              RandomUniform({c_out, channels, geo.g.kernel_h, geo.g.kernel_w},
                            -2.0f, 2.0f, &rng);
          const Tensor bias = RandomUniform({c_out}, -2.0f, 2.0f, &rng);
          const Tensor cols = NaiveIm2ColChannelsLast(image, geo.g);
          const int64_t rows = cols.dim(0);
          const Tensor weight_matrix = weight.Reshaped({c_out, cols.dim(1)});
          Tensor want_out = NaiveMatMulTransB(cols, weight_matrix);
          for (int64_t r = 0; r < rows; ++r) {
            for (int64_t o = 0; o < c_out; ++o) {
              want_out.MutableData()[r * c_out + o] += bias.Data()[o];
            }
          }
          const std::vector<int64_t> out_shape = {
              2, geo.g.OutH(assets), geo.g.OutW(width), c_out};
          const Tensor grad = RandomUniform(out_shape, -2.0f, 2.0f, &rng);
          const Tensor grad_matrix = grad.Reshaped({rows, c_out});
          const Tensor want_dx = NaiveCol2ImChannelsLast(
              NaiveMatMul(grad_matrix, weight_matrix), image.shape(), geo.g);
          const Tensor want_dw =
              NaiveMatMulTransA(grad_matrix, cols).Reshaped(weight.shape());
          ForEachPath([&](const char* path) {
            SCOPED_TRACE(testing::Message()
                         << path << " " << geo.label << " C=" << channels
                         << " W=" << width << " C_out=" << c_out);
            ExpectBitIdentical(ConvForward(image, weight, &bias, geo.g),
                               want_out.Reshaped(out_shape), "ConvForward");
            ExpectBitIdentical(
                ConvInputGrad(grad, weight, image.shape(), geo.g), want_dx,
                "ConvInputGrad");
            ExpectBitIdentical(ConvWeightGrad(image, grad, geo.g), want_dw,
                               "ConvWeightGrad");
          });
        }
      }
    }
  }
}

// Runs `fn(label)` on every dispatch path at 1, 2, 3 and 4 OpenMP threads
// (one thread only in a build without OpenMP), restoring the thread count.
template <typename Fn>
void ForEachPathAndThreadCount(Fn fn) {
#ifdef _OPENMP
  const int saved_threads = omp_get_max_threads();
  const int thread_counts[] = {1, 2, 3, 4};
#else
  const int thread_counts[] = {1};
#endif
  for (const int threads : thread_counts) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#endif
    ForEachPath([&](const char* path) {
      fn(testing::Message() << path << " threads=" << threads);
    });
  }
#ifdef _OPENMP
  omp_set_num_threads(saved_threads);
#endif
}

// The weight-gradient kernel behind MatMulTransA and ConvWeightGrad tiles
// its output by up to 6 rows × two 8-lane vectors and splits the tiles over
// OpenMP. Every tile height (m = 1..6 alone, then 6 + 1, 6 + 2 and
// 6 + 6 + 1 rows), column tails below one vector (n = 1, 7) and past it
// (n = 9), and four full tiles (n = 64), over the LSTM's k = T·N = 10,560
// rows.
TEST(KernelEquivalenceTest, MatMulTransATileHeightsAndTailsAcrossThreads) {
  constexpr int64_t kRows = 10560;
  for (const int64_t m : {1, 2, 3, 4, 5, 6, 7, 8, 13}) {
    for (const int64_t n : {1, 7, 9, 64}) {
      const Tensor a = TestMatrix(kRows, m, 700 + m);
      const Tensor b = TestMatrix(kRows, n, 800 + n);
      const Tensor want = NaiveMatMulTransA(a, b);
      ForEachPathAndThreadCount([&](const testing::Message& label) {
        SCOPED_TRACE(testing::Message(label) << " m=" << m << " n=" << n);
        ExpectBitIdentical(MatMulTransA(a, b), want, "MatMulTransA");
      });
    }
  }
}

// ConvWeightGrad enumerates its patch tap-major, (ky, kx, channel), so with
// C = 3 or 4 a 6-row tile spans two taps; the result is then
// permuted to [C_out, C_in, kh, kw]. Checked against the naive column
// matrix, whose patch is channel-major, at sizes that take the OpenMP
// branch (every case has patch · C_out · rows > 65,536), for C_out with and
// without a column tail.
TEST(KernelEquivalenceTest, ConvWeightGradAcrossTapsAndThreads) {
  const int64_t assets = 5;
  Conv2dGeometry causal;
  causal.kernel_w = 3;
  causal.dilation_w = 2;
  causal.pad_left = 4;
  Conv2dGeometry correlational;
  correlational.kernel_h = assets;
  correlational.pad_top = (assets - 1) / 2;
  correlational.pad_bottom = (assets - 1) - correlational.pad_top;
  for (const Conv2dGeometry& g : {causal, correlational}) {
    for (const int64_t channels : {3, 4}) {
      for (const int64_t c_out : {5, 16}) {
        Rng rng(1000 * channels + 10 * c_out + g.kernel_h);
        const Tensor image =
            RandomUniform({16, assets, 30, channels}, -2.0f, 2.0f, &rng);
        const Tensor cols = NaiveIm2ColChannelsLast(image, g);
        const int64_t rows = cols.dim(0);
        const std::vector<int64_t> out_shape = {16, g.OutH(assets),
                                                g.OutW(30), c_out};
        const Tensor grad = RandomUniform(out_shape, -2.0f, 2.0f, &rng);
        const Tensor want =
            NaiveMatMulTransA(grad.Reshaped({rows, c_out}), cols)
                .Reshaped({c_out, channels, g.kernel_h, g.kernel_w});
        ForEachPathAndThreadCount([&](const testing::Message& label) {
          SCOPED_TRACE(testing::Message(label)
                       << " kernel " << g.kernel_h << "x" << g.kernel_w
                       << " C=" << channels << " C_out=" << c_out);
          ExpectBitIdentical(ConvWeightGrad(image, grad, g), want,
                             "ConvWeightGrad");
        });
      }
    }
  }
}

// Regression for the seed's `a_ip == 0.0f` skip, which silently dropped
// the 0 * Inf = NaN and 0 * NaN = NaN terms required by IEEE 754. A
// non-finite value anywhere in the reduction must poison the output.

TEST(NonFinitePropagationTest, ZeroTimesInfIsNaNInMatMul) {
  // a row contains an explicit 0 lined up against Inf in b.
  Tensor a({2, 3}, {0.0f, 1.0f, 2.0f,  //
                    1.0f, 0.0f, 1.0f});
  Tensor b({3, 2}, {kInf, 1.0f,  //
                    1.0f, kInf,  //
                    1.0f, 1.0f});
  ForEachPath([&](const char* path) {
    SCOPED_TRACE(path);
    Tensor c = MatMul(a, b);
    // Row 0: 0*Inf + 1*1 + 2*1 = NaN ; 0*1 + 1*Inf + 2*1 = Inf.
    EXPECT_TRUE(std::isnan(c.Data()[0]));
    EXPECT_TRUE(std::isinf(c.Data()[1]));
    // Row 1: 1*Inf + 0*1 + 1*1 = Inf ; 1*1 + 0*Inf + 1*1 = NaN.
    EXPECT_TRUE(std::isinf(c.Data()[2]));
    EXPECT_TRUE(std::isnan(c.Data()[3]));
  });
}

TEST(NonFinitePropagationTest, NaNAgainstZeroPropagatesInAllVariants) {
  // A NaN in `a` must reach every output element its row/column feeds,
  // even where the other operand is zero.
  Tensor a({2, 2}, {kQNaN, 1.0f, 1.0f, 1.0f});
  Tensor zeros({2, 2}, {0.0f, 0.0f, 0.0f, 0.0f});
  ForEachPath([&](const char* path) {
    SCOPED_TRACE(path);
    for (float v : {MatMul(a, zeros).Data()[0], MatMul(zeros, a).Data()[0],
                    MatMulTransA(a, zeros).Data()[0],
                    MatMulTransB(zeros, a).Data()[0]}) {
      EXPECT_TRUE(std::isnan(v));
    }
  });
}

TEST(NonFinitePropagationTest, MatchesNaiveReferenceOnNonFiniteInputs) {
  // Beyond "is NaN": the full non-finite pattern must match the naive
  // loops (which never had the skip).
  Rng rng(42);
  Tensor a = RandomUniform({9, 11}, -1.0f, 1.0f, &rng);
  Tensor b = RandomUniform({11, 6}, -1.0f, 1.0f, &rng);
  a.MutableData()[3] = kInf;
  a.MutableData()[25] = 0.0f;
  b.MutableData()[7] = kQNaN;
  b.MutableData()[30] = -kInf;
  Tensor want = NaiveMatMul(a, b);
  ForEachPath([&](const char* path) {
    SCOPED_TRACE(path);
    Tensor got = MatMul(a, b);
    const float* pg = got.Data();
    const float* pw = want.Data();
    for (int64_t i = 0; i < got.numel(); ++i) {
      if (std::isnan(pw[i])) {
        EXPECT_TRUE(std::isnan(pg[i])) << "element " << i;
      } else {
        EXPECT_EQ(std::bit_cast<uint32_t>(pg[i]),
                  std::bit_cast<uint32_t>(pw[i]))
            << "element " << i;
      }
    }
  });
}

// VecScalar's Min/Max mirror vminps/vmaxps: the SECOND operand wins when
// either lane is NaN and when +0 meets -0 (the exp kernel's input clamp
// relies on both tables agreeing here).
TEST(VecScalarTest, MinMaxFollowVminpsVmaxps) {
  using vec::VecScalar;
  struct Case {
    float a, b, min, max;
  };
  const Case cases[] = {
      {kQNaN, 2.0f, 2.0f, 2.0f},   {2.0f, kQNaN, kQNaN, kQNaN},
      {0.0f, -0.0f, -0.0f, -0.0f}, {-0.0f, 0.0f, 0.0f, 0.0f},
      {1.0f, 2.0f, 1.0f, 2.0f},    {2.0f, -kInf, -kInf, 2.0f},
  };
  for (const Case& c : cases) {
    const VecScalar a = VecScalar::Broadcast(c.a);
    const VecScalar b = VecScalar::Broadcast(c.b);
    float min_out[VecScalar::kWidth];
    float max_out[VecScalar::kWidth];
    VecScalar::Min(a, b).StoreU(min_out);
    VecScalar::Max(a, b).StoreU(max_out);
    EXPECT_EQ(std::bit_cast<uint32_t>(min_out[0]),
              std::bit_cast<uint32_t>(c.min))
        << "Min(" << c.a << ", " << c.b << ")";
    EXPECT_EQ(std::bit_cast<uint32_t>(max_out[0]),
              std::bit_cast<uint32_t>(c.max))
        << "Max(" << c.a << ", " << c.b << ")";
  }
}

// ---------------------------------------------------------------------------
// Dispatch plumbing.
// ---------------------------------------------------------------------------

TEST(SimdDispatchTest, ResolvePathSpecHonorsForcedValues) {
  EXPECT_EQ(dispatch::ResolvePathSpec("scalar"), dispatch::SimdPath::kScalar);
  if (dispatch::Avx2Available()) {
    EXPECT_EQ(dispatch::ResolvePathSpec("avx2"), dispatch::SimdPath::kAvx2);
    EXPECT_EQ(dispatch::ResolvePathSpec("auto"), dispatch::SimdPath::kAvx2);
  } else {
    EXPECT_EQ(dispatch::ResolvePathSpec("auto"), dispatch::SimdPath::kScalar);
  }
}

TEST(SimdDispatchTest, ScopedForcePathRestoresPreviousPath) {
  const dispatch::SimdPath before = dispatch::ActivePath();
  {
    dispatch::ScopedForcePath force(dispatch::SimdPath::kScalar);
    EXPECT_EQ(dispatch::ActivePath(), dispatch::SimdPath::kScalar);
  }
  EXPECT_EQ(dispatch::ActivePath(), before);
}

TEST(SimdDispatchDeathTest, MalformedPpnSimdValueAborts) {
  // The same parser backs the env read at first kernel use: a typo'd
  // PPN_SIMD must abort with a message naming the knob, never silently
  // fall back.
  EXPECT_DEATH(dispatch::ResolvePathSpec("avx512"),
               "PPN_SIMD: unknown value .*avx512");
  EXPECT_DEATH(dispatch::ResolvePathSpec(""), "PPN_SIMD: unknown value");
}

}  // namespace
}  // namespace ppn
