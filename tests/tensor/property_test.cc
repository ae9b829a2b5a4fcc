// Property tests over randomly shaped tensors: algebraic identities that
// must hold for the raw kernels regardless of shape or values.

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "tensor/ops.h"

namespace ppn {
namespace {

class TensorProperty : public ::testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<uint64_t>(GetParam()) * 977 + 5};

  Tensor RandomMatrix(int64_t rows, int64_t cols) {
    return RandomNormal({rows, cols}, 0.0f, 1.0f, &rng_);
  }
};

TEST_P(TensorProperty, MatMulDistributesOverAddition) {
  const int64_t m = 1 + rng_.UniformInt(6);
  const int64_t k = 1 + rng_.UniformInt(6);
  const int64_t n = 1 + rng_.UniformInt(6);
  Tensor a = RandomMatrix(m, k);
  Tensor b = RandomMatrix(k, n);
  Tensor c = RandomMatrix(k, n);
  Tensor lhs = MatMul(a, Add(b, c));
  Tensor rhs = Add(MatMul(a, b), MatMul(a, c));
  EXPECT_TRUE(lhs.AllClose(rhs, 1e-4f));
}

TEST_P(TensorProperty, MatMulAssociativity) {
  const int64_t d = 2 + rng_.UniformInt(5);
  Tensor a = RandomMatrix(d, d);
  Tensor b = RandomMatrix(d, d);
  Tensor c = RandomMatrix(d, d);
  Tensor lhs = MatMul(MatMul(a, b), c);
  Tensor rhs = MatMul(a, MatMul(b, c));
  EXPECT_TRUE(lhs.AllClose(rhs, 1e-3f));
}

TEST_P(TensorProperty, TransposeIsInvolution) {
  Tensor a = RandomMatrix(1 + rng_.UniformInt(7), 1 + rng_.UniformInt(7));
  EXPECT_TRUE(Transpose2D(Transpose2D(a)).AllClose(a));
}

TEST_P(TensorProperty, TransposeReversesMatMul) {
  const int64_t m = 1 + rng_.UniformInt(5);
  const int64_t k = 1 + rng_.UniformInt(5);
  const int64_t n = 1 + rng_.UniformInt(5);
  Tensor a = RandomMatrix(m, k);
  Tensor b = RandomMatrix(k, n);
  // (AB)^T == B^T A^T.
  Tensor lhs = Transpose2D(MatMul(a, b));
  Tensor rhs = MatMul(Transpose2D(b), Transpose2D(a));
  EXPECT_TRUE(lhs.AllClose(rhs, 1e-4f));
}

TEST_P(TensorProperty, ConcatThenNarrowRecoversParts) {
  const int64_t rows = 1 + rng_.UniformInt(4);
  const int64_t c1 = 1 + rng_.UniformInt(4);
  const int64_t c2 = 1 + rng_.UniformInt(4);
  Tensor a = RandomMatrix(rows, c1);
  Tensor b = RandomMatrix(rows, c2);
  Tensor joined = Concat({a, b}, 1);
  EXPECT_TRUE(Narrow(joined, 1, 0, c1).AllClose(a));
  EXPECT_TRUE(Narrow(joined, 1, c1, c2).AllClose(b));
}

TEST_P(TensorProperty, SumRowsMatchesMatMulWithOnes) {
  const int64_t rows = 1 + rng_.UniformInt(6);
  const int64_t cols = 1 + rng_.UniformInt(6);
  Tensor a = RandomMatrix(rows, cols);
  Tensor ones_row({1, rows});
  ones_row.Fill(1.0f);
  Tensor via_matmul = MatMul(ones_row, a).Reshaped({cols});
  EXPECT_TRUE(SumRows(a).AllClose(via_matmul, 1e-4f));
}

TEST_P(TensorProperty, SumAllIsLinear) {
  const int64_t rows = 1 + rng_.UniformInt(6);
  const int64_t cols = 1 + rng_.UniformInt(6);
  Tensor a = RandomMatrix(rows, cols);
  Tensor b = RandomMatrix(rows, cols);
  EXPECT_NEAR(SumAll(Add(a, b)), SumAll(a) + SumAll(b), 1e-3);
  EXPECT_NEAR(SumAll(MulScalar(a, 3.0f)), 3.0 * SumAll(a), 1e-3);
}

TEST_P(TensorProperty, IdentityFilter1x1ConvPreservesEnergy) {
  // A 1x1 conv whose filter is the identity over channels copies the input.
  Tensor input = RandomNormal(
      {1 + rng_.UniformInt(3), 1 + rng_.UniformInt(3),
       1 + rng_.UniformInt(5), 1 + rng_.UniformInt(5)},
      0.0f, 1.0f, &rng_);
  const int64_t channels = input.dim(3);
  Tensor identity({channels, channels, 1, 1});
  for (int64_t c = 0; c < channels; ++c) {
    identity.MutableData()[c * channels + c] = 1.0f;
  }
  Conv2dGeometry geometry;  // 1x1, no padding/dilation.
  Tensor out = ConvForward(input, identity, nullptr, geometry);
  EXPECT_EQ(out.shape(), input.shape());
  double energy_in = 0.0;
  double energy_out = 0.0;
  for (int64_t i = 0; i < input.numel(); ++i) {
    energy_in += input[i] * input[i];
    energy_out += out[i] * out[i];
  }
  EXPECT_NEAR(energy_in, energy_out, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, TensorProperty,
                         ::testing::Range(1, 16));

}  // namespace
}  // namespace ppn
