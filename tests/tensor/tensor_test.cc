#include "tensor/tensor.h"

#include <gtest/gtest.h>

namespace ppn {
namespace {

TEST(TensorTest, DefaultIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.numel(), 0);
  EXPECT_EQ(t.ndim(), 1);
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, FullFactory) {
  Tensor t = Tensor::Full({2, 2}, 7.0f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 7.0f);
}

TEST(TensorTest, ShapeValueMismatchAborts) {
  EXPECT_DEATH(Tensor({2, 2}, {1.0f, 2.0f}), "PPN_CHECK");
}

TEST(TensorTest, MultiIndexAccess) {
  Tensor t({2, 3}, {0, 1, 2, 3, 4, 5});
  EXPECT_EQ(t.At({0, 0}), 0.0f);
  EXPECT_EQ(t.At({0, 2}), 2.0f);
  EXPECT_EQ(t.At({1, 0}), 3.0f);
  EXPECT_EQ(t.At({1, 2}), 5.0f);
}

TEST(TensorTest, SetWrites) {
  Tensor t({2, 2});
  t.Set({1, 1}, 9.0f);
  EXPECT_EQ(t.At({1, 1}), 9.0f);
  EXPECT_EQ(t.At({0, 0}), 0.0f);
}

TEST(TensorTest, NegativeAxisDim) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.dim(-1), 4);
  EXPECT_EQ(t.dim(-3), 2);
}

TEST(TensorTest, CopiesShareStorage) {
  Tensor a({2});
  Tensor b = a;
  a.MutableData()[0] = 5.0f;
  EXPECT_EQ(b[0], 5.0f);
}

TEST(TensorTest, CloneIsDeep) {
  Tensor a({2});
  Tensor b = a.Clone();
  a.MutableData()[0] = 5.0f;
  EXPECT_EQ(b[0], 0.0f);
}

TEST(TensorTest, ReshapedSharesDataAndChangesShape) {
  Tensor a({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor b = a.Reshaped({3, 2});
  EXPECT_EQ(b.dim(0), 3);
  EXPECT_EQ(b.At({2, 1}), 5.0f);
  a.MutableData()[5] = 50.0f;
  EXPECT_EQ(b.At({2, 1}), 50.0f);  // View semantics.
}

TEST(TensorTest, ReshapeWrongCountAborts) {
  Tensor a({2, 3});
  EXPECT_DEATH(a.Reshaped({4}), "PPN_CHECK");
}

TEST(TensorTest, AllCloseDetectsDifferences) {
  Tensor a({2}, {1.0f, 2.0f});
  Tensor b({2}, {1.0f, 2.0f + 1e-7f});
  Tensor c({2}, {1.0f, 3.0f});
  EXPECT_TRUE(a.AllClose(b));
  EXPECT_FALSE(a.AllClose(c));
}

TEST(TensorTest, AllCloseRejectsShapeMismatch) {
  Tensor a({2});
  Tensor b({2, 1});
  EXPECT_FALSE(a.AllClose(b));
}

TEST(TensorTest, FillSetsEveryElement) {
  Tensor a({3, 3});
  a.Fill(2.5f);
  for (int64_t i = 0; i < 9; ++i) EXPECT_EQ(a[i], 2.5f);
}

TEST(TensorTest, ToStringSmallShowsValues) {
  Tensor a({2}, {1.0f, 2.0f});
  const std::string s = a.ToString();
  EXPECT_NE(s.find("[2]"), std::string::npos);
  EXPECT_NE(s.find("1"), std::string::npos);
}

TEST(ShapeTest, ShapeNumelAndToString) {
  EXPECT_EQ(ShapeNumel({2, 3, 4}), 24);
  EXPECT_EQ(ShapeNumel({}), 1);
  EXPECT_EQ(ShapeToString({2, 3}), "[2, 3]");
}

TEST(ShapeTest, NegativeDimensionAborts) {
  EXPECT_DEATH(ShapeNumel({2, -1}), "PPN_CHECK");
}

}  // namespace
}  // namespace ppn
