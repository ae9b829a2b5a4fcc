#include "autograd/variable.h"

#include <cmath>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "nn/optimizer.h"

namespace ppn::ag {
namespace {

TEST(VariableTest, ConstantDoesNotRequireGrad) {
  Var c = Constant(Tensor({2}));
  EXPECT_FALSE(c->requires_grad());
}

TEST(VariableTest, ParameterRequiresGrad) {
  Var p = Parameter(Tensor({2}));
  EXPECT_TRUE(p->requires_grad());
}

TEST(VariableTest, DetachStopsGradient) {
  Var p = Parameter(Tensor::Full({2}, 3.0f));
  Var d = Detach(p);
  EXPECT_FALSE(d->requires_grad());
  Var loss = SumAll(MulScalar(d, 2.0f));
  Backward(loss);
  EXPECT_FALSE(p->has_grad());
}

TEST(VariableTest, AccumulateGradAddsUp) {
  Var p = Parameter(Tensor({2}));
  p->AccumulateGrad(Tensor({2}, {1.0f, 2.0f}));
  p->AccumulateGrad(Tensor({2}, {10.0f, 20.0f}));
  EXPECT_TRUE(p->grad().AllClose(Tensor({2}, {11.0f, 22.0f})));
}

TEST(VariableTest, AccumulateGradShapeMismatchAborts) {
  Var p = Parameter(Tensor({2}));
  EXPECT_DEATH(p->AccumulateGrad(Tensor({3})), "gradient shape");
}

TEST(VariableTest, FirstAccumulationTakesOverASoleOwnedTemporary) {
  Var p = Parameter(Tensor({2}));
  Tensor delta({2}, {1.0f, 2.0f});
  const float* buffer = delta.Data();
  p->AccumulateGrad(std::move(delta));
  EXPECT_EQ(p->grad().Data(), buffer);
  EXPECT_TRUE(p->grad().AllClose(Tensor({2}, {1.0f, 2.0f})));
}

TEST(VariableTest, FirstAccumulationCopiesASharedTemporary) {
  Var p = Parameter(Tensor({2, 2}));
  const Tensor owner({4}, {1.0f, 2.0f, 3.0f, 4.0f});
  p->AccumulateGrad(owner.Reshaped({2, 2}));
  EXPECT_NE(p->grad().Data(), owner.Data());
  p->AccumulateGrad(Tensor::Full({2, 2}, 1.0f));
  EXPECT_TRUE(owner.AllClose(Tensor({4}, {1.0f, 2.0f, 3.0f, 4.0f})));
}

// Reshape's backward hands its input a `Reshaped` view of the Reshape
// node's own gradient. The input must copy it: a second delta into the
// input, and gradient clipping (which scales the input's gradient in
// place), must leave the Reshape node's gradient as it was.
TEST(VariableTest, ReshapeChildGradientSurvivesParentUpdates) {
  Var x = Parameter(Tensor({2, 3}, {1.0f, -2.0f, 3.0f, -4.0f, 5.0f, -6.0f}));
  Var y = Reshape(x, {3, 2});
  Backward(SumAll(Mul(y, y)));  // dy = 2y
  const Tensor want = Tensor({3, 2}, {2.0f, -4.0f, 6.0f, -8.0f, 10.0f, -12.0f});
  ASSERT_TRUE(y->grad().AllClose(want, 0.0f));
  EXPECT_NE(x->grad().Data(), y->grad().Data());

  x->AccumulateGrad(Tensor::Full({2, 3}, 1.0f));
  EXPECT_TRUE(x->grad().AllClose(
      Tensor({2, 3}, {3.0f, -3.0f, 7.0f, -7.0f, 11.0f, -11.0f}), 0.0f));
  EXPECT_TRUE(y->grad().AllClose(want, 0.0f));

  nn::Adam optimizer({x}, /*learning_rate=*/0.1f);
  EXPECT_GT(optimizer.ClipGradNorm(1.0), 1.0);
  EXPECT_LT(std::fabs(x->grad()[0]), 1.0f);
  EXPECT_TRUE(y->grad().AllClose(want, 0.0f));
}

TEST(VariableTest, ZeroGradClears) {
  Var p = Parameter(Tensor({2}));
  p->AccumulateGrad(Tensor({2}, {1.0f, 1.0f}));
  p->ZeroGrad();
  EXPECT_TRUE(p->grad().AllClose(Tensor({2})));
}

TEST(BackwardTest, ScalarSeedIsOne) {
  Var p = Parameter(Tensor({1}, {5.0f}));
  Var y = MulScalar(p, 3.0f);
  Backward(y);
  EXPECT_TRUE(p->grad().AllClose(Tensor({1}, {3.0f})));
}

TEST(BackwardTest, NonScalarRootAborts) {
  Var p = Parameter(Tensor({2}));
  Var y = MulScalar(p, 2.0f);
  EXPECT_DEATH(Backward(y), "scalar root");
}

TEST(BackwardTest, DiamondGraphAccumulatesBothPaths) {
  // y = x*x + x  (x used twice: the diamond). dy/dx = 2x + 1.
  Var x = Parameter(Tensor({1}, {3.0f}));
  Var y = Add(Mul(x, x), x);
  Backward(y);
  EXPECT_TRUE(x->grad().AllClose(Tensor({1}, {7.0f})));
}

TEST(BackwardTest, DeepChainDoesNotOverflow) {
  // 3000 chained adds exercise the iterative topological sort.
  Var x = Parameter(Tensor({1}, {1.0f}));
  Var y = x;
  for (int i = 0; i < 3000; ++i) y = AddScalar(y, 1.0f);
  Backward(y);
  EXPECT_TRUE(x->grad().AllClose(Tensor({1}, {1.0f})));
}

TEST(BackwardTest, ConstantBranchReceivesNoGradient) {
  Var x = Parameter(Tensor({1}, {2.0f}));
  Var c = Constant(Tensor({1}, {4.0f}));
  Var y = Mul(x, c);
  Backward(y);
  EXPECT_TRUE(x->grad().AllClose(Tensor({1}, {4.0f})));
  EXPECT_FALSE(c->has_grad());
}

TEST(BackwardTest, GradAccumulatesAcrossBackwardCalls) {
  Var x = Parameter(Tensor({1}, {1.0f}));
  {
    Var y = MulScalar(x, 2.0f);
    Backward(y);
  }
  {
    Var y = MulScalar(x, 3.0f);
    Backward(y);
  }
  EXPECT_TRUE(x->grad().AllClose(Tensor({1}, {5.0f})));
}

TEST(ScalarValueTest, ReadsValue) {
  Var v = Constant(Tensor({1}, {2.5f}));
  EXPECT_FLOAT_EQ(ScalarValue(v), 2.5f);
}

TEST(ScalarValueTest, NonScalarAborts) {
  Var v = Constant(Tensor({2}));
  EXPECT_DEATH(ScalarValue(v), "PPN_CHECK");
}

TEST(GraphLifetimeTest, ConstantInputsDropTapeEdges) {
  // Ops on constants produce constants with no parents: inference graphs
  // stay flat and are freed eagerly.
  Var a = Constant(Tensor({2}, {1.0f, 2.0f}));
  Var b = Constant(Tensor({2}, {3.0f, 4.0f}));
  Var c = Add(a, b);
  EXPECT_FALSE(c->requires_grad());
  EXPECT_TRUE(c->parents.empty());
}

}  // namespace
}  // namespace ppn::ag
