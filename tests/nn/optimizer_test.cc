#include "nn/optimizer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "autograd/ops.h"

namespace ppn::nn {
namespace {

// Minimizes f(x) = ||x - target||^2 with the given optimizer.
template <typename Opt, typename... Args>
double MinimizeQuadratic(int steps, Args&&... args) {
  ag::Var x = ag::Parameter(Tensor({3}, {5.0f, -4.0f, 2.0f}));
  const Tensor target({3}, {1.0f, 2.0f, 3.0f});
  Opt optimizer({x}, std::forward<Args>(args)...);
  for (int i = 0; i < steps; ++i) {
    x->ZeroGrad();
    ag::Var diff = ag::Sub(x, ag::Constant(target));
    ag::Var loss = ag::SumAll(ag::Mul(diff, diff));
    ag::Backward(loss);
    optimizer.Step();
  }
  double err = 0.0;
  for (int64_t i = 0; i < 3; ++i) {
    err += std::fabs(x->value()[i] - target[i]);
  }
  return err;
}

TEST(AdamTest, ConvergesOnQuadratic) {
  EXPECT_LT(MinimizeQuadratic<Adam>(500, 0.1f), 1e-2);
}

TEST(AdamTest, StepCountIncrements) {
  ag::Var x = ag::Parameter(Tensor({1}, {1.0f}));
  Adam adam({x}, 0.01f);
  x->ZeroGrad();
  ag::Backward(ag::Mul(x, x));
  adam.Step();
  adam.Step();
  EXPECT_EQ(adam.step_count(), 2);
}

TEST(AdamTest, NoGradMeansNoChange) {
  ag::Var x = ag::Parameter(Tensor({1}, {1.0f}));
  Adam adam({x}, 0.5f);
  adam.Step();  // No gradient accumulated.
  EXPECT_FLOAT_EQ(x->value()[0], 1.0f);
}

TEST(OptimizerTest, RejectsNonTrainableLeaf) {
  ag::Var c = ag::Constant(Tensor({1}));
  EXPECT_DEATH(Adam({c}, 0.1f), "non-trainable");
}

TEST(ClipGradNormTest, ScalesDownLargeGradients) {
  ag::Var x = ag::Parameter(Tensor({2}));
  x->AccumulateGrad(Tensor({2}, {3.0f, 4.0f}));  // Norm 5.
  Adam adam({x}, 0.1f);
  const double norm = adam.ClipGradNorm(1.0);
  EXPECT_NEAR(norm, 5.0, 1e-6);
  EXPECT_NEAR(x->grad()[0], 0.6f, 1e-6);
  EXPECT_NEAR(x->grad()[1], 0.8f, 1e-6);
}

TEST(ClipGradNormTest, LeavesSmallGradientsAlone) {
  ag::Var x = ag::Parameter(Tensor({2}));
  x->AccumulateGrad(Tensor({2}, {0.3f, 0.4f}));
  Adam adam({x}, 0.1f);
  adam.ClipGradNorm(1.0);
  EXPECT_NEAR(x->grad()[0], 0.3f, 1e-7);
}

TEST(AdamTest, BiasCorrectionMakesFirstStepsLearningRateSized) {
  // With bias correction the very first Adam step is ~lr in magnitude.
  ag::Var x = ag::Parameter(Tensor({1}, {10.0f}));
  Adam adam({x}, 0.1f);
  x->ZeroGrad();
  ag::Backward(ag::Mul(x, x));  // grad = 20.
  adam.Step();
  EXPECT_NEAR(x->value()[0], 10.0f - 0.1f, 1e-3);
}

}  // namespace
}  // namespace ppn::nn
