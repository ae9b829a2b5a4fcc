#include "common/math_utils.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace ppn {
namespace {

TEST(SimplexProjectionTest, AlreadyOnSimplexIsIdentity) {
  const std::vector<double> v = {0.2, 0.3, 0.5};
  const std::vector<double> p = ProjectToSimplex(v);
  for (size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(p[i], v[i], 1e-12);
}

TEST(SimplexProjectionTest, SingleElement) {
  const std::vector<double> p = ProjectToSimplex({42.0});
  ASSERT_EQ(p.size(), 1u);
  EXPECT_NEAR(p[0], 1.0, 1e-12);
}

TEST(SimplexProjectionTest, LargeValueDominates) {
  const std::vector<double> p = ProjectToSimplex({10.0, 0.0, 0.0});
  EXPECT_NEAR(p[0], 1.0, 1e-12);
  EXPECT_NEAR(p[1], 0.0, 1e-12);
}

TEST(SimplexProjectionTest, SymmetricInputGivesUniform) {
  const std::vector<double> p = ProjectToSimplex({5.0, 5.0, 5.0, 5.0});
  for (const double v : p) EXPECT_NEAR(v, 0.25, 1e-12);
}

// Property sweep: projection of random vectors is on the simplex and is
// the closest simplex point (checked against a dense grid of candidates
// via the optimality condition).
class SimplexProjectionProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimplexProjectionProperty, ResultOnSimplexAndNotFurtherThanInputs) {
  Rng rng(GetParam());
  const int dim = 2 + GetParam() % 9;
  std::vector<double> v(dim);
  for (double& x : v) x = rng.Uniform(-2.0, 2.0);
  const std::vector<double> p = ProjectToSimplex(v);
  EXPECT_TRUE(IsOnSimplex(p, 1e-9));
  // Optimality: p must be at least as close to v as any random simplex
  // point.
  double dist_p = 0.0;
  for (int i = 0; i < dim; ++i) dist_p += (p[i] - v[i]) * (p[i] - v[i]);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<double> q = rng.Dirichlet(dim, 1.0);
    double dist_q = 0.0;
    for (int i = 0; i < dim; ++i) dist_q += (q[i] - v[i]) * (q[i] - v[i]);
    EXPECT_LE(dist_p, dist_q + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexProjectionProperty,
                         ::testing::Range(1, 25));

TEST(IsOnSimplexTest, DetectsNegativeEntries) {
  EXPECT_FALSE(IsOnSimplex({-0.1, 0.6, 0.5}));
  EXPECT_TRUE(IsOnSimplex({0.0, 0.4, 0.6}));
}

TEST(IsOnSimplexTest, DetectsWrongSum) {
  EXPECT_FALSE(IsOnSimplex({0.5, 0.6}));
  EXPECT_TRUE(IsOnSimplex({0.5, 0.5}));
}

TEST(NormsTest, DotProduct) {
  EXPECT_DOUBLE_EQ(Dot({1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}), 32.0);
}

TEST(StatsTest, MeanVarianceStdDev) {
  const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_DOUBLE_EQ(Variance(v), 4.0);
  EXPECT_DOUBLE_EQ(StdDev(v), 2.0);
}

TEST(ClampTest, Clamps) {
  EXPECT_DOUBLE_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
}

TEST(CorrelationTest, PerfectCorrelation) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {-1, -2, -3, -4}), -1.0,
              1e-12);
}

TEST(CorrelationTest, ZeroVarianceGivesZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

}  // namespace
}  // namespace ppn
