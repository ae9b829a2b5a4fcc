#include "common/random.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

namespace ppn {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal_count = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal_count;
  }
  EXPECT_LT(equal_count, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformMeanIsHalf) {
  Rng rng(11);
  double total = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) total += rng.Uniform();
  EXPECT_NEAR(total / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversRangeUniformly) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(10)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(RngDeathTest, UniformIntRejectsNonPositive) {
  Rng rng(1);
  EXPECT_DEATH(rng.UniformInt(0), "PPN_CHECK");
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.Normal();
    sum += z;
    sum_sq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(RngTest, NormalScaledMoments) {
  Rng rng(19);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Normal(3.0, 2.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(RngTest, GammaMeanEqualsShape) {
  Rng rng(23);
  for (const double shape : {0.5, 1.0, 2.0, 7.5}) {
    const int n = 50000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) sum += rng.Gamma(shape);
    EXPECT_NEAR(sum / n, shape, 0.1 * shape + 0.05) << "shape=" << shape;
  }
}

TEST(RngTest, GammaIsPositive) {
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.Gamma(0.3), 0.0);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(31);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(37);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.01);
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(41);
  for (const double alpha : {0.2, 1.0, 5.0}) {
    const std::vector<double> sample = rng.Dirichlet(8, alpha);
    ASSERT_EQ(sample.size(), 8u);
    double total = 0.0;
    for (const double v : sample) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(RngTest, DirichletMeanIsUniform) {
  Rng rng(43);
  std::vector<double> mean(4, 0.0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const std::vector<double> sample = rng.Dirichlet(4, 1.0);
    for (int d = 0; d < 4; ++d) mean[d] += sample[d];
  }
  for (int d = 0; d < 4; ++d) {
    EXPECT_NEAR(mean[d] / n, 0.25, 0.01);
  }
}

TEST(RngTest, PermutationIsBijection) {
  Rng rng(47);
  const std::vector<int64_t> perm = rng.Permutation(100);
  std::set<int64_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 99);
}

TEST(RngTest, SplitProducesDecorrelatedStreams) {
  Rng parent(53);
  Rng child1 = parent.Split(1);
  Rng child2 = parent.Split(2);
  int equal_count = 0;
  for (int i = 0; i < 100; ++i) {
    if (child1.NextUint64() == child2.NextUint64()) ++equal_count;
  }
  EXPECT_LT(equal_count, 3);
}

void ExpectSameState(const Rng& a, const Rng& b, const std::string& label) {
  const Rng::State sa = a.GetState();
  const Rng::State sb = b.GetState();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(sa.words[i], sb.words[i]) << label;
  EXPECT_EQ(sa.has_spare_normal, sb.has_spare_normal) << label;
  EXPECT_EQ(sa.spare_normal, sb.spare_normal) << label;
}

// Discard(n) then k draws equals n + k draws: no jump, single matrix
// powers (1, 64), several (63, 65, 4095), a mask's chunk offset (126720 =
// 3/4 of the block-2 mask at batch 32) and a wide one (2^20 + 3).
TEST(RngTest, DiscardEqualsThatManyDraws) {
  for (const uint64_t n : {uint64_t{0}, uint64_t{1}, uint64_t{63},
                           uint64_t{64}, uint64_t{65}, uint64_t{4095},
                           uint64_t{126720}, (uint64_t{1} << 20) + 3}) {
    Rng jumped(0xD15CA2D);
    Rng stepped(0xD15CA2D);
    jumped.Discard(n);
    for (uint64_t i = 0; i < n; ++i) stepped.NextUint64();
    ExpectSameState(jumped, stepped, "n=" + std::to_string(n));
    for (int k = 0; k < 8; ++k) {
      EXPECT_EQ(jumped.NextUint64(), stepped.NextUint64())
          << "n=" << n << " draw " << k;
    }
  }
}

// The Box–Muller spare is not part of the xoshiro stream: a jump keeps it.
TEST(RngTest, DiscardKeepsTheNormalSpare) {
  Rng jumped(9);
  jumped.Normal();  // caches the pair's second value
  Rng stepped = jumped;
  jumped.Discard(1000);
  for (int i = 0; i < 1000; ++i) stepped.NextUint64();
  ExpectSameState(jumped, stepped, "after 1000");
  EXPECT_TRUE(jumped.GetState().has_spare_normal);
  EXPECT_EQ(jumped.Normal(), stepped.Normal());
}

// Jumps compose, up to the top matrix powers: Discard(a); Discard(b)
// equals Discard(a + b).
TEST(RngTest, DiscardsCompose) {
  const uint64_t half = uint64_t{1} << 63;
  const std::pair<uint64_t, uint64_t> pairs[] = {
      {3, 5}, {64, 64}, {4095, 1}, {126720, 42240},
      {uint64_t{1} << 40, uint64_t{1} << 40}, {half - 1, half - 7}};
  for (const auto& [a, b] : pairs) {
    Rng twice(77);
    Rng once(77);
    twice.Discard(a);
    twice.Discard(b);
    once.Discard(a + b);
    ExpectSameState(twice, once,
                    "a=" + std::to_string(a) + " b=" + std::to_string(b));
  }
}

}  // namespace
}  // namespace ppn
