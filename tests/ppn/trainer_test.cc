#include "ppn/trainer.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "backtest/backtester.h"
#include "common/math_utils.h"
#include "market/generator.h"
#include "ppn/strategy_adapter.h"

namespace ppn::core {
namespace {

market::MarketDataset SmallDataset(uint64_t seed = 9) {
  market::SyntheticMarketConfig config;
  config.num_assets = 4;
  config.num_periods = 400;
  config.seed = seed;
  config.late_listing_fraction = 0.0;
  // Strong planted structure so a few steps of training show progress.
  config.momentum = 0.25;
  config.lead_lag_strength = 0.5;
  market::SyntheticMarketGenerator generator(config);
  return generator.GenerateDataset("tiny", 0.8);
}

PolicyConfig SmallPolicyConfig(int64_t assets) {
  PolicyConfig config;
  config.variant = PolicyVariant::kPpn;
  config.num_assets = assets;
  config.window = 10;
  config.lstm_hidden = 4;
  config.block1_channels = 3;
  config.block2_channels = 4;
  config.seed = 3;
  return config;
}

TrainerConfig SmallTrainerConfig() {
  TrainerConfig config;
  config.batch_size = 8;
  config.steps = 30;
  config.seed = 5;
  return config;
}

TEST(TrainerTest, TrainStepRunsAndReturnsFiniteReward) {
  market::MarketDataset dataset = SmallDataset();
  Rng init(1);
  Rng dropout(2);
  auto policy = MakePolicy(SmallPolicyConfig(4), &init, &dropout);
  PolicyGradientTrainer trainer(policy.get(), dataset, SmallTrainerConfig());
  const double reward = trainer.TrainStep();
  EXPECT_TRUE(std::isfinite(reward));
}

TEST(TrainerTest, PvmIsUpdatedByTraining) {
  market::MarketDataset dataset = SmallDataset();
  Rng init(1);
  Rng dropout(2);
  auto policy = MakePolicy(SmallPolicyConfig(4), &init, &dropout);
  PolicyGradientTrainer trainer(policy.get(), dataset, SmallTrainerConfig());
  // Initially uniform over risk assets.
  const std::vector<double> before = trainer.pvm().Get(trainer.first_period());
  for (int step = 0; step < 20; ++step) trainer.TrainStep();
  // After enough random batches some period near the start must have been
  // rewritten with a network output (cash weight > 0 is the give-away:
  // uniform init has cash == 0).
  bool changed = false;
  for (int64_t t = trainer.first_period(); t < trainer.last_period(); ++t) {
    if (trainer.pvm().Get(t) != before) changed = true;
  }
  EXPECT_TRUE(changed);
  // All PVM entries remain simplex vectors.
  for (int64_t t = trainer.first_period(); t < trainer.last_period(); ++t) {
    EXPECT_TRUE(IsOnSimplex(trainer.pvm().Get(t), 1e-5)) << "t=" << t;
  }
}

TEST(TrainerTest, DeterministicWithSameSeeds) {
  market::MarketDataset dataset = SmallDataset();
  auto run = [&dataset]() {
    Rng init(1);
    Rng dropout(2);
    auto policy = MakePolicy(SmallPolicyConfig(4), &init, &dropout);
    PolicyGradientTrainer trainer(policy.get(), dataset,
                                  SmallTrainerConfig());
    double last = 0.0;
    for (int step = 0; step < 5; ++step) last = trainer.TrainStep();
    return last;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(TrainerTest, AdversarialEpsilonZeroIsBitIdenticalToLegacy) {
  // ε = 0 must not consume a single RNG draw: the training stream (and
  // hence every checkpoint) is bit-identical to a config without the knob.
  market::MarketDataset dataset = SmallDataset();
  auto run = [&dataset](double epsilon) {
    Rng init(1);
    Rng dropout(2);
    auto policy = MakePolicy(SmallPolicyConfig(4), &init, &dropout);
    TrainerConfig tc = SmallTrainerConfig();
    tc.adversarial_epsilon = epsilon;
    PolicyGradientTrainer trainer(policy.get(), dataset, tc);
    std::vector<double> rewards;
    for (int step = 0; step < 5; ++step) rewards.push_back(trainer.TrainStep());
    return rewards;
  };
  const std::vector<double> legacy = run(0.0);
  EXPECT_EQ(legacy, run(0.0));
  // A live adversary perturbs the relatives, so the stream must diverge.
  EXPECT_NE(legacy, run(0.05));
}

bool AllWeightsFinite(PolicyModule* policy) {
  for (const ag::Var& p : policy->Parameters()) {
    for (int64_t i = 0; i < p->numel(); ++i) {
      if (!std::isfinite(p->value()[i])) return false;
    }
  }
  return true;
}

// A NaN high price at period 8 lies inside the windows of decisions 10..18
// (window 10). It is the denominator of none of them, and price relatives
// read only closes, so the trainer builds; every batch that covers one of
// those decisions has a NaN loss. Those steps must leave the weights alone.
TEST(TrainerTest, NonFiniteStepsSkipTheUpdate) {
  market::SyntheticMarketConfig config;
  config.num_assets = 4;
  config.num_periods = 80;
  config.seed = 9;
  config.late_listing_fraction = 0.0;
  market::MarketDataset dataset =
      market::SyntheticMarketGenerator(config).GenerateDataset("nan", 0.8);
  dataset.panel.SetPrice(8, 1, market::kHigh,
                         std::numeric_limits<double>::quiet_NaN());
  Rng init(1);
  Rng dropout(2);
  auto policy = MakePolicy(SmallPolicyConfig(4), &init, &dropout);
  PolicyGradientTrainer trainer(policy.get(), dataset, SmallTrainerConfig());
  int64_t nonfinite_rewards = 0;
  for (int step = 0; step < 30; ++step) {
    if (!std::isfinite(trainer.TrainStep())) ++nonfinite_rewards;
    ASSERT_TRUE(AllWeightsFinite(policy.get())) << "step " << step;
  }
  EXPECT_GT(trainer.nonfinite_steps(), 0);
  EXPECT_EQ(trainer.nonfinite_steps(), nonfinite_rewards);
  EXPECT_LT(trainer.nonfinite_steps(), 30);
  EXPECT_TRUE(std::isfinite(trainer.tail_mean()));
  for (int64_t t = trainer.first_period(); t < trainer.last_period(); ++t) {
    EXPECT_TRUE(IsOnSimplex(trainer.pvm().Get(t), 1e-5)) << "t=" << t;
  }
}

TEST(TrainerTest, FiniteRunCountsNoNonFiniteSteps) {
  market::MarketDataset dataset = SmallDataset();
  Rng init(1);
  Rng dropout(2);
  auto policy = MakePolicy(SmallPolicyConfig(4), &init, &dropout);
  PolicyGradientTrainer trainer(policy.get(), dataset, SmallTrainerConfig());
  for (int step = 0; step < 5; ++step) trainer.TrainStep();
  EXPECT_EQ(trainer.nonfinite_steps(), 0);
}

TEST(TrainerDeathTest, AdversarialEpsilonOutOfRangeAborts) {
  market::MarketDataset dataset = SmallDataset();
  Rng init(1);
  Rng dropout(2);
  auto policy = MakePolicy(SmallPolicyConfig(4), &init, &dropout);
  TrainerConfig tc = SmallTrainerConfig();
  tc.adversarial_epsilon = 1.0;
  EXPECT_DEATH(PolicyGradientTrainer(policy.get(), dataset, tc),
               "adversarial_epsilon");
}

TEST(TrainerTest, TrainingImprovesRewardOnEasyMarket) {
  // A strongly trending market: the policy should learn to beat the
  // uniform starting point within a few dozen steps.
  market::SyntheticMarketConfig mc;
  mc.num_assets = 3;
  mc.num_periods = 300;
  mc.seed = 21;
  mc.late_listing_fraction = 0.0;
  mc.regime_drifts = {4e-3};  // Strong steady uptrend.
  mc.regime_switch_prob = 0.0;
  mc.idio_vol = 0.004;
  mc.factor_vol = 0.002;
  market::SyntheticMarketGenerator generator(mc);
  market::MarketDataset dataset = generator.GenerateDataset("trend", 0.85);

  Rng init(1);
  Rng dropout(2);
  auto policy = MakePolicy(SmallPolicyConfig(3), &init, &dropout);
  TrainerConfig tc = SmallTrainerConfig();
  tc.steps = 60;
  PolicyGradientTrainer trainer(policy.get(), dataset, tc);
  double early_sum = 0.0;
  double late_sum = 0.0;
  for (int step = 0; step < 60; ++step) {
    const double reward = trainer.TrainStep();
    if (step < 10) early_sum += reward;
    if (step >= 50) late_sum += reward;
  }
  EXPECT_GT(late_sum / 10.0, early_sum / 10.0);
}

TEST(TrainerTest, StrategyAdapterBacktestsAfterTraining) {
  market::MarketDataset dataset = SmallDataset();
  Rng init(1);
  Rng dropout(2);
  auto policy = MakePolicy(SmallPolicyConfig(4), &init, &dropout);
  PolicyGradientTrainer trainer(policy.get(), dataset, SmallTrainerConfig());
  trainer.Train();
  PolicyStrategy strategy(policy.get(), "PPN");
  const backtest::BacktestRecord record =
      backtest::RunOnTestRange(&strategy, dataset, 0.0025);
  EXPECT_EQ(record.wealth_curve.size(),
            static_cast<size_t>(dataset.panel.num_periods() -
                                dataset.train_end));
  for (const auto& action : record.actions) {
    EXPECT_TRUE(IsOnSimplex(action, 1e-5));
  }
}

TEST(TrainerDeathTest, TooShortTrainingRangeAborts) {
  market::MarketDataset dataset = SmallDataset();
  dataset.train_end = 15;  // window 10 + batch 8 does not fit.
  Rng init(1);
  Rng dropout(2);
  auto policy = MakePolicy(SmallPolicyConfig(4), &init, &dropout);
  EXPECT_DEATH(
      PolicyGradientTrainer(policy.get(), dataset, SmallTrainerConfig()),
      "training range too short");
}

TEST(TrainerDeathTest, NullPolicyAbortsWithAMessage) {
  const market::MarketDataset dataset = SmallDataset();
  EXPECT_DEATH(PolicyGradientTrainer(nullptr, dataset, SmallTrainerConfig()),
               "PolicyGradientTrainer: policy is null");
}

TEST(PvmTest, InitializedUniformAndSettable) {
  PortfolioVectorMemory pvm(10, 4);
  const std::vector<double>& initial = pvm.Get(3);
  EXPECT_DOUBLE_EQ(initial[0], 0.0);
  EXPECT_DOUBLE_EQ(initial[1], 0.25);
  pvm.Set(3, {1.0, 0.0, 0.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(pvm.Get(3)[0], 1.0);
}

TEST(PvmDeathTest, OutOfRangeAborts) {
  PortfolioVectorMemory pvm(10, 2);
  EXPECT_DEATH(pvm.Get(10), "PPN_CHECK");
  EXPECT_DEATH(pvm.Set(0, {1.0}), "PPN_CHECK");
}

}  // namespace
}  // namespace ppn::core
