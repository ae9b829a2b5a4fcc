#include "ppn/ddpg.h"

#include <cmath>

#include <gtest/gtest.h>

#include "backtest/backtester.h"
#include "common/math_utils.h"
#include "market/generator.h"
#include "ppn/strategy_adapter.h"

namespace ppn::core {
namespace {

market::MarketDataset SmallDataset() {
  market::SyntheticMarketConfig config;
  config.num_assets = 3;
  config.num_periods = 250;
  config.seed = 31;
  config.late_listing_fraction = 0.0;
  market::SyntheticMarketGenerator generator(config);
  return generator.GenerateDataset("ddpg-tiny", 0.8);
}

PolicyConfig SmallPolicyConfig() {
  PolicyConfig config;
  config.variant = PolicyVariant::kPpn;
  config.num_assets = 3;
  config.window = 8;
  config.lstm_hidden = 4;
  config.block1_channels = 3;
  config.block2_channels = 4;
  config.seed = 3;
  return config;
}

TEST(CriticTest, OutputShape) {
  Rng init(1);
  CriticNetwork critic(SmallPolicyConfig(), &init);
  Tensor windows({2, 3, 8, 4});
  Tensor prev = Tensor::Full({2, 3}, 1.0f / 3);
  Tensor actions = Tensor::Full({2, 4}, 0.25f);
  ag::Var q = critic.Forward(ag::Constant(windows), ag::Constant(prev),
                             ag::Constant(actions));
  EXPECT_EQ(q->value().shape(), (std::vector<int64_t>{2, 1}));
}

TEST(CriticTest, ActionInfluencesQ) {
  Rng init(1);
  CriticNetwork critic(SmallPolicyConfig(), &init);
  Rng data(4);
  Tensor windows = RandomNormal({1, 3, 8, 4}, 1.0f, 0.05f, &data);
  Tensor prev = Tensor::Full({1, 3}, 1.0f / 3);
  Tensor a1 = Tensor::Full({1, 4}, 0.25f);
  Tensor a2({1, 4}, {1.0f, 0.0f, 0.0f, 0.0f});
  ag::Var q1 = critic.Forward(ag::Constant(windows), ag::Constant(prev),
                              ag::Constant(a1));
  ag::Var q2 = critic.Forward(ag::Constant(windows), ag::Constant(prev),
                              ag::Constant(a2));
  EXPECT_NE(q1->value()[0], q2->value()[0]);
}

TEST(CriticTest, GradientFlowsToActionInput) {
  // The actor update depends on dQ/da being nonzero.
  Rng init(1);
  CriticNetwork critic(SmallPolicyConfig(), &init);
  Rng data(4);
  Tensor windows = RandomNormal({1, 3, 8, 4}, 1.0f, 0.05f, &data);
  ag::Var actions = ag::Parameter(Tensor::Full({1, 4}, 0.25f));
  ag::Var q = critic.Forward(ag::Constant(windows),
                             ag::Constant(Tensor::Full({1, 3}, 1.0f / 3)),
                             actions);
  ag::Backward(ag::MeanAll(q));
  ASSERT_TRUE(actions->has_grad());
  bool nonzero = false;
  for (int64_t i = 0; i < 4; ++i) {
    if (actions->grad()[i] != 0.0f) nonzero = true;
  }
  EXPECT_TRUE(nonzero);
}

TEST(DdpgTrainerTest, RunsAndProducesUsableActor) {
  market::MarketDataset dataset = SmallDataset();
  Rng init(1);
  Rng dropout(2);
  auto actor = MakePolicy(SmallPolicyConfig(), &init, &dropout);
  DdpgConfig config;
  config.steps = 40;
  config.warmup = 8;
  config.batch_size = 8;
  config.seed = 7;
  DdpgTrainer trainer(actor.get(), dataset, config);
  const double tail_reward = trainer.Train();
  EXPECT_TRUE(std::isfinite(tail_reward));
  // The trained actor must still emit valid portfolios.
  PolicyStrategy strategy(actor.get(), "PPN-AC");
  const backtest::BacktestRecord record =
      backtest::RunOnTestRange(&strategy, dataset, 0.0025);
  for (const auto& action : record.actions) {
    EXPECT_TRUE(IsOnSimplex(action, 1e-5));
  }
}

TEST(DdpgTrainerTest, DeterministicWithSeed) {
  market::MarketDataset dataset = SmallDataset();
  auto run = [&dataset]() {
    Rng init(1);
    Rng dropout(2);
    auto actor = MakePolicy(SmallPolicyConfig(), &init, &dropout);
    DdpgConfig config;
    config.steps = 12;
    config.warmup = 6;
    config.batch_size = 4;
    config.seed = 7;
    DdpgTrainer trainer(actor.get(), dataset, config);
    return trainer.Train();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(DdpgTrainerDeathTest, NullActorAbortsWithAMessage) {
  const market::MarketDataset dataset = SmallDataset();
  EXPECT_DEATH(DdpgTrainer(nullptr, dataset, DdpgConfig{}),
               "DdpgTrainer: actor is null");
}

}  // namespace
}  // namespace ppn::core
