// Contract tests for the shared config validation: every trainer-facing
// config exposes Validate(), called at trainer construction, that aborts
// on malformed hyperparameters instead of silently training garbage.

#include <gtest/gtest.h>

#include "ppn/ddpg.h"
#include "ppn/reward.h"
#include "ppn/trainer.h"

namespace ppn::core {
namespace {

// --- RewardConfig. -------------------------------------------------------

TEST(RewardConfigTest, DefaultsAreValid) {
  RewardConfig config;
  config.Validate();  // Must not abort.
}

TEST(RewardConfigDeathTest, NegativeLambdaAborts) {
  RewardConfig config;
  config.lambda = -1e-4;
  EXPECT_DEATH(config.Validate(), "");
}

TEST(RewardConfigDeathTest, NegativeGammaAborts) {
  RewardConfig config;
  config.gamma = -1e-3;
  EXPECT_DEATH(config.Validate(), "");
}

TEST(RewardConfigDeathTest, CostRateOutOfRangeAborts) {
  RewardConfig config;
  config.cost_rate = 1.0;
  EXPECT_DEATH(config.Validate(), "");
  config.cost_rate = -0.01;
  EXPECT_DEATH(config.Validate(), "");
}

// --- TrainerConfig. ------------------------------------------------------

TEST(TrainerConfigTest, DefaultsAreValid) {
  TrainerConfig config;
  config.Validate();
}

TEST(TrainerConfigDeathTest, NonPositiveBatchSizeAborts) {
  TrainerConfig config;
  config.batch_size = 0;
  EXPECT_DEATH(config.Validate(), "");
}

TEST(TrainerConfigDeathTest, NonPositiveStepsAborts) {
  TrainerConfig config;
  config.steps = -5;
  EXPECT_DEATH(config.Validate(), "");
}

TEST(TrainerConfigDeathTest, NonPositiveLearningRateAborts) {
  TrainerConfig config;
  config.learning_rate = 0.0f;
  EXPECT_DEATH(config.Validate(), "");
}

TEST(TrainerConfigDeathTest, NegativeWeightDecayAborts) {
  TrainerConfig config;
  config.weight_decay = -1e-3f;
  EXPECT_DEATH(config.Validate(), "");
}

TEST(TrainerConfigDeathTest, NonPositiveGradClipAborts) {
  TrainerConfig config;
  config.grad_clip = 0.0;
  EXPECT_DEATH(config.Validate(), "");
}

TEST(TrainerConfigDeathTest, InvalidNestedRewardAborts) {
  // Validate recurses into the reward config.
  TrainerConfig config;
  config.reward.lambda = -1.0;
  EXPECT_DEATH(config.Validate(), "");
}

// --- DdpgConfig. ---------------------------------------------------------

TEST(DdpgConfigTest, DefaultsAreValid) {
  DdpgConfig config;
  config.Validate();
}

TEST(DdpgConfigDeathTest, NonPositiveStepsAborts) {
  DdpgConfig config;
  config.steps = 0;
  EXPECT_DEATH(config.Validate(), "");
}

TEST(DdpgConfigDeathTest, BufferSmallerThanBatchAborts) {
  DdpgConfig config;
  config.batch_size = 32;
  config.buffer_capacity = 16;
  EXPECT_DEATH(config.Validate(), "");
}

TEST(DdpgConfigDeathTest, NegativeWarmupAborts) {
  DdpgConfig config;
  config.warmup = -1;
  EXPECT_DEATH(config.Validate(), "");
}

TEST(DdpgConfigDeathTest, NonPositiveLearningRatesAbort) {
  DdpgConfig config;
  config.actor_lr = 0.0f;
  EXPECT_DEATH(config.Validate(), "");
  config = DdpgConfig{};
  config.critic_lr = -1e-3f;
  EXPECT_DEATH(config.Validate(), "");
}

TEST(DdpgConfigDeathTest, TauOutOfRangeAborts) {
  DdpgConfig config;
  config.tau = 0.0f;  // Target networks would never update.
  EXPECT_DEATH(config.Validate(), "");
  config.tau = 1.5f;
  EXPECT_DEATH(config.Validate(), "");
}

TEST(DdpgConfigDeathTest, DiscountOutOfRangeAborts) {
  DdpgConfig config;
  config.discount = 1.5f;
  EXPECT_DEATH(config.Validate(), "");
}

TEST(DdpgConfigDeathTest, ExploreWeightsOutOfRangeAbort) {
  DdpgConfig config;
  config.explore_start = 1.5;
  EXPECT_DEATH(config.Validate(), "");
  config = DdpgConfig{};
  config.explore_end = -0.1;
  EXPECT_DEATH(config.Validate(), "");
}

TEST(DdpgConfigDeathTest, CostRateOutOfRangeAborts) {
  DdpgConfig config;
  config.cost_rate = 1.0;
  EXPECT_DEATH(config.Validate(), "");
}

}  // namespace
}  // namespace ppn::core
