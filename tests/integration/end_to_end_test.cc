#include <sys/wait.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "backtest/backtester.h"
#include "ckpt/binio.h"
#include "common/math_utils.h"
#include "market/presets.h"
#include "ppn/strategy_adapter.h"
#include "ppn/trainer.h"
#include "strategies/registry.h"

namespace ppn {
namespace {

// Shared smoke-scale dataset: built once, reused across tests.
const market::MarketDataset& SmokeDataset() {
  static const market::MarketDataset* dataset = [] {
    auto* d = new market::MarketDataset(
        market::MakeDataset(market::DatasetId::kCryptoA, RunScale::kSmoke));
    return d;
  }();
  return *dataset;
}

core::PolicyConfig SmokePolicyConfig(core::PolicyVariant variant,
                                     int64_t assets) {
  core::PolicyConfig config;
  config.variant = variant;
  config.num_assets = assets;
  config.window = 12;
  config.lstm_hidden = 6;
  config.block1_channels = 4;
  config.block2_channels = 6;
  config.seed = 11;
  return config;
}

// Trains a variant briefly and backtests it on the smoke dataset.
backtest::Metrics TrainAndEvaluate(core::PolicyVariant variant,
                                   double gamma, double lambda,
                                   double cost_rate, int steps = 120) {
  const market::MarketDataset& dataset = SmokeDataset();
  Rng init(42);
  Rng dropout(43);
  auto policy = core::MakePolicy(
      SmokePolicyConfig(variant, dataset.panel.num_assets()), &init, &dropout);
  core::TrainerConfig tc;
  tc.batch_size = 16;
  tc.steps = steps;
  tc.seed = 7;
  tc.reward.gamma = gamma;
  tc.reward.lambda = lambda;
  tc.reward.cost_rate = cost_rate;
  core::PolicyGradientTrainer trainer(policy.get(), dataset, tc);
  trainer.Train();
  core::PolicyStrategy strategy(policy.get(), core::VariantName(variant));
  return backtest::ComputeMetrics(
      backtest::RunOnTestRange(&strategy, dataset, cost_rate));
}

TEST(EndToEndTest, FullPipelineProducesFiniteMetrics) {
  const backtest::Metrics metrics = TrainAndEvaluate(
      core::PolicyVariant::kPpn, 1e-3, 1e-4, 0.0025);
  EXPECT_TRUE(std::isfinite(metrics.apv));
  EXPECT_GT(metrics.apv, 0.0);
  EXPECT_GE(metrics.turnover, 0.0);
  EXPECT_LE(metrics.mdd_pct, 100.0);
}

TEST(EndToEndTest, LargeGammaSuppressesTurnover) {
  // The paper's Table 6 shape: a strongly constrained policy must trade
  // far less than an unconstrained one.
  const backtest::Metrics aggressive = TrainAndEvaluate(
      core::PolicyVariant::kPpn, 0.0, 1e-4, 0.0025, /*steps=*/250);
  const backtest::Metrics passive = TrainAndEvaluate(
      core::PolicyVariant::kPpn, 0.5, 1e-4, 0.0025, /*steps=*/250);
  EXPECT_LT(passive.turnover, aggressive.turnover);
}

TEST(EndToEndTest, ClassicBaselinesRunOnPresetDataset) {
  const market::MarketDataset& dataset = SmokeDataset();
  for (const std::string& name : strategies::ClassicBaselineNames()) {
    auto strategy = strategies::MakeStrategy({.name = name}, dataset);
    const backtest::BacktestRecord record =
        backtest::RunOnTestRange(strategy.get(), dataset, 0.0025);
    EXPECT_GT(record.wealth_curve.back(), 0.0) << name;
  }
}

TEST(EndToEndTest, AllVariantsSurviveTrainingAndBacktest) {
  for (const core::PolicyVariant variant : core::Table4Variants()) {
    const backtest::Metrics metrics =
        TrainAndEvaluate(variant, 1e-3, 1e-4, 0.0025, /*steps=*/25);
    EXPECT_TRUE(std::isfinite(metrics.apv)) << core::VariantName(variant);
  }
}

TEST(EndToEndTest, SavedPolicyReproducesDecisions) {
  const market::MarketDataset& dataset = SmokeDataset();
  const int64_t m = dataset.panel.num_assets();
  Rng init(42);
  Rng dropout(43);
  auto policy = core::MakePolicy(
      SmokePolicyConfig(core::PolicyVariant::kPpn, m), &init, &dropout);
  core::TrainerConfig tc;
  tc.batch_size = 16;
  tc.steps = 10;
  core::PolicyGradientTrainer trainer(policy.get(), dataset, tc);
  trainer.Train();
  std::ostringstream out;
  ckpt::BinWriter writer(&out);
  policy->SaveState(&writer);
  const std::string bytes = out.str();

  Rng init2(999);
  Rng dropout2(998);
  auto restored = core::MakePolicy(
      SmokePolicyConfig(core::PolicyVariant::kPpn, m), &init2, &dropout2);
  ckpt::BinReader reader(bytes.data(), bytes.size());
  std::string error;
  ASSERT_TRUE(restored->LoadState(&reader, &error)) << error;

  core::PolicyStrategy s1(policy.get(), "orig");
  core::PolicyStrategy s2(restored.get(), "restored");
  const backtest::BacktestRecord r1 =
      backtest::RunOnTestRange(&s1, dataset, 0.0025);
  const backtest::BacktestRecord r2 =
      backtest::RunOnTestRange(&s2, dataset, 0.0025);
  ASSERT_EQ(r1.actions.size(), r2.actions.size());
  for (size_t t = 0; t < r1.actions.size(); ++t) {
    for (size_t i = 0; i < r1.actions[t].size(); ++i) {
      EXPECT_NEAR(r1.actions[t][i], r2.actions[t][i], 1e-6);
    }
  }
}

/// Runs `ppn_cli <args>` at smoke scale with its output appended to `log`;
/// returns the exit code.
int RunCli(const std::string& args, const std::string& log) {
  const int status = std::system(("PPN_SCALE=smoke " PPN_CLI_BIN " " + args +
                                  " >> " + log + " 2>&1")
                                     .c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(WeightsFileCliTest, TrainedWeightsLoadAndUnfitFilesAreNamed) {
  const std::string dir = ::testing::TempDir() + "/weights_cli";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string weights = dir + "/policy.weights";
  const std::string log = dir + "/cli.log";
  ASSERT_EQ(RunCli("train --steps 6 --weights " + weights, log), 0)
      << ReadFile(log);
  EXPECT_EQ(RunCli("backtest --weights " + weights, log), 0) << ReadFile(log);
  EXPECT_EQ(RunCli("serve --weights " + weights +
                       " --users 8 --ticks 3 --batch 4",
                   log),
            0)
      << ReadFile(log);

  const std::string named = "failed loading weights '" + weights + "'";
  const std::string variant_log = dir + "/variant.log";
  EXPECT_EQ(RunCli("serve --variant PPN-I --weights " + weights, variant_log),
            1);
  EXPECT_NE(ReadFile(variant_log).find(named), std::string::npos)
      << ReadFile(variant_log);

  std::filesystem::resize_file(weights,
                               std::filesystem::file_size(weights) - 1);
  const std::string truncated_log = dir + "/truncated.log";
  EXPECT_EQ(RunCli("backtest --weights " + weights, truncated_log), 1);
  EXPECT_NE(ReadFile(truncated_log).find(named), std::string::npos)
      << ReadFile(truncated_log);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ppn
