#include "backtest/backtester.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/math_utils.h"

namespace ppn::backtest {
namespace {

// Deterministic two-asset panel with known relatives.
market::OhlcPanel MakePanel(int64_t periods, double growth0, double growth1) {
  market::OhlcPanel panel(periods, 2);
  double c0 = 10.0;
  double c1 = 20.0;
  for (int64_t t = 0; t < periods; ++t) {
    for (int64_t a = 0; a < 2; ++a) {
      const double close = a == 0 ? c0 : c1;
      panel.SetPrice(t, a, market::kOpen, close);
      panel.SetPrice(t, a, market::kHigh, close * 1.001);
      panel.SetPrice(t, a, market::kLow, close * 0.999);
      panel.SetPrice(t, a, market::kClose, close);
    }
    c0 *= growth0;
    c1 *= growth1;
  }
  return panel;
}

// Always stays fully in cash.
class CashStrategy : public Strategy {
 public:
  std::string name() const override { return "Cash"; }
  std::vector<double> DecideWeights(const MarketView& view,
                                    const std::vector<double>&) override {
    std::vector<double> action(view.panel.num_assets() + 1, 0.0);
    action[0] = 1.0;
    return action;
  }
};

// Always all-in on one risk asset.
class SingleAssetStrategy : public Strategy {
 public:
  explicit SingleAssetStrategy(int64_t asset) : asset_(asset) {}
  std::string name() const override { return "Single"; }
  std::vector<double> DecideWeights(const MarketView& view,
                                    const std::vector<double>&) override {
    std::vector<double> action(view.panel.num_assets() + 1, 0.0);
    action[asset_ + 1] = 1.0;
    return action;
  }

 private:
  int64_t asset_;
};

// Returns a non-simplex vector (for the contract death test).
class BrokenStrategy : public Strategy {
 public:
  std::string name() const override { return "Broken"; }
  std::vector<double> DecideWeights(const MarketView& view,
                                    const std::vector<double>&) override {
    return std::vector<double>(view.panel.num_assets() + 1, 0.9);
  }
};

TEST(BacktesterTest, CashKeepsWealthAtOne) {
  market::OhlcPanel panel = MakePanel(20, 1.02, 0.99);
  CashStrategy strategy;
  BacktestConfig config;
  config.start_period = 5;
  config.end_period = 20;
  const BacktestRecord record = RunBacktest(&strategy, panel, config);
  ASSERT_EQ(record.wealth_curve.size(), 15u);
  for (const double w : record.wealth_curve) EXPECT_NEAR(w, 1.0, 1e-12);
  for (const double c : record.cost_fractions) EXPECT_NEAR(c, 0.0, 1e-12);
}

TEST(BacktesterTest, SingleAssetTracksGrowthWithoutCosts) {
  market::OhlcPanel panel = MakePanel(20, 1.02, 0.99);
  SingleAssetStrategy strategy(0);
  BacktestConfig config;
  config.costs = CostModel::Uniform(0.0);
  config.start_period = 1;
  config.end_period = 20;
  const BacktestRecord record = RunBacktest(&strategy, panel, config);
  EXPECT_NEAR(record.wealth_curve.back(), std::pow(1.02, 19), 1e-6);
}

TEST(BacktesterTest, InitialBuyIncursCost) {
  market::OhlcPanel panel = MakePanel(10, 1.0, 1.0);  // Flat market.
  SingleAssetStrategy strategy(0);
  BacktestConfig config;
  config.costs = CostModel::Uniform(0.0025);
  config.start_period = 1;
  config.end_period = 10;
  const BacktestRecord record = RunBacktest(&strategy, panel, config);
  // One initial purchase: wealth = 1/(1+ψ); then no further trades
  // (portfolio already on target), so wealth stays there.
  EXPECT_NEAR(record.wealth_curve.back(), 1.0 / 1.0025, 1e-9);
  EXPECT_GT(record.cost_fractions[0], 0.0);
  for (size_t t = 1; t < record.cost_fractions.size(); ++t) {
    EXPECT_NEAR(record.cost_fractions[t], 0.0, 1e-12);
  }
}

TEST(BacktesterTest, WealthIdentityHolds) {
  // wealth_t = Π (a·x) ω — recompute independently from the record.
  market::OhlcPanel panel = MakePanel(15, 1.01, 0.98);
  SingleAssetStrategy strategy(1);
  BacktestConfig config;
  config.start_period = 2;
  config.end_period = 15;
  const BacktestRecord record = RunBacktest(&strategy, panel, config);
  double wealth = 1.0;
  for (size_t i = 0; i < record.log_returns.size(); ++i) {
    wealth *= std::exp(record.log_returns[i]);
    EXPECT_NEAR(record.wealth_curve[i], wealth, 1e-9);
  }
}

TEST(BacktesterTest, ActionsAreRecordedOnSimplex) {
  market::OhlcPanel panel = MakePanel(10, 1.01, 1.0);
  SingleAssetStrategy strategy(0);
  BacktestConfig config;
  config.start_period = 1;
  config.end_period = 10;
  const BacktestRecord record = RunBacktest(&strategy, panel, config);
  for (const auto& action : record.actions) {
    EXPECT_TRUE(IsOnSimplex(action, 1e-9));
  }
}

TEST(BacktesterTest, HaltedAssetIsForceLiquidated) {
  // Asset 0 grows 2%/period but goes non-tradeable at t=5: the backtester
  // must force the position out (to cash here — the strategy wants nothing
  // else) and the halted bars contribute relative 1.0.
  market::OhlcPanel panel = MakePanel(10, 1.02, 1.0);
  for (int64_t t = 5; t < 10; ++t) panel.SetTradeable(t, 0, false);
  SingleAssetStrategy strategy(0);
  BacktestConfig config;
  config.costs = CostModel::Uniform(0.0);
  config.start_period = 1;
  config.end_period = 10;
  const BacktestRecord record = RunBacktest(&strategy, panel, config);
  // 4 tradeable growth periods (t=1..4), then flat in cash.
  EXPECT_NEAR(record.wealth_curve.back(), std::pow(1.02, 4), 1e-9);
  const std::vector<double>& last_action = record.actions.back();
  EXPECT_NEAR(last_action[0], 1.0, 1e-12);
  EXPECT_NEAR(last_action[1], 0.0, 1e-12);
}

TEST(BacktesterTest, CostMultipliersScaleRebalanceCosts) {
  // Flat market, one initial buy at t=1 where the multiplier doubles ψ:
  // wealth = 1/(1 + 2ψ) instead of the unscaled 1/(1 + ψ).
  market::OhlcPanel panel = MakePanel(10, 1.0, 1.0);
  SingleAssetStrategy strategy(0);
  BacktestConfig config;
  config.costs = CostModel::Uniform(0.0025);
  config.start_period = 1;
  config.end_period = 10;
  config.cost_multipliers.assign(10, 1.0);
  config.cost_multipliers[1] = 2.0;
  const BacktestRecord record = RunBacktest(&strategy, panel, config);
  EXPECT_NEAR(record.wealth_curve.back(), 1.0 / 1.005, 1e-9);
}

TEST(BacktesterTest, RunOnTestRangeUsesSplit) {
  market::MarketDataset dataset;
  dataset.panel = MakePanel(30, 1.01, 1.0);
  dataset.train_end = 20;
  CashStrategy strategy;
  const BacktestRecord record = RunOnTestRange(&strategy, dataset, 0.0025);
  EXPECT_EQ(record.wealth_curve.size(), 10u);
}

TEST(BookPeriodTest, BooksGrossNetAndTurnover) {
  // From half cash, half asset 0 into all asset 0 while it gains 2%.
  const market::OhlcPanel panel = MakePanel(10, 1.02, 1.0);
  const std::vector<double> prev_hat = {0.5, 0.5, 0.0};
  const CostModel costs = CostModel::Uniform(0.0025);
  const Booking booking =
      BookPeriod(panel, 3, prev_hat, {0.0, 1.0, 0.0}, costs);
  ASSERT_EQ(booking.status, BookingStatus::kOk);
  EXPECT_TRUE(booking.error.empty());
  EXPECT_EQ(booking.weights, (std::vector<double>{0.0, 1.0, 0.0}));
  EXPECT_EQ(booking.solve.omega,
            SolveNetWealthFactor(prev_hat, booking.weights, costs));
  EXPECT_NEAR(booking.gross_return, 1.02, 1e-12);
  EXPECT_EQ(booking.net_return, booking.gross_return * booking.solve.omega);
  EXPECT_EQ(booking.turnover, 0.5 + std::fabs(0.5 - booking.solve.omega));
}

TEST(BookPeriodTest, UntradeableAssetsAreForcedOut) {
  market::OhlcPanel panel = MakePanel(10, 1.0, 1.0);
  panel.SetTradeable(3, 0, false);
  const std::vector<double> cash = {1.0, 0.0, 0.0};
  const CostModel costs = CostModel::Uniform(0.0025);
  // The freed weight goes to what is left of the target ...
  EXPECT_EQ(BookPeriod(panel, 3, cash, {0.0, 0.5, 0.5}, costs).weights,
            (std::vector<double>{0.0, 0.0, 1.0}));
  // ... or to cash when nothing tradeable is left.
  EXPECT_EQ(BookPeriod(panel, 3, cash, {0.0, 1.0, 0.0}, costs).weights,
            cash);
}

TEST(BookPeriodTest, NonSimplexTargetIsAStatus) {
  const market::OhlcPanel panel = MakePanel(10, 1.0, 1.0);
  const std::vector<double> cash = {1.0, 0.0, 0.0};
  for (const std::vector<double>& target :
       {std::vector<double>{0.9, 0.9, 0.9},
        std::vector<double>{std::numeric_limits<double>::quiet_NaN(), 0.5,
                            0.5}}) {
    const Booking booking =
        BookPeriod(panel, 3, cash, target, CostModel::Uniform(0.0025));
    EXPECT_EQ(booking.status, BookingStatus::kNonSimplexTarget);
    EXPECT_EQ(booking.error, "non-simplex portfolio at t=3");
  }
}

TEST(BookPeriodTest, NonConvergedSolveIsAStatus) {
  // At ψ = 0.9999 the fixed point contracts by 0.9999 per step, so a buy
  // from cash needs ~2.5e5 steps and hits the solver's iteration cap.
  const market::OhlcPanel panel = MakePanel(10, 1.0, 1.0);
  const Booking booking = BookPeriod(panel, 3, {1.0, 0.0, 0.0},
                                     {0.0, 1.0, 0.0},
                                     CostModel::Uniform(0.9999));
  EXPECT_EQ(booking.status, BookingStatus::kNotConverged);
  EXPECT_NE(booking.error.find("net-wealth solve failed"), std::string::npos)
      << booking.error;
}

TEST(BacktesterDeathTest, NonSimplexActionAborts) {
  market::OhlcPanel panel = MakePanel(10, 1.0, 1.0);
  BrokenStrategy strategy;
  BacktestConfig config;
  config.start_period = 1;
  config.end_period = 10;
  EXPECT_DEATH(RunBacktest(&strategy, panel, config), "non-simplex");
}

TEST(BacktesterDeathTest, BadRangeAborts) {
  market::OhlcPanel panel = MakePanel(10, 1.0, 1.0);
  CashStrategy strategy;
  BacktestConfig config;
  config.start_period = 8;
  config.end_period = 8;
  EXPECT_DEATH(RunBacktest(&strategy, panel, config), "PPN_CHECK");
}

}  // namespace
}  // namespace ppn::backtest
