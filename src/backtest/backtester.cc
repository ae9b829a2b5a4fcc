#include "backtest/backtester.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/math_utils.h"

namespace ppn::backtest {

void Strategy::Reset(const market::OhlcPanel& panel, int64_t first_period) {
  (void)panel;
  (void)first_period;
}

std::vector<double> DriftedHolding(const market::OhlcPanel& panel, int64_t t,
                                   const std::vector<double>& held) {
  if (t < 2) return held;
  return DriftPortfolio(held, market::PriceRelativesWithCash(panel, t - 1));
}

Booking BookPeriod(const market::OhlcPanel& panel, int64_t t,
                   const std::vector<double>& prev_hat,
                   std::vector<double> target, const CostModel& costs) {
  PPN_CHECK_EQ(target.size(), static_cast<size_t>(panel.num_assets() + 1));
  PPN_CHECK_EQ(prev_hat.size(), target.size());
  Booking booking;
  const auto fail = [&](BookingStatus status, const auto&... what) {
    std::ostringstream error;
    (error << ... << what) << " at t=" << t;
    booking.status = status;
    booking.error = error.str();
    return std::move(booking);
  };
  if (!IsOnSimplex(target, 1e-4)) {
    return fail(BookingStatus::kNonSimplexTarget, "non-simplex portfolio");
  }
  // Force positions out of assets that cannot trade at t (halted or
  // delisted).
  if (panel.HasTradeabilityMask()) {
    for (int64_t a = 0; a < panel.num_assets(); ++a) {
      if (!panel.Tradeable(t, a)) target[a + 1] = 0.0;
    }
  }
  // Exact renormalization to keep the accounting identity tight.
  double total = 0.0;
  for (double& v : target) {
    v = std::max(v, 0.0);
    total += v;
  }
  if (total <= 0.0) {
    // Everything the target wanted is untradeable: go to cash.
    std::fill(target.begin(), target.end(), 0.0);
    target[0] = 1.0;
    total = 1.0;
  }
  for (double& v : target) v /= total;
  booking.weights = std::move(target);

  booking.solve =
      SolveNetWealthFactorDetailed(prev_hat, booking.weights, costs);
  if (!booking.solve.converged) {
    return fail(BookingStatus::kNotConverged, "net-wealth solve failed after ",
                booking.solve.iterations, " iterations (psi_p=",
                costs.purchase_rate, ", psi_s=", costs.sale_rate, ")");
  }
  const double omega = booking.solve.omega;
  booking.gross_return =
      Dot(booking.weights, market::PriceRelativesWithCash(panel, t));
  if (!(booking.gross_return > 0.0)) {
    return fail(BookingStatus::kNonPositiveGross, "gross return ",
                booking.gross_return);
  }
  booking.net_return = booking.gross_return * omega;
  for (size_t i = 0; i < prev_hat.size(); ++i) {
    booking.turnover += std::fabs(prev_hat[i] - booking.weights[i] * omega);
  }
  return booking;
}

BacktestRecord RunBacktest(Strategy* strategy, const market::OhlcPanel& panel,
                           const BacktestConfig& config) {
  PPN_CHECK(strategy != nullptr);
  PPN_CHECK_GE(config.start_period, 1);
  PPN_CHECK_LE(config.end_period, panel.num_periods());
  PPN_CHECK_LT(config.start_period, config.end_period);

  if (!config.cost_multipliers.empty()) {
    PPN_CHECK_GE(static_cast<int64_t>(config.cost_multipliers.size()),
                 config.end_period)
        << "cost_multipliers must cover every decision period";
  }
  strategy->Reset(panel, config.start_period);

  BacktestRecord record;
  const int64_t steps = config.end_period - config.start_period;
  record.wealth_curve.reserve(steps);
  record.log_returns.reserve(steps);
  record.cost_fractions.reserve(steps);
  record.turnover_terms.reserve(steps);
  record.actions.reserve(steps);

  // Start fully in cash.
  std::vector<double> held(panel.num_assets() + 1, 0.0);
  held[0] = 1.0;
  double wealth = 1.0;

  for (int64_t t = config.start_period; t < config.end_period; ++t) {
    const std::vector<double> prev_hat = DriftedHolding(panel, t, held);
    std::vector<double> target = strategy->DecideWeights({panel, t}, prev_hat);
    CostModel costs = config.costs;
    if (!config.cost_multipliers.empty()) {
      const double multiplier = config.cost_multipliers[t];
      PPN_CHECK_GE(multiplier, 0.0);
      costs.purchase_rate *= multiplier;
      costs.sale_rate *= multiplier;
      PPN_CHECK(costs.purchase_rate < 1.0 && costs.sale_rate < 1.0)
          << "cost multiplier " << multiplier << " at t=" << t
          << " pushes the effective rate past 1";
    }
    Booking booking =
        BookPeriod(panel, t, prev_hat, std::move(target), costs);
    PPN_CHECK(booking.status == BookingStatus::kOk)
        << strategy->name() << ": " << booking.error;
    wealth *= booking.net_return;

    record.wealth_curve.push_back(wealth);
    record.log_returns.push_back(std::log(booking.net_return));
    record.cost_fractions.push_back(1.0 - booking.solve.omega);
    record.turnover_terms.push_back(booking.turnover);
    held = booking.weights;
    record.actions.push_back(std::move(booking.weights));
  }
  return record;
}

BacktestRecord RunOnTestRange(Strategy* strategy,
                              const market::MarketDataset& dataset,
                              double cost_rate,
                              const std::vector<double>& cost_multipliers) {
  BacktestConfig config;
  config.costs = CostModel::Uniform(cost_rate);
  config.start_period = dataset.train_end;
  config.end_period = dataset.panel.num_periods();
  config.cost_multipliers = cost_multipliers;
  return RunBacktest(strategy, dataset.panel, config);
}

}  // namespace ppn::backtest
