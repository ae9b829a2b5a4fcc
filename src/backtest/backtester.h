#ifndef PPN_BACKTEST_BACKTESTER_H_
#define PPN_BACKTEST_BACKTESTER_H_

#include <string>

#include "backtest/costs.h"
#include "backtest/metrics.h"
#include "backtest/strategy.h"
#include "market/dataset.h"

/// \file
/// Sequential backtester: runs a `Strategy` over a period range of an OHLC
/// panel, applying the proportional-transaction-cost accounting of the
/// paper, and records everything the metrics need. The accounting of one
/// period is `BookPeriod`, the one ψ ledger: the backtester, the serving
/// engine and the DDPG environment all book through it.

namespace ppn::backtest {

/// Why a period could not be booked.
enum class BookingStatus {
  kOk,
  kNonSimplexTarget,  ///< The target is off the simplex or non-finite.
  kNotConverged,      ///< The ω fixed point did not converge.
  kNonPositiveGross,  ///< a_tᵀ x_t ≤ 0.
};

/// One booked period. On a bad status `error` says what went wrong
/// ("non-simplex portfolio at t=5") and the rest is booked only so far.
struct Booking {
  BookingStatus status = BookingStatus::kOk;
  std::string error;
  std::vector<double> weights;  ///< a_t as held (cash at index 0).
  NetWealthSolve solve;         ///< ω_t.
  double gross_return = 0.0;    ///< a_tᵀ x_t.
  double net_return = 0.0;      ///< a_tᵀ x_t · ω_t, the wealth factor.
  double turnover = 0.0;        ///< ‖â_{t-1} − a_t ω_t‖₁ (full vectors).
};

/// â_{t-1}: `held` after the price relatives of t-1 moved it (unchanged for
/// t < 2, where the panel has no earlier relative).
std::vector<double> DriftedHolding(const market::OhlcPanel& panel, int64_t t,
                                   const std::vector<double>& held);

/// Books period `t` from the drifted holding `prev_hat` to `target` under
/// `costs`. A target off the simplex (tolerance 1e-4) is reported, not
/// booked. Weight on an asset non-tradeable at t is forced to zero (a
/// delisting is a forced sale at the frozen price, paid through the ψ
/// accounting), the rest is clipped at 0 and renormalized (all cash if
/// nothing tradeable is left), and ω_t is solved.
Booking BookPeriod(const market::OhlcPanel& panel, int64_t t,
                   const std::vector<double>& prev_hat,
                   std::vector<double> target, const CostModel& costs);

/// Run parameters.
struct BacktestConfig {
  CostModel costs = CostModel::Uniform(0.0025);
  /// First decision period (inclusive). Must leave enough history for the
  /// strategy's window (PPN needs start_period >= k).
  int64_t start_period = 1;
  /// One past the last decision period.
  int64_t end_period = 0;
  /// Optional per-period multiplier on both ψ rates, indexed by absolute
  /// panel period — how stress scenarios layer volume-dependent slippage
  /// (liquidity holes) onto the proportional cost model. Empty = 1
  /// everywhere; when non-empty it must cover every decision period and
  /// keep the effective rates in [0, 1).
  std::vector<double> cost_multipliers;
};

/// Runs `strategy` on `panel` under `config` and returns the full record.
/// Wealth starts at S_0 = 1 in cash (a_0 = [1, 0, ..., 0]). Each period is
/// booked by `BookPeriod` (so untradeable positions are force-sold); a bad
/// booking status aborts.
BacktestRecord RunBacktest(Strategy* strategy, const market::OhlcPanel& panel,
                           const BacktestConfig& config);

/// Convenience: runs on a dataset's test range with a uniform cost rate.
/// `cost_multipliers` (optional) is forwarded to `BacktestConfig`.
BacktestRecord RunOnTestRange(Strategy* strategy,
                              const market::MarketDataset& dataset,
                              double cost_rate,
                              const std::vector<double>& cost_multipliers = {});

}  // namespace ppn::backtest

#endif  // PPN_BACKTEST_BACKTESTER_H_
