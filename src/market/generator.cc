#include "market/generator.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/random.h"

namespace ppn::market {

SyntheticMarketGenerator::SyntheticMarketGenerator(SyntheticMarketConfig config)
    : config_(std::move(config)) {
  PPN_CHECK_GT(config_.num_assets, 0);
  PPN_CHECK_GT(config_.num_periods, 2);
  PPN_CHECK(!config_.regime_drifts.empty());
  PPN_CHECK_GE(config_.lead_lag_max_delay, 1);
  PPN_CHECK_GT(config_.reversion_window, 0);
}

OhlcPanel SyntheticMarketGenerator::Generate(
    MarketGroundTruth* ground_truth) const {
  const int64_t m = config_.num_assets;
  const int64_t n = config_.num_periods;
  Rng rng(config_.seed);

  // --- Draw the hidden structure. -----------------------------------
  MarketGroundTruth truth;
  truth.factor_betas.resize(m);
  truth.leader.assign(m, -1);
  truth.lag.assign(m, 0);
  truth.listing_period.assign(m, 0);
  for (int64_t a = 0; a < m; ++a) {
    truth.factor_betas[a] = rng.Uniform(config_.beta_min, config_.beta_max);
  }
  // Followers echo an earlier-indexed asset, so chains are acyclic.
  for (int64_t a = 1; a < m; ++a) {
    if (rng.Bernoulli(config_.follower_fraction)) {
      truth.leader[a] = rng.UniformInt(a);
      truth.lag[a] = 1 + rng.UniformInt(config_.lead_lag_max_delay);
    }
  }
  for (int64_t a = 0; a < m; ++a) {
    if (a > 0 && rng.Bernoulli(config_.late_listing_fraction)) {
      const int64_t horizon = std::max<int64_t>(
          1, static_cast<int64_t>(config_.late_listing_max_fraction * n));
      truth.listing_period[a] = rng.UniformInt(horizon);
    }
  }

  // --- Simulate close log-prices. ------------------------------------
  // Two flat period-major [n, m] arrays: returns[t * m + a] is the
  // log-return of asset a from t-1 to t (t >= 1). One allocation each, so
  // a long panel leaves no per-period heap chunks behind.
  std::vector<double> returns(static_cast<size_t>(n * m), 0.0);
  std::vector<double> log_price(static_cast<size_t>(n * m), 0.0);
  const auto at = [m](int64_t t, int64_t a) {
    return static_cast<size_t>(t * m + a);
  };
  for (int64_t a = 0; a < m; ++a) {
    log_price[at(0, a)] = std::log(rng.Uniform(0.5, 5.0));
  }
  int regime = static_cast<int>(rng.UniformInt(
      static_cast<int64_t>(config_.regime_drifts.size())));
  std::vector<double> running_sum(m, 0.0);  // For the slow moving average.
  for (int64_t a = 0; a < m; ++a) running_sum[a] = log_price[at(0, a)];

  for (int64_t t = 1; t < n; ++t) {
    if (rng.Bernoulli(config_.regime_switch_prob)) {
      regime = static_cast<int>(rng.UniformInt(
          static_cast<int64_t>(config_.regime_drifts.size())));
    }
    const double factor = rng.Normal(0.0, config_.factor_vol);
    const double drift = config_.regime_drifts[regime];
    for (int64_t a = 0; a < m; ++a) {
      double r = drift * truth.factor_betas[a] +
                 factor * truth.factor_betas[a] +
                 rng.Normal(0.0, config_.idio_vol);
      // Sequential signal: own-return momentum.
      r += config_.momentum * returns[at(t - 1, a)];
      // Slow mean reversion to the moving average of log price. The
      // rolling sum holds log prices [max(0, t - W) .. t-1], i.e. exactly
      // min(t, W) terms — divide by that count, not one more.
      const int64_t window =
          std::min<int64_t>(t, config_.reversion_window);
      const double moving_average =
          running_sum[a] / static_cast<double>(window);
      r += config_.mean_reversion * (moving_average - log_price[at(t - 1, a)]);
      // Cross-asset signal: echo the leader's lagged return.
      const int64_t leader = truth.leader[a];
      if (leader >= 0) {
        const int64_t lagged_t = t - truth.lag[a];
        if (lagged_t >= 1) {
          r += config_.lead_lag_strength * returns[at(lagged_t, leader)];
        }
      }
      // Occasional jump.
      if (rng.Bernoulli(config_.jump_prob)) {
        r += rng.Normal(0.0, config_.jump_scale);
      }
      returns[at(t, a)] = r;
      log_price[at(t, a)] = log_price[at(t - 1, a)] + r;
      // Maintain a rolling sum over the last `reversion_window` periods.
      running_sum[a] += log_price[at(t, a)];
      if (t >= config_.reversion_window) {
        running_sum[a] -= log_price[at(t - config_.reversion_window, a)];
      }
    }
  }

  // --- Build OHLC bars around the close path. -------------------------
  OhlcPanel panel(n, m);
  for (int64_t a = 0; a < m; ++a) {
    for (int64_t t = truth.listing_period[a]; t < n; ++t) {
      const double close = std::exp(log_price[at(t, a)]);
      const double previous_close =
          t > truth.listing_period[a] ? std::exp(log_price[at(t - 1, a)])
                                     : close;
      const double open =
          previous_close * std::exp(rng.Normal(0.0, config_.intrabar_noise));
      const double body_high = std::max(open, close);
      const double body_low = std::min(open, close);
      const double high =
          body_high * std::exp(std::fabs(rng.Normal(0.0, config_.intrabar_noise)));
      const double low =
          body_low * std::exp(-std::fabs(rng.Normal(0.0, config_.intrabar_noise)));
      panel.SetPrice(t, a, kOpen, open);
      panel.SetPrice(t, a, kHigh, high);
      panel.SetPrice(t, a, kLow, low);
      panel.SetPrice(t, a, kClose, close);
    }
  }
  FlatFillMissing(&panel);
  PPN_CHECK(panel.IsComplete());
  PPN_CHECK(panel.IsValid());

  if (ground_truth != nullptr) *ground_truth = std::move(truth);
  return panel;
}

MarketDataset SyntheticMarketGenerator::GenerateDataset(
    const std::string& name, double train_fraction) const {
  PPN_CHECK(train_fraction > 0.0 && train_fraction < 1.0);
  MarketDataset dataset;
  dataset.name = name;
  dataset.panel = Generate();
  dataset.train_end =
      static_cast<int64_t>(train_fraction * config_.num_periods);
  // Small num_periods can truncate the split into a degenerate range: a
  // train_end of 0 leaves nothing to train on, and windowed policies
  // (lookback k, PVM) additionally need train_end >= k before the first
  // decision — catch the empty split here with actionable context instead
  // of an opaque downstream abort.
  PPN_CHECK_GE(dataset.train_end, 1)
      << "degenerate split: train_fraction " << train_fraction << " of "
      << config_.num_periods
      << " periods truncates to an empty training range; use more periods "
         "or a larger fraction";
  PPN_CHECK_GE(config_.num_periods - dataset.train_end, 1)
      << "degenerate split: train_fraction " << train_fraction << " of "
      << config_.num_periods
      << " periods leaves no test range to backtest on";
  dataset.asset_names.reserve(config_.num_assets);
  for (int64_t a = 0; a < config_.num_assets; ++a) {
    dataset.asset_names.push_back("ASSET" + std::to_string(a));
  }
  return dataset;
}

}  // namespace ppn::market
