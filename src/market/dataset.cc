#include "market/dataset.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace ppn::market {

OhlcPanel::OhlcPanel(int64_t num_periods, int64_t num_assets)
    : num_periods_(num_periods),
      num_assets_(num_assets),
      prices_(static_cast<size_t>(num_periods * num_assets * kNumPriceFields),
              std::numeric_limits<double>::quiet_NaN()) {
  PPN_CHECK_GE(num_periods, 0);
  PPN_CHECK_GE(num_assets, 0);
}

int64_t OhlcPanel::Index(int64_t period, int64_t asset, int field) const {
  PPN_DCHECK(period >= 0 && period < num_periods_);
  PPN_DCHECK(asset >= 0 && asset < num_assets_);
  PPN_DCHECK(field >= 0 && field < kNumPriceFields);
  return (period * num_assets_ + asset) * kNumPriceFields + field;
}

double OhlcPanel::Price(int64_t period, int64_t asset,
                        PriceField field) const {
  return prices_[Index(period, asset, field)];
}

void OhlcPanel::SetPrice(int64_t period, int64_t asset, PriceField field,
                         double value) {
  prices_[Index(period, asset, field)] = value;
}

bool OhlcPanel::Tradeable(int64_t period, int64_t asset) const {
  if (tradeable_.empty()) return true;
  return tradeable_[static_cast<size_t>(period * num_assets_ + asset)] != 0;
}

void OhlcPanel::SetTradeable(int64_t period, int64_t asset, bool tradeable) {
  PPN_CHECK(period >= 0 && period < num_periods_);
  PPN_CHECK(asset >= 0 && asset < num_assets_);
  if (tradeable_.empty()) {
    tradeable_.assign(static_cast<size_t>(num_periods_ * num_assets_), 1);
  }
  tradeable_[static_cast<size_t>(period * num_assets_ + asset)] =
      tradeable ? 1 : 0;
}

bool OhlcPanel::IsMissing(int64_t period, int64_t asset) const {
  for (int f = 0; f < kNumPriceFields; ++f) {
    if (std::isnan(prices_[Index(period, asset, f)])) return true;
  }
  return false;
}

bool OhlcPanel::IsComplete() const {
  for (const double p : prices_) {
    if (std::isnan(p)) return false;
  }
  return true;
}

bool OhlcPanel::IsValid() const {
  for (int64_t t = 0; t < num_periods_; ++t) {
    for (int64_t a = 0; a < num_assets_; ++a) {
      if (!Tradeable(t, a)) continue;
      const double open = Price(t, a, kOpen);
      const double high = Price(t, a, kHigh);
      const double low = Price(t, a, kLow);
      const double close = Price(t, a, kClose);
      // An unobserved bar is NaN in every field; one NaN field among
      // observed ones, or an infinite one, is corrupt (every comparison
      // below is false on NaN, so it would pass them).
      if (std::isnan(open) && std::isnan(high) && std::isnan(low) &&
          std::isnan(close)) {
        continue;
      }
      if (!std::isfinite(open) || !std::isfinite(high) ||
          !std::isfinite(low) || !std::isfinite(close)) {
        return false;
      }
      if (!(low > 0.0)) return false;
      if (low > open || low > close) return false;
      if (high < open || high < close) return false;
    }
  }
  return true;
}

void FlatFillMissing(OhlcPanel* panel) {
  PPN_CHECK(panel != nullptr);
  for (int64_t a = 0; a < panel->num_assets(); ++a) {
    // Find the first observed bar.
    int64_t first_observed = -1;
    for (int64_t t = 0; t < panel->num_periods(); ++t) {
      if (!panel->IsMissing(t, a)) {
        first_observed = t;
        break;
      }
    }
    PPN_CHECK_GE(first_observed, 0)
        << "asset " << a << " has no observed data";
    // Backward flat fill: constant at the first observed close (a flat fake
    // price movement has open=high=low=close).
    const double fill_price = panel->Price(first_observed, a, kClose);
    for (int64_t t = 0; t < first_observed; ++t) {
      for (int f = 0; f < kNumPriceFields; ++f) {
        panel->SetPrice(t, a, static_cast<PriceField>(f), fill_price);
      }
    }
    // Forward flat fill of interior gaps at the last seen close.
    double last_close = fill_price;
    for (int64_t t = first_observed; t < panel->num_periods(); ++t) {
      if (panel->IsMissing(t, a)) {
        for (int f = 0; f < kNumPriceFields; ++f) {
          panel->SetPrice(t, a, static_cast<PriceField>(f), last_close);
        }
      } else {
        last_close = panel->Price(t, a, kClose);
      }
    }
  }
}

std::vector<double> PriceRelatives(const OhlcPanel& panel, int64_t period) {
  PPN_CHECK(period >= 1 && period < panel.num_periods());
  std::vector<double> relatives(panel.num_assets());
  for (int64_t a = 0; a < panel.num_assets(); ++a) {
    // Halted/delisted assets have frozen value: relative 1 by definition,
    // whatever the (possibly degenerate) quotes say.
    if (!panel.Tradeable(period, a) || !panel.Tradeable(period - 1, a)) {
      relatives[a] = 1.0;
      continue;
    }
    const double previous = panel.Close(period - 1, a);
    const double current = panel.Close(period, a);
    PPN_CHECK_GT(previous, 0.0)
        << "degenerate close " << previous << " for tradeable asset " << a
        << " at period " << period - 1
        << "; mark the asset non-tradeable (tradeability mask) or fix the "
           "panel";
    PPN_CHECK_GT(current, 0.0)
        << "degenerate close " << current << " for tradeable asset " << a
        << " at period " << period
        << "; mark the asset non-tradeable (tradeability mask) or fix the "
           "panel";
    relatives[a] = current / previous;
  }
  return relatives;
}

std::vector<double> PriceRelativesWithCash(const OhlcPanel& panel,
                                           int64_t period) {
  std::vector<double> risk = PriceRelatives(panel, period);
  std::vector<double> with_cash;
  with_cash.reserve(risk.size() + 1);
  with_cash.push_back(1.0);  // Cash: invariant price.
  with_cash.insert(with_cash.end(), risk.begin(), risk.end());
  return with_cash;
}

Tensor NormalizedWindow(const OhlcPanel& panel, int64_t t, int64_t k) {
  PPN_CHECK_GE(t, k - 1);
  PPN_CHECK_LT(t, panel.num_periods());
  PPN_CHECK_GT(k, 0);
  const int64_t m = panel.num_assets();
  Tensor window({m, k, kNumPriceFields});
  float* out = window.MutableData();
  for (int64_t a = 0; a < m; ++a) {
    // A halted/delisted asset contributes the neutral input a frozen flat
    // price path would: all ones.
    if (!panel.Tradeable(t, a)) {
      for (int f = 0; f < kNumPriceFields; ++f) {
        for (int64_t j = 0; j < k; ++j) {
          out[(a * k + j) * kNumPriceFields + f] = 1.0f;
        }
      }
      continue;
    }
    for (int f = 0; f < kNumPriceFields; ++f) {
      const double denominator = panel.Price(t, a, static_cast<PriceField>(f));
      PPN_CHECK_GT(denominator, 0.0)
          << "degenerate price " << denominator << " (field " << f
          << ") for tradeable asset " << a << " at period " << t
          << "; mark the asset non-tradeable (tradeability mask) or fix the "
             "panel";
      for (int64_t j = 0; j < k; ++j) {
        const int64_t period = t - k + 1 + j;
        const double price = panel.Price(period, a, static_cast<PriceField>(f));
        out[(a * k + j) * kNumPriceFields + f] =
            static_cast<float>(price / denominator);
      }
    }
  }
  return window;
}

DatasetStats ComputeStats(const MarketDataset& dataset) {
  DatasetStats stats;
  stats.name = dataset.name;
  stats.num_assets = dataset.panel.num_assets();
  stats.train_periods = dataset.train_end;
  stats.test_periods = dataset.panel.num_periods() - dataset.train_end;
  return stats;
}

}  // namespace ppn::market
