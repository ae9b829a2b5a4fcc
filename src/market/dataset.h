#ifndef PPN_MARKET_DATASET_H_
#define PPN_MARKET_DATASET_H_

#include <string>
#include <vector>

#include "tensor/tensor.h"

/// \file
/// Market data containers and the preprocessing pipeline from Section 6.1.3
/// of the paper: OHLC panels, price-relative vectors, flat-fill of missing
/// early history, and last-period normalization of price windows.

namespace ppn::market {

/// Price-type indices within a bar.
enum PriceField : int { kOpen = 0, kHigh = 1, kLow = 2, kClose = 3 };

/// Number of price fields per bar (d = 4 in the paper).
inline constexpr int kNumPriceFields = 4;

/// A panel of OHLC bars for `num_assets` risk assets over `num_periods`
/// trading periods (the cash asset is implicit and has constant price 1).
/// Missing values (pre-listing history) are encoded as NaN until
/// `FlatFillMissing` is applied.
///
/// Tradeability: each (period, asset) bar additionally carries a
/// tradeability flag (default: everything tradeable, stored as an empty
/// mask). Stress scenarios mark assets non-tradeable to model halts and
/// mid-episode delistings; the preprocessing functions below treat a
/// non-tradeable bar as HALTED — frozen value, price relative 1, neutral
/// network input — instead of aborting, and the backtester force-
/// liquidates positions in assets that stop trading.
class OhlcPanel {
 public:
  OhlcPanel() = default;

  /// Allocates a panel filled with NaN (and fully tradeable).
  OhlcPanel(int64_t num_periods, int64_t num_assets);

  int64_t num_periods() const { return num_periods_; }
  int64_t num_assets() const { return num_assets_; }

  /// Price of `field` for `asset` at `period`.
  double Price(int64_t period, int64_t asset, PriceField field) const;

  /// Sets one price.
  void SetPrice(int64_t period, int64_t asset, PriceField field, double value);

  /// Convenience close-price accessor.
  double Close(int64_t period, int64_t asset) const {
    return Price(period, asset, kClose);
  }

  /// True if `asset` can be traded at `period`. Always true until
  /// `SetTradeable` has marked something non-tradeable.
  bool Tradeable(int64_t period, int64_t asset) const;

  /// Marks one (period, asset) bar tradeable or halted/delisted. The mask
  /// is allocated (all-true) on the first call.
  void SetTradeable(int64_t period, int64_t asset, bool tradeable);

  /// True once any bar has been marked non-tradeable via `SetTradeable`.
  bool HasTradeabilityMask() const { return !tradeable_.empty(); }

  /// True if any field of the bar is NaN.
  bool IsMissing(int64_t period, int64_t asset) const;

  /// True if no bar in the panel is NaN.
  bool IsComplete() const;

  /// Verifies OHLC sanity on observed bars: every field finite, low <=
  /// open, close <= high and all prices positive. Returns false on the
  /// first violation. A bar that is NaN in all four fields is unobserved
  /// (a gap `FlatFillMissing` fills) and exempt; one NaN among finite
  /// fields is not. Non-tradeable bars are exempt — a halted or delisted
  /// asset's quotes are decorative (its value is frozen and it cannot be
  /// traded), so a stress pack that drives a masked price to zero, or to
  /// NaN, stays valid.
  bool IsValid() const;

 private:
  int64_t Index(int64_t period, int64_t asset, int field) const;

  int64_t num_periods_ = 0;
  int64_t num_assets_ = 0;
  std::vector<double> prices_;
  /// Empty = all tradeable; otherwise one flag per (period, asset).
  std::vector<uint8_t> tradeable_;
};

/// A named dataset: an OHLC panel plus the train/test split boundary,
/// mirroring the paper's Table 1 / Table 10 entries.
struct MarketDataset {
  std::string name;
  OhlcPanel panel;
  std::vector<std::string> asset_names;
  /// Periods [0, train_end) are training data, [train_end, num_periods)
  /// are test data.
  int64_t train_end = 0;
};

/// Replaces each asset's missing early history with its first observed bar
/// repeated backwards ("flat fake price-movements", Jiang et al. 2017) and
/// interpolates any interior gaps flat-forward. Checks that every asset has
/// at least one observed bar.
void FlatFillMissing(OhlcPanel* panel);

/// Price-relative vector of the *risk assets* for period t:
/// x_t[i] = close_t[i] / close_{t-1}[i]. Requires 1 <= t < num_periods and a
/// complete panel. An asset that is non-tradeable at `period` or
/// `period - 1` is halted: its relative is 1 (frozen value) regardless of
/// the quoted prices. A non-positive close on a TRADEABLE asset aborts
/// with the offending (period, asset, price) named — mask the asset or fix
/// the data.
std::vector<double> PriceRelatives(const OhlcPanel& panel, int64_t period);

/// Price-relative including the cash asset at index 0 (always 1), matching
/// the portfolio vector layout a_t in the paper.
std::vector<double> PriceRelativesWithCash(const OhlcPanel& panel,
                                           int64_t period);

/// Builds the normalized network input for a decision at period `t`: the
/// window of the `k` most recent bars (periods t-k+1 .. t), each price
/// divided elementwise by the corresponding price of the window's last
/// period, returned with shape [num_assets, k, 4]. Requires t >= k-1.
/// An asset non-tradeable at `t` contributes a neutral all-ones row (the
/// same input a frozen flat price path would produce); a non-positive
/// normalization price on a tradeable asset aborts with the offending
/// (period, asset, field, price) named.
Tensor NormalizedWindow(const OhlcPanel& panel, int64_t t, int64_t k);

/// Summary row used by the Table-1 bench: asset count plus train/test sizes.
struct DatasetStats {
  std::string name;
  int64_t num_assets = 0;
  int64_t train_periods = 0;
  int64_t test_periods = 0;
};

/// Computes summary statistics of a dataset.
DatasetStats ComputeStats(const MarketDataset& dataset);

}  // namespace ppn::market

#endif  // PPN_MARKET_DATASET_H_
