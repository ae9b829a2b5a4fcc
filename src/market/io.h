#ifndef PPN_MARKET_IO_H_
#define PPN_MARKET_IO_H_

#include <string>

#include "market/dataset.h"

/// \file
/// Dataset persistence: save a generated market to CSV so an experiment's
/// exact price series can be archived, inspected, or replayed, and load it
/// back. Two files are written for a prefix P: `P.prices.csv` (long
/// format: period, asset, open, high, low, close) and `P.meta.csv`
/// (num_periods, num_assets, train_end).

namespace ppn::market {

/// Writes `dataset` under `path_prefix`. The panel must be complete (no
/// NaNs). Returns false on IO failure.
bool SaveDataset(const MarketDataset& dataset, const std::string& path_prefix);

/// Loads a dataset written by `SaveDataset`: the prices through
/// `LoadReplayCsv` (no flat-fill, so every bar must be present), with the
/// split and the panel shape checked against the meta file. Returns false
/// on IO/format failure, leaving `*dataset` untouched and (when `error` is
/// non-null) naming the offending file, field or row. Asset names are
/// regenerated as ASSET<i> (names are not persisted).
bool LoadDataset(const std::string& path_prefix, MarketDataset* dataset,
                 std::string* error = nullptr);

}  // namespace ppn::market

#endif  // PPN_MARKET_IO_H_
