#include "market/io.h"

#include <utility>

#include "common/check.h"
#include "common/csv.h"
#include "market/replay_io.h"

namespace ppn::market {

bool SaveDataset(const MarketDataset& dataset,
                 const std::string& path_prefix) {
  PPN_CHECK(dataset.panel.IsComplete()) << "cannot save incomplete panel";
  CsvTable meta;
  meta.header = {"num_periods", "num_assets", "train_end"};
  meta.rows = {{static_cast<double>(dataset.panel.num_periods()),
                static_cast<double>(dataset.panel.num_assets()),
                static_cast<double>(dataset.train_end)}};
  if (!WriteCsv(path_prefix + ".meta.csv", meta)) return false;

  CsvTable prices;
  prices.header = {"period", "asset", "open", "high", "low", "close"};
  prices.rows.reserve(dataset.panel.num_periods() *
                      dataset.panel.num_assets());
  for (int64_t t = 0; t < dataset.panel.num_periods(); ++t) {
    for (int64_t a = 0; a < dataset.panel.num_assets(); ++a) {
      prices.rows.push_back({static_cast<double>(t), static_cast<double>(a),
                             dataset.panel.Price(t, a, kOpen),
                             dataset.panel.Price(t, a, kHigh),
                             dataset.panel.Price(t, a, kLow),
                             dataset.panel.Price(t, a, kClose)});
    }
  }
  return WriteCsv(path_prefix + ".prices.csv", prices);
}

bool LoadDataset(const std::string& path_prefix, MarketDataset* dataset,
                 std::string* error) {
  PPN_CHECK(dataset != nullptr);
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  const std::string meta_path = path_prefix + ".meta.csv";
  CsvTable meta;
  if (!ReadCsv(meta_path, &meta)) {
    return fail("cannot read numeric CSV at " + meta_path);
  }
  if (meta.rows.size() != 1 || meta.header.size() != 3) {
    return fail(meta_path + " must hold one row of three fields");
  }
  int64_t shape[3];  // num_periods, num_assets, train_end.
  for (int i = 0; i < 3; ++i) {
    if (!CsvIndex(meta.rows[0][i], &shape[i])) {
      return fail(meta_path + ": " + meta.header[i] +
                  " must be a non-negative integer below 2^30");
    }
  }

  ReplayCsvOptions options;
  options.name = path_prefix;
  options.train_end = shape[2];
  options.fill_missing = false;
  MarketDataset loaded;
  if (!LoadReplayCsv(path_prefix + ".prices.csv", options, &loaded, error)) {
    return false;
  }
  if (loaded.panel.num_periods() != shape[0] ||
      loaded.panel.num_assets() != shape[1]) {
    return fail("the prices disagree with " + meta_path +
                " on the panel shape");
  }
  *dataset = std::move(loaded);
  return true;
}

}  // namespace ppn::market
