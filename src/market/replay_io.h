#ifndef PPN_MARKET_REPLAY_IO_H_
#define PPN_MARKET_REPLAY_IO_H_

#include <cstdint>
#include <string>

#include "market/dataset.h"

/// \file
/// CSV replay: load an EXTERNAL OHLC dataset (exported from a vendor feed,
/// another backtester, or a paper's data release) into a `MarketDataset`,
/// so the scenario engine and `ppn_cli stress` evaluate strategies on real
/// markets, not only on the synthetic generator.
///
/// Unlike `market/io.h` (which round-trips our own files and may abort on
/// malformed input), external data is untrusted: every failure mode —
/// missing columns, out-of-range indices, duplicate bars, insane OHLC —
/// is reported through a returned error string naming the offending row
/// or bar, never a PPN_CHECK abort.

namespace ppn::market {

/// Most bars a flat-filled panel may hold per row of its file. A file must
/// observe at least one bar in this many, so a panel costs at most a fixed
/// multiple of the file's own size (a handful of hostile rows cannot name
/// a panel of 2^60 bars).
inline constexpr int64_t kMaxFilledBarsPerRow = 16;

/// Knobs for `LoadReplayCsv`.
struct ReplayCsvOptions {
  /// Dataset name; defaults to the file path when empty.
  std::string name;
  /// Train/test boundary as a fraction of the loaded periods (the paper's
  /// splits are ~0.92). Ignored when `train_end` >= 0.
  double train_fraction = 0.92;
  /// Explicit train/test boundary in periods; -1 = use `train_fraction`.
  int64_t train_end = -1;
  /// Flat-fill bars absent from the file (pre-listing history and interior
  /// gaps) per `FlatFillMissing`, up to `kMaxFilledBarsPerRow` bars per
  /// row. When false, any missing bar is an error.
  bool fill_missing = true;
};

/// Loads a long-format OHLC CSV into `*dataset`.
///
/// Expected columns (matched by header name, any order, extra columns
/// ignored): `period`, `asset`, `open`, `high`, `low`, `close`. Periods
/// and assets are dense 0-based indices; panel shape is inferred from the
/// maxima and checked against the row count before the panel is built.
/// Bars absent from the file are flat-filled (see
/// `ReplayCsvOptions::fill_missing`), and the result must pass
/// `OhlcPanel::IsValid`.
///
/// Returns true on success. On failure returns false, leaves `*dataset`
/// untouched, and (when `error` is non-null) stores a one-line diagnosis
/// naming the offending row/bar.
bool LoadReplayCsv(const std::string& path, const ReplayCsvOptions& options,
                   MarketDataset* dataset, std::string* error = nullptr);

}  // namespace ppn::market

#endif  // PPN_MARKET_REPLAY_IO_H_
