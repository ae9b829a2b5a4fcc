#ifndef PPN_EXEC_EXPERIMENT_H_
#define PPN_EXEC_EXPERIMENT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "backtest/metrics.h"
#include "common/run_scale.h"
#include "common/table_printer.h"
#include "market/presets.h"
#include "strategies/registry.h"

/// \file
/// The declarative experiment harness: an `ExperimentSpec` names the axes
/// of a sweep (strategy × dataset × cost-rate × seed), the
/// `ExperimentRunner` fans the independent cells out across a thread pool,
/// and a thread-safe `ResultSink` collects the `CellResult` rows.
///
/// Determinism rule: the RNG seed of every cell is derived from the CELL
/// KEY (strategy label, dataset name, cost rate, sweep seed) — never from
/// submission or completion order — so an N-worker run is bit-identical to
/// the 1-worker (and inline 0-worker) run of the same spec.

namespace ppn::exec {

/// A pre-built dataset entry for a sweep: the dataset itself plus an
/// optional per-period cost-multiplier schedule (how stress scenarios
/// carry liquidity-hole slippage into every cell's backtest; empty = 1
/// everywhere). This is how `ppn_cli stress` feeds stressed and
/// CSV-replayed markets through the runner — anything the preset registry
/// does not know about.
struct CustomDataset {
  market::MarketDataset dataset;
  std::vector<double> cost_multipliers;
};

/// Declarative description of a full sweep. The runner evaluates the cross
/// product of datasets × `strategies` × `cost_rates` × `seeds`, where the
/// dataset axis is EITHER `datasets` (preset ids, generated by the runner)
/// OR `custom_datasets` (pre-built panels) — exactly one must be non-empty.
struct ExperimentSpec {
  std::string title;
  RunScale scale = RunScale::kQuick;
  std::vector<market::DatasetId> datasets;
  /// Pre-built datasets; used instead of `datasets` when non-empty. Cells
  /// are keyed by `dataset.name`, so names must be unique.
  std::vector<CustomDataset> custom_datasets;
  std::vector<strategies::StrategySpec> strategies;
  /// Backtest cost rates ψ. Neural cells also TRAIN at the evaluated rate
  /// unless `train_cost_rate` fixes one.
  std::vector<double> cost_rates = {0.0025};
  /// Sweep seeds; each multiplies the grid (multi-seed confidence runs).
  std::vector<uint64_t> seeds = {1};
  /// Fixed train-time cost rate; < 0 trains each cell at its evaluated
  /// backtest rate (the paper's protocol).
  double train_cost_rate = -1.0;
  /// Retain each cell's full `BacktestRecord` (wealth curves etc.).
  bool keep_records = false;
  /// When non-empty, each finished cell is checkpointed to
  /// `<checkpoint_dir>/cell-<derived_seed hex>.ckpt` and a rerun of the
  /// same spec restores finished cells instead of recomputing them — a
  /// killed sweep restarted with the same spec only runs the unfinished
  /// cells. Because cell seeds derive from cell keys (never scheduling),
  /// restored and recomputed cells carry bit-identical metrics.
  std::string checkpoint_dir;
  /// When non-empty AND obs is enabled, each NEURAL cell streams one
  /// run-log record per training step to
  /// `<telemetry_dir>/cell-<derived_seed hex>.runlog.jsonl` (see
  /// obs/run_log.h; `ppn_cli report --dir` summarizes the directory).
  /// Like cell checkpoints, files are named by the derived seed — a pure
  /// function of the cell key — so reruns overwrite in place and names
  /// never depend on scheduling. Telemetry only: results stay
  /// bit-identical with or without it, at any worker count.
  std::string telemetry_dir;
};

/// Identity of one cell within a sweep.
struct CellKey {
  std::string strategy;  ///< `StrategySpec::display()` label.
  std::string dataset;   ///< Dataset display name.
  double cost_rate = 0.0025;
  uint64_t seed = 1;     ///< Sweep-level seed entry.
};

/// Derives the root RNG seed of a cell from its key alone (FNV-1a over the
/// key fields with a splitmix64 finalizer). Independent of submission
/// order, worker count, and the other cells in the spec.
uint64_t CellSeed(const CellKey& key);

/// Everything produced by one evaluated cell.
struct CellResult {
  CellKey key;
  uint64_t derived_seed = 0;  ///< `CellSeed(key)`; seeds the cell's RNGs.
  backtest::Metrics metrics;
  backtest::BacktestRecord record;  ///< Filled when `spec.keep_records`.
  double wall_seconds = 0.0;
};

/// One enumerated cell of a spec: its grid coordinates plus its identity.
/// `index` is the row position in the runner's output (datasets-major,
/// then strategies, then cost rates, then seeds).
struct PlannedCell {
  int64_t index = 0;
  size_t dataset_index = 0;   ///< Into the spec's dataset axis.
  size_t strategy_index = 0;  ///< Into `spec.strategies`.
  CellKey key;
  uint64_t derived_seed = 0;  ///< `CellSeed(key)`.
};

/// Validates `spec` and enumerates its cells WITHOUT generating any
/// dataset (preset display names come from the registry, custom names
/// from the spec). This is the cheap planning step the fabric coordinator
/// uses: it hands out and supervises cells but never runs one.
std::vector<PlannedCell> EnumerateCells(const ExperimentSpec& spec);

/// Canonical per-cell file names, shared by the in-process runner and the
/// fabric so a cell computed by either lands in the same file:
/// `<dir>/cell-<derived_seed hex>.ckpt` / `.runlog.jsonl`. Pure functions
/// of the derived seed (itself a pure function of the cell key), so names
/// never depend on scheduling or process placement.
std::string CellCheckpointPath(const std::string& dir, uint64_t derived_seed);
std::string CellRunLogPath(const std::string& dir, uint64_t derived_seed);

/// What one `CellPlan::RunOrRestore` did.
struct CellStep {
  CellResult result;
  bool restored = false;   ///< Loaded from its checkpoint, not computed.
  bool saved = true;       ///< False when the checkpoint commit failed.
  std::string load_error;  ///< Why an EXISTING checkpoint was not restored.
  std::string save_error;  ///< Why the commit failed.
};

/// Executable view of a spec: the enumerated cells plus lazily resolved
/// datasets and the single per-cell compute + checkpoint-I/O code path.
/// Both the in-process `ExperimentRunner` and the multi-process fabric
/// worker run cells through a `CellPlan`, which is what makes their
/// results bit-identical: one function computes a cell, and its RNG root
/// derives from the cell key alone.
///
/// Holds a reference to the spec; the spec must outlive the plan.
/// Thread-safe: datasets materialize under `std::call_once`, and
/// `RunCell` only reads shared state.
class CellPlan {
 public:
  explicit CellPlan(const ExperimentSpec& spec);
  ~CellPlan();

  CellPlan(const CellPlan&) = delete;
  CellPlan& operator=(const CellPlan&) = delete;

  const ExperimentSpec& spec() const { return spec_; }
  const std::vector<PlannedCell>& cells() const { return cells_; }

  /// Computes `cell` from scratch (dataset materialized on first use,
  /// then shared). Fills metrics, wall_seconds, and — when the spec keeps
  /// records — the full backtest record.
  CellResult RunCell(const PlannedCell& cell) const;

  /// Restores a finished cell from its checkpoint under `dir`; validates
  /// the stored key echo against `cell` and honors `spec.keep_records`.
  /// False — with the reason in *error — when the file is absent,
  /// corrupt, for a different cell, or lacks a needed record.
  bool TryLoadCell(const std::string& dir, const PlannedCell& cell,
                   CellResult* result, std::string* error) const;

  /// Atomically commits the cell checkpoint under `dir`. False with the
  /// reason in *error on any write failure (no partial file remains).
  bool SaveCell(const std::string& dir, const CellResult& result,
                std::string* error) const;

  /// The cell step of the runner and of a fabric worker: restores `cell`
  /// from its checkpoint under `dir`, or computes it and commits its
  /// checkpoint there (an empty `dir` only computes). Counts
  /// `exec.cells.restored` and `exec.cells.ckpt_write_failed`; callers
  /// report the errors their own way.
  CellStep RunOrRestore(const std::string& dir, const PlannedCell& cell) const;

 private:
  struct DatasetSlot;

  const market::MarketDataset& Dataset(size_t index) const;

  const ExperimentSpec& spec_;
  std::vector<PlannedCell> cells_;
  mutable std::vector<DatasetSlot> datasets_;
};

/// Thread-safe, position-addressed collector of cell results. Rows come
/// back in cell-enumeration order regardless of completion order.
class ResultSink {
 public:
  explicit ResultSink(int64_t num_cells);

  /// Stores the result of cell `index` (thread-safe, each index once).
  void Set(int64_t index, CellResult result);

  /// Returns all rows in enumeration order; checks every cell reported.
  std::vector<CellResult> Take();

 private:
  std::mutex mutex_;
  std::vector<CellResult> rows_;
  std::vector<bool> filled_;
};

/// Metric accessor by the paper's column names: "APV", "SR(%)", "STD(%)",
/// "MDD(%)", "CR", "TO". Checks the name is known.
double MetricValue(const backtest::Metrics& metrics,
                   const std::string& column);

/// Renders rows as a paper-style table: `label_header` heads the first
/// column, each row is (label, metric columns).
TablePrinter MakeMetricsTable(
    const std::string& label_header,
    const std::vector<std::pair<std::string, const CellResult*>>& rows,
    const std::vector<std::string>& metric_columns, int precision = 3);

/// Dumps rows as a JSON array (key fields + metrics + wall_seconds), for
/// machine consumption by `run_benches.sh` and downstream tooling.
/// Written atomically (temp-then-rename) with doubles at %.17g, so the
/// file round-trips bit-exactly — the fabric's merged-results equality
/// check depends on it. Returns false if the file cannot be written.
bool WriteResultsJson(const std::string& path,
                      const std::vector<CellResult>& rows);

/// Bookkeeping from one `ExperimentRunner::Run`. `ckpt_write_failures`
/// counts cells whose results could NOT be persisted (e.g. disk full) —
/// the sweep still returns them in memory, but a rerun will recompute
/// them; callers should surface a nonzero count loudly.
struct RunStats {
  int64_t cells_completed = 0;      ///< Computed fresh this run.
  int64_t cells_restored = 0;       ///< Restored from cell checkpoints.
  int64_t ckpt_write_failures = 0;  ///< Failed cell-checkpoint commits.
};

/// Fans the cells of a spec out across a fixed-size thread pool.
class ExperimentRunner {
 public:
  /// `num_workers` = 0 runs every cell inline on the calling thread; the
  /// default honors `PPN_WORKERS` (see thread_pool.h).
  explicit ExperimentRunner(int num_workers);
  ExperimentRunner();

  /// Evaluates every cell of the spec and returns rows in enumeration
  /// order: datasets-major, then strategies, then cost rates, then seeds.
  /// Bit-identical across worker counts. `stats`, when non-null, receives
  /// restore/persistence bookkeeping for this run.
  std::vector<CellResult> Run(const ExperimentSpec& spec,
                              RunStats* stats = nullptr) const;

  int num_workers() const { return num_workers_; }

 private:
  int num_workers_;
};

}  // namespace ppn::exec

#endif  // PPN_EXEC_EXPERIMENT_H_
