#include "exec/experiment.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <set>
#include <utility>

#include "backtest/backtester.h"
#include "ckpt/checkpoint.h"
#include "ckpt/state_io.h"
#include "common/atomic_file.h"
#include "common/check.h"
#include "common/json.h"
#include "exec/thread_pool.h"
#include "obs/stats.h"
#include "obs/trace.h"

namespace ppn::exec {

namespace {

/// FNV-1a over a byte range.
uint64_t FnvMix(uint64_t hash, const void* bytes, size_t size) {
  constexpr uint64_t kPrime = 0x100000001b3ull;
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (size_t i = 0; i < size; ++i) {
    hash ^= p[i];
    hash *= kPrime;
  }
  return hash;
}

uint64_t FnvMix(uint64_t hash, const std::string& text) {
  // Fold the length in as well so ("ab", "c") != ("a", "bc").
  const uint64_t length = text.size();
  hash = FnvMix(hash, &length, sizeof(length));
  return FnvMix(hash, text.data(), text.size());
}

/// splitmix64 finalizer: diffuses the FNV state across all 64 bits.
uint64_t Finalize(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Validates the sweep axes shared by every consumer of a spec.
void ValidateSpec(const ExperimentSpec& spec) {
  PPN_CHECK(spec.datasets.empty() != spec.custom_datasets.empty())
      << "spec needs exactly one dataset source: preset `datasets` or "
         "pre-built `custom_datasets`";
  PPN_CHECK(!spec.strategies.empty()) << "spec has no strategies";
  PPN_CHECK(!spec.cost_rates.empty()) << "spec has no cost rates";
  PPN_CHECK(!spec.seeds.empty()) << "spec has no seeds";
  std::set<std::string> labels;
  for (const strategies::StrategySpec& strategy : spec.strategies) {
    strategy.Validate();
    PPN_CHECK(labels.insert(strategy.display()).second)
        << "duplicate strategy label in spec: " << strategy.display()
        << " (cells are keyed by label; disambiguate with StrategySpec::label)";
  }
  if (!spec.custom_datasets.empty()) {
    std::set<std::string> names;
    for (const CustomDataset& custom : spec.custom_datasets) {
      PPN_CHECK(!custom.dataset.name.empty())
          << "custom dataset needs a name (cells are keyed by it)";
      PPN_CHECK(names.insert(custom.dataset.name).second)
          << "duplicate custom dataset name in spec: " << custom.dataset.name;
      if (!custom.cost_multipliers.empty()) {
        PPN_CHECK_GE(static_cast<int64_t>(custom.cost_multipliers.size()),
                     custom.dataset.panel.num_periods())
            << "cost multipliers of " << custom.dataset.name
            << " do not cover the panel";
      }
    }
  }
}

/// Display names of the dataset axis, without generating anything.
std::vector<std::string> DatasetDisplayNames(const ExperimentSpec& spec) {
  std::vector<std::string> names;
  if (spec.custom_datasets.empty()) {
    for (const market::DatasetId id : spec.datasets) {
      names.push_back(market::DatasetName(id));
    }
  } else {
    for (const CustomDataset& custom : spec.custom_datasets) {
      names.push_back(custom.dataset.name);
    }
  }
  return names;
}

}  // namespace

uint64_t CellSeed(const CellKey& key) {
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a offset basis.
  hash = FnvMix(hash, key.strategy);
  hash = FnvMix(hash, key.dataset);
  // Hash the IEEE bits, not a decimal rendering: formatting can round two
  // distinct rates to the same string but never maps one rate to two.
  uint64_t cost_bits = 0;
  static_assert(sizeof(cost_bits) == sizeof(key.cost_rate));
  std::memcpy(&cost_bits, &key.cost_rate, sizeof(cost_bits));
  hash = FnvMix(hash, &cost_bits, sizeof(cost_bits));
  hash = FnvMix(hash, &key.seed, sizeof(key.seed));
  const uint64_t seed = Finalize(hash);
  // Keep the seed nonzero so downstream multiply-based stream derivations
  // (seed * k + c) never collapse streams onto their constants.
  return seed == 0 ? 0x9e3779b97f4a7c15ull : seed;
}

// ------------------------------------------------- cell checkpoints ----
//
// One finished cell is one small checkpoint file named by the cell's
// derived seed (a pure function of the cell key, so the same cell in a
// restarted sweep — or a sweep sharded across fabric worker processes —
// maps to the same file regardless of spec ordering or placement). The
// single "cell" section echoes the full key for validation, then carries
// the metrics and, optionally, the backtest record.

std::string CellCheckpointPath(const std::string& dir, uint64_t derived_seed) {
  char name[32];
  std::snprintf(name, sizeof(name), "cell-%016llx.ckpt",
                static_cast<unsigned long long>(derived_seed));
  return (std::filesystem::path(dir) / name).string();
}

std::string CellRunLogPath(const std::string& dir, uint64_t derived_seed) {
  char name[40];
  std::snprintf(name, sizeof(name), "cell-%016llx.runlog.jsonl",
                static_cast<unsigned long long>(derived_seed));
  return (std::filesystem::path(dir) / name).string();
}

std::vector<PlannedCell> EnumerateCells(const ExperimentSpec& spec) {
  ValidateSpec(spec);
  const std::vector<std::string> dataset_names = DatasetDisplayNames(spec);
  std::vector<PlannedCell> cells;
  for (size_t d = 0; d < dataset_names.size(); ++d) {
    for (size_t s = 0; s < spec.strategies.size(); ++s) {
      for (const double cost_rate : spec.cost_rates) {
        for (const uint64_t seed : spec.seeds) {
          PlannedCell cell;
          cell.index = static_cast<int64_t>(cells.size());
          cell.dataset_index = d;
          cell.strategy_index = s;
          cell.key = CellKey{spec.strategies[s].display(), dataset_names[d],
                             cost_rate, seed};
          // The cell's RNG root comes from its key, never from
          // scheduling or process placement, so any worker count — and
          // any process count — reproduces the same bits.
          cell.derived_seed = CellSeed(cell.key);
          cells.push_back(std::move(cell));
        }
      }
    }
  }
  return cells;
}

/// One dataset-axis entry, materialized on first use. Presets generate
/// lazily under `once` (a fabric worker that only ever claims crypto-a
/// cells never pays for sp500); custom datasets are referenced in place.
struct CellPlan::DatasetSlot {
  market::DatasetId preset_id = market::DatasetId::kCryptoA;
  bool is_preset = false;
  const market::MarketDataset* external = nullptr;  ///< Custom datasets.
  const std::vector<double>* cost_multipliers = nullptr;  ///< Never null.
  market::MarketDataset generated;
  std::once_flag once;
};

CellPlan::CellPlan(const ExperimentSpec& spec)
    : spec_(spec), cells_(EnumerateCells(spec)) {
  static const std::vector<double> kNoMultipliers;
  const size_t axis = spec.custom_datasets.empty()
                          ? spec.datasets.size()
                          : spec.custom_datasets.size();
  datasets_ = std::vector<DatasetSlot>(axis);
  for (size_t d = 0; d < axis; ++d) {
    DatasetSlot& slot = datasets_[d];
    if (spec.custom_datasets.empty()) {
      slot.is_preset = true;
      slot.preset_id = spec.datasets[d];
      slot.cost_multipliers = &kNoMultipliers;
    } else {
      slot.external = &spec.custom_datasets[d].dataset;
      slot.cost_multipliers = &spec.custom_datasets[d].cost_multipliers;
    }
  }
}

CellPlan::~CellPlan() = default;

const market::MarketDataset& CellPlan::Dataset(size_t index) const {
  DatasetSlot& slot = datasets_[index];
  if (!slot.is_preset) return *slot.external;
  std::call_once(slot.once, [&slot, this] {
    slot.generated = market::MakeDataset(slot.preset_id, spec_.scale);
  });
  return slot.generated;
}

CellResult CellPlan::RunCell(const PlannedCell& cell) const {
  obs::Span cell_span("exec.cell");
  cell_span.AddArg("index", static_cast<double>(cell.index));
  cell_span.AddArg("cost_rate", cell.key.cost_rate);
  const auto start = std::chrono::steady_clock::now();
  const market::MarketDataset& dataset = Dataset(cell.dataset_index);
  strategies::StrategySpec cell_spec = spec_.strategies[cell.strategy_index];
  cell_spec.scale = spec_.scale;
  // Train at the evaluated rate (the paper's protocol) unless the spec
  // pins a fixed train-time rate.
  cell_spec.cost_rate = spec_.train_cost_rate >= 0.0 ? spec_.train_cost_rate
                                                     : cell.key.cost_rate;
  CellResult result;
  result.key = cell.key;
  result.derived_seed = cell.derived_seed;
  cell_spec.seed = result.derived_seed;
  if (!spec_.telemetry_dir.empty()) {
    cell_spec.runlog_path =
        CellRunLogPath(spec_.telemetry_dir, result.derived_seed);
  }
  const std::unique_ptr<backtest::Strategy> strategy =
      strategies::MakeStrategy(cell_spec, dataset);
  backtest::BacktestRecord record =
      backtest::RunOnTestRange(strategy.get(), dataset, cell.key.cost_rate,
                               *datasets_[cell.dataset_index].cost_multipliers);
  result.metrics = backtest::ComputeMetrics(record);
  if (spec_.keep_records) result.record = std::move(record);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (obs::Enabled()) {
    static thread_local obs::Counter& completed =
        obs::GetCounter("exec.cells.completed");
    static thread_local obs::Histogram& cell_seconds =
        obs::GetHistogram("exec.cell.seconds");
    completed.Add(1.0);
    cell_seconds.Observe(result.wall_seconds);
    // One gauge per cell key: readable per-cell wall times in the
    // profile. A watermark (not last-write) so re-running the same spec
    // merges deterministically. Cell-grid cardinality is small enough
    // that a metric per cell is fine.
    obs::GetGauge("exec.cell_seconds." + result.key.strategy + "|" +
                  result.key.dataset + "|psi=" +
                  std::to_string(result.key.cost_rate) + "|seed=" +
                  std::to_string(result.key.seed))
        .UpdateMax(result.wall_seconds);
  }
  return result;
}

bool CellPlan::SaveCell(const std::string& dir, const CellResult& result,
                        std::string* error) const {
  const std::string path = CellCheckpointPath(dir, result.derived_seed);
  ckpt::CheckpointWriter writer(path);
  writer.BeginSection("cell");
  ckpt::BinWriter& out = writer.writer();
  out.WriteString(result.key.strategy);
  out.WriteString(result.key.dataset);
  out.WriteF64(result.key.cost_rate);
  out.WriteU64(result.key.seed);
  out.WriteU64(result.derived_seed);
  out.WriteF64(result.wall_seconds);
  out.WriteF64(result.metrics.apv);
  out.WriteF64(result.metrics.sr_pct);
  out.WriteF64(result.metrics.std_pct);
  out.WriteF64(result.metrics.mdd_pct);
  out.WriteF64(result.metrics.cr);
  out.WriteF64(result.metrics.turnover);
  const bool has_record = !result.record.wealth_curve.empty();
  out.WriteU8(has_record ? 1 : 0);
  if (has_record) {
    ckpt::WriteDoubleVector(&out, result.record.wealth_curve);
    ckpt::WriteDoubleVector(&out, result.record.log_returns);
    ckpt::WriteDoubleVector(&out, result.record.cost_fractions);
    ckpt::WriteDoubleVector(&out, result.record.turnover_terms);
    out.WriteI64(static_cast<int64_t>(result.record.actions.size()));
    for (const std::vector<double>& action : result.record.actions) {
      ckpt::WriteDoubleVector(&out, action);
    }
  }
  return writer.Commit(error);
}

bool CellPlan::TryLoadCell(const std::string& dir, const PlannedCell& cell,
                           CellResult* result, std::string* error) const {
  const std::string path = CellCheckpointPath(dir, cell.derived_seed);
  result->key = cell.key;
  result->derived_seed = cell.derived_seed;
  const bool need_record = spec_.keep_records;
  ckpt::CheckpointReader reader;
  if (!reader.Open(path, error)) return false;
  if (!reader.EnterSection("cell", error)) return false;
  ckpt::BinReader& in = reader.reader();
  std::string strategy;
  std::string dataset;
  double cost_rate = 0.0;
  uint64_t seed = 0;
  uint64_t derived_seed = 0;
  if (!in.ReadString(&strategy) || !in.ReadString(&dataset) ||
      !in.ReadF64(&cost_rate) || !in.ReadU64(&seed) ||
      !in.ReadU64(&derived_seed)) {
    *error = "cell checkpoint: short read in key echo";
    return false;
  }
  if (strategy != result->key.strategy || dataset != result->key.dataset ||
      cost_rate != result->key.cost_rate || seed != result->key.seed ||
      derived_seed != result->derived_seed) {
    *error = "cell checkpoint: key mismatch (stored \"" + strategy + "|" +
             dataset + "\", expected \"" + result->key.strategy + "|" +
             result->key.dataset + "\")";
    return false;
  }
  uint8_t has_record = 0;
  if (!in.ReadF64(&result->wall_seconds) || !in.ReadF64(&result->metrics.apv) ||
      !in.ReadF64(&result->metrics.sr_pct) ||
      !in.ReadF64(&result->metrics.std_pct) ||
      !in.ReadF64(&result->metrics.mdd_pct) ||
      !in.ReadF64(&result->metrics.cr) ||
      !in.ReadF64(&result->metrics.turnover) || !in.ReadU8(&has_record)) {
    *error = "cell checkpoint: short read in metrics";
    return false;
  }
  if (need_record && has_record == 0) {
    // Written by a keep_records=false sweep; the record must be recomputed.
    *error = "cell checkpoint: record requested but not stored";
    return false;
  }
  if (has_record != 0) {
    int64_t num_actions = 0;
    if (!ckpt::ReadDoubleVector(&in, &result->record.wealth_curve) ||
        !ckpt::ReadDoubleVector(&in, &result->record.log_returns) ||
        !ckpt::ReadDoubleVector(&in, &result->record.cost_fractions) ||
        !ckpt::ReadDoubleVector(&in, &result->record.turnover_terms) ||
        !in.ReadI64(&num_actions) || num_actions < 0) {
      *error = "cell checkpoint: short read in record";
      return false;
    }
    result->record.actions.resize(static_cast<size_t>(num_actions));
    for (std::vector<double>& action : result->record.actions) {
      if (!ckpt::ReadDoubleVector(&in, &action)) {
        *error = "cell checkpoint: short read in record actions";
        return false;
      }
    }
    if (!need_record) result->record = backtest::BacktestRecord{};
  }
  return reader.Finish(error);
}

ResultSink::ResultSink(int64_t num_cells)
    : rows_(static_cast<size_t>(num_cells)),
      filled_(static_cast<size_t>(num_cells), false) {
  PPN_CHECK_GE(num_cells, 0);
}

void ResultSink::Set(int64_t index, CellResult result) {
  std::unique_lock<std::mutex> lock(mutex_);
  PPN_CHECK(index >= 0 && index < static_cast<int64_t>(rows_.size()))
      << "cell index out of range: " << index;
  PPN_CHECK(!filled_[index]) << "cell " << index << " reported twice";
  rows_[index] = std::move(result);
  filled_[index] = true;
}

std::vector<CellResult> ResultSink::Take() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (size_t i = 0; i < filled_.size(); ++i) {
    PPN_CHECK(filled_[i]) << "cell " << i << " never reported";
  }
  return std::move(rows_);
}

double MetricValue(const backtest::Metrics& metrics,
                   const std::string& column) {
  if (column == "APV") return metrics.apv;
  if (column == "SR(%)") return metrics.sr_pct;
  if (column == "STD(%)") return metrics.std_pct;
  if (column == "MDD(%)") return metrics.mdd_pct;
  if (column == "CR") return metrics.cr;
  if (column == "TO") return metrics.turnover;
  PPN_CHECK(false) << "unknown metric column: " << column;
  return 0.0;
}

TablePrinter MakeMetricsTable(
    const std::string& label_header,
    const std::vector<std::pair<std::string, const CellResult*>>& rows,
    const std::vector<std::string>& metric_columns, int precision) {
  std::vector<std::string> header = {label_header};
  header.insert(header.end(), metric_columns.begin(), metric_columns.end());
  TablePrinter table(std::move(header));
  for (const auto& [label, result] : rows) {
    PPN_CHECK(result != nullptr);
    std::vector<double> values;
    values.reserve(metric_columns.size());
    for (const std::string& column : metric_columns) {
      values.push_back(MetricValue(result->metrics, column));
    }
    table.AddRow(label, values, precision);
  }
  return table;
}

bool WriteResultsJson(const std::string& path,
                      const std::vector<CellResult>& rows) {
  // Atomic (temp-then-rename, like every other persistence path) and
  // JsonNumber (%.17g) so every double round-trips bit-exactly:
  // downstream equality checks — the fabric's N-process-vs-1 comparison
  // in particular — compare these files, not in-memory rows.
  AtomicFileWriter file(path);
  if (!file.ok()) return false;
  std::ofstream& out = file.stream();
  out << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const CellResult& row = rows[i];
    out << "  {\"strategy\": " << JsonString(row.key.strategy)
        << ", \"dataset\": " << JsonString(row.key.dataset)
        << ", \"cost_rate\": " << JsonNumber(row.key.cost_rate)
        << ", \"seed\": " << row.key.seed
        << ", \"derived_seed\": " << row.derived_seed
        << ", \"apv\": " << JsonNumber(row.metrics.apv)
        << ", \"sr_pct\": " << JsonNumber(row.metrics.sr_pct)
        << ", \"std_pct\": " << JsonNumber(row.metrics.std_pct)
        << ", \"mdd_pct\": " << JsonNumber(row.metrics.mdd_pct)
        << ", \"cr\": " << JsonNumber(row.metrics.cr)
        << ", \"turnover\": " << JsonNumber(row.metrics.turnover)
        << ", \"wall_seconds\": " << JsonNumber(row.wall_seconds)
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return file.Commit();
}

CellStep CellPlan::RunOrRestore(const std::string& dir,
                               const PlannedCell& cell) const {
  CellStep step;
  if (!dir.empty()) {
    if (TryLoadCell(dir, cell, &step.result, &step.load_error)) {
      step.restored = true;
      if (obs::Enabled()) {
        static thread_local obs::Counter& counter =
            obs::GetCounter("exec.cells.restored");
        counter.Add(1.0);
      }
      return step;
    }
    // A missing file is the normal cold path, not an error.
    if (!std::filesystem::exists(CellCheckpointPath(dir, cell.derived_seed))) {
      step.load_error.clear();
    }
  }
  step.result = RunCell(cell);
  if (!dir.empty() && !SaveCell(dir, step.result, &step.save_error)) {
    step.saved = false;
    if (obs::Enabled()) {
      static thread_local obs::Counter& counter =
          obs::GetCounter("exec.cells.ckpt_write_failed");
      counter.Add(1.0);
    }
  }
  return step;
}

ExperimentRunner::ExperimentRunner(int num_workers)
    : num_workers_(num_workers) {
  PPN_CHECK_GE(num_workers, 0);
}

ExperimentRunner::ExperimentRunner()
    : ExperimentRunner(DefaultWorkerCount()) {}

std::vector<CellResult> ExperimentRunner::Run(const ExperimentSpec& spec,
                                              RunStats* stats) const {
  const CellPlan plan(spec);

  if (!spec.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(spec.checkpoint_dir, ec);
    PPN_CHECK(!ec) << "cannot create checkpoint dir " << spec.checkpoint_dir
                   << ": " << ec.message();
  }
  if (!spec.telemetry_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(spec.telemetry_dir, ec);
    PPN_CHECK(!ec) << "cannot create telemetry dir " << spec.telemetry_dir
                   << ": " << ec.message();
  }

  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> restored{0};
  std::atomic<int64_t> ckpt_failures{0};
  ResultSink sink(static_cast<int64_t>(plan.cells().size()));
  ThreadPool pool(num_workers_);
  for (const PlannedCell& cell : plan.cells()) {
    pool.Submit([&plan, &spec, &sink, &completed, &restored, &ckpt_failures,
                 &cell] {
      CellStep step = plan.RunOrRestore(spec.checkpoint_dir, cell);
      (step.restored ? restored : completed)
          .fetch_add(1, std::memory_order_relaxed);
      if (!step.load_error.empty()) {
        std::fprintf(stderr, "[exec] ignoring cell checkpoint %s: %s\n",
                     CellCheckpointPath(spec.checkpoint_dir, cell.derived_seed)
                         .c_str(),
                     step.load_error.c_str());
      }
      if (!step.saved) {
        // The cell's in-memory result is intact; only durability is
        // lost. Count it so the sweep summary can surface the loss — an
        // fprintf alone disappears into scrollback while a rerun
        // silently recomputes the cell.
        ckpt_failures.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr, "[exec] cell checkpoint write failed: %s\n",
                     step.save_error.c_str());
      }
      sink.Set(cell.index, std::move(step.result));
    });
  }
  pool.Wait();
  if (stats != nullptr) {
    stats->cells_completed = completed.load(std::memory_order_relaxed);
    stats->cells_restored = restored.load(std::memory_order_relaxed);
    stats->ckpt_write_failures = ckpt_failures.load(std::memory_order_relaxed);
  }
  return sink.Take();
}

}  // namespace ppn::exec
