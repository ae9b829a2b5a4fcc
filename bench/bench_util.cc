#include "bench_util.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "common/check.h"
#include "common/csv.h"
#include "common/env.h"
#include "exec/thread_pool.h"
#include "obs/sampler.h"
#include "obs/stats.h"

namespace ppn::bench {

namespace {

std::string SlugFromTitle(const std::string& title) {
  std::string slug;
  for (const char c : title) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    } else if (!slug.empty() && slug.back() != '_') {
      slug.push_back('_');
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug.empty() ? "results" : slug;
}

/// Groups rows by a key (first-appearance order) and prints one table per
/// group with the strategy label leading each row.
void PrintGrouped(
    const std::vector<exec::CellResult>& rows,
    const std::vector<std::string>& metric_columns,
    const std::string& label_header, int precision,
    const std::function<std::string(const exec::CellResult&)>& group_of) {
  std::vector<std::string> group_order;
  for (const exec::CellResult& row : rows) {
    const std::string group = group_of(row);
    bool seen = false;
    for (const std::string& existing : group_order) {
      if (existing == group) seen = true;
    }
    if (!seen) group_order.push_back(group);
  }
  for (const std::string& group : group_order) {
    std::printf("--- %s ---\n", group.c_str());
    std::vector<std::pair<std::string, const exec::CellResult*>> table_rows;
    for (const exec::CellResult& row : rows) {
      if (group_of(row) == group) {
        table_rows.emplace_back(row.key.strategy, &row);
      }
    }
    const TablePrinter printer = exec::MakeMetricsTable(
        label_header, table_rows, metric_columns, precision);
    std::printf("%s\n", printer.ToString().c_str());
  }
}

}  // namespace

BenchContext::BenchContext(std::string title)
    : title_(std::move(title)),
      scale_(GetRunScale()),
      runner_(exec::DefaultWorkerCount()) {
  PrintBenchHeader(title_, scale_);
  // `PPN_STATS_JSONL=<path>` streams periodic registry samples for the
  // whole bench binary (tail with `ppn_cli top --dir <path>`).
  sampler_ = obs::StartSamplerFromEnv("bench." + SlugFromTitle(title_));
}

BenchContext::~BenchContext() {
  // A bench dtor cannot change the process exit status, but the printed
  // `PPN_HEALTH: PASS|FAIL` token is what run_benches.sh gates on.
  obs::FinishRunTelemetry(sampler_.get());
}

const market::MarketDataset& BenchContext::dataset(market::DatasetId id) {
  auto it = datasets_.find(id);
  if (it == datasets_.end()) {
    it = datasets_.emplace(id, market::MakeDataset(id, scale_)).first;
  }
  return it->second;
}

std::vector<exec::CellResult> BenchContext::Run(
    exec::ExperimentSpec spec) const {
  spec.scale = scale_;
  if (spec.title.empty()) spec.title = title_;
  // `PPN_RUNLOG_DIR=<dir>` streams one per-step JSONL run log per trained
  // cell there (see obs/run_log.h; summarize with `ppn_cli report`).
  if (spec.telemetry_dir.empty()) {
    spec.telemetry_dir = env::StringOr("PPN_RUNLOG_DIR", "");
  }
  std::vector<exec::CellResult> rows = runner_.Run(spec);
  if (env::HasValue("PPN_RESULTS_JSON")) {
    const std::string path = env::StringOr("PPN_RESULTS_JSON", "") + "/" +
                             SlugFromTitle(spec.title) + ".cells.json";
    if (!exec::WriteResultsJson(path, rows)) {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    }
  }
  // Per-cell wall times, printed ONLY under profiling so the metric output
  // of a plain run stays bit-identical to an uninstrumented build.
  if (obs::Enabled() && !rows.empty()) {
    std::printf("--- cell wall times (profiling) ---\n");
    TablePrinter timing({"Cell", "wall(s)"});
    for (const exec::CellResult& row : rows) {
      timing.AddRow(row.key.strategy + " | " + row.key.dataset + " | psi=" +
                        TablePrinter::FormatCell(row.key.cost_rate, 4) +
                        " | seed=" + std::to_string(row.key.seed),
                    {row.wall_seconds}, 3);
    }
    std::printf("%s\n", timing.ToString().c_str());
    // Distribution summary across every cell the process has run so far
    // (the merged exec.cell.seconds histogram; ±2× bucket resolution).
    const obs::Snapshot snapshot = obs::TakeSnapshot();
    if (const auto it = snapshot.histograms.find("exec.cell.seconds");
        it != snapshot.histograms.end() && it->second.count > 0) {
      std::printf(
          "cell seconds: n=%lld p50=%.3f p95=%.3f p99=%.3f max=%.3f\n\n",
          static_cast<long long>(it->second.count),
          it->second.Percentile(0.50), it->second.Percentile(0.95),
          it->second.Percentile(0.99), it->second.max);
    }
  }
  return rows;
}

void BenchContext::PrintByDataset(
    const std::vector<exec::CellResult>& rows,
    const std::vector<std::string>& metric_columns,
    const std::string& label_header, int precision) const {
  PrintGrouped(rows, metric_columns, label_header, precision,
               [](const exec::CellResult& row) { return row.key.dataset; });
}

void BenchContext::PrintByCostRate(
    const std::vector<exec::CellResult>& rows,
    const std::vector<std::string>& metric_columns,
    const std::string& label_header, int precision) const {
  PrintGrouped(rows, metric_columns, label_header, precision,
               [](const exec::CellResult& row) {
                 char buffer[32];
                 std::snprintf(buffer, sizeof(buffer), "c = %.2f%%",
                               row.key.cost_rate * 100.0);
                 return std::string(buffer);
               });
}

std::string WriteWealthCurves(
    const std::string& file_stem,
    const std::vector<std::pair<std::string, std::vector<double>>>& curves) {
  PPN_CHECK(!curves.empty());
  CsvTable table;
  table.header.push_back("period");
  size_t length = 0;
  for (const auto& [label, curve] : curves) {
    table.header.push_back(label);
    length = std::max(length, curve.size());
  }
  for (size_t t = 0; t < length; ++t) {
    std::vector<double> row;
    row.push_back(static_cast<double>(t));
    for (const auto& [label, curve] : curves) {
      row.push_back(t < curve.size() ? curve[t] : curve.back());
    }
    table.rows.push_back(std::move(row));
  }
  const std::string path = file_stem + ".csv";
  if (!WriteCsv(path, table)) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
  return path;
}

void PrintBenchHeader(const std::string& title, RunScale scale) {
  std::printf("==== %s (scale: %s) ====\n", title.c_str(),
              RunScaleName(scale));
  std::printf(
      "Synthetic-market reproduction: compare SHAPES (orderings, trends),\n"
      "not absolute values, against the paper. See EXPERIMENTS.md.\n\n");
}

}  // namespace ppn::bench
