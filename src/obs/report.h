#ifndef PPN_OBS_REPORT_H_
#define PPN_OBS_REPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "obs/run_log.h"

/// \file
/// Offline readers for the telemetry files this repo writes: RunLog JSONL
/// streams (`run_log.h`) and Chrome trace-event JSON (`trace.h`). These
/// back the `ppn_cli report` subcommand and the exporter-validation
/// tests. Unlike the recording side, this layer does NOT compile out
/// under -DPPN_OBS_COMPILED=OFF: reading a telemetry file produced by an
/// instrumented build is useful from any build.

namespace ppn::obs {

/// Paths of the regular files directly inside `dir` whose names end in
/// `suffix` (and are longer than it), sorted. A directory that cannot be
/// listed yields what was read, with the failure in `*ec` when non-null.
std::vector<std::string> FilesWithSuffix(const std::string& dir,
                                         std::string_view suffix,
                                         std::error_code* ec = nullptr);

/// One fully parsed run-log file: the header metadata plus every step
/// record, in file order.
struct ParsedRunLog {
  std::string schema;
  RunLogMeta meta;
  std::vector<RunLogRecord> records;
};

/// Parses a RunLog JSONL file. Returns false (with a message in `error`
/// when non-null) on I/O failure, a malformed line, or an unsupported
/// schema version. Doubles round-trip exactly (%.17g on the write side,
/// strtod on the read side are inverses for finite values).
bool ReadRunLog(const std::string& path, ParsedRunLog* out,
                std::string* error = nullptr);

/// Per-cell digest used by `ppn_cli report`: final-step reward
/// decomposition plus a first-vs-last-window turnover trajectory.
struct RunLogSummary {
  std::string file;  ///< Basename of the run-log file.
  RunLogMeta meta;
  int64_t steps = 0;
  RunLogRecord final_step;     ///< Last record in the file.
  double turnover_first = 0.0;  ///< Mean turnover, first `window` steps.
  double turnover_last = 0.0;   ///< Mean turnover, last `window` steps.
  double grad_norm_last = 0.0;  ///< Mean grad norm, last `window` steps.
  double solver_iters_mean = 0.0;
  double step_seconds_total = 0.0;
};

/// Summarizes one parsed log. `window` bounds the head/tail averaging
/// windows (clamped to the record count).
RunLogSummary SummarizeRunLog(const ParsedRunLog& log, int64_t window = 50);

/// Finds `*.runlog.jsonl` files directly inside `dir` (sorted by name),
/// parses and summarizes each. Unparseable files are skipped with a note
/// appended to `errors` when non-null.
std::vector<RunLogSummary> SummarizeRunLogDir(
    const std::string& dir, int64_t window = 50,
    std::vector<std::string>* errors = nullptr);

/// Aggregate of one span name across a trace file.
struct SpanStat {
  std::string name;
  int64_t count = 0;
  double total_us = 0.0;
  double max_us = 0.0;
};

/// Parses a Chrome trace-event JSON file and aggregates its "X" events
/// by name, sorted by total duration (descending), name ascending on
/// ties. Returns false on I/O or parse failure.
bool SummarizeTrace(const std::string& path, std::vector<SpanStat>* out,
                    std::string* error = nullptr);

/// Renders the report `ppn_cli report` prints: one table row per cell
/// (reward decomposition at the final step, turnover first→last), and a
/// slowest-spans table when `trace_path` is non-empty.
std::string RenderReport(const std::vector<RunLogSummary>& cells,
                         const std::vector<SpanStat>& spans);

}  // namespace ppn::obs

#endif  // PPN_OBS_REPORT_H_
