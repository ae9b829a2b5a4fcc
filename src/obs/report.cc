#include "obs/report.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <string_view>

#include "common/json.h"
#include "obs/trace_merge.h"

namespace ppn::obs {

namespace {

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

std::vector<std::string> FilesWithSuffix(const std::string& dir,
                                         std::string_view suffix,
                                         std::error_code* ec) {
  std::vector<std::string> paths;
  std::error_code list_ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir, list_ec)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.size() > suffix.size() &&
        name.ends_with(suffix)) {
      paths.push_back(entry.path().string());
    }
  }
  if (ec != nullptr) *ec = list_ec;
  std::sort(paths.begin(), paths.end());
  return paths;
}

bool ReadRunLog(const std::string& path, ParsedRunLog* out,
                std::string* error) {
  std::ifstream in(path);
  if (!in.is_open()) return Fail(error, path + ": cannot open");
  out->records.clear();
  std::string line;
  bool saw_header = false;
  int64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    JsonValue value;
    std::string parse_error;
    if (!ParseJson(line, &value, &parse_error)) {
      return Fail(error, path + ":" + std::to_string(line_number) + ": " +
                             parse_error);
    }
    if (!value.is_object()) {
      return Fail(error, path + ":" + std::to_string(line_number) +
                             ": expected an object");
    }
    if (!saw_header) {
      out->schema = value.StringOr("schema", "");
      if (out->schema != kRunLogSchema) {
        return Fail(error, path + ": unsupported schema \"" + out->schema +
                               "\" (want " + kRunLogSchema + ")");
      }
      for (const auto& [key, field] : kRunLogTextKeys) {
        out->meta.*field = value.StringOr(key, "");
      }
      for (const auto& [key, field] : kRunLogRealKeys) {
        out->meta.*field = value.NumberOr(key, 0.0);
      }
      for (const auto& [key, field] : kRunLogIntKeys) {
        out->meta.*field = value.IntOr(key, 0);
      }
      saw_header = true;
      continue;
    }
    RunLogRecord record;
    record.step = value.IntOr(kRunLogStepKey, 0);
    for (const auto& [key, field] : kRunLogFields) {
      record.*field = value.NumberOr(key, 0.0);
    }
    out->records.push_back(record);
  }
  if (!saw_header) return Fail(error, path + ": empty file (no header)");
  return true;
}

RunLogSummary SummarizeRunLog(const ParsedRunLog& log, int64_t window) {
  RunLogSummary summary;
  summary.meta = log.meta;
  summary.steps = static_cast<int64_t>(log.records.size());
  if (log.records.empty()) return summary;
  summary.final_step = log.records.back();

  const int64_t n = summary.steps;
  const int64_t w = std::max<int64_t>(1, std::min(window, n));
  double first_turnover = 0.0;
  double last_turnover = 0.0;
  double last_grad = 0.0;
  for (int64_t i = 0; i < w; ++i) {
    first_turnover += log.records[static_cast<size_t>(i)].reward_turnover;
    const RunLogRecord& tail = log.records[static_cast<size_t>(n - w + i)];
    last_turnover += tail.reward_turnover;
    last_grad += tail.grad_norm;
  }
  summary.turnover_first = first_turnover / static_cast<double>(w);
  summary.turnover_last = last_turnover / static_cast<double>(w);
  summary.grad_norm_last = last_grad / static_cast<double>(w);

  double solver = 0.0;
  double seconds = 0.0;
  for (const RunLogRecord& record : log.records) {
    solver += record.solver_iterations;
    seconds += record.step_seconds;
  }
  summary.solver_iters_mean = solver / static_cast<double>(n);
  summary.step_seconds_total = seconds;
  return summary;
}

std::vector<RunLogSummary> SummarizeRunLogDir(
    const std::string& dir, int64_t window,
    std::vector<std::string>* errors) {
  std::error_code ec;
  const std::vector<std::string> files =
      FilesWithSuffix(dir, ".runlog.jsonl", &ec);
  if (ec && errors != nullptr) {
    errors->push_back(dir + ": " + ec.message());
  }
  std::vector<RunLogSummary> summaries;
  for (const std::string& file : files) {
    ParsedRunLog log;
    std::string error;
    if (!ReadRunLog(file, &log, &error)) {
      if (errors != nullptr) errors->push_back(error);
      continue;
    }
    RunLogSummary summary = SummarizeRunLog(log, window);
    summary.file = std::filesystem::path(file).filename().string();
    summaries.push_back(std::move(summary));
  }
  return summaries;
}

bool SummarizeTrace(const std::string& path, std::vector<SpanStat>* out,
                    std::string* error) {
  TraceFile trace;
  if (!ReadTraceFile(path, &trace, error)) return false;
  // Aggregate by name; a vector+find keeps first-seen order out of the
  // result (we sort below), and span-name cardinality is tiny.
  std::vector<SpanStat> stats;
  for (const JsonValue& event : trace.events) {
    if (!event.is_object()) continue;
    if (event.StringOr("ph", "") != "X") continue;
    const std::string name = event.StringOr("name", "");
    const double dur = event.NumberOr("dur", 0.0);
    auto it = std::find_if(stats.begin(), stats.end(),
                           [&name](const SpanStat& s) {
                             return s.name == name;
                           });
    if (it == stats.end()) {
      stats.push_back(SpanStat{name, 0, 0.0, 0.0});
      it = std::prev(stats.end());
    }
    ++it->count;
    it->total_us += dur;
    it->max_us = std::max(it->max_us, dur);
  }
  std::sort(stats.begin(), stats.end(),
            [](const SpanStat& a, const SpanStat& b) {
              if (a.total_us != b.total_us) return a.total_us > b.total_us;
              return a.name < b.name;
            });
  *out = std::move(stats);
  return true;
}

std::string RenderReport(const std::vector<RunLogSummary>& cells,
                         const std::vector<SpanStat>& spans) {
  std::ostringstream out;
  out << "== run logs (" << cells.size() << " cell"
      << (cells.size() == 1 ? "" : "s") << ") ==\n";
  for (const RunLogSummary& cell : cells) {
    out << "\ncell " << cell.file << "\n";
    out << "  run=" << cell.meta.run_id << " strategy=" << cell.meta.strategy
        << " dataset=" << cell.meta.dataset << " seed=" << cell.meta.seed
        << "\n";
    out << "  gamma=" << cell.meta.gamma << " lambda=" << cell.meta.lambda
        << " cost_rate=" << cell.meta.cost_rate << " steps=" << cell.steps
        << "\n";
    out << std::setprecision(17);
    out << "  final step " << cell.final_step.step
        << ": reward_total=" << cell.final_step.reward_total << "\n";
    out << "    log_return=" << cell.final_step.reward_log_return
        << " variance=" << cell.final_step.reward_variance
        << " turnover=" << cell.final_step.reward_turnover << "\n";
    out << std::setprecision(6);
    out << "  turnover trajectory: first=" << cell.turnover_first
        << " -> last=" << cell.turnover_last << "\n";
    out << "  tail grad_norm=" << cell.grad_norm_last
        << " mean solver_iters=" << cell.solver_iters_mean
        << " train wall=" << cell.step_seconds_total << "s\n";
  }
  if (!spans.empty()) {
    out << "\n== slowest spans ==\n";
    out << "  " << std::left << std::setw(32) << "name" << std::right
        << std::setw(10) << "count" << std::setw(14) << "total_ms"
        << std::setw(14) << "max_ms" << "\n";
    const size_t limit = std::min<size_t>(spans.size(), 20);
    for (size_t i = 0; i < limit; ++i) {
      const SpanStat& span = spans[i];
      out << "  " << std::left << std::setw(32) << span.name << std::right
          << std::setw(10) << span.count << std::setw(14) << std::fixed
          << std::setprecision(3) << span.total_us / 1000.0 << std::setw(14)
          << span.max_us / 1000.0 << "\n";
      out.unsetf(std::ios::fixed);
    }
  }
  return out.str();
}

}  // namespace ppn::obs
