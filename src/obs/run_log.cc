#include "obs/run_log.h"

#include <utility>

#include "common/json.h"
#include "obs/stats.h"

namespace ppn::obs {

namespace {

std::string FormatHeader(const RunLogMeta& meta) {
  std::string line = "{\"schema\": \"ppn.runlog.v1\"";
  line += ", \"run\": " + JsonString(meta.run_id);
  line += ", \"strategy\": " + JsonString(meta.strategy);
  line += ", \"dataset\": " + JsonString(meta.dataset);
  line += ", \"gamma\": " + JsonNumber(meta.gamma);
  line += ", \"lambda\": " + JsonNumber(meta.lambda);
  line += ", \"cost_rate\": " + JsonNumber(meta.cost_rate);
  line += ", \"seed\": " + std::to_string(meta.seed);
  line += ", \"steps\": " + std::to_string(meta.steps);
  line += "}\n";
  return line;
}

std::string FormatRecord(const RunLogRecord& record) {
  std::string line = "{" + JsonString(kRunLogStepKey) + ": " +
                     std::to_string(record.step);
  for (const auto& [key, field] : kRunLogFields) {
    line += ", " + JsonString(key) + ": " + JsonNumber(record.*field);
  }
  line += "}\n";
  return line;
}

}  // namespace

std::unique_ptr<RunLog> RunLog::Open(const std::string& path,
                                     const RunLogMeta& meta) {
  if (!Enabled() || path.empty()) return nullptr;
  // unique_ptr via `new`: the constructor is private.
  std::unique_ptr<RunLog> log(new RunLog(path, meta));
  if (log->file_ == nullptr) return nullptr;
  return log;
}

RunLog::RunLog(std::string path, const RunLogMeta& meta)
    : path_(std::move(path)) {
  auto file = std::make_unique<AtomicFileWriter>(path_);
  if (!file->ok()) return;
  file->stream() << FormatHeader(meta);
  if (!file->ok()) return;
  file_ = std::move(file);
}

RunLog::~RunLog() { Close(); }

void RunLog::Append(const RunLogRecord& record) {
  if (file_ == nullptr) return;  // Appends after Close are discarded.
  file_->stream() << FormatRecord(record);
  if (!file_->ok()) ok_ = false;
}

bool RunLog::Close() {
  if (file_ == nullptr) return ok_;
  ok_ = ok_ && file_->Commit();
  file_.reset();
  return ok_;
}

}  // namespace ppn::obs
