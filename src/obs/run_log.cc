#include "obs/run_log.h"

#include <utility>

#include "common/json.h"
#include "obs/stats.h"

namespace ppn::obs {

namespace {

std::string FormatHeader(const RunLogMeta& meta) {
  std::string line = "{\"schema\": " + JsonString(kRunLogSchema);
  for (const auto& [key, field] : kRunLogTextKeys) {
    line += ", " + JsonString(key) + ": " + JsonString(meta.*field);
  }
  for (const auto& [key, field] : kRunLogRealKeys) {
    line += ", " + JsonString(key) + ": " + JsonNumber(meta.*field);
  }
  for (const auto& [key, field] : kRunLogIntKeys) {
    line += ", " + JsonString(key) + ": " + std::to_string(meta.*field);
  }
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
