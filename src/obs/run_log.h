#ifndef PPN_OBS_RUN_LOG_H_
#define PPN_OBS_RUN_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/atomic_file.h"

/// \file
/// Streaming per-step training telemetry: `obs::RunLog` records EVERY
/// training step's scalars — the cost-sensitive reward total and its
/// λ-variance / γ-turnover components, gradient norm, PVM staleness,
/// cost-solver iterations, step wall time — as one JSONL line per step,
/// one file per experiment cell or `ppn_cli train` run. It is the only
/// record of the reward breakdown behind the training-dynamics analyses
/// (Table 6 turnover trajectories, Table 7 variance suppression): nothing
/// is downsampled and nothing wraps.
///
/// Architecture: `Append` formats the record on the caller's thread into
/// the buffered stream of a `common/atomic_file.h` writer. Trainers append
/// one short line per training step, too little traffic to need a writer
/// thread, and no record is ever dropped. A crash mid-run leaves no
/// partial file at the target path; `Close()` (or destruction) flushes,
/// commits, and renames.
///
/// File format (schema-versioned): first line is a header object
///   {"schema": "ppn.runlog.v1", "run": "<id>", ...metadata...}
/// and every following line is one step record
///   {"step": 0, "reward_total": ..., "reward_log_return": ...,
///    "reward_variance": ..., "reward_turnover": ..., "grad_norm": ...,
///    "pvm_staleness": ..., "solver_iterations": ..., "step_seconds": ...}
/// Doubles are printed by `JsonNumber` (%.17g), so the file round-trips
/// bit-exactly: `ppn_cli report` reproduces the trainer's returned
/// metrics EXACTLY, not approximately.
///
/// Gating follows the rest of `src/obs`: `Open` returns null when
/// `obs::Enabled()` is false (training code holds a null-tolerant
/// pointer), which it always is under -DPPN_OBS_COMPILED=OFF.
/// Determinism contract: a RunLog only observes values already computed
/// by the trainer; it feeds nothing back.

namespace ppn::obs {

/// One training step's scalars. Fields that do not apply to a given
/// trainer (e.g. PVM staleness for DDPG) stay 0.
struct RunLogRecord {
  int64_t step = 0;
  double reward_total = 0.0;
  double reward_log_return = 0.0;
  double reward_variance = 0.0;    ///< λ-weighted term's raw variance.
  double reward_turnover = 0.0;    ///< γ-weighted term's raw turnover.
  double grad_norm = 0.0;          ///< Pre-clip global gradient norm.
  double pvm_staleness = 0.0;      ///< Mean steps since batch rows' PVM write.
  double solver_iterations = 0.0;  ///< Cost-solver fixed-point iterations.
  double step_seconds = 0.0;       ///< Wall time of this step.
};

/// A record's keys in file order: "step" (an integer), then each double
/// field. The one definition `RunLog::Append` writes and `ReadRunLog`
/// (obs/report.h) reads.
inline constexpr char kRunLogStepKey[] = "step";
inline constexpr std::pair<const char*, double RunLogRecord::*>
    kRunLogFields[] = {
        {"reward_total", &RunLogRecord::reward_total},
        {"reward_log_return", &RunLogRecord::reward_log_return},
        {"reward_variance", &RunLogRecord::reward_variance},
        {"reward_turnover", &RunLogRecord::reward_turnover},
        {"grad_norm", &RunLogRecord::grad_norm},
        {"pvm_staleness", &RunLogRecord::pvm_staleness},
        {"solver_iterations", &RunLogRecord::solver_iterations},
        {"step_seconds", &RunLogRecord::step_seconds},
};

/// Key/value metadata stamped into the header line (strategy, dataset,
/// γ/λ/cost-rate, seed, planned steps).
struct RunLogMeta {
  std::string run_id;
  std::string strategy;
  std::string dataset;
  double gamma = 0.0;
  double lambda = 0.0;
  double cost_rate = 0.0;
  int64_t seed = 0;
  int64_t steps = 0;
};

class RunLog {
 public:
  /// Opens a run log writing to `path` (atomically, via a .tmp sibling).
  /// Returns null — callers must tolerate it — when `obs::Enabled()` is
  /// false or the file cannot be opened. The header line is written
  /// immediately.
  static std::unique_ptr<RunLog> Open(const std::string& path,
                                      const RunLogMeta& meta);

  /// Commits if `Close` was not called.
  ~RunLog();

  RunLog(const RunLog&) = delete;
  RunLog& operator=(const RunLog&) = delete;

  /// Writes one step record. Discarded after `Close`. Thread-compatible:
  /// one producer per RunLog, which is how trainers use it.
  void Append(const RunLogRecord& record);

  /// Commits the file (flush, fsync, atomic rename). Returns false if any
  /// write failed. Idempotent.
  bool Close();

  /// Final target path.
  const std::string& path() const { return path_; }

 private:
  RunLog(std::string path, const RunLogMeta& meta);

  std::string path_;
  std::unique_ptr<AtomicFileWriter> file_;  ///< Null once closed.
  bool ok_ = true;
};

}  // namespace ppn::obs

#endif  // PPN_OBS_RUN_LOG_H_
