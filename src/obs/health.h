#ifndef PPN_OBS_HEALTH_H_
#define PPN_OBS_HEALTH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/stats.h"

/// \file
/// Declarative SLO health rules over the obs registry: `PPN_HEALTH` names
/// a comma-separated list of threshold rules like
///
///   PPN_HEALTH=serve.decide.latency.seconds.p99<5ms,
///              exec.cells.ckpt_write_failed==0,
///              backtest.solver.nonconverged==0
///
/// Each rule compares one METRIC against one THRESHOLD:
///
///   metric    a counter or gauge name from the registry, or a histogram
///             name suffixed with `.` and a `kHistogramStats` key (`.p50`,
///             `.p95`, `.p99`, `.mean`, `.min`, `.max`, `.count`; obs/stats.h).
///             A plain name absent from the
///             snapshot resolves to 0 (counters start at zero); a
///             histogram stat with no observations is SKIPPED for that
///             evaluation (no data is not a violation).
///   op        one of  <  <=  >  >=  ==  !=
///   threshold a double, optionally suffixed with a time unit: `s`, `ms`,
///             or `us` (converted to seconds — the unit every obs timer
///             records in).
///
/// Rules are evaluated in two places: per sample window by the periodic
/// `obs::StatsSampler` (each window's verdicts are appended as a
/// structured `health` field on the `ppn.stats.v1` sample line), and once
/// at process exit by `ReportHealthIfRequested` (through
/// `FinishRunTelemetry`, obs/sampler.h), which prints a loud
/// PASS/FAIL summary and makes the caller's exit status nonzero on FAIL
/// (`ppn_cli` and `run_benches.sh` both consume it).
///
/// Like the rest of the reader-side tooling (report.h, trace_merge.h),
/// rule parsing and evaluation never compile out: under
/// -DPPN_OBS_COMPILED=OFF the snapshot is simply empty, so counter rules
/// compare against 0 and histogram rules skip.

namespace ppn::obs {

enum class HealthOp { kLt, kLe, kGt, kGe, kEq, kNe };

/// One parsed rule: `metric op threshold`.
struct HealthRule {
  std::string metric;
  HealthOp op = HealthOp::kLt;
  double threshold = 0.0;
  std::string raw;  ///< Original rule text, for messages.
};

/// Renders the operator back to its source spelling.
std::string HealthOpName(HealthOp op);

/// Parses a comma-separated rule list. Returns false (with a message
/// naming the offending rule in `*error`, when non-null) on the first
/// malformed rule: missing operator, empty metric, or a threshold that is
/// not a number with an optional s/ms/us suffix. An empty `text` parses
/// to an empty rule list.
bool ParseHealthRules(const std::string& text, std::vector<HealthRule>* out,
                      std::string* error = nullptr);

/// Reads and parses `PPN_HEALTH`. Unset/empty yields no rules; a
/// malformed value ABORTS naming the variable and the bad rule (the same
/// strict-parse contract as the numeric env knobs).
std::vector<HealthRule> HealthRulesFromEnv();

/// Verdict of one rule against one snapshot.
struct HealthEval {
  const HealthRule* rule = nullptr;
  bool evaluated = false;  ///< False when the metric had no data (skip).
  bool ok = true;          ///< Meaningful only when `evaluated`.
  double value = 0.0;      ///< The resolved metric value when `evaluated`.
};

/// Resolves `metric` against a snapshot (see the file comment for the
/// naming scheme). Returns false when the metric names a histogram stat
/// with no observations; plain names always resolve (absent = 0).
bool ResolveHealthMetric(const Snapshot& snapshot, const std::string& metric,
                         double* value);

/// Stateful evaluator: every `Evaluate` call checks all rules against the
/// given snapshot and folds the verdicts into cumulative per-rule
/// tallies, so the end-of-run summary can say "violated in 3/120
/// windows" rather than only reporting the final state.
class HealthMonitor {
 public:
  explicit HealthMonitor(std::vector<HealthRule> rules);

  /// Evaluates every rule against `snapshot`; returns this round's
  /// verdicts (in rule order) and updates the cumulative tallies.
  std::vector<HealthEval> Evaluate(const Snapshot& snapshot);

  const std::vector<HealthRule>& rules() const { return rules_; }
  bool has_rules() const { return !rules_.empty(); }

  /// True while no rule has ever been violated.
  bool ok() const;

  /// Multi-line PASS/FAIL summary of the cumulative tallies. With
  /// `color`, FAIL lines are wrapped in ANSI red.
  std::string Summary(bool color) const;

 private:
  struct RuleTally {
    int64_t evaluations = 0;
    int64_t violations = 0;
    double last_value = 0.0;
    bool value_seen = false;
  };

  std::vector<HealthRule> rules_;
  std::vector<RuleTally> tallies_;
};

/// End-of-run gate: parses `PPN_HEALTH`, evaluates the rules once against
/// the current merged snapshot, and prints the PASS/FAIL summary to
/// stderr (red when stderr is a TTY; the FAIL line always carries the
/// grep-stable token `PPN_HEALTH: FAIL`). Returns 0 when no rules are
/// configured or all pass, 1 when any rule is violated — callers fold
/// this into their exit status.
int ReportHealthIfRequested();

}  // namespace ppn::obs

#endif  // PPN_OBS_HEALTH_H_
