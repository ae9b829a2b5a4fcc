#ifndef PPN_OBS_SAMPLER_H_
#define PPN_OBS_SAMPLER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/health.h"
#include "obs/stats.h"

/// \file
/// Periodic time-series sampling of the obs registry: a background thread
/// snapshots every `PPN_SAMPLE_MS` milliseconds and appends one JSON line
/// per window to an append-only `ppn.stats.v1` stream, giving every
/// long-running process (trainers, `ppn_cli serve`, fabric workers,
/// benches) a live, tailable view instead of one end-of-run aggregate.
///
/// ## Stream format (`ppn.stats.v1`)
///
/// Line 1 is a header object; every subsequent line is one sample window:
///
///   {"schema": "ppn.stats.v1", "process": "serve", "sample_ms": 250,
///    "start_unix_ms": 1754650000123}
///   {"t_ms": 250.1, "window_ms": 250.1,
///    "counters": {"serve.decisions": 1210},
///    "gauges": {"serve.queue.depth": 32},
///    "hists": {"serve.decide.latency.seconds":
///              {"count": 1210, "mean": 0.0011, "min": 0.0002,
///               "max": 0.004, "p50": 0.0009, "p95": 0.002, "p99": 0.003}},
///    "health": [{"rule": "...p99<5ms", "ok": true, "value": 0.003}]}
///
///   - `t_ms` is MONOTONIC (steady-clock milliseconds since sampler
///     start); `start_unix_ms` in the header anchors it to wall time so
///     the fabric coordinator can merge-sort worker streams.
///   - `counters` holds per-window DELTAS (zero deltas omitted);
///     `gauges` holds the current high-watermark values; `hists` holds
///     per-window distributions (bucket-wise snapshot deltas — a rolling
///     p99, not the cumulative one). Empty sections are omitted;
///     a window with no activity still emits `{"t_ms": ..}` so liveness
///     is observable.
///   - `health` appears when `PPN_HEALTH` rules are configured,
///     evaluated against the WINDOW view (so a latency rule reads the
///     rolling percentile). The exit verdict (`FinishRunTelemetry`)
///     evaluates the rules once more, against the whole run.
///   - Histogram keys are `kHistogramStats` (obs/stats.h), the same
///     keys, in the same order, as a profile histogram's.
///   - Doubles print through `JsonNumber` (%.17g), so a parse→reprint
///     round trip through `common/json` is bit-exact.
///
/// The sampling thread formats each line and commits it itself with a
/// single `write(2)` on an append-only fd, so concurrent tailers never
/// observe a torn line (except a benign trailing partial while a write is
/// in flight). One line per window is little traffic, and because
/// counters are deltas of cumulative snapshots, a write that stalls past a
/// tick only makes the next window longer — nothing is lost.
///
/// The sampler only OBSERVES: it never feeds values back into
/// computation, so result paths stay bit-identical with sampling on or
/// off. Under -DPPN_OBS_COMPILED=OFF, `Start` returns null (`Enabled()`
/// is constant false); the stream readers below work in every build.

namespace ppn::obs {

struct SamplerOptions {
  std::string path;          ///< Stream path; empty disables.
  std::string process;       ///< `process` field; derived from path if "".
  int64_t sample_ms = 0;     ///< Window length; <= 0 reads PPN_SAMPLE_MS.
  std::vector<HealthRule> health;  ///< Rules evaluated per window.
};

class StatsSampler {
 public:
  /// Starts sampling. Returns null when obs is disabled (runtime or
  /// compile-time) or `options.path` is empty. Aborts on a sample_ms < 1
  /// or an unwritable path is reported via `ok()` after Stop.
  static std::unique_ptr<StatsSampler> Start(const SamplerOptions& options);

  /// Stops with a final window sample (so even sub-window runs emit at
  /// least one line) and closes the stream. Returns false if any write
  /// failed. Idempotent; the destructor calls it.
  bool Stop();

  ~StatsSampler();

  StatsSampler(const StatsSampler&) = delete;
  StatsSampler& operator=(const StatsSampler&) = delete;

  const std::string& path() const { return path_; }

 private:
  struct Impl;
  explicit StatsSampler(std::unique_ptr<Impl> impl);

  std::string path_;
  std::unique_ptr<Impl> impl_;
};

/// Honors `PPN_STATS_JSONL` / `PPN_SAMPLE_MS` / `PPN_HEALTH`: starts a
/// sampler streaming to `$PPN_STATS_JSONL` (null when unset/empty or obs
/// is off). `process` labels the stream; when the path's basename looks
/// like `<name>.stats.jsonl` that name wins (fabric workers get their
/// slot/generation identity from their redirected path).
std::unique_ptr<StatsSampler> StartSamplerFromEnv(const std::string& process);

/// The end of a run, for `ppn_cli` and the bench binaries alike: stops
/// `sampler` (when non-null), writes `$PPN_PROFILE_JSON` and
/// `$PPN_TRACE_JSON` when set, each with its "... written to" line on
/// stderr, then prints the `PPN_HEALTH` verdict. Returns
/// `ReportHealthIfRequested`'s status (0, or 1 when a rule failed).
int FinishRunTelemetry(StatsSampler* sampler);

// ---------------------------------------------------------------------------
// Readers (always compiled; used by `ppn_cli top` and the fabric
// coordinator's stream and profile merges).

/// Reads back the counters and gauges of a profile `WriteProfileJson`
/// (obs/stats.h) wrote, with the section parser a sample line's go
/// through; histograms stay empty (a reader gets summary stats, not
/// buckets). False, with the reason in `*error`, when the file cannot be
/// read or is not a whole JSON object.
bool ReadProfileJson(const std::string& path, Snapshot* out,
                     std::string* error);

/// One parsed sample line.
struct StatsSample {
  double t_ms = 0.0;
  double window_ms = 0.0;
  std::map<std::string, double> counters;  ///< Window deltas.
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> hists;
  int health_checked = 0;
  int health_failed = 0;
};

/// One parsed stream: header + samples.
struct StatsStream {
  std::string process;
  int64_t sample_ms = 0;
  int64_t start_unix_ms = 0;
  std::vector<StatsSample> samples;
};

/// Parses a `ppn.stats.v1` file. False (with `*error`) when the file is
/// unreadable or the header is not a ppn.stats.v1 object; individual
/// malformed sample lines are skipped, not fatal.
bool ReadStatsStream(const std::string& path, StatsStream* out,
                     std::string* error = nullptr);

/// Merges several streams into one: every sample line is re-emitted with
/// `"process"` and a wall-clock `"t_unix_ms"` sort key stamped in front
/// of its original (byte-identical) payload, merge-sorted by that global
/// time. Inputs that fail to parse are skipped (counted in `*skipped`);
/// false only when the output cannot be written.
bool MergeStatsStreams(const std::vector<std::string>& inputs,
                       const std::string& out_path, std::string* error,
                       int* skipped = nullptr);

/// The `*.stats.jsonl` streams directly inside `dir`, sorted by path. A
/// merge's own output (`merged.stats.jsonl`) is not an input stream and
/// is skipped.
std::vector<std::string> FindStatsStreams(const std::string& dir);

}  // namespace ppn::obs

#endif  // PPN_OBS_SAMPLER_H_
