#ifndef PPN_OBS_STATS_H_
#define PPN_OBS_STATS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>

/// \file
/// Lightweight observability: a process-wide registry of named counters,
/// gauges and histograms, accumulated in PER-THREAD SHARDS and merged
/// only at report time.
///
/// Design constraints (in priority order):
///
/// 1. **No locks on hot paths.** Every metric update touches only the
///    calling thread's shard. Counter/gauge/histogram cells are relaxed
///    atomics so a concurrent `TakeSnapshot` reads well-defined values
///    (and the ThreadSanitizer lane stays clean) without any mutex on the
///    update path. The only shard lock is taken when a thread *creates* a
///    metric it has never touched before (amortized away by the
///    `static thread_local` handle idiom below).
/// 2. **Determinism is untouched.** Instrumentation only *observes*
///    values; it never feeds anything back into computation, so the
///    bit-identical worker-count contract of `src/exec` holds with
///    profiling on or off. Snapshot maps are name-ordered, so merged
///    *counter* values are also independent of thread count and
///    scheduling (timings, by nature, are not).
/// 3. **Negligible overhead when off.** Every call site guards on
///    `obs::Enabled()` (one relaxed atomic load; constant-false when the
///    library is compiled with PPN_OBS_DISABLED, letting the compiler
///    drop the whole block).
///
/// Runtime enablement: profiling is ON when the `PPN_PROFILE_JSON` or
/// `PPN_OBS` (≠ "0") environment variables are set, OFF otherwise;
/// `SetEnabled` / `ScopedObsEnable` override at runtime (tests).
///
/// Call-site idiom for hot kernels (one map lookup per thread, ever):
///
///   if (obs::Enabled()) {
///     static thread_local obs::Counter& calls =
///         obs::GetCounter("tensor.matmul.calls");
///     calls.Add(1.0);
///   }

namespace ppn::obs {

namespace internal {
std::atomic<bool>& EnabledFlag();
}  // namespace internal

/// True when instrumentation should record. Constant false when compiled
/// out (-DPPN_OBS_COMPILED=OFF ⇒ PPN_OBS_DISABLED).
inline bool Enabled() {
#ifdef PPN_OBS_DISABLED
  return false;
#else
  return internal::EnabledFlag().load(std::memory_order_relaxed);
#endif
}

/// Sets the runtime flag; returns the previous value. The compile-out
/// build ignores the setting (Enabled() stays false).
bool SetEnabled(bool enabled);

/// RAII enable/disable for tests.
class ScopedObsEnable {
 public:
  explicit ScopedObsEnable(bool enabled = true)
      : previous_(SetEnabled(enabled)) {}
  ~ScopedObsEnable() { SetEnabled(previous_); }

  ScopedObsEnable(const ScopedObsEnable&) = delete;
  ScopedObsEnable& operator=(const ScopedObsEnable&) = delete;

 private:
  bool previous_;
};

/// Monotonic accumulator. Doubles (not integers) so FLOP estimates fit.
/// Merge across shards: sum.
class Counter {
 public:
  void Add(double delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// High-watermark gauge: `UpdateMax` keeps the largest value seen since
/// the last reset. Merge across shards: max. (A last-write-wins gauge
/// would make merged output depend on scheduling; a watermark does not.)
class Gauge {
 public:
  void UpdateMax(double value);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::atomic<double> value_{-std::numeric_limits<double>::infinity()};
  std::atomic<bool> touched_{false};

  friend struct GaugeAccess;
};

/// Number of log2-spaced histogram buckets. Bucket i covers
/// [2^(i-31), 2^(i-30)) — from ~4.7e-10 up to ~4.3e9, wide enough for
/// nanosecond timers and iteration counts alike; out-of-range values
/// clamp to the end buckets.
inline constexpr int kHistogramBuckets = 64;

/// Upper bound of histogram bucket `index` (exclusive).
double HistogramBucketUpperBound(int index);

/// Log2-bucketed histogram with count/sum/min/max. Merge across shards:
/// elementwise bucket sum, sum of sums, min of mins, max of maxes.
class Histogram {
 public:
  void Observe(double value);
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  void Reset();

 private:
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  std::array<std::atomic<int64_t>, kHistogramBuckets> buckets_{};

  friend struct HistogramAccess;
};

/// Finds or creates the named metric in the CALLING THREAD's shard and
/// returns a reference that stays valid for the life of the process
/// (shards are owned by the global registry and survive thread exit, so
/// the merged report still sees work done by joined pool workers).
Counter& GetCounter(std::string_view name);
Gauge& GetGauge(std::string_view name);
Histogram& GetHistogram(std::string_view name);

/// RAII wall-clock span: records elapsed seconds into the named
/// histogram at destruction. Inert when profiling is disabled at
/// construction time.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view name);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_ = nullptr;  ///< Null when inert.
  std::chrono::steady_clock::time_point start_;
};

/// Merged view of one histogram.
struct HistogramSnapshot {
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::array<int64_t, kHistogramBuckets> buckets{};

  /// Percentile estimate for quantile `q` in [0, 1]: finds the log2
  /// bucket containing rank q·count, interpolates linearly inside it,
  /// and clamps to the observed [min, max] (so p0 = min, p100 = max and
  /// single-value histograms report that value at every quantile).
  /// Resolution is bounded by the 2× bucket width. Returns 0 when empty.
  double Percentile(double q) const;
};

/// A histogram as the text formats carry it: the summary statistics, not
/// the buckets (what a `ppn.stats.v1` reader gets back per window).
struct HistogramSummary {
  double count = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// One summary statistic: its key in every format (a profile histogram,
/// a `ppn.stats.v1` sample line, a `PPN_HEALTH` rule suffix `.<key>`),
/// how a writer computes it, and where a reader stores it.
struct HistogramStat {
  const char* key;
  double (*of)(const HistogramSnapshot&);
  double HistogramSummary::*field;
};

/// count, mean, min, max, p50, p95, p99, in the order every format
/// prints them.
extern const HistogramStat kHistogramStats[7];

/// Appends the `kHistogramStats` members of one histogram object
/// (`"count": 3, "mean": ...`); `with_sum` puts `"sum"` after the count,
/// as the profile does. The count prints as an integer: it is exact in
/// a double, and `JsonNumber` prints an integral double as its digits.
void AppendHistogramStats(std::string* out, const HistogramSnapshot& hist,
                          bool with_sum);

/// Name-ordered merge of every shard (locks each shard briefly; call at
/// report time, not from hot paths).
struct Snapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

Snapshot TakeSnapshot();

/// Zeroes every metric in every shard (handles stay valid). Callers must
/// be quiescent (no concurrent updates); intended for tests.
void ResetAll();

/// Renders a snapshot as pretty-printed JSON (stable: name-ordered maps,
/// only non-empty histogram buckets).
std::string SnapshotToJson(const Snapshot& snapshot);

/// Takes a snapshot and writes it to `path` atomically (a killed writer
/// leaves no torn profile); false if the file cannot be written.
bool WriteProfileJson(const std::string& path);


}  // namespace ppn::obs

#endif  // PPN_OBS_STATS_H_
