#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "market/dataset.h"
#include "obs/stats.h"
#include "ppn/config.h"

/// \file
/// Shared pieces of the repository benchmark: run options, the metric
/// report that becomes the result line, timing statistics, the in-memory
/// span log of the traced run, and readers for the counters the program
/// already keeps. Everything here measures the library from outside,
/// through its public headers.

namespace perfbench {

namespace obs = ::ppn::obs;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Minimal sizes (self-test): every code path, a fraction of the work.
  bool smoke = false;
  /// Directory the traced run writes its span file into.
  std::string trace_dir = ".bench_build/perfbench/traces";
  /// Source commit, as recorded by the launcher ("unknown" outside git).
  std::string commit = "unknown";
};

/// One printed metric. A NaN value means the program no longer keeps a
/// counter the metric is read from: it prints as `missing` and is left
/// out of the result line.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// Name in the result line; empty keeps the metric in the printed table
  /// only (workload-specific metrics the result line does not carry).
  std::string json_name;
  std::string note;
};

/// Everything one workload run reports: operation and check counts plus
/// its metrics, in print order.
class Report {
 public:
  /// Adds a metric that also goes into the result line as `json_name`.
  void Add(const std::string& name, const std::string& unit, double value,
           const std::string& json_name, const std::string& note = "");
  /// Adds a metric that is printed but not part of the result line.
  void Print(const std::string& name, const std::string& unit, double value,
             const std::string& note = "");

  /// Counts `n` operations attempted, `failed` of which failed.
  void Ops(int64_t n, int64_t failed = 0);
  /// Counts one output check; a failed check is printed and fails the run.
  void Check(bool ok, const std::string& what);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// --- Statistics --------------------------------------------------------

/// Exact percentile (linear interpolation between order statistics).
double Percentile(std::vector<double> samples, double q);
double Median(const std::vector<double>& samples);
double Sum(const std::vector<double>& samples);

/// Runs `fn` once to warm up, then `reps` times, and returns the median
/// duration of one call in seconds.
double MedianSeconds(int reps, const std::function<void()>& fn);

/// Peak resident set size of this process in MB (getrusage).
double PeakRssMb();

/// Closed-loop pacing shared by every workload: another unit of work
/// starts while the measured time plus half of the last unit still fits
/// in the budget, so a run ends within half a unit of `seconds`.
bool KeepGoing(double elapsed, double last_unit, double seconds);

// --- Spans of the traced run -------------------------------------------

/// A named numeric span argument (names are string literals).
struct SpanArg {
  const char* name = nullptr;
  double value = 0.0;
};

/// In-memory span log. Spans record name, start, duration, their own id,
/// the id of the span that caused them, and up to two numeric arguments;
/// they are written out as Chrome trace-event JSON when the run ends.
/// Inert unless armed (the untraced run records nothing).
class SpanLog {
 public:
  struct Record {
    const char* name;
    int64_t start_ns;
    int64_t duration_ns;
    int64_t id;
    int64_t parent;
    SpanArg arg0;
    SpanArg arg1;
  };

  void Arm(bool armed) { armed_ = armed; }

  /// Records a finished span; returns its id (0 when inert).
  int64_t Add(const char* name, Clock::time_point start, Clock::time_point end,
              int64_t parent = 0, SpanArg arg0 = {}, SpanArg arg1 = {});

  /// Writes the spans to `path`; false if the file cannot be written.
  bool Write(const std::string& path) const;

  size_t size() const { return records_.size(); }

 private:
  bool armed_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Record> records_;
};

/// The process-wide span log.
SpanLog& Spans();

// --- Program counters ----------------------------------------------------

/// Deltas of the program's own obs counters and histograms between two
/// snapshots. A name absent from `final_snapshot` (taken at the end of
/// the run, after every layer has been exercised) is one the program no
/// longer keeps — renamed by a refactor, or compiled out — and reads as
/// NaN, i.e. `missing`. Present at the end but absent earlier reads as 0.
class CounterDeltas {
 public:
  CounterDeltas(obs::Snapshot before, obs::Snapshot after,
                obs::Snapshot final_snapshot);

  double Counter(const std::string& name) const;
  double HistogramSum(const std::string& name) const;
  /// Percentile of the histogram as it stands in `after` (callers arrange
  /// for it to hold only the measured window).
  double HistogramPercentile(const std::string& name, double q) const;

 private:
  obs::Snapshot before_;
  obs::Snapshot after_;
  obs::Snapshot final_;
};

// --- Workloads and probes --------------------------------------------------

/// The paper's shape (Section 6, Table 2): m = 11 risk assets, k = 30.
inline constexpr int64_t kPaperAssets = 11;
inline constexpr int64_t kWindow = 30;
/// Rows per serving forward; also the `bmax` row count of the decide probe.
inline constexpr int64_t kMaxBatch = 64;

/// A synthetic market of `periods` bars over `assets` assets whose
/// training range spans the first `train_periods` decisions.
ppn::market::MarketDataset MakeMarket(int64_t assets, int64_t periods,
                                      int64_t train_periods, uint64_t seed);

/// The shapes at which the probe pass calls each layer on its own.
struct ProbeShape {
  const ppn::market::MarketDataset* dataset = nullptr;
  ppn::core::PolicyConfig policy;
  int64_t batch = 32;  ///< Rows of the workload's training-shaped calls.
  double cost_rate = 0.0025;
  /// False where the workload runs on saturating pool workers, which
  /// switch inner OpenMP off.
  bool inner_parallel = true;
  /// `PolicyGradientTrainer` construction time when the workload timed it
  /// during set-up; negative makes the probe pass time it.
  double trainer_init_s = -1.0;
  uint64_t seed = 1;
  int reps = 7;
};

/// Per-layer times measured by the probe pass, reused for coverage.
struct ProbeTimes {
  double step_layers_ms = 0.0;  ///< Streams + head + reward + optimizer.
  double decide_us_per_row_bmax = 0.0;
  double window_us = 0.0;
  double solver_us = 0.0;
};

/// Calls each layer's public function on its own at `shape` and adds the
/// `ppn.*`, `autograd.backward.ms`, `nn.optimizer.ms`, `backtest.solver.
/// us_per_call` and `market.window.us_per_call` metrics. Needs obs on.
ProbeTimes RunProbes(const ProbeShape& shape, Report* report);

/// Adds the counter-derived per-unit metrics every workload shares
/// (tape nodes, FLOPs, pool hits, solver iterations). `units` is the
/// number of traced units (steps, batches or sweeps) and `compute_s` the
/// traced time they took.
void AddCounterMetrics(const CounterDeltas& deltas, double units,
                       double compute_s, Report* report);

void RunTrain(const Options& options, Report* report);
void RunServe(const Options& options, bool staggered, Report* report);
void RunSweep(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
