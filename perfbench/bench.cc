#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "market/generator.h"

namespace perfbench {

namespace {

constexpr double kMissing = std::numeric_limits<double>::quiet_NaN();

}  // namespace

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void Report::Add(const std::string& name, const std::string& unit,
                 double value, const std::string& json_name,
                 const std::string& note) {
  metrics_.push_back({name, unit, value, json_name, note});
}

void Report::Print(const std::string& name, const std::string& unit,
                   double value, const std::string& note) {
  metrics_.push_back({name, unit, value, "", note});
}

void Report::Ops(int64_t n, int64_t failed) {
  attempted_ += n;
  failed_ += failed;
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return kMissing;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(const std::vector<double>& samples) {
  return Percentile(samples, 0.5);
}

double Sum(const std::vector<double>& samples) {
  double total = 0.0;
  for (const double v : samples) total += v;
  return total;
}

double MedianSeconds(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> times;
  times.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    fn();
    times.push_back(SecondsSince(start));
  }
  return Median(times);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux.
}

bool KeepGoing(double elapsed, double last_unit, double seconds) {
  return elapsed + 0.5 * last_unit < seconds;
}

int64_t SpanLog::Add(const char* name, Clock::time_point start,
                     Clock::time_point end, int64_t parent, SpanArg arg0,
                     SpanArg arg1) {
  if (!armed_) return 0;
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  const int64_t id = static_cast<int64_t>(records_.size()) + 1;
  records_.push_back(
      {name, ns(start), ns(end) - ns(start), id, parent, arg0, arg1});
  return id;
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(file,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld, "
                 "\"parent\": %lld",
                 r.name, static_cast<double>(r.start_ns) / 1e3,
                 static_cast<double>(r.duration_ns) / 1e3,
                 static_cast<long long>(r.id),
                 static_cast<long long>(r.parent));
    for (const SpanArg& arg : {r.arg0, r.arg1}) {
      if (arg.name != nullptr) {
        std::fprintf(file, ", \"%s\": %.17g", arg.name, arg.value);
      }
    }
    std::fprintf(file, "}}%s\n", i + 1 < records_.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

SpanLog& Spans() {
  static SpanLog log;
  return log;
}

CounterDeltas::CounterDeltas(obs::Snapshot before, obs::Snapshot after,
                             obs::Snapshot final_snapshot)
    : before_(std::move(before)),
      after_(std::move(after)),
      final_(std::move(final_snapshot)) {}

namespace {

template <typename Map>
double Lookup(const Map& map, const std::string& name,
              double (*read)(const typename Map::mapped_type&)) {
  const auto it = map.find(name);
  return it == map.end() ? 0.0 : read(it->second);
}

double CounterValue(const double& v) { return v; }
double HistSum(const obs::HistogramSnapshot& h) { return h.sum; }

}  // namespace

double CounterDeltas::Counter(const std::string& name) const {
  if (final_.counters.count(name) == 0) return kMissing;
  return Lookup(after_.counters, name, CounterValue) -
         Lookup(before_.counters, name, CounterValue);
}

double CounterDeltas::HistogramSum(const std::string& name) const {
  if (final_.histograms.count(name) == 0) return kMissing;
  return Lookup(after_.histograms, name, HistSum) -
         Lookup(before_.histograms, name, HistSum);
}

double CounterDeltas::HistogramPercentile(const std::string& name,
                                          double q) const {
  if (final_.histograms.count(name) == 0) return kMissing;
  const auto it = after_.histograms.find(name);
  return it == after_.histograms.end() ? 0.0 : it->second.Percentile(q);
}

ppn::market::MarketDataset MakeMarket(int64_t assets, int64_t periods,
                                      int64_t train_periods, uint64_t seed) {
  ppn::market::SyntheticMarketConfig config;
  config.num_assets = assets;
  config.num_periods = periods;
  config.seed = seed;
  config.late_listing_fraction = 0.0;
  ppn::market::MarketDataset dataset;
  dataset.name = "perfbench";
  dataset.panel = ppn::market::SyntheticMarketGenerator(config).Generate();
  dataset.train_end = std::min(periods, kWindow + train_periods);
  return dataset;
}

void AddCounterMetrics(const CounterDeltas& deltas, double units,
                       double compute_s, Report* report) {
  const double matmul_flops = deltas.Counter("tensor.matmul.flops");
  report->Add("autograd.tape_nodes_per_step", "count",
              deltas.Counter("autograd.tape.nodes") / units,
              "autograd.tape_nodes_per_step");
  report->Add("tensor.matmul.mflop_per_step", "MFLOP",
              matmul_flops / units / 1e6, "tensor.matmul.mflop_per_step",
              "includes the conv GEMMs");
  report->Add("tensor.conv2d.mflop_per_step", "MFLOP",
              deltas.Counter("nn.conv2d.flops") / units / 1e6,
              "tensor.conv2d.mflop_per_step", "forward convs only");
  report->Add("tensor.gflops", "GFLOP/s", matmul_flops / compute_s / 1e9,
              "tensor.gflops");
  const double hits = deltas.Counter("tensor.pool.hit");
  const double misses = deltas.Counter("tensor.pool.miss");
  report->Add("tensor.pool.hit_share", "ratio", hits / (hits + misses),
              "tensor.pool.hit_share");
  const double solver_calls = deltas.Counter("backtest.solver.calls");
  report->Add("backtest.solver.iters_per_call", "count",
              deltas.HistogramSum("backtest.solver.iterations") / solver_calls,
              "backtest.solver.iters_per_call");
  // The program creates the nonconvergence counter on the first failed
  // solve, so it is absent from a healthy run; the calls counter proves
  // the solver still reports.
  double nonconverged = deltas.Counter("backtest.solver.nonconverged");
  if (std::isnan(nonconverged) && !std::isnan(solver_calls)) {
    nonconverged = 0.0;
  }
  report->Add("backtest.solver.nonconverged", "count", nonconverged,
              "backtest.solver.nonconverged");
}

}  // namespace perfbench
