#include "obs/sampler.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/env.h"
#include "common/json.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace ppn::obs {

// ---------------------------------------------------------------------------
// Stream readers — always compiled (only need common/json).

namespace {

/// Reads the numeric members of the "counters" and "gauges" objects of a
/// profile or a sample line; absent sections read empty.
void ReadScalarSections(const JsonValue& object,
                        std::map<std::string, double>* counters,
                        std::map<std::string, double>* gauges) {
  for (const auto& [key, values] : {std::pair{"counters", counters},
                                    std::pair{"gauges", gauges}}) {
    const JsonValue* section = object.Find(key);
    if (section == nullptr || !section->is_object()) continue;
    for (const auto& [name, member] : section->AsObject()) {
      if (member.is_number()) (*values)[name] = member.AsNumber();
    }
  }
}

/// Reads a `ppn.stats.v1` file once: the header into `*header`, then
/// every sample line that parses as an object, with its raw text, into
/// `on_sample`. A torn trailing line (sampler mid-write) is expected and
/// skipped quietly.
bool ScanStatsStream(
    const std::string& path, StatsStream* header, std::string* error,
    const std::function<void(const JsonValue&, const std::string&)>&
        on_sample) {
  *header = StatsStream{};
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::string line;
  if (!std::getline(in, line)) {
    if (error != nullptr) *error = "empty stream " + path;
    return false;
  }
  JsonValue value;
  if (!ParseJson(line, &value) || !value.is_object() ||
      value.StringOr("schema", "") != "ppn.stats.v1") {
    if (error != nullptr) {
      *error = "not a ppn.stats.v1 stream: " + path;
    }
    return false;
  }
  header->process = value.StringOr("process", "");
  header->sample_ms = static_cast<int64_t>(value.NumberOr("sample_ms", 0.0));
  header->start_unix_ms =
      static_cast<int64_t>(value.NumberOr("start_unix_ms", 0.0));
  while (std::getline(in, line)) {
    if (ParseJson(line, &value) && value.is_object()) on_sample(value, line);
  }
  return true;
}

}  // namespace

bool ReadStatsStream(const std::string& path, StatsStream* out,
                     std::string* error) {
  return ScanStatsStream(path, out, error, [out](const JsonValue& value,
                                                 const std::string&) {
    StatsSample sample;
    sample.t_ms = value.NumberOr("t_ms", 0.0);
    sample.window_ms = value.NumberOr("window_ms", 0.0);
    ReadScalarSections(value, &sample.counters, &sample.gauges);
    if (const JsonValue* hists = value.Find("hists");
        hists != nullptr && hists->is_object()) {
      for (const auto& [name, member] : hists->AsObject()) {
        if (!member.is_object()) continue;
        HistogramSummary& summary = sample.hists[name];
        for (const HistogramStat& stat : kHistogramStats) {
          summary.*stat.field = member.NumberOr(stat.key, 0.0);
        }
      }
    }
    if (const JsonValue* health = value.Find("health");
        health != nullptr && health->is_array()) {
      for (const JsonValue& verdict : health->AsArray()) {
        if (!verdict.is_object()) continue;
        ++sample.health_checked;
        const JsonValue* ok = verdict.Find("ok");
        if (ok != nullptr && ok->is_bool() && !ok->AsBool()) {
          ++sample.health_failed;
        }
      }
    }
    out->samples.push_back(std::move(sample));
  });
}

bool ReadProfileJson(const std::string& path, Snapshot* out,
                     std::string* error) {
  std::ifstream in(path);
  if (!in.is_open()) {
    *error = "cannot open";
    return false;
  }
  std::stringstream text;
  text << in.rdbuf();
  JsonValue root;
  if (!ParseJson(text.str(), &root, error)) return false;
  if (!root.is_object()) {
    *error = "expected an object";
    return false;
  }
  *out = Snapshot{};
  ReadScalarSections(root, &out->counters, &out->gauges);
  return true;
}

bool MergeStatsStreams(const std::vector<std::string>& inputs,
                       const std::string& out_path, std::string* error,
                       int* skipped) {
  struct MergedLine {
    double t_unix_ms;
    size_t order;  ///< Tie-break: stable within and across streams.
    std::string text;
  };
  std::vector<MergedLine> lines;
  std::vector<std::string> processes;
  int skipped_count = 0;
  for (const std::string& input : inputs) {
    StatsStream header;
    std::vector<std::pair<double, std::string>> samples;  // (t_ms, line)
    if (!ScanStatsStream(input, &header, nullptr,
                         [&samples](const JsonValue& value,
                                    const std::string& line) {
                           samples.emplace_back(value.NumberOr("t_ms", 0.0),
                                                line);
                         })) {
      ++skipped_count;
      continue;
    }
    processes.push_back(header.process.empty() ? input : header.process);
    const std::string prefix = "{\"process\": " + JsonString(processes.back());
    // Each sample keeps its original bytes (doubles stay bit-exact
    // through the merge) behind the stamped prefix.
    for (const auto& [t_ms, line] : samples) {
      const double t_unix_ms = static_cast<double>(header.start_unix_ms) + t_ms;
      std::string text = prefix + ", \"t_unix_ms\": " + JsonNumber(t_unix_ms);
      const std::string rest = line.substr(line.find('{') + 1);
      const size_t body = rest.find_first_not_of(" \t");
      text += body == std::string::npos || rest[body] == '}' ? "}"
                                                              : ", " + rest;
      lines.push_back({t_unix_ms, lines.size(), std::move(text)});
    }
  }
  if (skipped != nullptr) *skipped = skipped_count;
  std::stable_sort(lines.begin(), lines.end(),
                   [](const MergedLine& a, const MergedLine& b) {
                     if (a.t_unix_ms != b.t_unix_ms) {
                       return a.t_unix_ms < b.t_unix_ms;
                     }
                     return a.order < b.order;
                   });
  AtomicFileWriter writer(out_path);
  if (!writer.ok()) {
    if (error != nullptr) *error = "cannot open " + out_path;
    return false;
  }
  std::string header = "{\"schema\": \"ppn.stats.merged.v1\", \"streams\": [";
  for (size_t i = 0; i < processes.size(); ++i) {
    if (i > 0) header += ", ";
    header += JsonString(processes[i]);
  }
  header += "]}\n";
  writer.stream() << header;
  for (const MergedLine& line : lines) {
    writer.stream() << line.text << "\n";
  }
  if (!writer.Commit()) {
    if (error != nullptr) *error = "cannot write " + out_path;
    return false;
  }
  return true;
}

std::vector<std::string> FindStatsStreams(const std::string& dir) {
  std::vector<std::string> streams = FilesWithSuffix(dir, ".stats.jsonl");
  std::erase_if(streams, [](const std::string& path) {
    return std::filesystem::path(path).filename() == "merged.stats.jsonl";
  });
  return streams;
}

// ---------------------------------------------------------------------------
// Sampler.

namespace {

/// Lower bound of histogram bucket `index` (inclusive); bucket 0 also
/// absorbs clamped non-positive values, so its floor is 0.
double BucketLowerBound(int index) {
  if (index <= 0) return 0.0;
  return HistogramBucketUpperBound(index - 1);
}

/// Per-window histogram: bucket-wise delta of two cumulative snapshots.
/// The window's exact min/max are not recoverable from cumulative
/// watermarks, so they are estimated from the first/last nonempty delta
/// bucket (tightened by the cumulative watermarks, which bound every
/// window) — exactly the resolution `Percentile` already has.
HistogramSnapshot WindowHistogram(const HistogramSnapshot* prev,
                                  const HistogramSnapshot& cur) {
  HistogramSnapshot delta;
  delta.count = cur.count - (prev != nullptr ? prev->count : 0);
  if (delta.count <= 0) return delta;
  delta.sum = cur.sum - (prev != nullptr ? prev->sum : 0.0);
  int first = -1;
  int last = -1;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    delta.buckets[i] =
        cur.buckets[i] - (prev != nullptr ? prev->buckets[i] : 0);
    if (delta.buckets[i] > 0) {
      if (first < 0) first = i;
      last = i;
    }
  }
  if (prev == nullptr || prev->count <= 0) {
    // First active window: cumulative == window, watermarks are exact.
    delta.min = cur.min;
    delta.max = cur.max;
  } else {
    delta.min = std::max(BucketLowerBound(first), cur.min);
    delta.max = std::min(HistogramBucketUpperBound(last), cur.max);
    if (delta.min > delta.max) delta.min = delta.max;
  }
  return delta;
}

/// Counter deltas + current gauges + per-window histograms: the view one
/// sample line describes, and the view window health rules see.
Snapshot WindowView(const Snapshot& prev, const Snapshot& cur) {
  Snapshot window;
  for (const auto& [name, value] : cur.counters) {
    auto it = prev.counters.find(name);
    double delta = value - (it != prev.counters.end() ? it->second : 0.0);
    if (delta != 0.0) window.counters[name] = delta;
  }
  window.gauges = cur.gauges;
  for (const auto& [name, hist] : cur.histograms) {
    auto it = prev.histograms.find(name);
    HistogramSnapshot delta = WindowHistogram(
        it != prev.histograms.end() ? &it->second : nullptr, hist);
    if (delta.count > 0) window.histograms[name] = delta;
  }
  return window;
}

/// `, "<key>": {"<name>": <rendered value>, ...}`; omitted when empty.
template <typename Map, typename Render>
void AppendSection(std::string* line, const char* key, const Map& members,
                   const Render& render) {
  if (members.empty()) return;
  *line += ", " + JsonString(key) + ": {";
  for (auto it = members.begin(); it != members.end(); ++it) {
    if (it != members.begin()) *line += ", ";
    *line += JsonString(it->first) + ": ";
    render(it->second);
  }
  *line += "}";
}

std::string FormatSample(const Snapshot& window, double t_ms,
                         double window_ms,
                         const std::vector<HealthEval>& evals) {
  std::string line = "{\"t_ms\": " + JsonNumber(t_ms) +
                     ", \"window_ms\": " + JsonNumber(window_ms);
  const auto number = [&line](double value) { line += JsonNumber(value); };
  AppendSection(&line, "counters", window.counters, number);
  AppendSection(&line, "gauges", window.gauges, number);
  AppendSection(&line, "hists", window.histograms,
                [&line](const HistogramSnapshot& hist) {
                  line += "{";
                  AppendHistogramStats(&line, hist, /*with_sum=*/false);
                  line += "}";
                });
  bool any_eval = false;
  for (const HealthEval& eval : evals) {
    if (eval.evaluated) any_eval = true;
  }
  if (any_eval) {
    line += ", \"health\": [";
    bool sep = false;
    for (const HealthEval& eval : evals) {
      if (!eval.evaluated) continue;
      if (sep) line += ", ";
      sep = true;
      line += "{\"rule\": " + JsonString(eval.rule->raw) + ", \"ok\": ";
      line += eval.ok ? "true" : "false";
      line += ", \"value\": " + JsonNumber(eval.value) + "}";
    }
    line += "]";
  }
  line += "}\n";
  return line;
}

int64_t NowUnixMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// `<dir>/serve.stats.jsonl` → "serve": the stream basename is the
/// natural process label (fabric workers inherit slot/gen identity from
/// their redirected path).
std::string ProcessFromPath(const std::string& path,
                            const std::string& fallback) {
  const size_t slash = path.find_last_of('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  for (const std::string_view suffix : {".stats.jsonl", ".jsonl"}) {
    if (base.size() > suffix.size() && base.ends_with(suffix)) {
      return base.substr(0, base.size() - suffix.size());
    }
  }
  return fallback.empty() ? base : fallback;
}

}  // namespace

struct StatsSampler::Impl {
  SamplerOptions options;
  int64_t sample_ms = 250;
  int fd = -1;
  bool write_ok = true;
  HealthMonitor monitor{{}};  ///< Used by the sampling thread only.
  Snapshot prev;
  std::chrono::steady_clock::time_point start;

  std::mutex mutex;
  std::condition_variable wake;
  bool stop_sampling = false;  ///< Sampling thread: emit final line, exit.
  bool stopped = false;
  std::thread sampling_thread;

  void SampleOnce(std::chrono::steady_clock::time_point now) {
    Snapshot cur = TakeSnapshot();
    Snapshot window = WindowView(prev, cur);
    const std::vector<HealthEval> evals = monitor.Evaluate(window);
    double t_ms =
        std::chrono::duration<double, std::milli>(now - start).count();
    double window_ms = t_ms - last_t_ms;
    last_t_ms = t_ms;
    WriteLine(FormatSample(window, t_ms, window_ms, evals));
    prev = std::move(cur);
  }

  void SamplingLoop() {
    auto deadline = start;
    for (;;) {
      // A write that stalls past the next tick skips the missed ticks
      // instead of bursting to catch up: the next window covers the stall.
      deadline = std::max(deadline + std::chrono::milliseconds(sample_ms),
                          std::chrono::steady_clock::now());
      {
        std::unique_lock<std::mutex> lock(mutex);
        wake.wait_until(lock, deadline, [this] { return stop_sampling; });
        if (stop_sampling) break;
      }
      SampleOnce(std::chrono::steady_clock::now());
    }
    // Final (usually partial) window: short runs still get >= 1 sample.
    SampleOnce(std::chrono::steady_clock::now());
  }

  /// One full-line write(2) per sample: a tailer never sees interleaved
  /// fragments, only whole lines plus at most one in-flight partial.
  void WriteLine(const std::string& line) {
    size_t written = 0;
    while (written < line.size()) {
      ssize_t n = ::write(fd, line.data() + written, line.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        write_ok = false;
        return;
      }
      written += static_cast<size_t>(n);
    }
  }

  double last_t_ms = 0.0;
};

StatsSampler::StatsSampler(std::unique_ptr<Impl> impl)
    : path_(impl->options.path), impl_(std::move(impl)) {}

std::unique_ptr<StatsSampler> StatsSampler::Start(
    const SamplerOptions& options) {
  if (!Enabled() || options.path.empty()) return nullptr;
  auto impl = std::make_unique<Impl>();
  impl->options = options;
  impl->sample_ms = options.sample_ms > 0
                        ? options.sample_ms
                        : env::Int64Or("PPN_SAMPLE_MS", 250);
  PPN_CHECK(impl->sample_ms >= 1)
      << "PPN_SAMPLE_MS must be >= 1, got " << impl->sample_ms;
  impl->monitor = HealthMonitor(options.health);
  impl->fd = ::open(options.path.c_str(),
                    O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (impl->fd < 0) {
    std::fprintf(stderr, "[obs] cannot open stats stream %s: %s\n",
                 options.path.c_str(), std::strerror(errno));
    return nullptr;
  }
  std::string process = ProcessFromPath(options.path, options.process);
  std::string header = "{\"schema\": \"ppn.stats.v1\", \"process\": " +
                       JsonString(process) + ", \"sample_ms\": " +
                       std::to_string(impl->sample_ms) +
                       ", \"start_unix_ms\": " + std::to_string(NowUnixMs()) +
                       "}\n";
  impl->start = std::chrono::steady_clock::now();
  impl->prev = TakeSnapshot();
  impl->WriteLine(header);
  Impl* raw = impl.get();
  impl->sampling_thread = std::thread([raw] { raw->SamplingLoop(); });
  // unique_ptr via `new`: the constructor is private.
  return std::unique_ptr<StatsSampler>(new StatsSampler(std::move(impl)));
}

bool StatsSampler::Stop() {
  Impl& impl = *impl_;
  {
    std::unique_lock<std::mutex> lock(impl.mutex);
    if (impl.stopped) return impl.write_ok;
    impl.stopped = true;
    impl.stop_sampling = true;
  }
  impl.wake.notify_all();
  // The sampling thread writes its final window before exiting, so the fd
  // closes only after it joins.
  if (impl.sampling_thread.joinable()) impl.sampling_thread.join();
  if (impl.fd >= 0) {
    ::close(impl.fd);
    impl.fd = -1;
  }
  return impl.write_ok;
}

StatsSampler::~StatsSampler() { Stop(); }

std::unique_ptr<StatsSampler> StartSamplerFromEnv(
    const std::string& process) {
  std::string path = env::StringOr("PPN_STATS_JSONL", "");
  if (path.empty()) return nullptr;
  SamplerOptions options;
  options.path = path;
  options.process = process;
  options.health = HealthRulesFromEnv();
  return StatsSampler::Start(options);
}

int FinishRunTelemetry(StatsSampler* sampler) {
  if (sampler != nullptr) {
    if (sampler->Stop()) {
      std::fprintf(stderr, "stats stream written to %s\n",
                   sampler->path().c_str());
    } else {
      std::fprintf(stderr, "WARNING: stats stream %s lost writes\n",
                   sampler->path().c_str());
    }
  }
  const std::string profile = env::StringOr("PPN_PROFILE_JSON", "");
  if (!profile.empty() && WriteProfileJson(profile)) {
    std::fprintf(stderr, "profile written to %s\n", profile.c_str());
  }
#ifndef PPN_OBS_DISABLED  // The compiled-out build records no trace.
  const std::string trace = env::StringOr("PPN_TRACE_JSON", "");
  if (!trace.empty() && WriteTraceJson(trace)) {
    std::fprintf(stderr, "trace written to %s (open in ui.perfetto.dev)\n",
                 trace.c_str());
  }
#endif
  // SLO gate: the caller folds a violated rule into its exit status.
  return ReportHealthIfRequested();
}

}  // namespace ppn::obs
