#include "obs/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/env.h"
#include "common/json.h"

namespace ppn::obs {

namespace internal {

std::atomic<bool>& EnabledFlag() {
  // First use decides the default from the environment: an explicit
  // telemetry destination (profile, trace, or run-log) or PPN_OBS != "0"
  // turns instrumentation on.
  static std::atomic<bool> flag{[] {
    for (const char* var : {"PPN_PROFILE_JSON", "PPN_TRACE_JSON",
                            "PPN_RUNLOG_DIR", "PPN_STATS_JSONL"}) {
      if (env::HasValue(var)) return true;
    }
    return env::FlagSet("PPN_OBS");
  }()};
  return flag;
}

}  // namespace internal

bool SetEnabled(bool enabled) {
  return internal::EnabledFlag().exchange(enabled);
}

// ---------------------------------------------------------------------------
// Metric cells.

namespace {

/// Relaxed-atomic max update (CAS loop; uncontended in practice since
/// only the owning thread writes).
void AtomicMax(std::atomic<double>* slot, double value) {
  double current = slot->load(std::memory_order_relaxed);
  while (value > current &&
         !slot->compare_exchange_weak(current, value,
                                      std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* slot, double value) {
  double current = slot->load(std::memory_order_relaxed);
  while (value < current &&
         !slot->compare_exchange_weak(current, value,
                                      std::memory_order_relaxed)) {
  }
}

}  // namespace

void Gauge::UpdateMax(double value) {
  AtomicMax(&value_, value);
  touched_.store(true, std::memory_order_relaxed);
}

void Gauge::Reset() {
  value_.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
  touched_.store(false, std::memory_order_relaxed);
}

/// Private accessors for the merge (kept out of the public surface).
struct GaugeAccess {
  static bool Touched(const Gauge& gauge) {
    return gauge.touched_.load(std::memory_order_relaxed);
  }
};

double HistogramBucketUpperBound(int index) {
  PPN_CHECK(index >= 0 && index < kHistogramBuckets);
  return std::ldexp(1.0, index - 30);
}

namespace {

int BucketIndex(double value) {
  if (!(value > 0.0)) return 0;  // Non-positive and NaN clamp low.
  const int index = static_cast<int>(std::floor(std::log2(value))) + 31;
  if (index < 0) return 0;
  if (index >= kHistogramBuckets) return kHistogramBuckets - 1;
  return index;
}

}  // namespace

void Histogram::Observe(double value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

struct HistogramAccess {
  static void MergeInto(const Histogram& histogram,
                        HistogramSnapshot* merged) {
    const int64_t count = histogram.count_.load(std::memory_order_relaxed);
    if (count == 0) return;
    const double min = histogram.min_.load(std::memory_order_relaxed);
    const double max = histogram.max_.load(std::memory_order_relaxed);
    if (merged->count == 0) {
      merged->min = min;
      merged->max = max;
    } else {
      merged->min = std::min(merged->min, min);
      merged->max = std::max(merged->max, max);
    }
    merged->count += count;
    merged->sum += histogram.sum_.load(std::memory_order_relaxed);
    for (int i = 0; i < kHistogramBuckets; ++i) {
      merged->buckets[i] +=
          histogram.buckets_[i].load(std::memory_order_relaxed);
    }
  }
};

double HistogramSnapshot::Percentile(double q) const {
  // Explicit empty case: no observations, every quantile is 0.
  if (count <= 0) return 0.0;
  // `!(q > 0)` also catches NaN, which would otherwise poison the rank
  // comparison below and skip every bucket.
  if (!(q > 0.0)) return min;
  if (q >= 1.0) return max;
  // The result is monotone in q by construction: a larger q gives a
  // larger rank, which lands in the same or a later bucket, and within a
  // bucket the interpolated fraction grows with rank. The final clamp
  // into the fixed interval [min, max] preserves that ordering, so
  // p50 <= p95 <= p99 holds for every bucket shape.
  const double rank = q * static_cast<double>(count);
  double value = max;  // Rank past the last bucket (or empty buckets
                       // despite count > 0): degrade to the watermark.
  double cumulative = 0.0;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    if (buckets[i] <= 0) continue;
    const double next = cumulative + static_cast<double>(buckets[i]);
    if (next >= rank) {
      const double hi = HistogramBucketUpperBound(i);
      const double lo = hi * 0.5;
      const double fraction =
          (rank - cumulative) / static_cast<double>(buckets[i]);
      value = lo + fraction * (hi - lo);
      break;
    }
    cumulative = next;
  }
  // Clamp into the observed range — but only when the watermarks are
  // coherent; a hand-built snapshot with min > max must not turn every
  // quantile into the crossed bounds.
  if (min <= max) value = std::min(std::max(value, min), max);
  return value;
}

// ---------------------------------------------------------------------------
// Shards and registry.

namespace {

/// One thread's private metric store. The owning thread is the only
/// mutator; `mutex` guards the MAP STRUCTURE (owner inserts vs. merge
/// iteration) — value updates go through the cells' own atomics.
struct Shard {
  std::mutex mutex;
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters;
  std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges;
  std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms;
};

struct Registry {
  std::mutex mutex;
  // Shards are heap-allocated and never destroyed: a pool worker's stats
  // must survive the worker's join so report-time merges still see them.
  std::vector<Shard*> shards;
};

Registry& GlobalRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

/// Every thread's shard so far (a copy of the list, taken under the lock).
std::vector<Shard*> AllShards() {
  Registry& registry = GlobalRegistry();
  std::unique_lock<std::mutex> lock(registry.mutex);
  return registry.shards;
}

Shard& LocalShard() {
  thread_local Shard* shard = [] {
    auto* created = new Shard();
    Registry& registry = GlobalRegistry();
    std::unique_lock<std::mutex> lock(registry.mutex);
    registry.shards.push_back(created);
    return created;
  }();
  return *shard;
}

/// Find-or-create in the local shard. Lookup is lock-free (only the
/// owner mutates the map); insertion of a NEW name takes the shard lock
/// to stay ordered with report-time iteration.
template <typename Cell, typename MapType>
Cell& FindOrCreate(MapType Shard::* map, std::string_view name) {
  Shard& shard = LocalShard();
  auto& cells = shard.*map;
  const auto it = cells.find(std::string(name));
  if (it != cells.end()) return *it->second;
  std::unique_lock<std::mutex> lock(shard.mutex);
  auto [inserted, unused] =
      cells.emplace(std::string(name), std::make_unique<Cell>());
  return *inserted->second;
}

}  // namespace

Counter& GetCounter(std::string_view name) {
  return FindOrCreate<Counter>(&Shard::counters, name);
}

Gauge& GetGauge(std::string_view name) {
  return FindOrCreate<Gauge>(&Shard::gauges, name);
}

Histogram& GetHistogram(std::string_view name) {
  return FindOrCreate<Histogram>(&Shard::histograms, name);
}

ScopedTimer::ScopedTimer(std::string_view name) {
  if (!Enabled()) return;
  histogram_ = &GetHistogram(name);
  start_ = std::chrono::steady_clock::now();
}

ScopedTimer::~ScopedTimer() {
  if (histogram_ == nullptr) return;
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  histogram_->Observe(seconds);
}

Snapshot TakeSnapshot() {
  Snapshot snapshot;
  for (Shard* shard : AllShards()) {
    std::unique_lock<std::mutex> lock(shard->mutex);
    for (const auto& [name, counter] : shard->counters) {
      snapshot.counters[name] += counter->value();
    }
    for (const auto& [name, gauge] : shard->gauges) {
      if (!GaugeAccess::Touched(*gauge)) continue;
      const auto it = snapshot.gauges.find(name);
      if (it == snapshot.gauges.end()) {
        snapshot.gauges[name] = gauge->value();
      } else {
        it->second = std::max(it->second, gauge->value());
      }
    }
    for (const auto& [name, histogram] : shard->histograms) {
      HistogramAccess::MergeInto(*histogram,
                                 &snapshot.histograms[name]);
    }
  }
  // Drop empty histogram entries (created but never observed).
  for (auto it = snapshot.histograms.begin();
       it != snapshot.histograms.end();) {
    it = it->second.count == 0 ? snapshot.histograms.erase(it) : ++it;
  }
  return snapshot;
}

void ResetAll() {
  for (Shard* shard : AllShards()) {
    std::unique_lock<std::mutex> lock(shard->mutex);
    for (const auto& [name, counter] : shard->counters) counter->Reset();
    for (const auto& [name, gauge] : shard->gauges) gauge->Reset();
    for (const auto& [name, histogram] : shard->histograms) {
      histogram->Reset();
    }
  }
}

// ---------------------------------------------------------------------------
// JSON rendering and reading.

const HistogramStat kHistogramStats[7] = {
    {"count",
     [](const HistogramSnapshot& h) { return static_cast<double>(h.count); },
     &HistogramSummary::count},
    {"mean",
     [](const HistogramSnapshot& h) {
       return h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
     },
     &HistogramSummary::mean},
    {"min", [](const HistogramSnapshot& h) { return h.min; },
     &HistogramSummary::min},
    {"max", [](const HistogramSnapshot& h) { return h.max; },
     &HistogramSummary::max},
    {"p50", [](const HistogramSnapshot& h) { return h.Percentile(0.50); },
     &HistogramSummary::p50},
    {"p95", [](const HistogramSnapshot& h) { return h.Percentile(0.95); },
     &HistogramSummary::p95},
    {"p99", [](const HistogramSnapshot& h) { return h.Percentile(0.99); },
     &HistogramSummary::p99},
};

void AppendHistogramStats(std::string* out, const HistogramSnapshot& hist,
                          bool with_sum) {
  for (const HistogramStat& stat : kHistogramStats) {
    if (&stat != kHistogramStats) *out += ", ";
    *out += JsonString(stat.key) + ": " + JsonNumber(stat.of(hist));
    if (with_sum && &stat == kHistogramStats) {
      *out += ", \"sum\": " + JsonNumber(hist.sum);
    }
  }
}

namespace {

/// `"name": value` members of one name-ordered section, one per line.
void AppendScalarSection(std::string* out,
                         const std::map<std::string, double>& values) {
  bool first = true;
  for (const auto& [name, value] : values) {
    *out += first ? "\n    " : ",\n    ";
    *out += JsonString(name) + ": " + JsonNumber(value);
    first = false;
  }
  if (!first) *out += "\n  ";
}

}  // namespace

std::string SnapshotToJson(const Snapshot& snapshot) {
  std::string out = "{\n  \"counters\": {";
  AppendScalarSection(&out, snapshot.counters);
  out += "},\n  \"gauges\": {";
  AppendScalarSection(&out, snapshot.gauges);
  out += "},\n  \"histograms\": {";
  bool first = true;
  for (const auto& [name, histogram] : snapshot.histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += JsonString(name) + ": {";
    AppendHistogramStats(&out, histogram, /*with_sum=*/true);
    out += ", \"buckets\": [";
    bool first_bucket = true;
    for (int i = 0; i < kHistogramBuckets; ++i) {
      if (histogram.buckets[i] == 0) continue;
      if (!first_bucket) out += ", ";
      out += "{\"le\": " + JsonNumber(HistogramBucketUpperBound(i)) +
             ", \"count\": " + std::to_string(histogram.buckets[i]) + "}";
      first_bucket = false;
    }
    out += "]}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

bool WriteProfileJson(const std::string& path) {
  AtomicFileWriter writer(path);
  if (!writer.ok()) return false;
  writer.stream() << SnapshotToJson(TakeSnapshot());
  return writer.Commit();
}

}  // namespace ppn::obs
