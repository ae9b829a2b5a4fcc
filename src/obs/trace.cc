#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "common/atomic_file.h"
#include "common/env.h"
#include "common/json.h"

namespace ppn::obs {

namespace internal {

std::atomic<bool>& TraceFlag() {
  // First use decides the default: an explicit trace destination arms the
  // sink (and PPN_TRACE_JSON also flips EnabledFlag via the check below,
  // so `PPN_TRACE_JSON=t.json ppn_cli ...` works without PPN_OBS=1 —
  // see EnabledFlag() in stats.cc).
  static std::atomic<bool> flag{[] { return env::HasValue("PPN_TRACE_JSON"); }()};
  return flag;
}

}  // namespace internal

bool SetTraceEnabled(bool enabled) {
  return internal::TraceFlag().exchange(enabled);
}

namespace {

/// One recorded event. `name` is move-assigned in (no allocation in the
/// append itself); arg keys are string literals held by pointer.
struct TraceEvent {
  enum class Phase : uint8_t { kComplete, kFlowStart, kFlowFinish };

  Phase phase = Phase::kComplete;
  double ts_us = 0.0;
  double dur_us = 0.0;
  uint64_t flow_id = 0;
  int num_args = 0;
  std::array<std::pair<const char*, double>, kMaxSpanArgs> args{};
  std::string name;
};

/// One thread's private event store: a fixed-size slot array written only
/// by the owner. `count` is release-published so an exporting thread that
/// acquire-loads it sees fully written slots; overflow drops (counted)
/// rather than growing, keeping appends allocation- and lock-free.
struct TraceBuffer {
  explicit TraceBuffer(int tid_in) : tid(tid_in) {
    events.resize(static_cast<size_t>(kTraceCapacity));
  }

  const int tid;
  std::vector<TraceEvent> events;
  std::atomic<int64_t> count{0};
  std::atomic<int64_t> dropped{0};
};

struct TraceRegistry {
  std::mutex mutex;
  // Leaked on purpose, like the stats shards: a pool worker's events must
  // survive its join so the end-of-run export still sees them.
  std::vector<TraceBuffer*> buffers;
};

TraceRegistry& GlobalTraceRegistry() {
  static TraceRegistry* registry = new TraceRegistry();
  return *registry;
}

/// Every thread's buffer so far (a copy of the list, taken under the lock).
std::vector<TraceBuffer*> AllBuffers() {
  TraceRegistry& registry = GlobalTraceRegistry();
  std::unique_lock<std::mutex> lock(registry.mutex);
  return registry.buffers;
}

TraceBuffer& LocalTraceBuffer() {
  thread_local TraceBuffer* buffer = [] {
    TraceRegistry& registry = GlobalTraceRegistry();
    std::unique_lock<std::mutex> lock(registry.mutex);
    auto* created =
        new TraceBuffer(static_cast<int>(registry.buffers.size()) + 1);
    registry.buffers.push_back(created);
    return created;
  }();
  return *buffer;
}

/// Common timebase for every thread: microseconds since the first trace
/// touch in the process. The wall clock is captured at the same instant
/// and exported as `otherData.ppn_epoch_unix_us`, so the cross-process
/// trace merge (obs/trace_merge) can place each process's steady-clock
/// timeline on one shared axis.
struct EpochAnchor {
  std::chrono::steady_clock::time_point steady;
  int64_t unix_us = 0;
};

const EpochAnchor& Anchor() {
  static const EpochAnchor anchor = [] {
    EpochAnchor a;
    a.steady = std::chrono::steady_clock::now();
    a.unix_us = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::system_clock::now().time_since_epoch())
                    .count();
    return a;
  }();
  return anchor;
}

std::chrono::steady_clock::time_point Epoch() { return Anchor().steady; }

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Epoch())
      .count();
}

void AppendEvent(TraceEvent&& event) {
  TraceBuffer& buffer = LocalTraceBuffer();
  const int64_t count = buffer.count.load(std::memory_order_relaxed);
  if (count >= static_cast<int64_t>(buffer.events.size())) {
    buffer.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer.events[static_cast<size_t>(count)] = std::move(event);
  buffer.count.store(count + 1, std::memory_order_release);
}

uint64_t NextFlowId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

#ifndef PPN_OBS_DISABLED  // The compiled-out Span is an inline no-op.

Span::Span(std::string_view name, double min_duration_us) {
  if (!TraceEnabled()) return;
  active_ = true;
  min_duration_us_ = min_duration_us;
  name_.assign(name);
  start_us_ = NowUs();
}

Span::~Span() {
  if (!active_) return;
  const double end_us = NowUs();
  const double dur_us = end_us - start_us_;
  if (dur_us < min_duration_us_) return;
  TraceEvent event;
  event.phase = TraceEvent::Phase::kComplete;
  event.ts_us = start_us_;
  event.dur_us = dur_us;
  event.num_args = num_args_;
  event.args = args_;
  event.name = std::move(name_);
  AppendEvent(std::move(event));
}

void Span::AddArg(const char* key, double value) {
  if (!active_ || num_args_ >= kMaxSpanArgs) return;
  args_[static_cast<size_t>(num_args_)] = {key, value};
  ++num_args_;
}

#endif  // PPN_OBS_DISABLED

uint64_t BeginFlow(const char* name) {
  if (!TraceEnabled()) return 0;
  const uint64_t id = NextFlowId();
  TraceEvent event;
  event.phase = TraceEvent::Phase::kFlowStart;
  event.ts_us = NowUs();
  event.flow_id = id;
  event.name = name;
  AppendEvent(std::move(event));
  return id;
}

void EndFlow(uint64_t id, const char* name) {
  if (id == 0 || !TraceEnabled()) return;
  TraceEvent event;
  event.phase = TraceEvent::Phase::kFlowFinish;
  event.ts_us = NowUs();
  event.flow_id = id;
  event.name = name;
  AppendEvent(std::move(event));
}

int64_t TraceDroppedEvents() {
  int64_t dropped = 0;
  for (const TraceBuffer* buffer : AllBuffers()) {
    dropped += buffer->dropped.load(std::memory_order_relaxed);
  }
  return dropped;
}

std::string TraceToJson() {
  std::vector<TraceBuffer*> buffers = AllBuffers();
  // Stable file structure: buffers in tid order, events in append order
  // within each. A span appends when it ENDS, so an enclosing span follows
  // the spans it contains and `ts` is not monotone within a thread.
  std::sort(buffers.begin(), buffers.end(),
            [](const TraceBuffer* a, const TraceBuffer* b) {
              return a->tid < b->tid;
            });
  std::string out = "{\n\"traceEvents\": [";
  bool first = true;
  int64_t dropped = 0;
  for (const TraceBuffer* buffer : buffers) {
    dropped += buffer->dropped.load(std::memory_order_relaxed);
    const int64_t count = buffer->count.load(std::memory_order_acquire);
    for (int64_t i = 0; i < count; ++i) {
      const TraceEvent& event = buffer->events[static_cast<size_t>(i)];
      out += first ? "\n" : ",\n";
      first = false;
      out += "{\"name\": " + JsonString(event.name) + ", ";
      switch (event.phase) {
        case TraceEvent::Phase::kComplete:
          out += "\"ph\": \"X\", \"ts\": ";
          AppendTraceUs(&out, event.ts_us);
          out += ", \"dur\": ";
          AppendTraceUs(&out, event.dur_us);
          break;
        case TraceEvent::Phase::kFlowStart:
          out += "\"cat\": \"flow\", \"ph\": \"s\", \"id\": " +
                 std::to_string(event.flow_id) + ", \"ts\": ";
          AppendTraceUs(&out, event.ts_us);
          break;
        case TraceEvent::Phase::kFlowFinish:
          // bp:"e" binds the arrow to the ENCLOSING slice, which is the
          // worker-side task span the flow terminates inside.
          out += "\"cat\": \"flow\", \"ph\": \"f\", \"bp\": \"e\", "
                 "\"id\": " +
                 std::to_string(event.flow_id) + ", \"ts\": ";
          AppendTraceUs(&out, event.ts_us);
          break;
      }
      out += ", \"pid\": 1, \"tid\": " + std::to_string(buffer->tid);
      if (event.phase == TraceEvent::Phase::kComplete &&
          event.num_args > 0) {
        out += ", \"args\": {";
        for (int a = 0; a < event.num_args; ++a) {
          const auto& [key, value] = event.args[static_cast<size_t>(a)];
          out += (a == 0 ? "" : ", ") + JsonString(key) + ": " +
                 JsonNumber(value);
        }
        out += "}";
      }
      out += "}";
    }
  }
  out += first ? "" : "\n";
  out += "],\n\"displayTimeUnit\": \"ms\",\n";
#ifdef PPN_OBS_DISABLED  // Nothing was traced: no epoch to anchor.
  const int64_t epoch_unix_us = 0;
#else
  const int64_t epoch_unix_us = Anchor().unix_us;
#endif
  out += "\"otherData\": {\"ppn_dropped_events\": " + std::to_string(dropped) +
         ", \"ppn_epoch_unix_us\": " + std::to_string(epoch_unix_us) +
         "}\n}\n";
  return out;
}

void ResetTrace() {
  for (TraceBuffer* buffer : AllBuffers()) {
    buffer->count.store(0, std::memory_order_release);
    buffer->dropped.store(0, std::memory_order_relaxed);
  }
}

bool WriteTraceJson(const std::string& path) {
  AtomicFileWriter writer(path);
  if (!writer.ok()) return false;
  writer.stream() << TraceToJson();
  return writer.Commit();
}

void AppendTraceUs(std::string* out, double us) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", std::isfinite(us) ? us : 0.0);
  *out += buffer;
}

}  // namespace ppn::obs
