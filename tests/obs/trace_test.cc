#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "exec/experiment.h"
#include "exec/thread_pool.h"
#include "market/presets.h"
#include "obs/stats.h"

namespace ppn::obs {
namespace {

// Tests that need the recording side skip themselves in the
// -DPPN_OBS_COMPILED=OFF build; the exporter still links there and must
// still produce valid (empty) JSON, which CompiledOutOrDisabledEmitsNothing
// covers in both builds.
#ifdef PPN_OBS_DISABLED
#define SKIP_IF_COMPILED_OUT() \
  GTEST_SKIP() << "obs compiled out (-DPPN_OBS_COMPILED=OFF)"
#else
#define SKIP_IF_COMPILED_OUT()
#endif

/// One parsed trace event, flattened for assertions.
struct Event {
  std::string ph;
  std::string name;
  int64_t tid = 0;
  double ts = 0.0;
  double dur = 0.0;
  double id = 0.0;
  std::map<std::string, double> args;
};

/// Parses `TraceToJson()` output and flattens the traceEvents array.
std::vector<Event> ParseTrace(const std::string& json) {
  JsonValue root;
  std::string error;
  EXPECT_TRUE(ParseJson(json, &root, &error)) << error;
  if (!root.is_object()) return {};
  const JsonValue* events = root.Find("traceEvents");
  EXPECT_NE(events, nullptr);
  std::vector<Event> out;
  if (events == nullptr || !events->is_array()) return out;
  for (const JsonValue& item : events->AsArray()) {
    Event event;
    event.ph = item.StringOr("ph", "");
    event.name = item.StringOr("name", "");
    event.tid = static_cast<int64_t>(item.NumberOr("tid", 0.0));
    event.ts = item.NumberOr("ts", 0.0);
    event.dur = item.NumberOr("dur", 0.0);
    event.id = item.NumberOr("id", 0.0);
    if (const JsonValue* args = item.Find("args");
        args != nullptr && args->is_object()) {
      for (const auto& [key, value] : args->AsObject()) {
        if (value.is_number()) event.args[key] = value.AsNumber();
      }
    }
    out.push_back(std::move(event));
  }
  return out;
}

class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetTrace(); }
  void TearDown() override { ResetTrace(); }
};

TEST_F(ObsTraceTest, CompiledOutOrDisabledEmitsNothing) {
  // No ScopedTraceEnable: recording must be off by default (and always off
  // when compiled out). Spans and flows must leave no events behind.
  ASSERT_FALSE(TraceEnabled());
  {
    Span span("t.should.not.record");
    span.AddArg("x", 1.0);
    const uint64_t flow = BeginFlow("t.no.flow");
    EXPECT_EQ(flow, 0u);
    EndFlow(flow, "t.no.flow");
  }
  const std::vector<Event> events = ParseTrace(TraceToJson());
  EXPECT_TRUE(events.empty());
}

TEST_F(ObsTraceTest, SpanRecordsCompleteEventWithArgs) {
  SKIP_IF_COMPILED_OUT();
  ScopedTraceEnable enable;
  {
    Span span("t.unit.work");
    span.AddArg("step", 7.0);
    span.AddArg("reward", -0.125);
  }
  const std::vector<Event> events = ParseTrace(TraceToJson());
  const auto it = std::find_if(events.begin(), events.end(), [](const Event& e) {
    return e.name == "t.unit.work";
  });
  ASSERT_NE(it, events.end());
  EXPECT_EQ(it->ph, "X");
  EXPECT_GE(it->dur, 0.0);
  ASSERT_EQ(it->args.count("step"), 1u);
  EXPECT_DOUBLE_EQ(it->args.at("step"), 7.0);
  EXPECT_DOUBLE_EQ(it->args.at("reward"), -0.125);
}

TEST_F(ObsTraceTest, NestedSpansNestOnTheTimeline) {
  SKIP_IF_COMPILED_OUT();
  ScopedTraceEnable enable;
  {
    Span outer("t.nest.outer");
    {
      Span inner("t.nest.inner");
      volatile double sink = 0.0;
      for (int i = 0; i < 1000; ++i) sink = sink + i;
    }
  }
  const std::vector<Event> events = ParseTrace(TraceToJson());
  const auto find = [&](const std::string& name) {
    return std::find_if(events.begin(), events.end(),
                        [&](const Event& e) { return e.name == name; });
  };
  const auto outer = find("t.nest.outer");
  const auto inner = find("t.nest.inner");
  ASSERT_NE(outer, events.end());
  ASSERT_NE(inner, events.end());
  EXPECT_EQ(outer->tid, inner->tid);
  // The inner slice must lie inside the outer slice.
  EXPECT_GE(inner->ts, outer->ts);
  EXPECT_LE(inner->ts + inner->dur, outer->ts + outer->dur);
}

TEST_F(ObsTraceTest, MinDurationFilterSuppressesShortSpans) {
  SKIP_IF_COMPILED_OUT();
  ScopedTraceEnable enable;
  {
    Span span("t.filtered.span", /*min_duration_us=*/1e9);
  }
  const std::vector<Event> events = ParseTrace(TraceToJson());
  EXPECT_TRUE(std::none_of(events.begin(), events.end(), [](const Event& e) {
    return e.name == "t.filtered.span";
  }));
}

TEST_F(ObsTraceTest, ThreadPoolStitchesFlowsAcrossWorkers) {
  SKIP_IF_COMPILED_OUT();
  ScopedTraceEnable enable;
  {
    exec::ThreadPool pool(2);
    // Each task waits until two tasks have started, so both workers run
    // one however the OS schedules them; without the wait, one worker can
    // drain all 16 before the other wakes. The wait is bounded, so a pool
    // that ran everything on one thread fails the tid check below instead
    // of hanging.
    std::atomic<int> started{0};
    for (int i = 0; i < 16; ++i) {
      pool.Submit([&started] {
        started.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (started.load() < 2 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        volatile double sink = 0.0;
        for (int j = 0; j < 20000; ++j) sink = sink + j;
      });
    }
    pool.Wait();
  }
  const std::vector<Event> events = ParseTrace(TraceToJson());
  std::map<double, const Event*> starts;   // flow id -> "s" event
  std::map<double, const Event*> finishes; // flow id -> "f" event
  std::set<int64_t> finish_tids;
  for (const Event& event : events) {
    if (event.ph == "s") starts[event.id] = &event;
    if (event.ph == "f") {
      finishes[event.id] = &event;
      finish_tids.insert(event.tid);
    }
  }
  ASSERT_GE(finishes.size(), 16u);
  // Every finish pairs with a start of the same id, on a different thread
  // (submit happens on this thread, execution on a worker), and not
  // before it.
  for (const auto& [id, finish] : finishes) {
    ASSERT_EQ(starts.count(id), 1u) << "unpaired flow finish id " << id;
    const Event* start = starts.at(id);
    EXPECT_NE(start->tid, finish->tid);
    EXPECT_GE(finish->ts, start->ts);
  }
  // With 2 workers and 16 tasks, both workers should have executed some.
  EXPECT_GE(finish_tids.size(), 2u);
  // Each worker slice is a complete event the finish can bind to.
  for (const Event& event : events) {
    if (event.ph != "f") continue;
    const bool has_enclosing_slice = std::any_of(
        events.begin(), events.end(), [&](const Event& slice) {
          return slice.ph == "X" && slice.tid == event.tid &&
                 slice.ts <= event.ts &&
                 event.ts <= slice.ts + slice.dur;
        });
    EXPECT_TRUE(has_enclosing_slice);
  }
}

TEST_F(ObsTraceTest, SweepTraceIsValidChromeJsonWithNestingAndFlows) {
  SKIP_IF_COMPILED_OUT();
  ScopedTraceEnable enable;
  // A tiny classic-only sweep: 4 cells across 2 workers exercises the
  // exec.cell spans and the submit->worker flow stitching end to end.
  exec::ExperimentSpec spec;
  spec.title = "trace-test";
  spec.datasets = {market::DatasetId::kCryptoA};
  spec.strategies = {{.name = "UBAH"}, {.name = "CRP"}};
  spec.cost_rates = {0.0025, 0.01};
  const exec::ExperimentRunner runner(2);
  const std::vector<exec::CellResult> rows = runner.Run(spec);
  ASSERT_EQ(rows.size(), 4u);

  const std::string path = ::testing::TempDir() + "/obs_trace_sweep.json";
  ASSERT_TRUE(WriteTraceJson(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::vector<Event> events = ParseTrace(buffer.str());
  std::remove(path.c_str());

  // Per-cell spans ran on the workers.
  const int64_t cell_spans =
      std::count_if(events.begin(), events.end(),
                    [](const Event& e) { return e.name == "exec.cell"; });
  EXPECT_EQ(cell_spans, 4);
  // Begin/end nesting: within each thread, "X" slices must nest (no
  // partial overlap) — RAII scopes guarantee it, the exporter must
  // preserve it.
  std::map<int64_t, std::vector<const Event*>> by_tid;
  for (const Event& event : events) {
    if (event.ph == "X") by_tid[event.tid].push_back(&event);
  }
  EXPECT_GE(by_tid.size(), 2u);  // Main thread + at least one worker.
  for (const auto& [tid, slices] : by_tid) {
    for (const Event* a : slices) {
      for (const Event* b : slices) {
        const double a_end = a->ts + a->dur;
        const double b_end = b->ts + b->dur;
        const bool disjoint = a_end <= b->ts || b_end <= a->ts;
        const bool nested = (a->ts <= b->ts && b_end <= a_end) ||
                            (b->ts <= a->ts && a_end <= b_end);
        EXPECT_TRUE(disjoint || nested)
            << "slices overlap without nesting on tid " << tid << ": "
            << a->name << " and " << b->name;
      }
    }
  }
  // Flow pairing across >= 2 worker threads.
  std::map<double, int64_t> start_tid;
  std::set<int64_t> flow_finish_tids;
  int64_t paired = 0;
  for (const Event& event : events) {
    if (event.ph == "s") start_tid[event.id] = event.tid;
  }
  for (const Event& event : events) {
    if (event.ph != "f") continue;
    ASSERT_EQ(start_tid.count(event.id), 1u);
    EXPECT_NE(start_tid.at(event.id), event.tid);
    flow_finish_tids.insert(event.tid);
    ++paired;
  }
  EXPECT_GE(paired, 4);
  EXPECT_GE(flow_finish_tids.size(), 2u);
}

TEST_F(ObsTraceTest, OverflowDropsNewestAndCountsThem) {
  SKIP_IF_COMPILED_OUT();
  ScopedTraceEnable enable;
  // Fill a FRESH thread's buffer past its capacity (kTraceCapacity).
  std::thread filler([] {
    for (int i = 0; i < 70000; ++i) {
      Span span("t.flood");
    }
  });
  filler.join();
  EXPECT_GT(TraceDroppedEvents(), 0);
  const std::string json = TraceToJson();
  EXPECT_NE(json.find("ppn_dropped_events"), std::string::npos);
  JsonValue root;
  ASSERT_TRUE(ParseJson(json, &root));
  const JsonValue* other = root.Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_GT(other->NumberOr("ppn_dropped_events", 0.0), 0.0);
}

TEST_F(ObsTraceTest, ResetTraceClearsEventsAndDrops) {
  SKIP_IF_COMPILED_OUT();
  ScopedTraceEnable enable;
  {
    Span span("t.reset.me");
  }
  ResetTrace();
  const std::vector<Event> events = ParseTrace(TraceToJson());
  EXPECT_TRUE(std::none_of(events.begin(), events.end(), [](const Event& e) {
    return e.name == "t.reset.me";
  }));
  EXPECT_EQ(TraceDroppedEvents(), 0);
}

}  // namespace
}  // namespace ppn::obs
