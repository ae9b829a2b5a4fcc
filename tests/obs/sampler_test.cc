// The periodic stats sampler: stream structure, counter-delta
// correctness, %.17g bit-exact round trips through common/json, health
// verdicts on sample lines, cross-thread metric updates while sampling
// (the tsan lane's target), and the multi-stream merge.

#include "obs/sampler.h"

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "obs/health.h"
#include "obs/stats.h"

namespace ppn::obs {
namespace {

#ifdef PPN_OBS_DISABLED
#define SKIP_IF_COMPILED_OUT() \
  GTEST_SKIP() << "obs compiled out (-DPPN_OBS_COMPILED=OFF)"
#else
#define SKIP_IF_COMPILED_OUT()
#endif

std::string FreshPath(const std::string& name) {
  const std::string path =
      ::testing::TempDir() + "/sampler_" + name + ".stats.jsonl";
  std::filesystem::remove(path);
  return path;
}

std::vector<std::string> RawLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Each test works against its own uniquely-named metrics (the registry
/// is process-global and other suites in this binary also use it).
class SamplerTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetAll(); }
  ScopedObsEnable enabled_;
};

TEST_F(SamplerTest, DisabledOrPathlessStartReturnsNull) {
  SamplerOptions options;  // Empty path.
  EXPECT_EQ(StatsSampler::Start(options), nullptr);
#ifndef PPN_OBS_DISABLED
  SetEnabled(false);
  options.path = FreshPath("disabled");
  EXPECT_EQ(StatsSampler::Start(options), nullptr);
  SetEnabled(true);
#endif
}

TEST_F(SamplerTest, ShortRunStillEmitsHeaderAndAtLeastOneSample) {
  SKIP_IF_COMPILED_OUT();
  const std::string path = FreshPath("short");
  SamplerOptions options;
  options.path = path;
  options.sample_ms = 60'000;  // Far longer than the test: only the
                               // final stop-time window can fire.
  auto sampler = StatsSampler::Start(options);
  ASSERT_NE(sampler, nullptr);
  GetCounter("sampler.test.short").Add(5.0);
  EXPECT_TRUE(sampler->Stop());

  StatsStream stream;
  std::string error;
  ASSERT_TRUE(ReadStatsStream(path, &stream, &error)) << error;
  EXPECT_EQ(stream.sample_ms, 60'000);
  // ProcessFromPath strips ".stats.jsonl" from the basename.
  EXPECT_EQ(stream.process, "sampler_short");
  EXPECT_GT(stream.start_unix_ms, 0);
  ASSERT_GE(stream.samples.size(), 1u);
  double total = 0.0;
  for (const StatsSample& sample : stream.samples) {
    auto it = sample.counters.find("sampler.test.short");
    if (it != sample.counters.end()) total += it->second;
  }
  EXPECT_DOUBLE_EQ(total, 5.0);
}

TEST_F(SamplerTest, CounterDeltasAcrossWindowsSumToTheTotal) {
  SKIP_IF_COMPILED_OUT();
  const std::string path = FreshPath("deltas");
  SamplerOptions options;
  options.path = path;
  options.sample_ms = 5;
  auto sampler = StatsSampler::Start(options);
  ASSERT_NE(sampler, nullptr);
  Counter& counter = GetCounter("sampler.test.deltas");
  Histogram& hist = GetHistogram("sampler.test.delta_hist");
  for (int i = 0; i < 40; ++i) {
    counter.Add(1.0);
    hist.Observe(0.5 + 0.01 * i);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(sampler->Stop());

  StatsStream stream;
  ASSERT_TRUE(ReadStatsStream(path, &stream));
  // The 80 ms run at a 5 ms window must have produced several windows —
  // deltas, not cumulative values, or this would sum to far more.
  EXPECT_GE(stream.samples.size(), 3u);
  double counter_total = 0.0;
  int64_t hist_total = 0;
  double t_prev = -1.0;
  for (const StatsSample& sample : stream.samples) {
    // Timestamps are monotonic and windows tile the run.
    EXPECT_GT(sample.t_ms, t_prev);
    t_prev = sample.t_ms;
    EXPECT_GT(sample.window_ms, 0.0);
    auto it = sample.counters.find("sampler.test.deltas");
    if (it != sample.counters.end()) counter_total += it->second;
    auto h = sample.hists.find("sampler.test.delta_hist");
    if (h != sample.hists.end()) {
      hist_total += h->second.count;
      // Window percentiles stay inside the window's [min, max].
      EXPECT_GE(h->second.p50, h->second.min);
      EXPECT_LE(h->second.p99, h->second.max);
      EXPECT_GE(h->second.min, 0.5 - 1e-12);
      EXPECT_LE(h->second.max, 1.0);
    }
  }
  EXPECT_DOUBLE_EQ(counter_total, 40.0);
  EXPECT_EQ(hist_total, 40);
}

TEST_F(SamplerTest, DoublesRoundTripBitExactThroughCommonJson) {
  SKIP_IF_COMPILED_OUT();
  const std::string path = FreshPath("roundtrip");
  // A value with no short decimal representation: %.17g must carry
  // every bit through the stream and back out of the parser.
  const double awkward = 0.1234567890123456789;
  SamplerOptions options;
  options.path = path;
  options.sample_ms = 60'000;
  auto sampler = StatsSampler::Start(options);
  ASSERT_NE(sampler, nullptr);
  GetCounter("sampler.test.roundtrip").Add(awkward);
  GetGauge("sampler.test.roundtrip_gauge").UpdateMax(awkward);
  EXPECT_TRUE(sampler->Stop());

  StatsStream stream;
  ASSERT_TRUE(ReadStatsStream(path, &stream));
  bool counter_seen = false;
  bool gauge_seen = false;
  for (const StatsSample& sample : stream.samples) {
    if (auto it = sample.counters.find("sampler.test.roundtrip");
        it != sample.counters.end()) {
      EXPECT_EQ(it->second, awkward);  // Bitwise, not near.
      counter_seen = true;
    }
    if (auto it = sample.gauges.find("sampler.test.roundtrip_gauge");
        it != sample.gauges.end()) {
      EXPECT_EQ(it->second, awkward);
      gauge_seen = true;
    }
  }
  EXPECT_TRUE(counter_seen);
  EXPECT_TRUE(gauge_seen);
}

TEST_F(SamplerTest, HealthVerdictsLandOnSampleLines) {
  SKIP_IF_COMPILED_OUT();
  const std::string path = FreshPath("health");
  SamplerOptions options;
  options.path = path;
  options.sample_ms = 60'000;
  ASSERT_TRUE(ParseHealthRules("sampler.test.errs==0", &options.health));
  auto sampler = StatsSampler::Start(options);
  ASSERT_NE(sampler, nullptr);
  GetCounter("sampler.test.errs").Add(2.0);
  const bool write_ok = sampler->Stop();
  EXPECT_TRUE(write_ok);

  StatsStream stream;
  ASSERT_TRUE(ReadStatsStream(path, &stream));
  int failed = 0;
  for (const StatsSample& sample : stream.samples) {
    failed += sample.health_failed;
  }
  EXPECT_GE(failed, 1);
}

TEST_F(SamplerTest, ConcurrentMetricUpdatesWhileSamplingAreClean) {
  SKIP_IF_COMPILED_OUT();
  // The tsan-lane case: worker threads hammer the registry while the
  // sampling thread snapshots it and evaluates a health rule.
  const std::string path = FreshPath("tsan");
  SamplerOptions options;
  options.path = path;
  options.sample_ms = 2;
  ASSERT_TRUE(
      ParseHealthRules("sampler.test.tsan.work>=0", &options.health));
  auto sampler = StatsSampler::Start(options);
  ASSERT_NE(sampler, nullptr);
  std::atomic<bool> done{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&done] {
      Counter& work = GetCounter("sampler.test.tsan.work");
      Histogram& lat = GetHistogram("sampler.test.tsan.seconds");
      Gauge& depth = GetGauge("sampler.test.tsan.depth");
      int i = 0;
      while (!done.load(std::memory_order_relaxed)) {
        work.Add(1.0);
        lat.Observe(1e-6 * (1 + i % 1000));
        depth.UpdateMax(static_cast<double>(i % 64));
        ++i;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  done.store(true);
  for (std::thread& worker : workers) worker.join();
  EXPECT_TRUE(sampler->Stop());
  StatsStream stream;
  ASSERT_TRUE(ReadStatsStream(path, &stream));
  EXPECT_GE(stream.samples.size(), 5u);
}

TEST_F(SamplerTest, MergeStampsProcessAndGlobalTimePreservingPayload) {
  SKIP_IF_COMPILED_OUT();
  const std::string path_a = FreshPath("merge_a");
  const std::string path_b = FreshPath("merge_b");
  for (const auto& [path, metric] :
       {std::pair<std::string, std::string>{path_a, "sampler.test.merge_a"},
        std::pair<std::string, std::string>{path_b,
                                            "sampler.test.merge_b"}}) {
    SamplerOptions options;
    options.path = path;
    options.sample_ms = 60'000;
    auto sampler = StatsSampler::Start(options);
    ASSERT_NE(sampler, nullptr);
    GetCounter(metric).Add(1.0);
    ASSERT_TRUE(sampler->Stop());
  }

  const std::string merged_path =
      ::testing::TempDir() + "/sampler_merged.jsonl";
  std::string error;
  int skipped = -1;
  ASSERT_TRUE(MergeStatsStreams({path_a, path_b}, merged_path, &error,
                                &skipped))
      << error;
  EXPECT_EQ(skipped, 0);

  const std::vector<std::string> lines = RawLines(merged_path);
  ASSERT_GE(lines.size(), 3u);  // Header + one sample per stream.
  JsonValue header;
  ASSERT_TRUE(ParseJson(lines[0], &header));
  EXPECT_EQ(header.StringOr("schema", ""), "ppn.stats.merged.v1");
  double t_prev = 0.0;
  for (size_t i = 1; i < lines.size(); ++i) {
    JsonValue value;
    ASSERT_TRUE(ParseJson(lines[i], &value)) << lines[i];
    // Every merged line is stamped with its origin and a global clock,
    // sorted by that clock.
    const std::string process = value.StringOr("process", "");
    EXPECT_TRUE(process == "sampler_merge_a" || process == "sampler_merge_b")
        << process;
    const double t_unix = value.NumberOr("t_unix_ms", -1.0);
    EXPECT_GE(t_unix, t_prev);
    t_prev = t_unix;
  }
  // Payload preservation: the original sample line's bytes after `{`
  // appear verbatim in exactly one merged line.
  const std::vector<std::string> original = RawLines(path_a);
  ASSERT_GE(original.size(), 2u);
  const std::string payload = original[1].substr(1);  // Drop "{".
  int found = 0;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].size() >= payload.size() &&
        lines[i].compare(lines[i].size() - payload.size(), payload.size(),
                         payload) == 0) {
      ++found;
    }
  }
  EXPECT_EQ(found, 1);
}

TEST_F(SamplerTest, ReadRejectsMissingAndForeignFiles) {
  StatsStream stream;
  std::string error;
  EXPECT_FALSE(ReadStatsStream(
      ::testing::TempDir() + "/sampler_nonexistent.jsonl", &stream, &error));
  EXPECT_FALSE(error.empty());
  const std::string foreign = ::testing::TempDir() + "/sampler_foreign.jsonl";
  {
    std::ofstream out(foreign);
    out << "{\"schema\": \"something.else\"}\n";
  }
  EXPECT_FALSE(ReadStatsStream(foreign, &stream, &error));
}

TEST_F(SamplerTest, ReadSkipsTornTrailingLines) {
  const std::string path = ::testing::TempDir() + "/sampler_torn.jsonl";
  {
    std::ofstream out(path);
    out << "{\"schema\": \"ppn.stats.v1\", \"process\": \"p\", "
           "\"sample_ms\": 10, \"start_unix_ms\": 1000}\n";
    out << "{\"t_ms\": 10.0, \"window_ms\": 10.0, "
           "\"counters\": {\"a\": 1}}\n";
    out << "{\"t_ms\": 20.0, \"window_ms\": 10.0, \"coun";  // Torn.
  }
  StatsStream stream;
  ASSERT_TRUE(ReadStatsStream(path, &stream));
  ASSERT_EQ(stream.samples.size(), 1u);
  EXPECT_DOUBLE_EQ(stream.samples[0].counters.at("a"), 1.0);
}

}  // namespace
}  // namespace ppn::obs
