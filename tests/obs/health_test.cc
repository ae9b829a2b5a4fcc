// SLO health rules: the PPN_HEALTH grammar, metric resolution against
// snapshots (counters default to 0, histogram stats skip when empty), the
// cumulative HealthMonitor tallies, and the strict-parse abort contract
// of HealthRulesFromEnv.

#include "obs/health.h"

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "obs/stats.h"

namespace ppn::obs {
namespace {

/// Sets an env var for one test and restores the previous state on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (had_old_) ::setenv(name_, old_.c_str(), 1);
    else ::unsetenv(name_);
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

TEST(HealthParseTest, ParsesEveryOperatorSpelling) {
  std::vector<HealthRule> rules;
  ASSERT_TRUE(ParseHealthRules(
      "a<1,b<=2,c>3,d>=4,e==5,f!=6", &rules));
  ASSERT_EQ(rules.size(), 6u);
  EXPECT_EQ(rules[0].op, HealthOp::kLt);
  EXPECT_EQ(rules[1].op, HealthOp::kLe);
  EXPECT_EQ(rules[2].op, HealthOp::kGt);
  EXPECT_EQ(rules[3].op, HealthOp::kGe);
  EXPECT_EQ(rules[4].op, HealthOp::kEq);
  EXPECT_EQ(rules[5].op, HealthOp::kNe);
  EXPECT_EQ(rules[0].metric, "a");
  EXPECT_DOUBLE_EQ(rules[3].threshold, 4.0);
  // `raw` round-trips the source spelling for messages.
  EXPECT_EQ(rules[4].raw, "e==5");
}

TEST(HealthParseTest, TimeUnitSuffixesConvertToSeconds) {
  std::vector<HealthRule> rules;
  ASSERT_TRUE(ParseHealthRules(
      "lat.p99<5ms,spike.max<250us,cell.p50<2s,count>=10", &rules));
  ASSERT_EQ(rules.size(), 4u);
  EXPECT_DOUBLE_EQ(rules[0].threshold, 0.005);
  EXPECT_DOUBLE_EQ(rules[1].threshold, 0.00025);
  EXPECT_DOUBLE_EQ(rules[2].threshold, 2.0);
  EXPECT_DOUBLE_EQ(rules[3].threshold, 10.0);
}

TEST(HealthParseTest, WhitespaceAndEmptyListAreTolerated) {
  std::vector<HealthRule> rules;
  ASSERT_TRUE(ParseHealthRules("", &rules));
  EXPECT_TRUE(rules.empty());
  ASSERT_TRUE(ParseHealthRules(" a < 1 , b >= 2 ", &rules));
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].metric, "a");
  EXPECT_EQ(rules[1].metric, "b");
}

TEST(HealthParseTest, MalformedRulesAreRejectedWithAMessage) {
  std::vector<HealthRule> rules;
  std::string error;
  // No operator at all.
  EXPECT_FALSE(ParseHealthRules("latency.p99", &rules, &error));
  EXPECT_NE(error.find("latency.p99"), std::string::npos);
  // Empty metric.
  EXPECT_FALSE(ParseHealthRules("<5", &rules, &error));
  // Garbage threshold.
  EXPECT_FALSE(ParseHealthRules("a<banana", &rules, &error));
  EXPECT_NE(error.find("banana"), std::string::npos);
  // Trailing junk after the number.
  EXPECT_FALSE(ParseHealthRules("a<5msx", &rules, &error));
  // A bare unit with no digits.
  EXPECT_FALSE(ParseHealthRules("a<ms", &rules, &error));
  // One bad rule poisons the whole list.
  EXPECT_FALSE(ParseHealthRules("a<1,b", &rules, &error));
}

TEST(HealthParseTest, HealthOpNameRoundTrips) {
  EXPECT_EQ(HealthOpName(HealthOp::kLt), "<");
  EXPECT_EQ(HealthOpName(HealthOp::kLe), "<=");
  EXPECT_EQ(HealthOpName(HealthOp::kGt), ">");
  EXPECT_EQ(HealthOpName(HealthOp::kGe), ">=");
  EXPECT_EQ(HealthOpName(HealthOp::kEq), "==");
  EXPECT_EQ(HealthOpName(HealthOp::kNe), "!=");
}

TEST(HealthResolveTest, CountersGaugesAndAbsentNamesResolve) {
  Snapshot snapshot;
  snapshot.counters["exec.cells.completed"] = 12.0;
  snapshot.gauges["tensor.pool.bytes_in_use"] = 4096.0;
  double value = -1.0;
  ASSERT_TRUE(
      ResolveHealthMetric(snapshot, "exec.cells.completed", &value));
  EXPECT_DOUBLE_EQ(value, 12.0);
  ASSERT_TRUE(
      ResolveHealthMetric(snapshot, "tensor.pool.bytes_in_use", &value));
  EXPECT_DOUBLE_EQ(value, 4096.0);
  // Absent plain names read as 0 — `foo==0` invariants hold vacuously.
  ASSERT_TRUE(ResolveHealthMetric(snapshot, "never.recorded", &value));
  EXPECT_DOUBLE_EQ(value, 0.0);
}

TEST(HealthResolveTest, HistogramStatSuffixesResolveAndEmptySkips) {
  Snapshot snapshot;
  HistogramSnapshot& hist = snapshot.histograms["lat.seconds"];
  hist.count = 4;
  hist.sum = 2.0;
  hist.min = 0.25;
  hist.max = 1.0;
  hist.buckets[30] = 4;  // All four samples in [0.5, 1).
  double value = -1.0;
  ASSERT_TRUE(ResolveHealthMetric(snapshot, "lat.seconds.count", &value));
  EXPECT_DOUBLE_EQ(value, 4.0);
  ASSERT_TRUE(ResolveHealthMetric(snapshot, "lat.seconds.mean", &value));
  EXPECT_DOUBLE_EQ(value, 0.5);
  ASSERT_TRUE(ResolveHealthMetric(snapshot, "lat.seconds.min", &value));
  EXPECT_DOUBLE_EQ(value, 0.25);
  ASSERT_TRUE(ResolveHealthMetric(snapshot, "lat.seconds.max", &value));
  EXPECT_DOUBLE_EQ(value, 1.0);
  ASSERT_TRUE(ResolveHealthMetric(snapshot, "lat.seconds.p99", &value));
  EXPECT_GE(value, hist.min);
  EXPECT_LE(value, hist.max);
  // A histogram stat with NO observations is a skip, not a zero: "no
  // data" must never satisfy (or violate) a latency bound.
  snapshot.histograms["empty.seconds"];  // Present but count == 0.
  EXPECT_FALSE(ResolveHealthMetric(snapshot, "empty.seconds.p99", &value));
  // ...and a stat suffix on a name with no histogram at all is also a
  // skip (the suffix marks it as a histogram rule).
  EXPECT_FALSE(ResolveHealthMetric(snapshot, "no.such.hist.p95", &value));
}

// Rules and the profile read one stat table: for every stat, the rule
// value is the value the profile prints for that histogram, bit for bit.
TEST(HealthResolveTest, EveryStatResolvesToTheValueTheProfilePrints) {
  Snapshot snapshot;
  HistogramSnapshot& hist = snapshot.histograms["lat.seconds"];
  hist.count = 7;
  hist.sum = 1.0 / 3.0;
  hist.min = 0.0015;
  hist.max = 0.21;
  hist.buckets[21] = 2;  // [2^-10, 2^-9)
  hist.buckets[24] = 4;  // [2^-7, 2^-6)
  hist.buckets[28] = 1;  // [2^-3, 2^-2)
  JsonValue profile;
  ASSERT_TRUE(ParseJson(SnapshotToJson(snapshot), &profile));
  const JsonValue* printed =
      profile.Find("histograms")->Find("lat.seconds");
  ASSERT_NE(printed, nullptr);
  for (const HistogramStat& stat : kHistogramStats) {
    double value = -1.0;
    ASSERT_TRUE(ResolveHealthMetric(
        snapshot, std::string("lat.seconds.") + stat.key, &value))
        << stat.key;
    const JsonValue* member = printed->Find(stat.key);
    ASSERT_NE(member, nullptr) << stat.key;
    EXPECT_EQ(std::bit_cast<uint64_t>(value),
              std::bit_cast<uint64_t>(member->AsNumber()))
        << stat.key;
  }
}

TEST(HealthMonitorTest, TalliesViolationsAcrossWindows) {
  std::vector<HealthRule> rules;
  ASSERT_TRUE(ParseHealthRules("errs==0,lat.seconds.p99<5ms", &rules));
  HealthMonitor monitor(std::move(rules));
  ASSERT_TRUE(monitor.has_rules());
  EXPECT_TRUE(monitor.ok());

  // Window 1: no errors, no latency data → rule 1 passes, rule 2 skips.
  Snapshot clean;
  std::vector<HealthEval> evals = monitor.Evaluate(clean);
  ASSERT_EQ(evals.size(), 2u);
  EXPECT_TRUE(evals[0].evaluated);
  EXPECT_TRUE(evals[0].ok);
  EXPECT_FALSE(evals[1].evaluated);
  EXPECT_TRUE(monitor.ok());

  // Window 2: an error shows up.
  Snapshot bad;
  bad.counters["errs"] = 3.0;
  evals = monitor.Evaluate(bad);
  EXPECT_TRUE(evals[0].evaluated);
  EXPECT_FALSE(evals[0].ok);
  EXPECT_DOUBLE_EQ(evals[0].value, 3.0);
  EXPECT_FALSE(monitor.ok());

  // Window 3: clean again — but the monitor remembers the violation.
  monitor.Evaluate(clean);
  EXPECT_FALSE(monitor.ok());

  const std::string summary = monitor.Summary(/*color=*/false);
  EXPECT_NE(summary.find("FAIL"), std::string::npos);
  EXPECT_NE(summary.find("errs==0"), std::string::npos);
  EXPECT_NE(summary.find("PPN_HEALTH: FAIL"), std::string::npos);
  // The never-evaluated latency rule reports as skipped, not passed.
  EXPECT_NE(summary.find("SKIP"), std::string::npos);
}

TEST(HealthMonitorTest, AllPassingSummaryCarriesThePassToken) {
  std::vector<HealthRule> rules;
  ASSERT_TRUE(ParseHealthRules("errs==0", &rules));
  HealthMonitor monitor(std::move(rules));
  monitor.Evaluate(Snapshot{});
  EXPECT_TRUE(monitor.ok());
  const std::string summary = monitor.Summary(/*color=*/false);
  EXPECT_NE(summary.find("PPN_HEALTH: PASS"), std::string::npos);
  EXPECT_EQ(summary.find("FAIL"), std::string::npos);
}

TEST(HealthEnvTest, SetButEmptyYieldsNoRules) {
  const ScopedEnv empty("PPN_HEALTH", "");
  EXPECT_TRUE(HealthRulesFromEnv().empty());
}

TEST(HealthEnvTest, ValidRulesParseFromTheEnvironment) {
  const ScopedEnv health("PPN_HEALTH", "exec.cells.failed==0,lat.p99<5ms");
  const std::vector<HealthRule> rules = HealthRulesFromEnv();
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].metric, "exec.cells.failed");
  EXPECT_DOUBLE_EQ(rules[1].threshold, 0.005);
}

TEST(HealthEnvDeathTest, MalformedEnvRulesAbortNamingTheVariable) {
  const ScopedEnv bad("PPN_HEALTH", "latency.p99<<fast");
  EXPECT_DEATH(HealthRulesFromEnv(), "PPN_HEALTH");
}

TEST(ReportHealthTest, NoRulesIsSilentSuccess) {
  const ScopedEnv unset("PPN_HEALTH", "");
  EXPECT_EQ(ReportHealthIfRequested(), 0);
}

TEST(ReportHealthTest, ViolatedRuleReturnsNonzero) {
#ifdef PPN_OBS_DISABLED
  // Compiled-out builds have an empty registry: the bumped counter below
  // never lands, so only the vacuous-pass branch is testable.
  const ScopedEnv health("PPN_HEALTH", "health.test.bump==0");
  EXPECT_EQ(ReportHealthIfRequested(), 0);
#else
  const ScopedObsEnable enabled;
  GetCounter("health.test.bump").Add(1.0);
  {
    const ScopedEnv health("PPN_HEALTH", "health.test.bump==0");
    EXPECT_EQ(ReportHealthIfRequested(), 1);
  }
  {
    const ScopedEnv health("PPN_HEALTH", "health.test.bump>=1");
    EXPECT_EQ(ReportHealthIfRequested(), 0);
  }
#endif
}

}  // namespace
}  // namespace ppn::obs
