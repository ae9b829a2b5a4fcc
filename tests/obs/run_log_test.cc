// RunLog + report integration: the streaming per-step telemetry must
// capture exactly what the trainer computed (bit-exact after the JSONL
// round trip), must never perturb training, and must hold the sweep
// layer's worker-count determinism contract with telemetry enabled. The
// CLI case runs the real `ppn_cli` (PPN_CLI_BIN, injected by CMake).

#include "obs/run_log.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/experiment.h"
#include "market/generator.h"
#include "obs/report.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "ppn/trainer.h"

namespace ppn::obs {
namespace {

#ifdef PPN_OBS_DISABLED
#define SKIP_IF_COMPILED_OUT() \
  GTEST_SKIP() << "obs compiled out (-DPPN_OBS_COMPILED=OFF)"
#else
#define SKIP_IF_COMPILED_OUT()
#endif

market::MarketDataset SmallDataset() {
  market::SyntheticMarketConfig config;
  config.num_assets = 4;
  config.num_periods = 400;
  config.seed = 9;
  config.late_listing_fraction = 0.0;
  market::SyntheticMarketGenerator generator(config);
  return generator.GenerateDataset("tiny", 0.8);
}

core::PolicyConfig SmallPolicyConfig() {
  core::PolicyConfig config;
  config.variant = core::PolicyVariant::kPpn;
  config.num_assets = 4;
  config.window = 10;
  config.lstm_hidden = 4;
  config.block1_channels = 3;
  config.block2_channels = 4;
  config.seed = 3;
  return config;
}

core::TrainerConfig SmallTrainerConfig() {
  core::TrainerConfig config;
  config.batch_size = 8;
  config.steps = 10;
  config.seed = 5;
  return config;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string FreshPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(path);
  return path;
}

/// Trains `steps` steps of the small setup, optionally logging to `path`,
/// and returns the per-step rewards.
std::vector<double> RunSteps(int steps, const std::string& runlog_path) {
  market::MarketDataset dataset = SmallDataset();
  Rng init(1);
  Rng dropout(2);
  auto policy = core::MakePolicy(SmallPolicyConfig(), &init, &dropout);
  core::PolicyGradientTrainer trainer(policy.get(), dataset,
                                      SmallTrainerConfig());
  std::unique_ptr<RunLog> run_log;
  if (!runlog_path.empty()) {
    RunLogMeta meta;
    meta.run_id = "PPN";
    meta.strategy = "PPN";
    meta.dataset = dataset.name;
    meta.gamma = SmallTrainerConfig().reward.gamma;
    meta.lambda = SmallTrainerConfig().reward.lambda;
    meta.cost_rate = SmallTrainerConfig().reward.cost_rate;
    meta.seed = static_cast<int64_t>(SmallTrainerConfig().seed);
    meta.steps = steps;
    run_log = RunLog::Open(runlog_path, meta);
    EXPECT_NE(run_log, nullptr);
    trainer.AttachRunLog(run_log.get());
  }
  std::vector<double> rewards;
  for (int step = 0; step < steps; ++step) {
    rewards.push_back(trainer.TrainStep());
  }
  if (run_log != nullptr) {
    EXPECT_TRUE(run_log->Close());
  }
  return rewards;
}

TEST(RunLogTest, OpenReturnsNullWhenObsDisabled) {
  ScopedObsEnable disable(false);
  RunLogMeta meta;
  meta.run_id = "x";
  EXPECT_EQ(RunLog::Open(::testing::TempDir() + "/unused.jsonl", meta),
            nullptr);
}

TEST(RunLogTest, OpenReturnsNullForEmptyPath) {
  ScopedObsEnable enable;
  SKIP_IF_COMPILED_OUT();
  EXPECT_EQ(RunLog::Open("", RunLogMeta{}), nullptr);
}

TEST(RunLogTest, WritesHeaderAndRoundTripsRecordsExactly) {
  ScopedObsEnable enable;
  SKIP_IF_COMPILED_OUT();
  const std::string path = FreshPath("runlog_roundtrip.runlog.jsonl");
  RunLogMeta meta;
  meta.run_id = "PPN gamma=1e-3";
  meta.strategy = "PPN";
  meta.dataset = "Crypto-\"A\"";  // Escaping must survive the round trip.
  meta.gamma = 1e-3;
  meta.lambda = 1e-4;
  meta.cost_rate = 0.0025;
  meta.seed = 42;
  meta.steps = 3;
  auto log = RunLog::Open(path, meta);
  ASSERT_NE(log, nullptr);
  std::vector<RunLogRecord> written;
  for (int64_t step = 0; step < 3; ++step) {
    RunLogRecord record;
    record.step = step;
    // Deliberately awkward doubles: %.17g must reproduce them bit-exactly.
    record.reward_total = 0.1 * static_cast<double>(step + 1) / 3.0;
    record.reward_log_return = -1.0 / 3.0;
    record.reward_variance = 2.2250738585072014e-308;  // Smallest normal.
    record.reward_turnover = 0.30000000000000004;
    record.grad_norm = 1e100;
    record.pvm_staleness = 2.5;
    record.solver_iterations = 7.0;
    record.step_seconds = 0.001;
    log->Append(record);
    written.push_back(record);
  }
  ASSERT_TRUE(log->Close());

  ParsedRunLog parsed;
  std::string error;
  ASSERT_TRUE(ReadRunLog(path, &parsed, &error)) << error;
  EXPECT_EQ(parsed.schema, "ppn.runlog.v1");
  EXPECT_EQ(parsed.meta.run_id, meta.run_id);
  EXPECT_EQ(parsed.meta.dataset, meta.dataset);
  EXPECT_EQ(parsed.meta.gamma, meta.gamma);
  EXPECT_EQ(parsed.meta.seed, meta.seed);
  EXPECT_EQ(parsed.meta.steps, meta.steps);
  ASSERT_EQ(parsed.records.size(), written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(parsed.records[i].step, written[i].step);
    EXPECT_EQ(parsed.records[i].reward_total, written[i].reward_total);
    EXPECT_EQ(parsed.records[i].reward_log_return,
              written[i].reward_log_return);
    EXPECT_EQ(parsed.records[i].reward_variance, written[i].reward_variance);
    EXPECT_EQ(parsed.records[i].reward_turnover, written[i].reward_turnover);
    EXPECT_EQ(parsed.records[i].grad_norm, written[i].grad_norm);
    EXPECT_EQ(parsed.records[i].pvm_staleness, written[i].pvm_staleness);
    EXPECT_EQ(parsed.records[i].solver_iterations,
              written[i].solver_iterations);
    EXPECT_EQ(parsed.records[i].step_seconds, written[i].step_seconds);
  }
  std::remove(path.c_str());
}

// The writer and the reader share one field table: a distinct value in
// every field comes back bit for bit, each from its own key.
TEST(RunLogTest, EveryTableFieldRoundTripsBitForBit) {
  ScopedObsEnable enable;
  SKIP_IF_COMPILED_OUT();
  const std::string path = FreshPath("runlog_fields.runlog.jsonl");
  auto log = RunLog::Open(path, RunLogMeta{});
  ASSERT_NE(log, nullptr);
  const double values[] = {1.0 / 3.0,     -2.0 / 7.0,         5e-324,
                           1.7976931348623157e308, 0.1 + 0.2, -1e-300,
                           12345.678901234567,     6.02214076e23};
  ASSERT_EQ(std::size(values), std::size(kRunLogFields));
  RunLogRecord record;
  record.step = 123456789012;
  for (size_t i = 0; i < std::size(kRunLogFields); ++i) {
    record.*kRunLogFields[i].second = values[i];
  }
  log->Append(record);
  ASSERT_TRUE(log->Close());

  ParsedRunLog parsed;
  std::string error;
  ASSERT_TRUE(ReadRunLog(path, &parsed, &error)) << error;
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.records[0].step, record.step);
  const std::string text = ReadFile(path);
  for (const auto& [key, field] : kRunLogFields) {
    EXPECT_EQ(std::bit_cast<uint64_t>(parsed.records[0].*field),
              std::bit_cast<uint64_t>(record.*field))
        << key;
    EXPECT_NE(text.find("\"" + std::string(key) + "\": "), std::string::npos)
        << key;
  }
  std::remove(path.c_str());
}

// The header shares one key table too: a distinct value in every key,
// including a 64-bit seed whose low bits a double would drop, comes back
// exactly, each from its own key.
TEST(RunLogTest, EveryHeaderKeyRoundTripsExactly) {
  ScopedObsEnable enable;
  SKIP_IF_COMPILED_OUT();
  const std::string path = FreshPath("runlog_header.runlog.jsonl");
  RunLogMeta meta;
  meta.run_id = "cell-7";
  meta.strategy = "PPN-I";
  meta.dataset = "Crypto-B";
  meta.gamma = 1.0 / 3.0;
  meta.lambda = 2.5e-4;
  meta.cost_rate = 0.0075;
  meta.seed = -5505767809153612232;
  meta.steps = 123456789012;
  auto log = RunLog::Open(path, meta);
  ASSERT_NE(log, nullptr);
  ASSERT_TRUE(log->Close());

  ParsedRunLog parsed;
  std::string error;
  ASSERT_TRUE(ReadRunLog(path, &parsed, &error)) << error;
  EXPECT_EQ(parsed.schema, kRunLogSchema);
  const std::string text = ReadFile(path);
  auto has_key = [&text](const char* key) {
    return text.find("\"" + std::string(key) + "\": ") != std::string::npos;
  };
  for (const auto& [key, field] : kRunLogTextKeys) {
    EXPECT_EQ(parsed.meta.*field, meta.*field) << key;
    EXPECT_TRUE(has_key(key)) << key;
  }
  for (const auto& [key, field] : kRunLogRealKeys) {
    EXPECT_EQ(std::bit_cast<uint64_t>(parsed.meta.*field),
              std::bit_cast<uint64_t>(meta.*field))
        << key;
    EXPECT_TRUE(has_key(key)) << key;
  }
  for (const auto& [key, field] : kRunLogIntKeys) {
    EXPECT_EQ(parsed.meta.*field, meta.*field) << key;
    EXPECT_TRUE(has_key(key)) << key;
  }
  std::remove(path.c_str());
}

TEST(RunLogTest, TrainerStreamsOneExactRecordPerStep) {
  ScopedObsEnable enable;
  SKIP_IF_COMPILED_OUT();
  const std::string path = FreshPath("runlog_trainer.runlog.jsonl");
  constexpr int kSteps = 10;
  const std::vector<double> rewards = RunSteps(kSteps, path);

  ParsedRunLog parsed;
  std::string error;
  ASSERT_TRUE(ReadRunLog(path, &parsed, &error)) << error;
  ASSERT_EQ(parsed.records.size(), static_cast<size_t>(kSteps));
  for (int step = 0; step < kSteps; ++step) {
    const RunLogRecord& record = parsed.records[step];
    EXPECT_EQ(record.step, step);
    // EXACT equality: the record holds the very double TrainStep returned,
    // and %.17g JSONL round-trips it bit-for-bit.
    EXPECT_EQ(record.reward_total, rewards[step]) << "step " << step;
    EXPECT_GT(record.grad_norm, 0.0);
    EXPECT_GT(record.solver_iterations, 0.0);
    EXPECT_GT(record.step_seconds, 0.0);
    EXPECT_GE(record.pvm_staleness, 0.0);
    // The breakdown reconstructs the total:
    //   total = mean_log_return − λ·variance − γ·mean_turnover.
    // The graph combines the terms in float32, so reconstructing in double
    // only matches to single precision.
    const core::RewardConfig& reward = SmallTrainerConfig().reward;
    const double reconstructed = record.reward_log_return -
                                 reward.lambda * record.reward_variance -
                                 reward.gamma * record.reward_turnover;
    EXPECT_NEAR(reconstructed, rewards[step],
                1e-5 * std::max(1.0, std::fabs(rewards[step])))
        << "step " << step;
  }
  // Staleness grows once training revisits periods written steps earlier.
  EXPECT_GT(parsed.records.back().pvm_staleness, 0.0);

  // The report layer reproduces the final-step decomposition exactly.
  const RunLogSummary summary = SummarizeRunLog(parsed, /*window=*/4);
  EXPECT_EQ(summary.steps, kSteps);
  EXPECT_EQ(summary.final_step.reward_total, rewards.back());
  char expected[64];
  std::snprintf(expected, sizeof(expected), "%.17g", rewards.back());
  const std::string report = RenderReport({summary}, {});
  EXPECT_NE(report.find(expected), std::string::npos)
      << "report does not carry the exact final reward: " << report;
  std::remove(path.c_str());
}

TEST(RunLogTest, AppendAfterCloseIsDiscarded) {
  ScopedObsEnable enable;
  SKIP_IF_COMPILED_OUT();
  const std::string path = FreshPath("runlog_after_close.runlog.jsonl");
  RunLogMeta meta;
  meta.run_id = "after-close";
  auto log = RunLog::Open(path, meta);
  ASSERT_NE(log, nullptr);
  RunLogRecord record;
  log->Append(record);
  ASSERT_TRUE(log->Close());
  const std::string committed = ReadFile(path);

  // The writer is released at Close; a late Append must not reach it,
  // and the destructor's Close must leave the committed file alone.
  record.step = 1;
  log->Append(record);
  EXPECT_TRUE(log->Close());
  log.reset();
  EXPECT_EQ(ReadFile(path), committed);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  ParsedRunLog parsed;
  std::string error;
  ASSERT_TRUE(ReadRunLog(path, &parsed, &error)) << error;
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.records[0].step, 0);
  std::remove(path.c_str());
}

TEST(RunLogTest, AttachingARunLogDoesNotPerturbTraining) {
  SKIP_IF_COMPILED_OUT();
  std::vector<double> with_log;
  {
    ScopedObsEnable enable;
    const std::string path = FreshPath("runlog_perturb.runlog.jsonl");
    with_log = RunSteps(6, path);
    std::remove(path.c_str());
  }
  std::vector<double> without_log;
  {
    ScopedObsEnable disable(false);
    without_log = RunSteps(6, "");
  }
  ASSERT_EQ(with_log.size(), without_log.size());
  for (size_t i = 0; i < with_log.size(); ++i) {
    EXPECT_EQ(with_log[i], without_log[i]) << "step " << i;
  }
}

/// Telemetry-enabled sweep fixture: one neural + one classic strategy at
/// smoke scale keeps each cell's training to a few steps.
exec::ExperimentSpec TelemetrySpec(const std::string& telemetry_dir) {
  exec::ExperimentSpec spec;
  spec.title = "runlog sweep test";
  spec.scale = RunScale::kSmoke;
  spec.datasets = {market::DatasetId::kCryptoA};
  strategies::StrategySpec neural;
  neural.name = "EIIE";
  neural.base_steps = 40;  // -> 5 steps at smoke scale.
  spec.strategies = {neural, strategies::StrategySpec{.name = "UBAH"}};
  spec.cost_rates = {0.0025, 0.01};
  spec.telemetry_dir = telemetry_dir;
  return spec;
}

TEST(RunLogTest, SweepStreamsOneLogPerNeuralCellAndStaysDeterministic) {
  ScopedObsEnable enable;
  SKIP_IF_COMPILED_OUT();
  const std::string dir_inline = FreshPath("runlog_sweep_w0");
  const std::string dir_pooled = FreshPath("runlog_sweep_w4");

  // Worker-count determinism with telemetry enabled: inline (0 workers)
  // and a 4-worker pool must produce bit-identical metrics.
  const std::vector<exec::CellResult> inline_rows =
      exec::ExperimentRunner(0).Run(TelemetrySpec(dir_inline));
  const std::vector<exec::CellResult> pooled_rows =
      exec::ExperimentRunner(4).Run(TelemetrySpec(dir_pooled));
  ASSERT_EQ(inline_rows.size(), 4u);
  ASSERT_EQ(pooled_rows.size(), 4u);
  for (size_t i = 0; i < inline_rows.size(); ++i) {
    EXPECT_EQ(inline_rows[i].key.strategy, pooled_rows[i].key.strategy);
    EXPECT_EQ(inline_rows[i].metrics.apv, pooled_rows[i].metrics.apv);
    EXPECT_EQ(inline_rows[i].metrics.sr_pct, pooled_rows[i].metrics.sr_pct);
    EXPECT_EQ(inline_rows[i].metrics.turnover,
              pooled_rows[i].metrics.turnover);
  }

  // One run log per NEURAL cell (classic cells train nothing), named by
  // the derived seed, with one record per training step.
  std::vector<std::string> errors;
  const std::vector<RunLogSummary> cells =
      SummarizeRunLogDir(dir_pooled, /*window=*/50, &errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(cells.size(), 2u);  // EIIE at two cost rates.
  for (const RunLogSummary& cell : cells) {
    EXPECT_EQ(cell.meta.strategy, "EIIE");
    EXPECT_EQ(cell.meta.steps, 5);
    EXPECT_EQ(cell.steps, 5);
    EXPECT_EQ(cell.final_step.step, 4);
    EXPECT_GT(cell.step_seconds_total, 0.0);
  }
  // The two cells trained at different cost rates.
  EXPECT_NE(cells[0].meta.cost_rate, cells[1].meta.cost_rate);

  // Same spec, same cells: the inline run wrote logs with identical
  // training trajectories (the metrics already matched; check the final
  // rewards recorded in the logs match too).
  const std::vector<RunLogSummary> inline_cells =
      SummarizeRunLogDir(dir_inline, /*window=*/50, &errors);
  ASSERT_EQ(inline_cells.size(), 2u);
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(inline_cells[i].file, cells[i].file);
    EXPECT_EQ(inline_cells[i].final_step.reward_total,
              cells[i].final_step.reward_total);
    EXPECT_EQ(inline_cells[i].final_step.grad_norm,
              cells[i].final_step.grad_norm);
  }

  std::filesystem::remove_all(dir_inline);
  std::filesystem::remove_all(dir_pooled);
}

TEST(RunLogTest, TrainCommandWritesOneLogUnderRunlogDir) {
  SKIP_IF_COMPILED_OUT();
  const std::string dir = FreshPath("runlog_cli");
  const std::string runlog_dir = dir + "/logs";  // Created by the CLI.
  std::filesystem::create_directories(dir);
  const std::string cli_log = dir + "/cli.log";
  ASSERT_EQ(std::system(("PPN_SCALE=smoke PPN_RUNLOG_DIR=" + runlog_dir +
                         " " PPN_CLI_BIN " train --steps 6 --weights " + dir +
                         "/train.weights > " + cli_log + " 2>&1")
                            .c_str()),
            0)
      << ReadFile(cli_log);

  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(runlog_dir)) {
    files.push_back(entry.path().filename().string());
  }
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0], "train-seed1.runlog.jsonl");
  ParsedRunLog parsed;
  std::string error;
  ASSERT_TRUE(ReadRunLog(runlog_dir + "/" + files[0], &parsed, &error))
      << error;
  EXPECT_EQ(parsed.meta.steps, 6);
  ASSERT_EQ(parsed.records.size(), 6u);
  EXPECT_EQ(parsed.records.back().step, 5);

  EXPECT_EQ(std::system((PPN_CLI_BIN " report --dir " + runlog_dir + " >> " +
                         cli_log + " 2>&1")
                            .c_str()),
            0)
      << ReadFile(cli_log);
  std::filesystem::remove_all(dir);
}

TEST(RunLogTest, ReportSummarizesTraceFiles) {
  SKIP_IF_COMPILED_OUT();
  ScopedTraceEnable enable;
  ResetTrace();
  {
    Span outer("t.report.outer");
    Span inner("t.report.inner");
  }
  const std::string path = FreshPath("runlog_trace_report.json");
  ASSERT_TRUE(WriteTraceJson(path));
  std::vector<SpanStat> spans;
  std::string error;
  ASSERT_TRUE(SummarizeTrace(path, &spans, &error)) << error;
  bool saw_outer = false;
  for (const SpanStat& span : spans) {
    if (span.name == "t.report.outer") {
      saw_outer = true;
      EXPECT_EQ(span.count, 1);
      EXPECT_GE(span.max_us, 0.0);
    }
  }
  EXPECT_TRUE(saw_outer);
  const std::string report = RenderReport({}, spans);
  EXPECT_NE(report.find("t.report.outer"), std::string::npos);
  std::remove(path.c_str());
  ResetTrace();
}

TEST(RunLogTest, ReadRunLogRejectsMissingOrMalformedFiles) {
  ParsedRunLog parsed;
  std::string error;
  EXPECT_FALSE(ReadRunLog(::testing::TempDir() + "/does_not_exist.jsonl",
                          &parsed, &error));
  EXPECT_FALSE(error.empty());

  const std::string path = FreshPath("runlog_bad_schema.runlog.jsonl");
  {
    std::ofstream out(path);
    out << "{\"schema\": \"ppn.runlog.v999\"}\n";
  }
  error.clear();
  EXPECT_FALSE(ReadRunLog(path, &parsed, &error));
  EXPECT_NE(error.find("schema"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ppn::obs
