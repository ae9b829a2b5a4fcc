// ppn_cli — command-line front end for the library.
//
//   ppn_cli generate  --dataset crypto-a --out data/run1
//   ppn_cli train     --dataset crypto-a --variant PPN --steps 600
//                     [--gamma 1e-3 --lambda 1e-4 --cost 0.0025
//                      --weights ppn.weights --checkpoint-dir ckpt
//                      --checkpoint-every 50 --resume 1 --adversarial 0.01]
//   ppn_cli backtest  --dataset crypto-a --variant PPN --weights ppn.weights
//   ppn_cli serve     --dataset crypto-a --variant PPN --weights ppn.weights
//                     [--users 1000 --ticks 50 --batch 256
//                      --queue-capacity 4096 --cost 0.0025]
//   ppn_cli baselines --dataset crypto-a
//   ppn_cli help-env
//   ppn_cli sweep     --datasets crypto-a,crypto-b
//                     [--strategies UBAH,EIIE,PPN --costs 0.0025,0.01
//                      --seeds 1,2 --steps 400 --gamma 1e-3 --lambda 1e-4
//                      --workers 4 --json results.json
//                      --checkpoint-dir ckpt --telemetry-dir telemetry
//                      --processes 4 --fabric-dir scratch]
//   ppn_cli report    --dir telemetry [--window 50 --trace trace.json
//                      --merge-trace fabric_dir --out merged.json]
//   ppn_cli top       --dir <fabric_dir|telemetry_dir|stats.jsonl>
//                     [--refresh-ms 250 --iterations 0]
//   ppn_cli stress    --dataset crypto-a
//                     [--packs flash-crash,jump-cluster,corr-break,
//                      liquidity-hole,delisting | all]
//                     [--strategies UBAH,CRP,OLMAR,PPN --cost 0.0025
//                      --seeds 1 --steps 400 --stress-seed 7
//                      --replay bars.csv --replay-name NAME
//                      --train-frac 0.92 --workers 4 --json results.json]
//
// `--dataset` accepts crypto-a/b/c/d and sp500 (generated presets honoring
// PPN_SCALE), or `--data <prefix>` to load a panel saved by `generate`.
//
// `stress` builds the robustness table: every strategy is trained on the
// benign history and evaluated on the unstressed test range, on each
// requested stress pack (see market/stress.h), and — with `--replay` — on
// an external long-format OHLC CSV (columns period,asset,open,high,low,
// close; see market/replay_io.h). Results are bit-identical at any
// `--workers` count.
// `sweep` fans the (strategy × dataset × cost × seed) grid across a worker
// pool (default: PPN_WORKERS or the hardware thread count) with results
// bit-identical at any worker count. `--processes N` switches to the
// multi-process fabric (src/exec/fabric.h): the coordinator re-execs this
// binary as the hidden `sweep-worker` subcommand, one process per slot,
// sends each idle worker its next cell over a private socket and respawns
// workers that die — still bit-identical, including across worker crashes
// (see PPN_FABRIC_* in `help-env`).
//
// Checkpointing: `train --checkpoint-dir` snapshots the full training
// state (parameters, Adam moments, RNG streams, PVM, step counters) every
// `--checkpoint-every` steps (default 50, atomically, newest 3 retained);
// `--resume 1` restores the newest intact snapshot and continues to a
// final policy bit-identical to an uninterrupted run. `sweep
// --checkpoint-dir` checkpoints each finished cell; rerunning the same
// sweep after a kill recomputes only the unfinished cells.
//
// Telemetry: `sweep --telemetry-dir <dir>` enables obs and streams one
// per-step JSONL run log per trained cell into <dir> (schema
// ppn.runlog.v1, see obs/run_log.h); PPN_RUNLOG_DIR=<dir> does the same
// for `sweep` and makes `train` write <dir>/train-seed<seed>.runlog.jsonl;
// `report --dir <dir>` summarizes the logs (final-step reward
// decomposition, turnover trajectory, step timing), and
// `report --trace <file>` lists the slowest spans of a
// Chrome trace captured via PPN_TRACE_JSON=<file> (open the file itself
// in ui.perfetto.dev for the timeline).
//
// Observability plane (see obs/sampler.h, obs/trace_merge.h,
// obs/health.h): PPN_STATS_JSONL=<file> streams periodic ppn.stats.v1
// samples every PPN_SAMPLE_MS from ANY command; `top --dir <target>`
// tails those streams (plus a fabric dir's progress file: queued,
// running, done and failed cells) as an in-place refreshing table. A
// traced multi-process sweep (`sweep --processes N` with PPN_TRACE_JSON)
// stitches coordinator and worker timelines into one Perfetto JSON
// automatically — or on demand via `report --merge-trace <fabric_dir>`.
// PPN_HEALTH=<rules> turns SLO violations into a red end-of-run summary
// and a nonzero exit.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backtest/backtester.h"
#include "ckpt/checkpoint.h"
#include "common/env.h"
#include "common/parse.h"
#include "common/table_printer.h"
#include "exec/experiment.h"
#include "exec/fabric.h"
#include "exec/thread_pool.h"
#include "market/io.h"
#include "market/presets.h"
#include "market/replay_io.h"
#include "market/stress.h"
#include "obs/report.h"
#include "obs/run_log.h"
#include "obs/sampler.h"
#include "obs/stats.h"
#include "obs/trace_merge.h"
#include "ppn/strategy_adapter.h"
#include "ppn/trainer.h"
#include "serve/portfolio_server.h"
#include "strategies/registry.h"

namespace {

using namespace ppn;

/// Parsed --key value pairs.
using Flags = std::map<std::string, std::string>;

Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    if (std::strncmp(key, "--", 2) != 0) {
      std::fprintf(stderr, "expected --flag, got '%s'\n", key);
      std::exit(2);
    }
    flags[key + 2] = argv[i + 1];
  }
  return flags;
}

std::string FlagOr(const Flags& flags, const std::string& key,
                   const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

double NumFlagOr(const Flags& flags, const std::string& key, double fallback) {
  auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  return ParseDoubleOrDie(it->second, "--" + key);
}

bool DatasetIdFromName(const std::string& name, market::DatasetId* id) {
  if (name == "crypto-a") *id = market::DatasetId::kCryptoA;
  else if (name == "crypto-b") *id = market::DatasetId::kCryptoB;
  else if (name == "crypto-c") *id = market::DatasetId::kCryptoC;
  else if (name == "crypto-d") *id = market::DatasetId::kCryptoD;
  else if (name == "sp500") *id = market::DatasetId::kSp500;
  else return false;
  return true;
}

market::MarketDataset ResolveDataset(const Flags& flags) {
  if (flags.count("data") > 0) {
    market::MarketDataset dataset;
    std::string error;
    if (!market::LoadDataset(flags.at("data"), &dataset, &error)) {
      std::fprintf(stderr, "could not load dataset '%s': %s\n",
                   flags.at("data").c_str(), error.c_str());
      std::exit(1);
    }
    return dataset;
  }
  const std::string name = FlagOr(flags, "dataset", "crypto-a");
  market::DatasetId id;
  if (!DatasetIdFromName(name, &id)) {
    std::fprintf(stderr, "unknown dataset '%s'\n", name.c_str());
    std::exit(2);
  }
  return market::MakeDataset(id, GetRunScale());
}

core::PolicyConfig PolicyConfigFor(const Flags& flags,
                                   const market::MarketDataset& dataset) {
  core::PolicyConfig config;
  const std::string variant_name = FlagOr(flags, "variant", "PPN");
  if (!core::VariantFromName(variant_name, &config.variant)) {
    std::fprintf(stderr, "unknown variant '%s'\n", variant_name.c_str());
    std::exit(2);
  }
  config.num_assets = dataset.panel.num_assets();
  config.window = static_cast<int64_t>(NumFlagOr(flags, "window", 30));
  config.dropout = static_cast<float>(NumFlagOr(flags, "dropout", 0.1));
  config.seed = static_cast<uint64_t>(NumFlagOr(flags, "seed", 1));
  return config;
}

void PrintMetrics(const std::string& label, const backtest::Metrics& m) {
  std::printf(
      "%-14s APV=%.4f  SR=%.2f%%  STD=%.2f%%  CR=%.2f  MDD=%.1f%%  TO=%.4f\n",
      label.c_str(), m.apv, m.sr_pct, m.std_pct, m.cr, m.mdd_pct, m.turnover);
}

int CmdGenerate(const Flags& flags) {
  const market::MarketDataset dataset = ResolveDataset(flags);
  const std::string out = FlagOr(flags, "out", "dataset");
  if (!market::SaveDataset(dataset, out)) {
    std::fprintf(stderr, "failed writing '%s'\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s.meta.csv and %s.prices.csv (%lld periods x %lld assets)\n",
              out.c_str(), out.c_str(),
              static_cast<long long>(dataset.panel.num_periods()),
              static_cast<long long>(dataset.panel.num_assets()));
  return 0;
}

int CmdTrain(const Flags& flags) {
  const market::MarketDataset dataset = ResolveDataset(flags);
  const core::PolicyConfig policy_config = PolicyConfigFor(flags, dataset);
  Rng init(policy_config.seed * 7 + 1);
  Rng dropout(policy_config.seed * 7 + 2);
  auto policy = core::MakePolicy(policy_config, &init, &dropout);
  std::printf("training %s on %s (%lld params)\n",
              core::VariantName(policy_config.variant).c_str(),
              dataset.name.c_str(),
              static_cast<long long>(policy->ParameterCount()));
  core::TrainerConfig trainer_config;
  trainer_config.steps = static_cast<int64_t>(NumFlagOr(flags, "steps", 600));
  trainer_config.batch_size =
      static_cast<int64_t>(NumFlagOr(flags, "batch", 16));
  trainer_config.learning_rate =
      static_cast<float>(NumFlagOr(flags, "lr", 3e-3));
  trainer_config.weight_decay =
      static_cast<float>(NumFlagOr(flags, "weight-decay", 1e-3));
  trainer_config.seed = policy_config.seed;
  trainer_config.adversarial_epsilon = NumFlagOr(flags, "adversarial", 0.0);
  trainer_config.reward.gamma = NumFlagOr(flags, "gamma", 1e-3);
  trainer_config.reward.lambda = NumFlagOr(flags, "lambda", 1e-4);
  trainer_config.reward.cost_rate = NumFlagOr(flags, "cost", 0.0025);
  core::PolicyGradientTrainer trainer(policy.get(), dataset, trainer_config);

  const std::string checkpoint_dir = FlagOr(flags, "checkpoint-dir", "");
  const int64_t checkpoint_every =
      static_cast<int64_t>(NumFlagOr(flags, "checkpoint-every", 50));
  const bool resume = NumFlagOr(flags, "resume", 0) != 0;
  if (resume && checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume 1 requires --checkpoint-dir\n");
    return 2;
  }
  std::unique_ptr<ckpt::Checkpointer> checkpointer;
  if (!checkpoint_dir.empty()) {
    if (checkpoint_every <= 0) {
      std::fprintf(stderr, "--checkpoint-every must be > 0\n");
      return 2;
    }
    checkpointer = std::make_unique<ckpt::Checkpointer>(
        ckpt::Checkpointer::Options{checkpoint_dir, /*retain=*/3});
  }
  if (resume) {
    int64_t restored_step = 0;
    std::string error;
    if (checkpointer->RestoreLatest(
            [&](ckpt::CheckpointReader* reader, std::string* load_error) {
              return trainer.LoadState(reader, &dropout, load_error);
            },
            &restored_step, &error)) {
      std::printf("resumed from step %lld\n",
                  static_cast<long long>(restored_step));
    } else if (error.rfind("no snapshots", 0) != 0) {
      // An empty directory is a normal first run; anything else is fatal.
      std::fprintf(stderr, "resume failed: %s\n", error.c_str());
      return 1;
    }
  }

  // PPN_RUNLOG_DIR (which also turns obs on) records every step's reward
  // breakdown, as it does for each trained sweep cell.
  std::unique_ptr<obs::RunLog> run_log;
  const std::string runlog_dir = env::StringOr("PPN_RUNLOG_DIR", "");
  if (!runlog_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(runlog_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create run-log dir %s: %s\n",
                   runlog_dir.c_str(), ec.message().c_str());
      return 1;
    }
    obs::RunLogMeta meta;
    meta.run_id = "train-seed" + std::to_string(trainer_config.seed);
    meta.strategy = core::VariantName(policy_config.variant);
    meta.dataset = dataset.name;
    meta.gamma = trainer_config.reward.gamma;
    meta.lambda = trainer_config.reward.lambda;
    meta.cost_rate = trainer_config.reward.cost_rate;
    meta.seed = static_cast<int64_t>(trainer_config.seed);
    meta.steps = trainer_config.steps;
    run_log = obs::RunLog::Open(runlog_dir + "/" + meta.run_id +
                                    ".runlog.jsonl",
                                meta);
    if (run_log != nullptr) trainer.AttachRunLog(run_log.get());
  }

  double tail;
  if (checkpointer != nullptr) {
    while (trainer.steps_done() < trainer_config.steps) {
      trainer.TrainStep();
      if (trainer.steps_done() % checkpoint_every == 0 ||
          trainer.steps_done() == trainer_config.steps) {
        std::string error;
        if (!checkpointer->WriteSnapshot(
                trainer.steps_done(),
                [&](ckpt::CheckpointWriter* writer) {
                  trainer.SaveState(writer, &dropout);
                },
                &error)) {
          std::fprintf(stderr, "checkpoint write failed: %s\n", error.c_str());
          return 1;
        }
      }
    }
    tail = trainer.tail_mean();
  } else {
    tail = trainer.Train();
  }
  std::printf("tail mean reward: %.6f\n", tail);
  if (run_log != nullptr && !run_log->Close()) {
    std::fprintf(stderr, "warning: failed writing run log '%s'\n",
                 run_log->path().c_str());
  }
  const std::string weights = FlagOr(flags, "weights", "policy.weights");
  if (!policy->SaveParameters(weights)) {
    std::fprintf(stderr, "failed writing weights '%s'\n", weights.c_str());
    return 1;
  }
  std::printf("weights saved to %s\n", weights.c_str());
  // Immediate test-range evaluation for convenience.
  core::PolicyStrategy strategy(policy.get(),
                                core::VariantName(policy_config.variant));
  PrintMetrics("test range",
               backtest::ComputeMetrics(backtest::RunOnTestRange(
                   &strategy, dataset, trainer_config.reward.cost_rate)));
  return 0;
}

/// Builds the `config` policy and loads `--weights` into it; null, after
/// saying why, when the file does not fit. `dropout` must outlive it.
std::unique_ptr<core::PolicyModule> LoadPolicy(const Flags& flags,
                                               const core::PolicyConfig& config,
                                               Rng* dropout) {
  Rng init(1);
  auto policy = core::MakePolicy(config, &init, dropout);
  const std::string weights = FlagOr(flags, "weights", "policy.weights");
  if (!policy->LoadParameters(weights)) {
    std::fprintf(stderr,
                 "failed loading weights '%s' (train first, and use the "
                 "same --variant/--window)\n",
                 weights.c_str());
    return nullptr;
  }
  return policy;
}

int CmdBacktest(const Flags& flags) {
  const market::MarketDataset dataset = ResolveDataset(flags);
  const core::PolicyConfig policy_config = PolicyConfigFor(flags, dataset);
  Rng dropout(2);
  const auto policy = LoadPolicy(flags, policy_config, &dropout);
  if (policy == nullptr) return 1;
  core::PolicyStrategy strategy(policy.get(),
                                core::VariantName(policy_config.variant));
  PrintMetrics(core::VariantName(policy_config.variant),
               backtest::ComputeMetrics(backtest::RunOnTestRange(
                   &strategy, dataset, NumFlagOr(flags, "cost", 0.0025))));
  return 0;
}

/// Exact percentile of a sorted latency vector (the obs histogram's
/// log2-bucketed estimate is fine for dashboards; the CLI keeps the raw
/// samples so the reported p50/p95/p99 are exact).
double ExactPercentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

int CmdServe(const Flags& flags) {
  const market::MarketDataset dataset = ResolveDataset(flags);
  const core::PolicyConfig policy_config = PolicyConfigFor(flags, dataset);
  Rng dropout(2);
  const auto policy = LoadPolicy(flags, policy_config, &dropout);
  if (policy == nullptr) return 1;

  serve::ServerConfig config;
  config.max_batch = static_cast<int64_t>(NumFlagOr(flags, "batch", 256));
  config.queue_capacity =
      static_cast<int64_t>(NumFlagOr(flags, "queue-capacity", 4096));
  config.costs =
      backtest::CostModel::Uniform(NumFlagOr(flags, "cost", 0.0025));
  serve::PortfolioServer server(&dataset.panel, policy.get(), config);

  // Users start on the test range (never earlier than one full lookback
  // window) and advance tick-by-tick until the feed runs out.
  const int64_t num_users =
      static_cast<int64_t>(NumFlagOr(flags, "users", 1000));
  const int64_t first =
      std::max<int64_t>(policy_config.window, dataset.train_end);
  int64_t ticks = static_cast<int64_t>(NumFlagOr(flags, "ticks", 50));
  const int64_t available = dataset.panel.num_periods() - first;
  if (ticks > available) {
    std::fprintf(stderr, "clamping --ticks %lld to the %lld feed periods\n",
                 static_cast<long long>(ticks),
                 static_cast<long long>(available));
    ticks = available;
  }
  if (num_users <= 0 || ticks <= 0) {
    std::fprintf(stderr, "serve needs --users > 0 and --ticks > 0\n");
    return 2;
  }
  for (int64_t u = 0; u < num_users; ++u) server.AddUser(first);

  const auto begin = std::chrono::steady_clock::now();
  for (int64_t tick = 0; tick < ticks; ++tick) {
    for (int64_t u = 0; u < num_users; ++u) {
      if (!server.TrySubmitTick(u)) {
        // Admission control rejected: drain the backlog, then lean on the
        // blocking path (backpressure) for this request.
        server.DrainPending();
        server.SubmitTick(u);
      }
    }
    server.DrainPending();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();

  std::vector<double> latencies = server.latency_seconds();
  std::sort(latencies.begin(), latencies.end());
  double wealth_min = 1e300, wealth_max = -1e300, wealth_sum = 0.0;
  for (int64_t u = 0; u < num_users; ++u) {
    const double w = server.user(u).wealth;
    wealth_min = std::min(wealth_min, w);
    wealth_max = std::max(wealth_max, w);
    wealth_sum += w;
  }
  std::printf("served %lld users x %lld ticks = %lld decisions in %.3f s\n",
              static_cast<long long>(num_users),
              static_cast<long long>(ticks),
              static_cast<long long>(server.decisions()), elapsed);
  std::printf("throughput: %.0f decisions/s (batch<=%lld)\n",
              static_cast<double>(server.decisions()) / elapsed,
              static_cast<long long>(config.max_batch));
  std::printf("decision latency: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms\n",
              1e3 * ExactPercentile(latencies, 0.50),
              1e3 * ExactPercentile(latencies, 0.95),
              1e3 * ExactPercentile(latencies, 0.99));
  if (env::HasValue("PPN_STATS_JSONL")) {
    std::printf("rolling p50/p95/p99 sampled every %lld ms -> %s "
                "(watch live with `ppn_cli top --dir <that file>`)\n",
                static_cast<long long>(env::Int64Or("PPN_SAMPLE_MS", 250)),
                env::StringOr("PPN_STATS_JSONL", "").c_str());
  }
  std::printf("final wealth: mean %.4f, min %.4f, max %.4f\n",
              wealth_sum / static_cast<double>(num_users), wealth_min,
              wealth_max);
  return 0;
}

int CmdHelpEnv() {
  std::printf("environment knobs (all PPN_* reads go through common/env):\n");
  size_t name_width = 0, kind_width = 0, fallback_width = 0;
  for (const env::VarInfo& info : env::Registry()) {
    name_width = std::max(name_width, std::strlen(info.name));
    kind_width = std::max(kind_width, std::strlen(info.kind));
    fallback_width = std::max(fallback_width, std::strlen(info.fallback));
  }
  for (const env::VarInfo& info : env::Registry()) {
    std::printf("  %-*s  %-*s  default: %-*s  %s\n",
                static_cast<int>(name_width), info.name,
                static_cast<int>(kind_width), info.kind,
                static_cast<int>(fallback_width), info.fallback,
                info.description);
  }
  return 0;
}

int CmdBaselines(const Flags& flags) {
  const market::MarketDataset dataset = ResolveDataset(flags);
  const double cost = NumFlagOr(flags, "cost", 0.0025);
  TablePrinter printer({"Algos", "APV", "SR(%)", "CR", "MDD(%)", "TO"});
  for (const std::string& name : strategies::ClassicBaselineNames()) {
    auto strategy = strategies::MakeStrategy({.name = name}, dataset);
    const backtest::Metrics m = backtest::ComputeMetrics(
        backtest::RunOnTestRange(strategy.get(), dataset, cost));
    printer.AddRow(name, {m.apv, m.sr_pct, m.cr, m.mdd_pct, m.turnover}, 3);
  }
  std::printf("%s (test range, cost %.4f)\n%s\n", dataset.name.c_str(), cost,
              printer.ToString().c_str());
  return 0;
}

std::vector<std::string> SplitCsvList(const std::string& text) {
  std::vector<std::string> parts;
  std::string current;
  for (const char c : text) {
    if (c == ',') {
      if (!current.empty()) parts.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) parts.push_back(current);
  return parts;
}

/// One spec per strategy name, with `--gamma`, `--lambda` and `--steps`
/// applied.
std::vector<strategies::StrategySpec> StrategySpecsFor(
    const Flags& flags, const std::vector<std::string>& names) {
  std::vector<strategies::StrategySpec> specs;
  for (const std::string& name : names) {
    strategies::StrategySpec strategy{.name = name};
    strategy.gamma = NumFlagOr(flags, "gamma", strategy.gamma);
    strategy.lambda = NumFlagOr(flags, "lambda", strategy.lambda);
    strategy.base_steps =
        static_cast<int64_t>(NumFlagOr(flags, "steps", strategy.base_steps));
    specs.push_back(strategy);
  }
  return specs;
}

/// Replaces `*seeds` with `--seeds` when given; false (exit 2) on a
/// negative entry.
bool SeedsFromFlags(const Flags& flags, std::vector<uint64_t>* seeds) {
  if (flags.count("seeds") == 0) return true;
  seeds->clear();
  for (const std::string& seed : SplitCsvList(flags.at("seeds"))) {
    const int64_t value = ParseInt64OrDie(seed, "--seeds");
    if (value < 0) {
      std::fprintf(stderr, "ppn: --seeds entries must be >= 0, got %s\n",
                   seed.c_str());
      return false;
    }
    seeds->push_back(static_cast<uint64_t>(value));
  }
  return true;
}

/// Writes `rows` to `--json` when given; the exit code.
int WriteJsonFlag(const Flags& flags,
                  const std::vector<exec::CellResult>& rows) {
  if (flags.count("json") == 0) return 0;
  const std::string path = flags.at("json");
  if (!exec::WriteResultsJson(path, rows)) {
    std::fprintf(stderr, "failed writing '%s'\n", path.c_str());
    return 1;
  }
  std::printf("results written to %s\n", path.c_str());
  return 0;
}

/// Builds the sweep `ExperimentSpec` from the shared sweep flags
/// (--datasets/--strategies/--costs/--seeds/--gamma/--lambda/--steps/
/// --checkpoint-dir/--telemetry-dir). Used by `sweep` (coordinator or
/// in-process) AND by the hidden `sweep-worker` subcommand — both sides of
/// the fabric MUST derive the spec from the same flags, or the worker's
/// seed validation rejects every task. Returns 0 on success, else the
/// process exit code.
int BuildSweepSpec(const Flags& flags, exec::ExperimentSpec* spec) {
  spec->title = "sweep";
  spec->scale = GetRunScale();
  const std::string datasets_flag =
      FlagOr(flags, "datasets", FlagOr(flags, "dataset", "crypto-a"));
  for (const std::string& name : SplitCsvList(datasets_flag)) {
    market::DatasetId id;
    if (!DatasetIdFromName(name, &id)) {
      std::fprintf(stderr, "unknown dataset '%s'\n", name.c_str());
      return 2;
    }
    spec->datasets.push_back(id);
  }
  // Absent --strategies sweeps the whole registry; an explicitly empty
  // value is almost certainly a scripting mistake, not a request for the
  // full (expensive) roster.
  std::vector<std::string> names;
  if (flags.count("strategies") == 0) {
    names = strategies::AllStrategyNames();
  } else {
    names = SplitCsvList(flags.at("strategies"));
    if (names.empty()) {
      std::fprintf(stderr,
                   "--strategies is empty; omit the flag to sweep every "
                   "registered strategy\n");
      return 2;
    }
  }
  spec->strategies = StrategySpecsFor(flags, names);
  if (flags.count("costs") > 0) {
    spec->cost_rates.clear();
    for (const std::string& rate : SplitCsvList(flags.at("costs"))) {
      spec->cost_rates.push_back(ParseDoubleOrDie(rate, "--costs"));
    }
  }
  if (!SeedsFromFlags(flags, &spec->seeds)) return 2;

  spec->checkpoint_dir = FlagOr(flags, "checkpoint-dir", "");
  spec->telemetry_dir = FlagOr(flags, "telemetry-dir", "");
  if (spec->telemetry_dir.empty()) {
    // Env-var spelling, for parity with the bench binaries.
    spec->telemetry_dir = env::StringOr("PPN_RUNLOG_DIR", "");
  }
  // Asking for run logs implies turning the obs layer on (RunLog::Open is
  // gated on obs::Enabled(), like every other sink).
  if (!spec->telemetry_dir.empty()) obs::SetEnabled(true);
  return 0;
}

/// Hidden subcommand: one fabric worker process. Spawned by
/// `sweep --processes N`; not part of the public CLI surface.
int CmdSweepWorker(const Flags& flags) {
  exec::ExperimentSpec spec;
  const int status = BuildSweepSpec(flags, &spec);
  if (status != 0) return status;
  const std::string fabric_dir = FlagOr(flags, "fabric-dir", "");
  if (fabric_dir.empty()) {
    std::fprintf(stderr, "sweep-worker needs --fabric-dir\n");
    return 2;
  }
  return exec::FabricWorkerMain(
      spec, fabric_dir,
      static_cast<int>(NumFlagOr(flags, "worker-slot", 0)),
      static_cast<int>(NumFlagOr(flags, "worker-gen", 0)));
}

int CmdSweep(const Flags& flags) {
  exec::ExperimentSpec spec;
  const int build_status = BuildSweepSpec(flags, &spec);
  if (build_status != 0) return build_status;

  const bool many_costs = spec.cost_rates.size() > 1;
  const bool many_seeds = spec.seeds.size() > 1;
  const int processes = static_cast<int>(NumFlagOr(flags, "processes", 0));
  std::vector<exec::CellResult> rows;
  int64_t ckpt_write_failures = 0;
  if (processes > 0) {
    // Multi-process fabric: re-exec this binary as `sweep-worker`,
    // forwarding exactly the spec-building flags (anything else —
    // --processes, --json, --workers, --fabric-dir — is coordinator-only).
    exec::FabricOptions options;
    options.num_processes = processes;
    options.fabric_dir = FlagOr(flags, "fabric-dir", "");
    if (options.fabric_dir.empty()) {
      options.fabric_dir =
          (std::filesystem::temp_directory_path() /
           ("ppn-fabric-" + std::to_string(::getpid())))
              .string();
    } else {
      options.keep_fabric_dir = true;  // User-chosen scratch: leave it.
    }
    std::error_code self_error;
    const std::string self =
        std::filesystem::canonical("/proc/self/exe", self_error).string();
    if (self_error) {
      std::fprintf(stderr, "cannot resolve own binary path: %s\n",
                   self_error.message().c_str());
      return 1;
    }
    options.worker_argv = {self, "sweep-worker"};
    for (const auto& [key, value] : flags) {
      if (key == "processes" || key == "fabric-dir" || key == "json" ||
          key == "workers") {
        continue;
      }
      options.worker_argv.push_back("--" + key);
      options.worker_argv.push_back(value);
    }
    std::printf("sweep: %zu cells across %d worker processes\n\n",
                spec.datasets.size() * spec.strategies.size() *
                    spec.cost_rates.size() * spec.seeds.size(),
                processes);
    exec::FabricStats stats;
    rows = exec::RunSweepFabric(spec, options, &stats);
    ckpt_write_failures = stats.ckpt_write_failures;
    std::printf("fabric: %lld workers spawned (%lld died, %lld restarted), "
                "%lld re-dispatched, %lld restored, "
                "%lld profile merges failed\n\n",
                static_cast<long long>(stats.workers_spawned),
                static_cast<long long>(stats.workers_died),
                static_cast<long long>(stats.workers_restarted),
                static_cast<long long>(stats.cells_redispatched),
                static_cast<long long>(stats.cells_restored),
                static_cast<long long>(stats.profile_merge_failed));
    if (stats.profile_merge_failed > 0) {
      std::fprintf(stderr,
                   "WARNING: %lld worker profile(s) could not be merged — "
                   "results are complete, but the aggregated obs counters "
                   "undercount that worker's activity\n",
                   static_cast<long long>(stats.profile_merge_failed));
    }
  } else {
    const int workers = static_cast<int>(NumFlagOr(flags, "workers", -1.0));
    const exec::ExperimentRunner runner(
        workers >= 0 ? workers : exec::DefaultWorkerCount());
    std::printf("sweep: %zu cells across %d workers\n\n",
                spec.datasets.size() * spec.strategies.size() *
                    spec.cost_rates.size() * spec.seeds.size(),
                runner.num_workers());
    exec::RunStats stats;
    rows = runner.Run(spec, &stats);
    ckpt_write_failures = stats.ckpt_write_failures;
  }
  if (ckpt_write_failures > 0) {
    std::fprintf(stderr,
                 "WARNING: %lld cell checkpoint write(s) FAILED — results "
                 "are complete in this output, but a rerun will recompute "
                 "those cells (disk full? permissions?)\n",
                 static_cast<long long>(ckpt_write_failures));
  }

  for (const market::DatasetId id : spec.datasets) {
    const std::string dataset_name = market::DatasetName(id);
    std::vector<std::pair<std::string, const exec::CellResult*>> table_rows;
    for (const exec::CellResult& row : rows) {
      if (row.key.dataset != dataset_name) continue;
      std::string label = row.key.strategy;
      if (many_costs) {
        label += " c=" + TablePrinter::FormatCell(row.key.cost_rate, 4);
      }
      if (many_seeds) label += " s" + std::to_string(row.key.seed);
      table_rows.emplace_back(std::move(label), &row);
    }
    const TablePrinter printer = exec::MakeMetricsTable(
        "Algos", table_rows,
        {"APV", "SR(%)", "STD(%)", "MDD(%)", "CR", "TO"});
    std::printf("--- %s ---\n%s\n", dataset_name.c_str(),
                printer.ToString().c_str());
  }
  return WriteJsonFlag(flags, rows);
}

int CmdStress(const Flags& flags) {
  market::MarketDataset base = ResolveDataset(flags);

  std::vector<market::StressPack> packs;
  const std::string packs_flag = FlagOr(flags, "packs", "all");
  if (packs_flag == "all") {
    packs = market::AllStressPacks();
  } else {
    for (const std::string& name : SplitCsvList(packs_flag)) {
      market::StressPack pack;
      if (!market::StressPackFromName(name, &pack)) {
        std::fprintf(stderr, "unknown stress pack '%s' (known:", name.c_str());
        for (const market::StressPack known : market::AllStressPacks()) {
          std::fprintf(stderr, " %s", market::StressPackName(known).c_str());
        }
        std::fprintf(stderr, ")\n");
        return 2;
      }
      packs.push_back(pack);
    }
  }
  const uint64_t stress_seed =
      static_cast<uint64_t>(NumFlagOr(flags, "stress-seed", 7));

  // The dataset axis: the unstressed base first (the reference row of the
  // robustness table), one variant per pack, then the optional replay.
  exec::ExperimentSpec spec;
  spec.title = "stress";
  spec.scale = GetRunScale();
  std::vector<std::string> variant_labels;
  spec.custom_datasets.push_back({base, {}});
  variant_labels.push_back("base");
  for (const market::StressPack pack : packs) {
    market::StressedDataset stressed =
        market::ApplyStressPack(base, pack, stress_seed);
    spec.custom_datasets.push_back({std::move(stressed.dataset),
                                    std::move(stressed.cost_multipliers)});
    variant_labels.push_back(market::StressPackName(pack));
  }
  if (flags.count("replay") > 0) {
    market::ReplayCsvOptions options;
    options.name = FlagOr(flags, "replay-name", "");
    options.train_fraction = NumFlagOr(flags, "train-frac", 0.92);
    market::MarketDataset replay;
    std::string error;
    if (!market::LoadReplayCsv(flags.at("replay"), options, &replay, &error)) {
      std::fprintf(stderr, "replay load failed: %s\n", error.c_str());
      return 1;
    }
    spec.custom_datasets.push_back({std::move(replay), {}});
    variant_labels.push_back("replay");
  }

  // Three classic baselines plus the paper's policy by default: enough to
  // see whether the learned strategy degrades gracefully where the
  // cost-blind baselines crater.
  spec.strategies = StrategySpecsFor(
      flags, SplitCsvList(FlagOr(flags, "strategies", "UBAH,CRP,OLMAR,PPN")));
  if (spec.strategies.empty()) {
    std::fprintf(stderr, "--strategies is empty\n");
    return 2;
  }
  spec.cost_rates = {NumFlagOr(flags, "cost", 0.0025)};
  if (!SeedsFromFlags(flags, &spec.seeds)) return 2;

  const int workers = static_cast<int>(NumFlagOr(flags, "workers", -1.0));
  const exec::ExperimentRunner runner(
      workers >= 0 ? workers : exec::DefaultWorkerCount());
  std::printf("stress: %zu strategies x %zu market variants across %d "
              "workers (stress seed %llu)\n\n",
              spec.strategies.size(), spec.custom_datasets.size(),
              runner.num_workers(),
              static_cast<unsigned long long>(stress_seed));
  const std::vector<exec::CellResult> rows = runner.Run(spec);

  // Per-variant detail tables.
  const bool many_seeds = spec.seeds.size() > 1;
  for (size_t v = 0; v < spec.custom_datasets.size(); ++v) {
    const std::string& dataset_name = spec.custom_datasets[v].dataset.name;
    std::vector<std::pair<std::string, const exec::CellResult*>> table_rows;
    for (const exec::CellResult& row : rows) {
      if (row.key.dataset != dataset_name) continue;
      std::string label = row.key.strategy;
      if (many_seeds) label += " s" + std::to_string(row.key.seed);
      table_rows.emplace_back(std::move(label), &row);
    }
    const TablePrinter printer = exec::MakeMetricsTable(
        "Algos", table_rows, {"APV", "SR(%)", "CR", "MDD(%)"});
    std::printf("--- %s [%s] ---\n%s\n", dataset_name.c_str(),
                variant_labels[v].c_str(), printer.ToString().c_str());
  }

  // The robustness matrix: APV of each strategy under each market variant
  // (seed-averaged), the one-glance answer to "who survives the tails".
  std::vector<std::string> header = {"APV"};
  header.insert(header.end(), variant_labels.begin(), variant_labels.end());
  TablePrinter matrix(std::move(header));
  for (const strategies::StrategySpec& strategy : spec.strategies) {
    std::vector<double> cells;
    for (const exec::CustomDataset& variant : spec.custom_datasets) {
      double sum = 0.0;
      int64_t count = 0;
      for (const exec::CellResult& row : rows) {
        if (row.key.strategy != strategy.display() ||
            row.key.dataset != variant.dataset.name) {
          continue;
        }
        sum += row.metrics.apv;
        ++count;
      }
      cells.push_back(count > 0 ? sum / static_cast<double>(count) : 0.0);
    }
    matrix.AddRow(strategy.display(), cells, 3);
  }
  std::printf("--- robustness (APV%s) ---\n%s\n",
              many_seeds ? ", seed mean" : "", matrix.ToString().c_str());

  return WriteJsonFlag(flags, rows);
}

int CmdReport(const Flags& flags) {
  const std::string dir = FlagOr(flags, "dir", "");
  const std::string trace = FlagOr(flags, "trace", "");
  const std::string merge_dir = FlagOr(flags, "merge-trace", "");
  if (!merge_dir.empty()) {
    const std::string out = FlagOr(
        flags, "out",
        (std::filesystem::path(merge_dir) / "obs" / "merged.trace.json")
            .string());
    obs::TraceMergeStats stats;
    std::string error;
    if (!obs::MergeFabricTraces(merge_dir, out, &error, &stats)) {
      std::fprintf(stderr, "trace merge failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("merged trace: %d processes, %lld events, %lld cross-process "
                "flow pairs -> %s (open in ui.perfetto.dev)\n",
                stats.processes, static_cast<long long>(stats.events),
                static_cast<long long>(stats.flow_pairs), out.c_str());
    if (stats.skipped_files > 0) {
      std::fprintf(stderr, "warning: %d unreadable trace file(s) skipped\n",
                   stats.skipped_files);
    }
    if (dir.empty() && trace.empty()) return 0;
  }
  if (dir.empty() && trace.empty()) {
    std::fprintf(stderr,
                 "report needs --dir <telemetry-dir>, --trace <trace.json>, "
                 "and/or --merge-trace <fabric_dir>\n");
    return 2;
  }
  const int64_t window =
      static_cast<int64_t>(NumFlagOr(flags, "window", 50));
  std::vector<obs::RunLogSummary> cells;
  if (!dir.empty()) {
    std::vector<std::string> errors;
    cells = obs::SummarizeRunLogDir(dir, window, &errors);
    for (const std::string& error : errors) {
      std::fprintf(stderr, "warning: %s\n", error.c_str());
    }
    if (cells.empty()) {
      std::fprintf(stderr, "no readable *.runlog.jsonl files in %s\n",
                   dir.c_str());
      return 1;
    }
  }
  std::vector<obs::SpanStat> spans;
  if (!trace.empty()) {
    std::string error;
    if (!obs::SummarizeTrace(trace, &spans, &error)) {
      std::fprintf(stderr, "cannot summarize trace %s: %s\n", trace.c_str(),
                   error.c_str());
      return 1;
    }
  }
  std::printf("%s", obs::RenderReport(cells, spans).c_str());
  return 0;
}

/// Collects the `ppn.stats.v1` stream paths a `top --dir` target holds: a
/// stream file itself, a directory of streams, or a fabric scratch dir
/// (whose per-worker streams live under obs/).
std::vector<std::string> CollectStatsStreams(const std::string& target) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::is_regular_file(target, ec)) return {target};
  std::vector<std::string> paths = obs::FindStatsStreams(target);
  for (std::string& path :
       obs::FindStatsStreams((fs::path(target) / "obs").string())) {
    paths.push_back(std::move(path));
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// One refresh of the live monitor: parses every stream and renders a
/// per-process table plus (for fabric dirs) the coordinator's cell counts.
std::string RenderTopFrame(const std::string& target) {
  std::string out;
  const std::vector<std::string> streams = CollectStatsStreams(target);
  TablePrinter table({"process", "up(s)", "dec/s", "feat/dec", "p99(ms)",
                      "cells", "nonconv%", "hlth_fail"});
  for (const std::string& path : streams) {
    obs::StatsStream stream;
    if (!obs::ReadStatsStream(path, &stream)) continue;
    double decisions_per_s = 0.0;
    double features_per_decision = 0.0;
    double p99_ms = 0.0;
    double cells = 0.0;
    double solver_calls = 0.0;
    double solver_nonconv = 0.0;
    double up_s = 0.0;
    double health_fail = 0.0;
    for (const obs::StatsSample& sample : stream.samples) {
      for (const auto& [name, delta] : sample.counters) {
        if (name == "exec.cells.completed" || name == "exec.cells.restored") {
          cells += delta;
        } else if (name == "backtest.solver.calls") {
          solver_calls += delta;
        } else if (name == "backtest.solver.nonconverged") {
          solver_nonconv += delta;
        }
      }
      health_fail += sample.health_failed;
      up_s = sample.t_ms / 1e3;
    }
    if (!stream.samples.empty()) {
      const obs::StatsSample& last = stream.samples.back();
      if (last.window_ms > 0.0) {
        auto it = last.counters.find("serve.decisions");
        if (it != last.counters.end()) {
          decisions_per_s = it->second / (last.window_ms / 1e3);
          // Feature rows are computed once per distinct period per batch.
          auto rows = last.counters.find("serve.features.rows");
          if (rows != last.counters.end() && it->second > 0.0) {
            features_per_decision = rows->second / it->second;
          }
        }
      }
      for (const char* hist :
           {"serve.decide.latency.seconds", "exec.cell.seconds"}) {
        auto it = last.hists.find(hist);
        if (it != last.hists.end()) {
          p99_ms = it->second.p99 * 1e3;
          break;
        }
      }
    }
    const double nonconv_pct =
        solver_calls > 0.0 ? 100.0 * solver_nonconv / solver_calls : 0.0;
    table.AddRow(stream.process.empty() ? path : stream.process,
                 {up_s, decisions_per_s, features_per_decision, p99_ms,
                  cells, nonconv_pct, health_fail},
                 2);
  }
  if (streams.empty()) {
    out += "no *.stats.jsonl streams under " + target +
           " (set PPN_STATS_JSONL on the run you want to watch)\n";
  } else {
    out += table.ToString();
  }

  // A fabric scratch dir also holds the coordinator's progress file, live
  // even between sample windows.
  exec::FabricQueueCounts fabric;
  if (exec::CountFabricQueue(target, &fabric)) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "fabric: %lld done, %lld running, %lld queued, %lld "
                  "failed\n",
                  static_cast<long long>(fabric.done),
                  static_cast<long long>(fabric.running),
                  static_cast<long long>(fabric.queued),
                  static_cast<long long>(fabric.failed));
    out += line;
  }
  return out;
}

int CmdTop(const Flags& flags) {
  const std::string target = FlagOr(flags, "dir", "");
  if (target.empty()) {
    std::fprintf(stderr,
                 "top needs --dir <fabric_dir|telemetry_dir|stats.jsonl> "
                 "[--refresh-ms N] [--iterations N]\n");
    return 2;
  }
  const int64_t sample_ms = env::Int64Or("PPN_SAMPLE_MS", 250);
  const int64_t refresh_ms = static_cast<int64_t>(NumFlagOr(
      flags, "refresh-ms",
      static_cast<double>(std::max<int64_t>(250, sample_ms))));
  // 0 = watch until interrupted; tests and scripts pass a finite count.
  const int64_t iterations =
      static_cast<int64_t>(NumFlagOr(flags, "iterations", 0));
  const bool interactive = ::isatty(1) != 0 && iterations != 1;
  for (int64_t frame = 0; iterations <= 0 || frame < iterations; ++frame) {
    const std::string rendered = RenderTopFrame(target);
    if (interactive) std::printf("\x1b[2J\x1b[H");
    std::printf("ppn top — %s (refresh %lldms)\n%s", target.c_str(),
                static_cast<long long>(refresh_ms), rendered.c_str());
    std::fflush(stdout);
    if (iterations > 0 && frame + 1 >= iterations) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(refresh_ms));
  }
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: ppn_cli <generate|train|backtest|serve|baselines|"
               "sweep|stress|report|top|help-env> [--flag value ...]\n"
               "see the header comment of tools/ppn_cli.cc for details\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  const Flags flags = ParseFlags(argc, argv, 2);
  // Periodic sampler (PPN_STATS_JSONL): covers the whole command — serve
  // ticks, trainer steps, fabric workers (each re-exec'd `sweep-worker`
  // reaches this same line with a per-worker redirected path).
  std::unique_ptr<ppn::obs::StatsSampler> sampler =
      ppn::obs::StartSamplerFromEnv(command);
  int status = 2;
  if (command == "generate") status = CmdGenerate(flags);
  else if (command == "train") status = CmdTrain(flags);
  else if (command == "backtest") status = CmdBacktest(flags);
  else if (command == "serve") status = CmdServe(flags);
  else if (command == "baselines") status = CmdBaselines(flags);
  else if (command == "sweep") status = CmdSweep(flags);
  else if (command == "sweep-worker") status = CmdSweepWorker(flags);
  else if (command == "stress") status = CmdStress(flags);
  else if (command == "report") status = CmdReport(flags);
  else if (command == "top") status = CmdTop(flags);
  else if (command == "help-env") status = CmdHelpEnv();
  else Usage();
  // SLO gate: a violated PPN_HEALTH rule makes an otherwise-clean run
  // exit nonzero (consumed by run_benches.sh and CI).
  const int health_status = ppn::obs::FinishRunTelemetry(sampler.get());
  if (status == 0 && health_status != 0) status = health_status;
  return status;
}
