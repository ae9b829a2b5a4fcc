// Workloads `serve_lockstep` and `serve_staggered`: one `PortfolioServer`
// at the paper's shape with U users, U several times `max_batch`, driven
// in closed-loop rounds by one client thread: every user submits one tick,
// then the server drains. In lockstep all users share one clock, so every
// row of every batch needs the same period's features. In staggered mode
// the seed gives each user its own disjoint range of periods, so no period
// is decided twice and no per-period sharing or cache can help; the
// prediction for such a change there is "no change".

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>

#include "backtest/backtester.h"
#include "bench.h"
#include "ppn/policy_module.h"
#include "ppn/strategy_adapter.h"
#include "serve/portfolio_server.h"
#include "strategies/registry.h"

namespace perfbench {

namespace core = ::ppn::core;
namespace serve = ::ppn::serve;

namespace {

constexpr double kCostRate = 0.0025;
/// Users whose served wealth is replayed through the backtester.
constexpr int kCheckedUsers = 4;

struct ServeSizes {
  int64_t users;
  int64_t max_batch;
  /// Rounds per user range; a run longer than this rebuilds the server.
  int64_t rounds;
};

ServeSizes SizesFor(const Options& options) {
  if (options.smoke) return {16, 8, 16};
  return {256, kMaxBatch, 256};
}

struct ServeSetup {
  ppn::market::MarketDataset dataset;
  std::unique_ptr<ppn::Rng> init_rng;
  std::unique_ptr<ppn::Rng> dropout_rng;
  std::unique_ptr<core::PolicyModule> policy;
  std::unique_ptr<serve::PortfolioServer> server;
  std::vector<int64_t> start_period;  ///< Per user, of the live server.
  double generate_s = 0.0;
};

/// Builds a fresh server whose users start at the periods drawn from
/// `rng`: one common range (lockstep) or one disjoint range each
/// (staggered). Both cover `sizes.rounds` decisions per user.
void BuildServer(const ServeSizes& sizes, bool staggered, ppn::Rng* rng,
                 ServeSetup* setup) {
  serve::ServerConfig config;
  config.max_batch = sizes.max_batch;
  config.queue_capacity = 2 * sizes.users;
  config.costs = ppn::backtest::CostModel::Uniform(kCostRate);
  setup->server.reset();
  setup->server = std::make_unique<serve::PortfolioServer>(
      &setup->dataset.panel, setup->policy.get(), config);
  std::vector<int64_t> slot(static_cast<size_t>(sizes.users));
  if (staggered) {
    std::iota(slot.begin(), slot.end(), 0);
    for (int64_t i = sizes.users - 1; i > 0; --i) {
      std::swap(slot[i], slot[rng->UniformInt(i + 1)]);
    }
  } else {
    std::fill(slot.begin(), slot.end(), rng->UniformInt(sizes.users));
  }
  setup->start_period.clear();
  for (int64_t u = 0; u < sizes.users; ++u) {
    setup->start_period.push_back(kWindow + slot[u] * sizes.rounds);
    setup->server->AddUser(setup->start_period.back());
  }
}

/// Per-round bookkeeping of the traced run.
struct TraceStats {
  int64_t batches = 0;
  double rows = 0.0;
  std::vector<double> batch_s;
  double distinct_share_sum = 0.0;
  std::vector<double> queue_wait_s;
  double round_s = 0.0;
};

}  // namespace

void RunServe(const Options& options, bool staggered, Report* report) {
  const ServeSizes sizes = SizesFor(options);
  const int64_t periods = kWindow + sizes.users * sizes.rounds;
  ppn::Rng rng(options.seed * 0x2545F4914F6CDD1DULL + (staggered ? 1 : 0));

  // Set-up: panel generation, policy init, server construction and user
  // registration. Repeated; the median is reported, the last one kept.
  constexpr int kSetupReps = 5;
  std::vector<double> setup_s, generate_s;
  std::unique_ptr<ServeSetup> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.reset();
    const Clock::time_point start = Clock::now();
    setup = std::make_unique<ServeSetup>();
    setup->dataset = MakeMarket(kPaperAssets, periods, 1800, options.seed);
    setup->generate_s = SecondsSince(start);
    setup->init_rng = std::make_unique<ppn::Rng>(options.seed * 7919 + 13);
    setup->dropout_rng =
        std::make_unique<ppn::Rng>(options.seed * 104729 + 17);
    setup->policy = core::MakePolicy(
        ppn::strategies::PaperPolicyConfig(core::PolicyVariant::kPpn,
                                           kPaperAssets, options.seed),
        setup->init_rng.get(), setup->dropout_rng.get());
    BuildServer(sizes, staggered, &rng, setup.get());
    setup_s.push_back(SecondsSince(start));
    generate_s.push_back(setup->generate_s);
  }

  // Which periods have been decided so far in this run.
  std::vector<char> decided(static_cast<size_t>(periods), 0);
  int64_t decisions = 0, repeats = 0, submitted = 0, refused = 0;
  std::vector<double> latency_s;  // Submit to applied, timed rounds only.
  std::vector<Clock::time_point> submit_time(
      static_cast<size_t>(sizes.users));
  TraceStats stats;
  int64_t rounds_in_epoch = 0;

  // One round: every user submits one tick, then the server drains,
  // batch by batch, on this thread. Returns the decisions applied.
  const auto round = [&](bool traced) {
    serve::PortfolioServer& server = *setup->server;
    const Clock::time_point round_start = Clock::now();
    for (int64_t u = 0; u < sizes.users; ++u) {
      const double tick = static_cast<double>(server.user(u).decisions);
      submit_time[u] = Clock::now();
      if (server.SubmitTick(u)) {
        ++submitted;
      } else {
        ++refused;
      }
      Spans().Add("SubmitTick", submit_time[u], Clock::now(), 0,
                  {"user", static_cast<double>(u)}, {"tick", tick});
    }
    // The queue is FIFO and each user ticks once per round, so batch j
    // holds the next users in submission order.
    int64_t applied = 0;
    while (applied < sizes.users) {
      const Clock::time_point batch_start = Clock::now();
      const int64_t rows = server.ProcessBatch();
      const Clock::time_point batch_end = Clock::now();
      if (rows == 0) break;
      const int64_t batch_id = Spans().Add(
          "ProcessBatch", batch_start, batch_end, 0,
          {"rows", static_cast<double>(rows)});
      std::vector<int64_t> batch_periods;
      for (int64_t i = applied; i < applied + rows; ++i) {
        const serve::UserState& user = server.user(i);
        const int64_t period = user.next_period - 1;
        batch_periods.push_back(period);
        repeats += decided[period];
        decided[period] = 1;
        if (traced) {
          stats.queue_wait_s.push_back(
              std::chrono::duration<double>(batch_start - submit_time[i])
                  .count());
          Spans().Add("decision", submit_time[i], batch_end, batch_id,
                      {"user", static_cast<double>(i)},
                      {"tick", static_cast<double>(user.decisions - 1)});
        }
      }
      if (traced) {
        std::sort(batch_periods.begin(), batch_periods.end());
        const auto distinct = std::unique(batch_periods.begin(),
                                          batch_periods.end()) -
                              batch_periods.begin();
        stats.distinct_share_sum +=
            static_cast<double>(distinct) / static_cast<double>(rows);
        ++stats.batches;
        stats.rows += static_cast<double>(rows);
        stats.batch_s.push_back(
            std::chrono::duration<double>(batch_end - batch_start).count());
      }
      applied += rows;
    }
    decisions += applied;
    const Clock::time_point round_end = Clock::now();
    Spans().Add("round", round_start, round_end);
    if (traced) {
      stats.round_s +=
          std::chrono::duration<double>(round_end - round_start).count();
    }
    ++rounds_in_epoch;
    return applied;
  };
  // Latency samples of the live server from `first` on.
  const auto collect_latency = [&](size_t first) {
    const std::vector<double>& log = setup->server->latency_seconds();
    latency_s.insert(latency_s.end(), log.begin() + first, log.end());
  };

  round(false);  // Warm-up, untimed.
  size_t latency_first = setup->server->latency_seconds().size();
  const obs::Snapshot before = obs::TakeSnapshot();
  double serving_s = 0.0, untraced_s = 0.0, traced_s = 0.0;
  int64_t untraced_decisions = 0, traced_decisions = 0;
  double last = 0.0;
  for (int64_t i = 0;
       KeepGoing(serving_s, last, options.seconds) || (options.trace && i < 2);
       ++i) {
    if (rounds_in_epoch == sizes.rounds) {
      // Every user has used its range: a fresh server, off the clock.
      collect_latency(latency_first);
      BuildServer(sizes, staggered, &rng, setup.get());
      rounds_in_epoch = 0;
      latency_first = 0;
    }
    const bool traced = options.trace && i % 2 == 1;
    obs::SetEnabled(traced);
    Spans().Arm(traced);
    const Clock::time_point start = Clock::now();
    const int64_t applied = round(traced);
    last = SecondsSince(start);
    serving_s += last;
    (traced ? traced_s : untraced_s) += last;
    (traced ? traced_decisions : untraced_decisions) += applied;
  }
  obs::SetEnabled(false);
  Spans().Arm(false);
  const obs::Snapshot after = obs::TakeSnapshot();
  collect_latency(latency_first);
  const int64_t timed_decisions = untraced_decisions + traced_decisions;
  report->Ops(submitted + refused, refused + (submitted - decisions));

  // Output check, off the clock: a few users' served wealth equals, bit
  // for bit, the backtest of the same policy over the same periods.
  const serve::PortfolioServer& server = *setup->server;
  for (int c = 0; c < kCheckedUsers; ++c) {
    const int64_t u = rng.UniformInt(sizes.users);
    const serve::UserState& user = server.user(u);
    if (user.decisions == 0) continue;
    core::PolicyStrategy strategy(setup->policy.get(), "served-user");
    ppn::backtest::BacktestConfig config;
    config.costs = ppn::backtest::CostModel::Uniform(kCostRate);
    config.start_period = setup->start_period[u];
    config.end_period = user.next_period;
    const ppn::backtest::BacktestRecord record = ppn::backtest::RunBacktest(
        &strategy, setup->dataset.panel, config);
    const double replayed = record.wealth_curve.back();
    report->Check(std::memcmp(&replayed, &user.wealth, sizeof(double)) == 0,
                  "user " + std::to_string(u) +
                      " served wealth equals its backtest bit for bit");
  }

  if (!options.trace) {
    report->Add("setup_s", "s", Median(setup_s), "setup_s",
                "median of " + std::to_string(kSetupReps) + " set-ups");
    report->Add("decisions_per_s", "1/s", timed_decisions / serving_s,
                "throughput_per_s",
                std::to_string(sizes.users) + " users, batch " +
                    std::to_string(sizes.max_batch));
    const std::string n = "n=" + std::to_string(latency_s.size());
    report->Add("decision_ms_p50", "ms", 1e3 * Median(latency_s),
                "latency_ms_p50", n);
    // The decisions of one batch complete together, so batches are the
    // independent samples. A run serves a few hundred batches: p95 is the
    // highest percentile with at least ten of them beyond it (p99 would
    // rest on two or three rounds).
    report->Add("decision_ms_p95", "ms", 1e3 * Percentile(latency_s, 0.95),
                "latency_ms_tail",
                n + " decisions in " +
                    std::to_string(latency_s.size() / sizes.max_batch) +
                    " batches");
    return;
  }

  obs::SetEnabled(true);
  Spans().Arm(true);
  ProbeShape shape;
  shape.dataset = &setup->dataset;
  shape.policy = ppn::strategies::PaperPolicyConfig(
      core::PolicyVariant::kPpn, kPaperAssets, options.seed);
  shape.batch = sizes.max_batch;
  shape.cost_rate = kCostRate;
  shape.seed = options.seed;
  shape.reps = options.smoke ? 2 : 5;
  const ProbeTimes probes = RunProbes(shape, report);
  const CounterDeltas deltas(before, after, obs::TakeSnapshot());
  const double batches = static_cast<double>(stats.batches);
  AddCounterMetrics(deltas, batches, Sum(stats.batch_s), report);
  report->Add("market.generate_s", "s", Median(generate_s),
              "market.generate_s");
  const double untraced_per = untraced_s / untraced_decisions;
  report->Add("obs.trace_overhead_share", "ratio",
              (traced_s / traced_decisions) / untraced_per - 1.0,
              "obs.trace_overhead_share", "on the time per decision");
  const double rows_mean = stats.rows / batches;
  const double batch_ms = 1e3 * Median(stats.batch_s);
  const double explained_ms = 1e-3 * rows_mean *
                              (probes.decide_us_per_row_bmax +
                               probes.window_us + probes.solver_us);
  report->Add("bench.layer_coverage", "ratio", explained_ms / batch_ms,
              "bench.layer_coverage",
              "decide+window+solver per batch over ProcessBatch; " +
                  std::to_string(batch_ms - explained_ms) +
                  " ms unexplained");

  // Serve-only layer metrics: printed, not in the result line.
  const double forward_s = deltas.HistogramSum("serve.forward.seconds");
  report->Print("serve.batch.rows_mean", "rows", rows_mean);
  report->Print("serve.process_batch.ms", "ms", batch_ms, "median");
  report->Print("serve.forward.busy_share", "ratio",
                forward_s / stats.round_s);
  report->Print("serve.non_forward.ms_per_batch", "ms",
                1e3 * (Sum(stats.batch_s) - forward_s) / batches);
  report->Print("serve.queue_wait_ms_p50", "ms",
                1e3 * Median(stats.queue_wait_s));
  report->Print("serve.queue_wait_ms_p99", "ms",
                1e3 * Percentile(stats.queue_wait_s, 0.99));
  report->Print("serve.batch_distinct_period_share", "ratio",
                stats.distinct_share_sum / batches);
  report->Print("serve.repeat_period_share", "ratio",
                static_cast<double>(repeats) / static_cast<double>(decisions),
                "whole run");
  report->Print("serve.latency_log_bytes", "bytes",
                8.0 * static_cast<double>(
                          setup->server->latency_seconds().capacity()));
}

}  // namespace perfbench
