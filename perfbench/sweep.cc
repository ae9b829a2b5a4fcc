// Workload `sweep`: `ExperimentRunner::Run` at smoke scale on nproc pool
// workers over the paper's Table-3 strategy set (12 classic baselines,
// EIIE and PPN) x Crypto-A and Crypto-B x psi in {0.25%, 1%}; the workload
// seed is the sweep seed. Pool workers switch inner OpenMP off, so four
// trainings run at once on single-threaded kernels and the slowest cell
// sets the wall time. This is the only workload that runs `exec`, the
// backtester over whole test ranges, and the classic baselines.

#include <algorithm>
#include <cmath>

#include "bench.h"
#include "common/parallel.h"
#include "exec/experiment.h"
#include "market/presets.h"
#include "strategies/registry.h"

namespace perfbench {

namespace exec = ::ppn::exec;
namespace market = ::ppn::market;
namespace strategies = ::ppn::strategies;

namespace {

exec::ExperimentSpec MakeSpec(const Options& options) {
  exec::ExperimentSpec spec;
  spec.title = "perfbench sweep";
  spec.scale = ppn::RunScale::kSmoke;
  const std::vector<market::DatasetId> datasets =
      options.smoke ? std::vector<market::DatasetId>{market::DatasetId::kCryptoA}
                    : std::vector<market::DatasetId>{market::DatasetId::kCryptoA,
                                                     market::DatasetId::kCryptoB};
  for (const market::DatasetId id : datasets) {
    spec.custom_datasets.push_back(
        {market::MakeDataset(id, ppn::RunScale::kSmoke), {}});
  }
  const std::vector<std::string> classics =
      options.smoke ? std::vector<std::string>{"UBAH", "CRP"}
                    : strategies::ClassicBaselineNames();
  for (const std::string& name : classics) {
    spec.strategies.push_back({.name = name});
  }
  // Budgets as in the Table-3 bench (bench/table3_profitability.cc).
  strategies::StrategySpec eiie{.name = "EIIE"};
  eiie.gamma = 0.0;
  eiie.lambda = 0.0;
  eiie.base_steps = 600;
  strategies::StrategySpec ppn{.name = "PPN"};
  ppn.base_steps = options.smoke ? 8 : 600;
  if (!options.smoke) spec.strategies.push_back(eiie);
  spec.strategies.push_back(ppn);
  spec.cost_rates = options.smoke ? std::vector<double>{0.0025}
                                  : std::vector<double>{0.0025, 0.01};
  spec.seeds = {options.seed};
  return spec;
}

/// FNV-1a over every row field except `wall_seconds`.
uint64_t Digest(const std::vector<exec::CellResult>& rows) {
  uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash = (hash ^ bytes[i]) * 1099511628211ULL;
    }
  };
  for (const exec::CellResult& row : rows) {
    mix(row.key.strategy.data(), row.key.strategy.size());
    mix(row.key.dataset.data(), row.key.dataset.size());
    mix(&row.key.cost_rate, sizeof(double));
    mix(&row.key.seed, sizeof(uint64_t));
    mix(&row.derived_seed, sizeof(uint64_t));
    const ppn::backtest::Metrics& m = row.metrics;
    for (const double v : {m.apv, m.sr_pct, m.std_pct, m.mdd_pct, m.cr,
                           m.turnover}) {
      mix(&v, sizeof(double));
    }
  }
  return hash;
}

bool Finite(const ppn::backtest::Metrics& m) {
  for (const double v : {m.apv, m.sr_pct, m.std_pct, m.mdd_pct, m.cr,
                         m.turnover}) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace

void RunSweep(const Options& options, Report* report) {
  // Set-up: dataset generation, spec and runner construction. The runner
  // takes the datasets pre-built, so `sweep_s` times the cells alone.
  constexpr int kSetupReps = 15;
  std::vector<double> setup_s;
  exec::ExperimentSpec spec;
  const int workers = ppn::HardwareThreads();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    spec = exec::ExperimentSpec();
    const Clock::time_point start = Clock::now();
    spec = MakeSpec(options);
    setup_s.push_back(SecondsSince(start));
  }
  const exec::ExperimentRunner runner(workers);
  const size_t cells = exec::EnumerateCells(spec).size();

  // A run times at least five sweeps (two in the traced run: one of each
  // kind): one sweep takes most of a run's seconds, and a median of five
  // is robust to two disturbed sweeps.
  const int min_sweeps = options.trace ? 2 : 5;
  std::vector<double> untraced_s, traced_s, slowest_cell_s;
  std::vector<exec::CellResult> traced_rows;
  uint64_t first_digest = 0;
  obs::Snapshot before, after;
  double elapsed = 0.0, last = 0.0;
  const Clock::time_point loop_start = Clock::now();
  for (int i = 0;
       KeepGoing(elapsed, last, options.seconds) || i < min_sweeps;
       ++i) {
    const bool traced = options.trace && i % 2 == 1;
    if (traced) before = obs::TakeSnapshot();
    obs::SetEnabled(traced);
    Spans().Arm(traced);
    const Clock::time_point start = Clock::now();
    std::vector<exec::CellResult> rows = runner.Run(spec);
    const Clock::time_point end = Clock::now();
    Spans().Add("ExperimentRunner::Run", start, end, 0,
                {"sweep", static_cast<double>(i)},
                {"cells", static_cast<double>(rows.size())});
    obs::SetEnabled(false);
    Spans().Arm(false);
    last = std::chrono::duration<double>(end - start).count();
    elapsed = SecondsSince(loop_start);

    // Output checks: every cell present with finite metrics, and the rows
    // (without wall_seconds) identical in every sweep of the run.
    int64_t bad = static_cast<int64_t>(cells) -
                  static_cast<int64_t>(rows.size());
    for (const exec::CellResult& row : rows) bad += Finite(row.metrics) ? 0 : 1;
    report->Ops(static_cast<int64_t>(cells), bad);
    const uint64_t digest = Digest(rows);
    if (i == 0) {
      first_digest = digest;
      std::printf("sweep digest (rows without wall_seconds): %016llx\n",
                  static_cast<unsigned long long>(digest));
    }
    std::printf("sweep %d%s: %.3f s\n", i, traced ? " (traced)" : "", last);
    report->Check(bad == 0, "sweep " + std::to_string(i) + ": " +
                                std::to_string(bad) +
                                " cells missing or non-finite");
    report->Check(digest == first_digest,
                  "sweep " + std::to_string(i) + " rows equal the first's");
    (traced ? traced_s : untraced_s).push_back(last);
    if (!traced) {
      double slowest = 0.0;
      for (const exec::CellResult& row : rows) {
        slowest = std::max(slowest, row.wall_seconds);
      }
      slowest_cell_s.push_back(slowest);
    }
    if (traced) {
      after = obs::TakeSnapshot();
      traced_rows = std::move(rows);
    }
  }

  if (!options.trace) {
    report->Add("setup_s", "s", Median(setup_s), "setup_s",
                "median of " + std::to_string(kSetupReps) + " set-ups");
    const double sweep_s = Median(untraced_s);
    report->Add("sweep_cells_per_s", "1/s", cells / sweep_s,
                "throughput_per_s",
                std::to_string(cells) + " cells, " + std::to_string(workers) +
                    " workers");
    const std::string n = "n=" + std::to_string(untraced_s.size()) + " sweeps";
    report->Print("sweep_s", "s", sweep_s, n);
    report->Add("sweep_ms_p50", "ms", 1e3 * sweep_s, "latency_ms_p50", n);
    // The tail of a sweep's parallel cells: the slowest one sets sweep_s.
    report->Add("sweep_slowest_cell_ms", "ms", 1e3 * Median(slowest_cell_s),
                "latency_ms_tail", n);
    return;
  }

  obs::SetEnabled(true);
  Spans().Arm(true);
  // Probes at the shape of the costliest cell: PPN on Crypto-B.
  const market::MarketDataset& probe_dataset =
      spec.custom_datasets.back().dataset;
  const int64_t assets = probe_dataset.panel.num_assets();
  ProbeShape shape;
  shape.dataset = &probe_dataset;
  shape.policy = strategies::PaperPolicyConfig(ppn::core::PolicyVariant::kPpn,
                                               assets, options.seed);
  shape.batch =
      strategies::TrainBudgetFor(ppn::RunScale::kSmoke, assets).batch_size;
  shape.cost_rate = spec.cost_rates.front();
  shape.inner_parallel = 2 * workers <= ppn::HardwareThreads();
  shape.seed = options.seed;
  shape.reps = options.smoke ? 2 : 7;
  RunProbes(shape, report);
  const CounterDeltas deltas(before, after, obs::TakeSnapshot());
  double cell_sum = 0.0, longest = 0.0;
  double kind_sum[3] = {0.0, 0.0, 0.0};  // classic, eiie, ppn
  int kind_count[3] = {0, 0, 0};
  for (const exec::CellResult& row : traced_rows) {
    cell_sum += row.wall_seconds;
    longest = std::max(longest, row.wall_seconds);
    const int kind = row.key.strategy == "PPN"    ? 2
                     : row.key.strategy == "EIIE" ? 1
                                                  : 0;
    kind_sum[kind] += row.wall_seconds;
    ++kind_count[kind];
  }
  const double sweep_s = traced_s.back();  // The sweep the deltas cover.
  AddCounterMetrics(deltas, 1.0, cell_sum, report);
  report->Add("market.generate_s", "s", Median(setup_s), "market.generate_s",
              "both datasets");
  report->Add("obs.trace_overhead_share", "ratio",
              Median(traced_s) / Median(untraced_s) - 1.0,
              "obs.trace_overhead_share", "on sweep_s");
  const double busy = cell_sum / (workers * sweep_s);
  report->Add("bench.layer_coverage", "ratio", busy, "bench.layer_coverage",
              "cell time over worker time; " +
                  std::to_string(workers * sweep_s - cell_sum) +
                  " worker-s unexplained");

  // Exec-only layer metrics: printed, not in the result line.
  report->Print("exec.worker_busy_share", "ratio", busy);
  report->Print("exec.longest_cell_share", "ratio", longest / sweep_s);
  const char* kind_names[3] = {"exec.cell_s.classic", "exec.cell_s.eiie",
                               "exec.cell_s.ppn"};
  for (int kind = 0; kind < 3; ++kind) {
    report->Print(kind_names[kind], "s",
                  kind_count[kind] > 0 ? kind_sum[kind] / kind_count[kind]
                                       : std::nan(""),
                  "mean over " + std::to_string(kind_count[kind]) + " cells");
  }
  report->Print("exec.pool.task_wait_ms_p99", "ms",
                1e3 * deltas.HistogramPercentile("exec.pool.task_wait.seconds",
                                                 0.99),
                "histogram bucket estimate");
}

}  // namespace perfbench
