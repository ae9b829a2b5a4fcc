// Workload `train`: PPN `PolicyGradientTrainer::TrainStep` at the paper's
// shape (batch 32, m = 11, k = 30), called in a closed loop by one client
// thread with the tensor kernels on the OpenMP team. Training is the
// system's largest compute cost, and this is the only workload that runs
// the backward pass, the reward and the optimizer.

#include <cmath>
#include <memory>

#include "bench.h"
#include "common/math_utils.h"
#include "ppn/policy_module.h"
#include "ppn/trainer.h"
#include "strategies/registry.h"

namespace perfbench {

namespace core = ::ppn::core;

namespace {

constexpr int64_t kBatch = 32;
/// Steps needed so that at least ten samples lie beyond the p95.
constexpr int64_t kMinTimedSteps = 200;
/// Alternating traced/untraced blocks of the traced run, in steps.
constexpr int64_t kTraceBlock = 8;

/// Everything set-up builds; members are destroyed trainer first.
struct TrainSetup {
  ppn::market::MarketDataset dataset;
  std::unique_ptr<ppn::Rng> init_rng;
  std::unique_ptr<ppn::Rng> dropout_rng;
  std::unique_ptr<core::PolicyModule> policy;
  std::unique_ptr<core::PolicyGradientTrainer> trainer;
  double generate_s = 0.0;
  double trainer_init_s = 0.0;
};

std::unique_ptr<TrainSetup> SetUp(const Options& options) {
  auto setup = std::make_unique<TrainSetup>();
  Clock::time_point start = Clock::now();
  const int64_t periods = options.smoke ? 400 : 2000;
  const int64_t train_periods = options.smoke ? 300 : 1800;
  setup->dataset =
      MakeMarket(kPaperAssets, periods, train_periods, options.seed);
  setup->generate_s = SecondsSince(start);
  setup->init_rng = std::make_unique<ppn::Rng>(options.seed * 7919 + 13);
  setup->dropout_rng = std::make_unique<ppn::Rng>(options.seed * 104729 + 17);
  setup->policy = core::MakePolicy(
      ppn::strategies::PaperPolicyConfig(core::PolicyVariant::kPpn,
                                         kPaperAssets, options.seed),
      setup->init_rng.get(), setup->dropout_rng.get());
  core::TrainerConfig config;
  config.batch_size = kBatch;
  config.steps = 1 << 30;  // The run, not the config, bounds the steps.
  config.seed = options.seed * 31 + 7;
  start = Clock::now();
  setup->trainer = std::make_unique<core::PolicyGradientTrainer>(
      setup->policy.get(), setup->dataset, config);
  setup->trainer_init_s = SecondsSince(start);
  return setup;
}

}  // namespace

void RunTrain(const Options& options, Report* report) {
  // Set-up: panel generation, policy init, trainer construction (which
  // precomputes one window per training period). Repeated; the median
  // is reported and the last set-up is the one measured.
  constexpr int kSetupReps = 7;
  std::vector<double> setup_s, generate_s, trainer_init_s;
  std::unique_ptr<TrainSetup> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.reset();
    const Clock::time_point start = Clock::now();
    setup = SetUp(options);
    setup_s.push_back(SecondsSince(start));
    generate_s.push_back(setup->generate_s);
    trainer_init_s.push_back(setup->trainer_init_s);
  }
  core::PolicyGradientTrainer& trainer = *setup->trainer;

  int64_t non_finite = 0;
  const auto step = [&trainer, &non_finite] {
    const double reward = trainer.TrainStep();
    if (!std::isfinite(reward)) ++non_finite;
    return reward;
  };
  // Warm-up: the first steps fill the tensor pool.
  for (int i = 0; i < 2; ++i) step();

  // Closed loop. The traced run alternates untraced and traced blocks so
  // both see the same machine state; counters only move in traced blocks.
  const int64_t min_steps = options.smoke ? 4 : kMinTimedSteps;
  const double cap_s = 3.0 * options.seconds;
  std::vector<double> untraced_s, traced_s;
  const obs::Snapshot before = obs::TakeSnapshot();
  const Clock::time_point loop_start = Clock::now();
  double elapsed = 0.0, last = 0.0;
  for (int64_t i = 0;
       (KeepGoing(elapsed, last, options.seconds) || i < min_steps) &&
       elapsed < cap_s;
       ++i) {
    const bool traced = options.trace && (i / kTraceBlock) % 2 == 1;
    obs::SetEnabled(traced);
    Spans().Arm(traced);
    const Clock::time_point start = Clock::now();
    const double reward = step();
    const Clock::time_point end = Clock::now();
    Spans().Add("TrainStep", start, end, 0, {"step", static_cast<double>(i)},
                {"reward", reward});
    last = std::chrono::duration<double>(end - start).count();
    (traced ? traced_s : untraced_s).push_back(last);
    elapsed = SecondsSince(loop_start);
  }
  obs::SetEnabled(false);
  Spans().Arm(false);
  const obs::Snapshot after = obs::TakeSnapshot();
  const int64_t steps =
      static_cast<int64_t>(untraced_s.size() + traced_s.size());
  report->Ops(steps, non_finite);

  // Output checks: finite rewards, and every policy row the portfolio
  // vector memory holds lies on the simplex.
  report->Check(non_finite == 0, "every TrainStep reward is finite");
  int64_t off_simplex = 0;
  for (int64_t t = trainer.first_period(); t < trainer.last_period(); ++t) {
    if (!ppn::IsOnSimplex(trainer.pvm().Get(t), 1e-4)) ++off_simplex;
  }
  report->Check(off_simplex == 0, "final policy rows lie on the simplex (" +
                                      std::to_string(off_simplex) + " off)");

  if (!options.trace) {
    report->Add("setup_s", "s", Median(setup_s), "setup_s",
                "median of " + std::to_string(kSetupReps) + " set-ups");
    report->Add("train_steps_per_s", "1/s", steps / elapsed,
                "throughput_per_s");
    const std::string n = "n=" + std::to_string(steps) + " steps";
    report->Add("train_step_ms_p50", "ms", 1e3 * Median(untraced_s),
                "latency_ms_p50", n);
    report->Add("train_step_ms_p95", "ms", 1e3 * Percentile(untraced_s, 0.95),
                "latency_ms_tail", n);
    return;
  }

  obs::SetEnabled(true);
  Spans().Arm(true);
  ProbeShape shape;
  shape.dataset = &setup->dataset;
  shape.policy = ppn::strategies::PaperPolicyConfig(
      core::PolicyVariant::kPpn, kPaperAssets, options.seed);
  shape.batch = kBatch;
  shape.trainer_init_s = Median(trainer_init_s);
  shape.seed = options.seed;
  shape.reps = options.smoke ? 2 : 7;
  const ProbeTimes probes = RunProbes(shape, report);
  const CounterDeltas deltas(before, after, obs::TakeSnapshot());
  AddCounterMetrics(deltas, static_cast<double>(traced_s.size()),
                    Sum(traced_s), report);
  report->Add("market.generate_s", "s", Median(generate_s),
              "market.generate_s");
  const double traced_ms = 1e3 * Median(traced_s);
  report->Add("obs.trace_overhead_share", "ratio",
              traced_ms / (1e3 * Median(untraced_s)) - 1.0,
              "obs.trace_overhead_share", "on the median TrainStep time");
  const double coverage = probes.step_layers_ms / traced_ms;
  report->Add("bench.layer_coverage", "ratio", coverage,
              "bench.layer_coverage",
              "streams+head+reward+optimizer over a traced step; " +
                  std::to_string(traced_ms * (1.0 - coverage)) +
                  " ms unexplained");
}

}  // namespace perfbench
