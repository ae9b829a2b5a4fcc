// The probe pass of the traced run: after the timed part, each layer's
// public function is called on its own, at the workload's shapes and on
// the workload's market, so the per-layer numbers can be set against the
// end-to-end ones.

#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "autograd/ops.h"
#include "backtest/costs.h"
#include "bench.h"
#include "common/parallel.h"
#include "nn/optimizer.h"
#include "ppn/feature_nets.h"
#include "ppn/policy_inference.h"
#include "ppn/policy_module.h"
#include "ppn/reward.h"
#include "ppn/trainer.h"

namespace perfbench {

namespace ag = ::ppn::ag;
namespace core = ::ppn::core;
namespace market = ::ppn::market;
using ::ppn::Rng;
using ::ppn::Tensor;

namespace {

/// [rows, m, k, 4] decision windows for periods t0 .. t0+rows-1.
Tensor Windows(const market::OhlcPanel& panel, int64_t t0, int64_t rows,
               int64_t k) {
  const int64_t m = panel.num_assets();
  Tensor out({rows, m, k, market::kNumPriceFields});
  const int64_t per_window = m * k * market::kNumPriceFields;
  for (int64_t r = 0; r < rows; ++r) {
    const Tensor window = market::NormalizedWindow(panel, t0 + r - 1, k);
    std::copy(window.Data(), window.Data() + per_window,
              out.MutableData() + r * per_window);
  }
  return out;
}

double MatmulFlops() {
  const obs::Snapshot snapshot = obs::TakeSnapshot();
  const auto it = snapshot.counters.find("tensor.matmul.flops");
  return it == snapshot.counters.end()
             ? std::numeric_limits<double>::quiet_NaN()
             : it->second;
}

struct ForwardBackward {
  std::vector<double> fwd_s;
  std::vector<double> bwd_s;
  double flops = 0.0;

  double fwd() const { return Median(fwd_s); }
  double bwd() const { return Median(bwd_s); }
  double gflops() const { return flops / (fwd() + bwd()) / 1e9; }
};

/// Times one call of `forward` and the backward pass of its summed
/// output into `out` (`keep` false discards the times: a warm-up call).
/// FLOPs are the program's matmul count over the call pair; it includes
/// the conv GEMMs, so the conv count is not added on top.
void TimeForwardBackward(ppn::nn::Module* module,
                         const std::function<ag::Var()>& forward, bool keep,
                         ForwardBackward* out) {
  module->ZeroGrad();
  const double flops_before = MatmulFlops();
  const Clock::time_point start = Clock::now();
  const ag::Var result = forward();
  const Clock::time_point forwarded = Clock::now();
  const ag::Var loss = ag::SumAll(result);
  const Clock::time_point backward_start = Clock::now();
  ag::Backward(loss);
  const Clock::time_point end = Clock::now();
  out->flops = MatmulFlops() - flops_before;
  if (!keep) return;
  out->fwd_s.push_back(std::chrono::duration<double>(forwarded - start).count());
  out->bwd_s.push_back(
      std::chrono::duration<double>(end - backward_start).count());
}

}  // namespace

ProbeTimes RunProbes(const ProbeShape& shape, Report* report) {
  std::optional<ppn::ScopedInnerParallelDisable> no_inner_parallel;
  if (!shape.inner_parallel) no_inner_parallel.emplace();
  const market::OhlcPanel& panel = shape.dataset->panel;
  const int64_t m = shape.policy.num_assets;
  const int64_t k = shape.policy.window;
  const int64_t batch = shape.batch;
  const int64_t rows = std::max(batch, kMaxBatch);
  const int reps = shape.reps;

  // Inputs: consecutive decision periods from the training range.
  Rng rng(shape.seed * 0x9E3779B97F4A7C15ULL + 0x5eed);
  const int64_t t0 =
      k + 1 + rng.UniformInt(shape.dataset->train_end - k - rows);
  const Tensor all_windows = Windows(panel, t0, rows, k);
  const Tensor windows = Windows(panel, t0, batch, k);
  const float uniform = 1.0f / static_cast<float>(m + 1);
  const Tensor prev_actions = Tensor::Full({batch, m}, uniform);
  core::RewardInputs reward_inputs;
  reward_inputs.relatives = Tensor({batch, m + 1});
  reward_inputs.prev_hat = Tensor::Full({batch, m + 1}, uniform);
  for (int64_t b = 0; b < batch; ++b) {
    const std::vector<double> x = market::PriceRelativesWithCash(panel, t0 + b);
    for (int64_t i = 0; i <= m; ++i) {
      reward_inputs.relatives.MutableData()[b * (m + 1) + i] =
          static_cast<float>(x[i]);
    }
  }
  core::RewardConfig reward_config;
  reward_config.cost_rate = shape.cost_rate;

  Rng init(shape.seed + 101), dropout(shape.seed + 202);
  std::unique_ptr<core::PolicyModule> policy =
      core::MakePolicy(shape.policy, &init, &dropout);
  core::SequentialInfoNet lstm(shape.policy, &init);
  core::CorrelationInfoNet conv(shape.policy, /*correlational=*/true, &init,
                                &dropout);
  policy->SetTraining(true);
  const ag::Var windows_var = ag::Constant(windows);
  const ag::Var prev_var = ag::Constant(prev_actions);

  const auto add_ms = [report](const std::string& name, double seconds) {
    report->Add(name, "ms", 1e3 * seconds, name);
  };
  const auto span = [](const char* name, Clock::time_point start) {
    Spans().Add(name, start, Clock::now());
  };

  // The two streams and the whole policy are timed round-robin, so a
  // drift of the machine shifts all three alike and cancels in the head.
  ForwardBackward lstm_time, conv_time, policy_time;
  for (int r = 0; r <= reps; ++r) {  // Rep 0 warms up.
    Clock::time_point start = Clock::now();
    TimeForwardBackward(
        &lstm, [&] { return lstm.Forward(windows_var); }, r > 0, &lstm_time);
    span("probe.lstm_stream", start);
    start = Clock::now();
    TimeForwardBackward(
        &conv, [&] { return conv.Forward(windows_var); }, r > 0, &conv_time);
    span("probe.conv_stream", start);
    start = Clock::now();
    TimeForwardBackward(
        policy.get(), [&] { return policy->Forward(windows_var, prev_var); },
        r > 0, &policy_time);
    span("probe.policy", start);
  }
  add_ms("ppn.lstm_stream.fwd_ms", lstm_time.fwd());
  add_ms("ppn.lstm_stream.bwd_ms", lstm_time.bwd());
  report->Add("ppn.lstm_stream.gflops", "GFLOP/s", lstm_time.gflops(),
              "ppn.lstm_stream.gflops");
  add_ms("ppn.conv_stream.fwd_ms", conv_time.fwd());
  add_ms("ppn.conv_stream.bwd_ms", conv_time.bwd());
  report->Add("ppn.conv_stream.gflops", "GFLOP/s", conv_time.gflops(),
              "ppn.conv_stream.gflops");
  add_ms("ppn.head.fwd_ms",
         policy_time.fwd() - lstm_time.fwd() - conv_time.fwd());
  add_ms("ppn.head.bwd_ms",
         policy_time.bwd() - lstm_time.bwd() - conv_time.bwd());

  // Reward on fixed actions: the policy's output, as a trainable leaf.
  Clock::time_point start = Clock::now();
  const ag::Var actions = ag::Parameter(
      policy->Forward(windows_var, prev_var)->value().Clone());
  std::vector<double> reward_fwd, reward_bwd;
  for (int r = 0; r <= reps; ++r) {
    actions->ZeroGrad();
    const Clock::time_point t_start = Clock::now();
    const ag::Var reward =
        core::CostSensitiveReward(actions, reward_inputs, reward_config);
    const Clock::time_point t_mid = Clock::now();
    ag::Backward(ag::Neg(reward));
    if (r == 0) continue;
    reward_fwd.push_back(std::chrono::duration<double>(t_mid - t_start).count());
    reward_bwd.push_back(SecondsSince(t_mid));
  }
  span("probe.reward", start);
  add_ms("ppn.reward.fwd_ms", Median(reward_fwd));
  add_ms("ppn.reward.bwd_ms", Median(reward_bwd));

  // One whole training step: backward of its loss, then the optimizer.
  start = Clock::now();
  ppn::nn::Adam adam(policy->Parameters(), 1e-3f);
  std::vector<double> backward_s, optimizer_s;
  for (int r = 0; r <= reps; ++r) {
    policy->ZeroGrad();
    const ag::Var out = policy->Forward(windows_var, prev_var);
    const ag::Var loss =
        ag::Neg(core::CostSensitiveReward(out, reward_inputs, reward_config));
    const Clock::time_point t_backward = Clock::now();
    ag::Backward(loss);
    const Clock::time_point t_optimizer = Clock::now();
    adam.ClipGradNorm(5.0);
    adam.Step();
    if (r == 0) continue;
    backward_s.push_back(
        std::chrono::duration<double>(t_optimizer - t_backward).count());
    optimizer_s.push_back(SecondsSince(t_optimizer));
  }
  span("probe.step", start);
  add_ms("autograd.backward.ms", Median(backward_s));
  add_ms("nn.optimizer.ms", Median(optimizer_s));

  double trainer_init_s = shape.trainer_init_s;
  if (trainer_init_s < 0.0) {
    start = Clock::now();
    core::TrainerConfig trainer_config;
    trainer_config.batch_size = batch;
    trainer_config.seed = shape.seed;
    trainer_init_s = MedianSeconds(2, [&] {
      core::PolicyGradientTrainer trainer(policy.get(), *shape.dataset,
                                          trainer_config);
    });
    span("probe.trainer_init", start);
  }
  report->Add("ppn.trainer.init_s", "s", trainer_init_s, "ppn.trainer.init_s");

  // Grad-free decisions at one row and at the serving batch.
  start = Clock::now();
  const core::PolicyInference inference(policy.get());
  const Tensor one_window = Windows(panel, t0, 1, k);
  const Tensor one_prev = Tensor::Full({1, m}, uniform);
  constexpr int kSingleCalls = 16;
  const double b1_s = MedianSeconds(reps, [&] {
    for (int i = 0; i < kSingleCalls; ++i) {
      inference.DecideBatch(one_window, one_prev);
    }
  });
  const Tensor all_prev = Tensor::Full({rows, m}, uniform);
  Tensor decided;
  const double bmax_s = MedianSeconds(
      reps, [&] { decided = inference.DecideBatch(all_windows, all_prev); });
  span("probe.decide", start);
  ProbeTimes times;
  times.decide_us_per_row_bmax = 1e6 * bmax_s / static_cast<double>(rows);
  report->Add("ppn.decide.us_per_row.b1", "us", 1e6 * b1_s / kSingleCalls,
              "ppn.decide.us_per_row.b1");
  report->Add("ppn.decide.us_per_row.bmax", "us", times.decide_us_per_row_bmax,
              "ppn.decide.us_per_row.bmax", std::to_string(rows) + " rows");

  // The cost solver alone, on (drifted previous, decided) pairs.
  start = Clock::now();
  std::vector<std::vector<double>> targets, prev_hats;
  std::vector<double> previous(static_cast<size_t>(m + 1), 1.0 / (m + 1));
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<double> target(static_cast<size_t>(m + 1));
    for (int64_t i = 0; i <= m; ++i) target[i] = decided[r * (m + 1) + i];
    prev_hats.push_back(ppn::backtest::DriftPortfolio(
        previous, market::PriceRelativesWithCash(panel, t0 + r - 1)));
    targets.push_back(target);
    previous = target;
  }
  const ppn::backtest::CostModel costs =
      ppn::backtest::CostModel::Uniform(shape.cost_rate);
  constexpr int kSolverPasses = 64;
  double omega_sum = 0.0;
  const double solver_s = MedianSeconds(reps, [&] {
    for (int pass = 0; pass < kSolverPasses; ++pass) {
      for (int64_t r = 0; r < rows; ++r) {
        omega_sum += ppn::backtest::SolveNetWealthFactorDetailed(
                         prev_hats[r], targets[r], costs)
                         .omega;
      }
    }
  });
  span("probe.solver", start);
  times.solver_us =
      1e6 * solver_s / static_cast<double>(kSolverPasses * rows);
  report->Check(std::isfinite(omega_sum), "probe cost solves are finite");
  report->Add("backtest.solver.us_per_call", "us", times.solver_us,
              "backtest.solver.us_per_call");

  // Window normalization alone, over periods spread across the panel.
  start = Clock::now();
  constexpr int64_t kWindowCalls = 256;
  const int64_t span_periods = panel.num_periods() - k - 1;
  const double window_s = MedianSeconds(reps, [&] {
    for (int64_t i = 0; i < kWindowCalls; ++i) {
      const int64_t t = k + 1 + i * span_periods / kWindowCalls;
      market::NormalizedWindow(panel, t - 1, k);
    }
  });
  span("probe.window", start);
  times.window_us = 1e6 * window_s / kWindowCalls;
  report->Add("market.window.us_per_call", "us", times.window_us,
              "market.window.us_per_call");

  times.step_layers_ms = 1e3 * (policy_time.fwd() + policy_time.bwd() +
                                Median(reward_fwd) + Median(reward_bwd) +
                                Median(optimizer_s));
  return times;
}

}  // namespace perfbench
