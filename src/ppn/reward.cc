#include "ppn/reward.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace ppn::core {

void RewardConfig::Validate() const {
  PPN_CHECK_GE(lambda, 0.0);
  PPN_CHECK_GE(gamma, 0.0);
  PPN_CHECK(cost_rate >= 0.0 && cost_rate < 1.0)
      << "cost_rate out of [0, 1): " << cost_rate;
}

ag::Var CostSensitiveReward(const ag::Var& actions, const RewardInputs& inputs,
                            const RewardConfig& config,
                            RewardBreakdown* breakdown,
                            std::vector<double>* omegas) {
  PPN_CHECK_EQ(actions->value().ndim(), 2);
  const int64_t periods = actions->value().dim(0);
  const int64_t width = actions->value().dim(1);
  PPN_CHECK(SameShape(actions->value(), inputs.relatives));
  PPN_CHECK(SameShape(actions->value(), inputs.prev_hat));
  PPN_CHECK_GT(periods, 1) << "variance needs at least two periods";

  // Solve the self-consistent ω_t per period from the action VALUES.
  const backtest::CostModel costs =
      backtest::CostModel::Uniform(config.cost_rate);
  Tensor omega_rows({periods, width});  // ω̄_t broadcast across columns.
  std::vector<double> action_row(width);
  std::vector<double> prev_row(width);
  int64_t solver_iterations = 0;
  for (int64_t t = 0; t < periods; ++t) {
    bool finite_row = true;
    for (int64_t i = 0; i < width; ++i) {
      action_row[i] = actions->value()[t * width + i];
      prev_row[i] = inputs.prev_hat[t * width + i];
      finite_row = finite_row && std::isfinite(action_row[i]);
    }
    // A non-finite action (say, from a non-finite input window) is no
    // portfolio and has no fixed point: its ω is NaN, which makes the
    // reward NaN, and the trainer skips such a step.
    double omega = std::numeric_limits<double>::quiet_NaN();
    if (finite_row) {
      const backtest::NetWealthSolve solve =
          backtest::SolveNetWealthFactorDetailed(prev_row, action_row, costs);
      PPN_CHECK(solve.converged)
          << "net-wealth fixed point did not converge after "
          << solve.iterations << " iterations";
      solver_iterations += solve.iterations;
      omega = solve.omega;
    }
    if (omegas != nullptr) omegas->push_back(omega);
    for (int64_t i = 0; i < width; ++i) {
      omega_rows.MutableData()[t * width + i] = static_cast<float>(omega);
    }
  }

  // r_t = a_tᵀ x_t, per row: elementwise product then row sums via matmul
  // with a ones column.
  ag::Var relatives = ag::Constant(inputs.relatives);
  ag::Var weighted = ag::Mul(actions, relatives);
  ag::Var ones_column = ag::Constant(Tensor::Full({width, 1}, 1.0f));
  ag::Var gross = ag::Reshape(ag::MatMul(weighted, ones_column), {periods});
  // Differentiable cost: c_t(a) = ψ Σ_{risk i} |a_{t,i} ω̄_t - â_{t-1,i}|
  // with ω̄_t held at the solved fixed point (at that point c_t(a) equals
  // 1 - ω_t exactly, and the gradient carries the ψ-scaled trading
  // pressure into the policy — unlike a pure stop-gradient factor).
  ag::Var prev_hat = ag::Constant(inputs.prev_hat);
  ag::Var omega_const = ag::Constant(omega_rows);
  ag::Var scaled_move =
      ag::Abs(ag::Sub(ag::Mul(actions, omega_const), prev_hat));
  Tensor risk_mask_data({width, 1});  // Zero for the cash column.
  for (int64_t i = 1; i < width; ++i) risk_mask_data.MutableData()[i] = 1.0f;
  ag::Var cost = ag::MulScalar(
      ag::Reshape(ag::MatMul(scaled_move, ag::Constant(risk_mask_data)),
                  {periods}),
      static_cast<float>(config.cost_rate));
  // r̂ᶜ_t = log r_t + log(1 - c_t). With differentiable_cost disabled the
  // cost factor is detached (EIIE-style plain rebalanced log-return).
  ag::Var cost_term = config.differentiable_cost ? cost : ag::Detach(cost);
  ag::Var log_net = ag::Add(
      ag::Log(gross),
      ag::Log(ag::AddScalar(ag::Neg(cost_term), 1.0f)));

  ag::Var mean_term = ag::MeanAll(log_net);
  ag::Var variance_term = ag::VarianceAll(log_net);

  // Turnover constraint: mean over periods of ‖a_t - â_{t-1}‖₁.
  ag::Var l1 = ag::SumAll(ag::Abs(ag::Sub(actions, prev_hat)));
  ag::Var turnover_term =
      ag::MulScalar(l1, 1.0f / static_cast<float>(periods));

  ag::Var reward = ag::Sub(
      ag::Sub(mean_term,
              ag::MulScalar(variance_term, static_cast<float>(config.lambda))),
      ag::MulScalar(turnover_term, static_cast<float>(config.gamma)));

  if (breakdown != nullptr) {
    breakdown->mean_log_return = ag::ScalarValue(mean_term);
    breakdown->variance = ag::ScalarValue(variance_term);
    breakdown->mean_turnover = ag::ScalarValue(turnover_term);
    breakdown->total = ag::ScalarValue(reward);
    breakdown->solver_iterations = solver_iterations;
  }
  return reward;
}

}  // namespace ppn::core
