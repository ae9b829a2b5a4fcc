#include "serve/portfolio_server.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/math_utils.h"
#include "obs/stats.h"

namespace ppn::serve {

PortfolioServer::PortfolioServer(const market::OhlcPanel* panel,
                                 core::PolicyModule* policy,
                                 ServerConfig config)
    : panel_(panel),
      inference_(policy),
      config_(config),
      queue_(config.queue_capacity),
      accounting_pool_(config.workers) {
  PPN_CHECK(panel != nullptr);
  PPN_CHECK_GT(config.max_batch, 0);
  PPN_CHECK_GE(config.workers, 0);
  PPN_CHECK_EQ(panel->num_assets(), inference_.config().num_assets);
}

int64_t PortfolioServer::AddUser(int64_t start_period) {
  PPN_CHECK_GE(start_period, inference_.config().window)
      << "user needs " << inference_.config().window
      << " periods of history before its first decision";
  PPN_CHECK_LT(start_period, panel_->num_periods());
  const int64_t m = inference_.config().num_assets;
  UserState user;
  user.weights.assign(m + 1, 0.0);
  user.weights[0] = 1.0;  // Start fully in cash, like the backtester.
  user.pvm_row = user.weights;
  user.next_period = start_period;
  users_.push_back(std::move(user));
  return static_cast<int64_t>(users_.size()) - 1;
}

namespace {

/// Validates a submitted user id at the intake boundary.
bool KnownUser(int64_t user_id, int64_t num_users) {
  if (user_id >= 0 && user_id < num_users) return true;
  if (obs::Enabled()) {
    static thread_local obs::Counter& rejected =
        obs::GetCounter("serve.rejected.unknown_user");
    rejected.Add(1.0);
  }
  return false;
}

}  // namespace

bool PortfolioServer::SubmitTick(int64_t user_id) {
  return KnownUser(user_id, num_users()) &&
         queue_.Push({user_id, std::chrono::steady_clock::now()});
}

bool PortfolioServer::TrySubmitTick(int64_t user_id) {
  return KnownUser(user_id, num_users()) &&
         queue_.TryPush({user_id, std::chrono::steady_clock::now()});
}

void PortfolioServer::ApplyDecision(UserState* user, int64_t period,
                                    const float* action_row) {
  const int64_t m = inference_.config().num_assets;
  // Identical arithmetic, in identical order, to backtest::RunBacktest —
  // a served user's trajectory must be bit-equal to backtesting it alone.
  std::vector<double> prev_hat = user->weights;
  if (period >= 2) {
    prev_hat = backtest::DriftPortfolio(
        user->weights, market::PriceRelativesWithCash(*panel_, period - 1));
  }
  std::vector<double> action(m + 1);
  for (int64_t i = 0; i <= m; ++i) {
    action[i] = static_cast<double>(action_row[i]);
  }
  user->pvm_row = action;  // Raw output is the recursive policy input.
  PPN_CHECK(IsOnSimplex(action, 1e-4))
      << "serving policy produced a non-simplex portfolio at t=" << period;
  double total = 0.0;
  for (double& v : action) {
    v = std::max(v, 0.0);
    total += v;
  }
  for (double& v : action) v /= total;

  const backtest::NetWealthSolve solve =
      backtest::SolveNetWealthFactorDetailed(prev_hat, action, config_.costs);
  PPN_CHECK(solve.converged)
      << "net-wealth solve failed at t=" << period
      << " (psi_p=" << config_.costs.purchase_rate
      << ", psi_s=" << config_.costs.sale_rate << ")";
  const std::vector<double> relative =
      market::PriceRelativesWithCash(*panel_, period);
  const double gross_return = Dot(action, relative);
  PPN_CHECK_GT(gross_return, 0.0);
  user->wealth *= gross_return * solve.omega;
  user->weights = std::move(action);
  user->next_period = period + 1;
  ++user->decisions;
}

bool PortfolioServer::TakeBatch(bool block,
                                std::vector<TickRequest>* batch) {
  // Deferred same-user duplicates from the previous round go first; the
  // queue tops the batch up. Holdover is bounded by max_batch - 1, so the
  // combined batch never exceeds max_batch.
  std::vector<TickRequest> drained = std::move(holdover_);
  holdover_.clear();
  const int64_t room =
      config_.max_batch - static_cast<int64_t>(drained.size());
  if (drained.empty() && block) {
    if (queue_.PopBatch(&drained, config_.max_batch) == 0) return false;
  } else if (room > 0) {
    queue_.TryPopBatch(&drained, room);
  }
  if (drained.empty()) return false;

  // One request per user per batch: a user's ticks are strictly
  // sequential (decision t feeds decision t+1 through the PVM row), so
  // duplicates defer to the next round. A user at the end of the feed has
  // no period left to decide; its requests are dropped here.
  batch->clear();
  int64_t past_end = 0;
  std::vector<char> in_batch(users_.size(), 0);
  for (const TickRequest& request : drained) {
    if (users_[request.user_id].next_period >= panel_->num_periods()) {
      ++past_end;
    } else if (in_batch[request.user_id] != 0) {
      holdover_.push_back(request);
    } else {
      in_batch[request.user_id] = 1;
      batch->push_back(request);
    }
  }
  if (past_end > 0 && obs::Enabled()) {
    static thread_local obs::Counter& rejected =
        obs::GetCounter("serve.rejected.past_end");
    rejected.Add(static_cast<double>(past_end));
  }
  return true;
}

int64_t PortfolioServer::ServeBatch(const std::vector<TickRequest>& batch) {
  const int64_t b = static_cast<int64_t>(batch.size());
  if (b == 0) return 0;
  const int64_t m = inference_.config().num_assets;
  const int64_t k = inference_.config().window;

  // Group rows by decision period: one window per distinct period, each
  // row pointing at its period's window and carrying its own PVM row.
  std::vector<int64_t> periods;
  std::vector<int64_t> window_of_row(static_cast<size_t>(b));
  std::unordered_map<int64_t, int64_t> window_of_period;
  Tensor prev_actions = Tensor::Uninitialized({b, m});
  for (int64_t i = 0; i < b; ++i) {
    const UserState& user = users_[batch[i].user_id];
    const auto [slot, added] = window_of_period.emplace(
        user.next_period, static_cast<int64_t>(periods.size()));
    if (added) periods.push_back(user.next_period);
    window_of_row[i] = slot->second;
    for (int64_t a = 0; a < m; ++a) {
      prev_actions.MutableData()[i * m + a] =
          static_cast<float>(user.pvm_row[a + 1]);
    }
  }
  const int64_t d = static_cast<int64_t>(periods.size());
  Tensor windows =
      Tensor::Uninitialized({d, m, k, market::kNumPriceFields});
  const int64_t window_numel = m * k * market::kNumPriceFields;
  for (int64_t w = 0; w < d; ++w) {
    const Tensor window = market::NormalizedWindow(*panel_, periods[w] - 1, k);
    std::memcpy(windows.MutableData() + w * window_numel, window.Data(),
                static_cast<size_t>(window_numel) * sizeof(float));
  }

  // Features once per distinct period, the decision head once per row,
  // grad-free.
  Tensor out;
  {
    obs::ScopedTimer forward_timer("serve.forward.seconds");
    out = inference_.DecideBatch(windows, window_of_row, prev_actions);
  }

  // Scatter + ψ accounting, optionally fanned across the worker pool.
  // Tasks touch disjoint user states and the batch rows are fixed before
  // the fan-out, so results are bit-identical at any worker count.
  const float* rows = out.Data();
  for (int64_t i = 0; i < b; ++i) {
    UserState* user = &users_[batch[i].user_id];
    const int64_t period = user->next_period;
    const float* row = rows + i * (m + 1);
    accounting_pool_.Submit(
        [this, user, period, row] { ApplyDecision(user, period, row); });
  }
  accounting_pool_.Wait();

  // Metrics on the serving thread, in request order (deterministic).
  const auto applied = std::chrono::steady_clock::now();
  decisions_ += b;
  for (const TickRequest& request : batch) {
    latencies_.push_back(
        std::chrono::duration<double>(applied - request.submitted).count());
  }
  if (obs::Enabled()) {
    static thread_local obs::Counter& decisions =
        obs::GetCounter("serve.decisions");
    static thread_local obs::Counter& feature_rows =
        obs::GetCounter("serve.features.rows");
    static thread_local obs::Histogram& batch_size =
        obs::GetHistogram("serve.batch.size");
    static thread_local obs::Histogram& latency =
        obs::GetHistogram("serve.decide.latency.seconds");
    decisions.Add(static_cast<double>(b));
    feature_rows.Add(static_cast<double>(d));
    batch_size.Observe(static_cast<double>(b));
    for (size_t i = latencies_.size() - static_cast<size_t>(b);
         i < latencies_.size(); ++i) {
      latency.Observe(latencies_[i]);
    }
  }
  return b;
}

int64_t PortfolioServer::ProcessBatch() {
  std::vector<TickRequest> batch;
  while (TakeBatch(/*block=*/true, &batch)) {
    const int64_t served = ServeBatch(batch);
    if (served > 0) return served;
  }
  return 0;
}

int64_t PortfolioServer::DrainPending() {
  int64_t total = 0;
  std::vector<TickRequest> batch;
  while (TakeBatch(/*block=*/false, &batch)) total += ServeBatch(batch);
  return total;
}

void PortfolioServer::CloseIntake() { queue_.Close(); }

const UserState& PortfolioServer::user(int64_t user_id) const {
  PPN_CHECK_GE(user_id, 0);
  PPN_CHECK_LT(user_id, num_users());
  return users_[static_cast<size_t>(user_id)];
}

}  // namespace ppn::serve
