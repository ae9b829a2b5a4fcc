#ifndef PPN_SERVE_PORTFOLIO_SERVER_H_
#define PPN_SERVE_PORTFOLIO_SERVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "backtest/costs.h"
#include "exec/thread_pool.h"
#include "market/dataset.h"
#include "ppn/policy_inference.h"
#include "serve/request_queue.h"

/// \file
/// The policy-serving engine: advances many independent user portfolios
/// through one trained policy network. Per tick the server drains admitted
/// requests from the bounded intake queue and groups them by the period
/// each user decides next. It builds one normalized price window and runs
/// the policy's market features once per distinct period, then runs the
/// shared decision head once over all rows, each row pairing its period's
/// features with the user's own PVM row. Finally it scatters the weight
/// rows back and applies the ψ transaction-cost accounting per user —
/// exactly the backtester's arithmetic. The previous action enters only at
/// the head, and every kernel is row-independent with a fixed accumulation
/// order, so a served user's wealth trajectory is bit-identical to
/// backtesting that user alone, however many users share its period.

namespace ppn::serve {

/// Serving knobs.
struct ServerConfig {
  /// Upper bound on users per batch.
  int64_t max_batch = 256;
  /// Intake queue bound (admission control / backpressure, see
  /// `RequestQueue`).
  int64_t queue_capacity = 4096;
  /// Worker threads for the per-user ψ-accounting scatter (0 = inline).
  /// Results are bit-identical at any worker count: each task touches one
  /// user's disjoint state and the forward pass runs on the serving
  /// thread.
  int workers = 0;
  /// Transaction-cost model applied on every rebalance.
  backtest::CostModel costs;
};

/// Everything the server tracks per user. `weights` is the clipped and
/// renormalized portfolio actually held (cash at index 0); `pvm_row` is
/// the raw previous network output, fed back as the policy's recursive
/// input (the serving-side portfolio-vector-memory row — same convention
/// as `core::PolicyStrategy`).
struct UserState {
  std::vector<double> weights;
  std::vector<double> pvm_row;
  double wealth = 1.0;
  int64_t next_period = 0;
  int64_t decisions = 0;
};

/// Batched grad-free inference server over one market panel and one
/// trained policy. Submissions (`SubmitTick` / `TrySubmitTick`) are
/// thread-safe; `ProcessBatch` is the single-consumer serving loop.
class PortfolioServer {
 public:
  /// `panel` and `policy` must outlive the server. The panel must cover
  /// every period the users will be advanced through. Forces the policy
  /// into eval mode.
  PortfolioServer(const market::OhlcPanel* panel, core::PolicyModule* policy,
                  ServerConfig config);

  /// Registers a user starting fully in cash whose first decision period
  /// is `start_period` (must allow a full lookback window). Returns the
  /// user id. Not safe concurrently with `ProcessBatch`.
  int64_t AddUser(int64_t start_period);

  /// Enqueues one tick advance for `user_id`, blocking while the intake
  /// queue is full (backpressure). False when intake is closed, or when
  /// `user_id` is not a registered user (counted in
  /// `serve.rejected.unknown_user`).
  bool SubmitTick(int64_t user_id);

  /// Non-blocking variant: false when the queue is full or closed
  /// (admission control — the caller sheds the request), or when
  /// `user_id` is unknown (as for `SubmitTick`).
  bool TrySubmitTick(int64_t user_id);

  /// One serving round: drains up to `max_batch` admitted requests
  /// (blocking until at least one arrives or intake is closed), computes
  /// features once per distinct period and the decision head once per
  /// row, applies the cost model per user, records metrics. Duplicate
  /// requests for the same user within a round are deferred to the next
  /// round — a user's ticks are strictly sequential. A request whose user
  /// has reached the end of the feed is dropped, leaving the user as it
  /// was, and counted in `serve.rejected.past_end`; a round of only such
  /// requests moves on to the next one. Returns the number of decisions
  /// made; 0 means intake closed and fully drained.
  int64_t ProcessBatch();

  /// Serves rounds as `ProcessBatch` does until the queue and holdover
  /// are empty. Returns total decisions made. (Non-blocking: intended for
  /// a thread that has already submitted the work.)
  int64_t DrainPending();

  /// Closes intake: later submissions fail, blocked submitters wake.
  void CloseIntake();

  int64_t num_users() const { return static_cast<int64_t>(users_.size()); }
  const UserState& user(int64_t user_id) const;

  /// Total decisions served.
  int64_t decisions() const { return decisions_; }

  /// Exact per-decision latency samples in seconds (submit → state
  /// applied), in completion order. Grows by one per decision; intended
  /// for end-of-run percentile reporting.
  const std::vector<double>& latency_seconds() const { return latencies_; }

 private:
  /// Moves the next round's requests into `batch`: holdover first, then
  /// the queue (a blocking pop only if `block` and there is no holdover).
  /// Defers same-user duplicates and drops past-the-end requests. False
  /// when nothing was drained (closed and drained if `block`).
  bool TakeBatch(bool block, std::vector<TickRequest>* batch);

  /// Decides and applies one round of distinct users; returns its size.
  int64_t ServeBatch(const std::vector<TickRequest>& batch);

  /// Applies one scattered decision row to one user (ψ accounting).
  void ApplyDecision(UserState* user, int64_t period,
                     const float* action_row);

  const market::OhlcPanel* panel_;
  core::PolicyInference inference_;
  ServerConfig config_;
  RequestQueue queue_;
  exec::ThreadPool accounting_pool_;
  std::vector<UserState> users_;
  /// Requests deferred from the previous round (same-user duplicates).
  std::vector<TickRequest> holdover_;
  std::vector<double> latencies_;
  int64_t decisions_ = 0;
};

}  // namespace ppn::serve

#endif  // PPN_SERVE_PORTFOLIO_SERVER_H_
