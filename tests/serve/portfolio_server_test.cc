// PortfolioServer contract: the batched grad-free forward is bit-identical
// to per-user sequential serving at any batch size (tensor pool on or off),
// users sharing a period share its features but not its decision, a single
// served user reproduces the backtester's wealth trajectory exactly (also
// through a delisting), the bounded intake queue sheds/defers correctly,
// bad ticks and bad bookings are rejected without touching any user, and
// serving metrics reach the obs layer.

#include "serve/portfolio_server.h"

#include <gtest/gtest.h>

#include "backtest/backtester.h"
#include "market/generator.h"
#include "obs/stats.h"
#include "ppn/strategy_adapter.h"
#include "tensor/pool.h"

namespace ppn::serve {
namespace {

market::OhlcPanel TestPanel(int64_t assets = 3, int64_t periods = 160) {
  market::SyntheticMarketConfig config;
  config.num_assets = assets;
  config.num_periods = periods;
  config.seed = 7;
  config.late_listing_fraction = 0.0;
  market::SyntheticMarketGenerator generator(config);
  return generator.Generate();
}

core::PolicyConfig SmallConfig(int64_t assets = 3) {
  core::PolicyConfig config;
  config.variant = core::PolicyVariant::kPpn;
  config.num_assets = assets;
  config.window = 10;
  config.lstm_hidden = 4;
  config.block1_channels = 3;
  config.block2_channels = 4;
  return config;
}

std::unique_ptr<core::PolicyModule> MakeTestPolicy(int64_t assets = 3) {
  Rng init(1), dropout(2);
  return core::MakePolicy(SmallConfig(assets), &init, &dropout);
}

ServerConfig SmallServerConfig(int64_t max_batch) {
  ServerConfig config;
  config.max_batch = max_batch;
  config.queue_capacity = 1024;
  config.costs = backtest::CostModel::Uniform(0.0025);
  return config;
}

struct UserResult {
  double wealth;
  std::vector<double> weights;
  std::vector<double> pvm_row;
  int64_t decisions;
};

/// Runs `num_users` staggered users for `ticks` rounds through one server
/// and returns their final states.
std::vector<UserResult> RunServer(const market::OhlcPanel& panel,
                                  core::PolicyModule* policy,
                                  int64_t max_batch, int64_t num_users,
                                  int64_t ticks) {
  PortfolioServer server(&panel, policy, SmallServerConfig(max_batch));
  for (int64_t u = 0; u < num_users; ++u) {
    server.AddUser(20 + (u % 7));  // Staggered starts: batch rows differ.
  }
  for (int64_t tick = 0; tick < ticks; ++tick) {
    for (int64_t u = 0; u < num_users; ++u) {
      EXPECT_TRUE(server.SubmitTick(u));
    }
    server.DrainPending();
  }
  std::vector<UserResult> results;
  for (int64_t u = 0; u < num_users; ++u) {
    const UserState& user = server.user(u);
    results.push_back(
        {user.wealth, user.weights, user.pvm_row, user.decisions});
  }
  return results;
}

UserResult ResultOf(const UserState& user) {
  return {user.wealth, user.weights, user.pvm_row, user.decisions};
}

/// Backtest wealth of `policy` from `start` up to (excluding) `end`.
double BacktestWealth(const market::OhlcPanel& panel,
                      core::PolicyModule* policy, int64_t start,
                      int64_t end) {
  core::PolicyStrategy strategy(policy, "PPN");
  backtest::BacktestConfig config;
  config.start_period = start;
  config.end_period = end;
  config.costs = backtest::CostModel::Uniform(0.0025);
  return backtest::RunBacktest(&strategy, panel, config).wealth_curve.back();
}

void ExpectBitIdentical(const std::vector<UserResult>& a,
                        const std::vector<UserResult>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t u = 0; u < a.size(); ++u) {
    SCOPED_TRACE(label + ", user " + std::to_string(u));
    EXPECT_EQ(a[u].decisions, b[u].decisions);
    EXPECT_EQ(a[u].wealth, b[u].wealth);  // Bitwise, not approximate.
    ASSERT_EQ(a[u].weights.size(), b[u].weights.size());
    for (size_t i = 0; i < a[u].weights.size(); ++i) {
      EXPECT_EQ(a[u].weights[i], b[u].weights[i]) << "weights[" << i << "]";
      EXPECT_EQ(a[u].pvm_row[i], b[u].pvm_row[i]) << "pvm_row[" << i << "]";
    }
  }
}

TEST(PortfolioServerTest, BatchSizeNeverChangesResults) {
  const market::OhlcPanel panel = TestPanel();
  auto policy = MakeTestPolicy();
  constexpr int64_t kUsers = 64;
  constexpr int64_t kTicks = 100;
  const std::vector<UserResult> batched =
      RunServer(panel, policy.get(), /*max_batch=*/64, kUsers, kTicks);
  for (const int64_t max_batch : {int64_t{1}, int64_t{7}}) {
    const std::vector<UserResult> other =
        RunServer(panel, policy.get(), max_batch, kUsers, kTicks);
    ExpectBitIdentical(batched, other,
                       "max_batch=" + std::to_string(max_batch));
  }
}

/// One user from period 20; between rounds, two more join at the period
/// the first has reached, so batches hold one period with different PVM
/// rows. Returns the final states and each user's start period.
std::vector<UserResult> RunJoiningUsers(const market::OhlcPanel& panel,
                                        core::PolicyModule* policy,
                                        int64_t max_batch,
                                        std::vector<int64_t>* starts) {
  PortfolioServer server(&panel, policy, SmallServerConfig(max_batch));
  starts->assign(1, 20);
  server.AddUser(starts->back());
  for (int64_t round = 0; round < 30; ++round) {
    if (round == 6 || round == 12) {
      starts->push_back(server.user(0).next_period);
      server.AddUser(starts->back());
    }
    for (int64_t u = 0; u < server.num_users(); ++u) {
      EXPECT_TRUE(server.SubmitTick(u));
    }
    server.DrainPending();
    if (round == 6 || round == 12) {
      // Same period, different PVM rows: the newcomer's decision differs.
      const UserState& newcomer = server.user(server.num_users() - 1);
      EXPECT_EQ(newcomer.next_period, server.user(0).next_period);
      EXPECT_NE(newcomer.pvm_row, server.user(0).pvm_row);
    }
  }
  std::vector<UserResult> results;
  for (int64_t u = 0; u < server.num_users(); ++u) {
    results.push_back(ResultOf(server.user(u)));
  }
  return results;
}

TEST(PortfolioServerTest, UsersSharingAPeriodKeepTheirOwnDecisions) {
  const market::OhlcPanel panel = TestPanel();
  auto policy = MakeTestPolicy();
  std::vector<int64_t> starts;
  const std::vector<UserResult> shared =
      RunJoiningUsers(panel, policy.get(), /*max_batch=*/8, &starts);
  ASSERT_EQ(shared.size(), 3u);

  std::vector<int64_t> solo_starts;
  const std::vector<UserResult> solo =
      RunJoiningUsers(panel, policy.get(), /*max_batch=*/1, &solo_starts);
  EXPECT_EQ(starts, solo_starts);
  ExpectBitIdentical(shared, solo, "max_batch=1");
  for (size_t u = 0; u < shared.size(); ++u) {
    const double replayed = BacktestWealth(
        panel, policy.get(), starts[u], starts[u] + shared[u].decisions);
    EXPECT_EQ(shared[u].wealth, replayed) << "user " << u;
  }
}

TEST(PortfolioServerTest, UnknownUserIsRejectedAtSubmit) {
#ifndef PPN_OBS_DISABLED
  obs::ScopedObsEnable obs_on;
  obs::ResetAll();
#endif
  const market::OhlcPanel panel = TestPanel();
  auto policy = MakeTestPolicy();
  const auto run = [&](bool bad_requests) {
    PortfolioServer server(&panel, policy.get(), SmallServerConfig(8));
    for (int64_t u = 0; u < 3; ++u) server.AddUser(20 + u);
    for (int round = 0; round < 10; ++round) {
      EXPECT_TRUE(server.SubmitTick(0));
      if (bad_requests) {
        EXPECT_FALSE(server.SubmitTick(-1));
        EXPECT_FALSE(server.SubmitTick(3));
        EXPECT_FALSE(server.TrySubmitTick(1000));
      }
      EXPECT_TRUE(server.SubmitTick(1));
      EXPECT_TRUE(server.TrySubmitTick(2));
      EXPECT_EQ(server.DrainPending(), 3);
    }
    std::vector<UserResult> results;
    for (int64_t u = 0; u < server.num_users(); ++u) {
      results.push_back(ResultOf(server.user(u)));
    }
    return results;
  };
  const std::vector<UserResult> clean = run(false);
  const std::vector<UserResult> with_bad = run(true);
  ExpectBitIdentical(clean, with_bad, "unknown users submitted");
#ifndef PPN_OBS_DISABLED
  EXPECT_EQ(obs::TakeSnapshot().counters.at("serve.rejected.unknown_user"),
            30.0);
#endif
}

TEST(PortfolioServerTest, TickPastTheEndOfTheFeedIsDropped) {
#ifndef PPN_OBS_DISABLED
  obs::ScopedObsEnable obs_on;
  obs::ResetAll();
#endif
  const market::OhlcPanel panel = TestPanel();  // Periods 0..159.
  auto policy = MakeTestPolicy();
  // Users 0 and 1 share a period and have ten periods left; user 2 ticks
  // every round from an earlier start. In the bad run user 0 ticks on,
  // twice a round, past the end of the feed.
  const auto run = [&](bool ticks_past_end, int64_t max_batch) {
    PortfolioServer server(&panel, policy.get(),
                           SmallServerConfig(max_batch));
    server.AddUser(150);
    server.AddUser(150);
    server.AddUser(140);
    for (int round = 0; round < 14; ++round) {
      if (round < 10) {
        EXPECT_TRUE(server.SubmitTick(0));
        EXPECT_TRUE(server.SubmitTick(1));
      } else if (ticks_past_end) {
        EXPECT_TRUE(server.SubmitTick(0));
        EXPECT_TRUE(server.SubmitTick(0));
      }
      EXPECT_TRUE(server.SubmitTick(2));
      server.DrainPending();
    }
    std::vector<UserResult> results;
    for (int64_t u = 0; u < server.num_users(); ++u) {
      results.push_back(ResultOf(server.user(u)));
    }
    EXPECT_EQ(server.user(0).next_period, panel.num_periods());
    return results;
  };
  const std::vector<UserResult> clean = run(false, 8);
  for (const int64_t max_batch : {int64_t{8}, int64_t{1}}) {
    ExpectBitIdentical(clean, run(true, max_batch),
                       "past-end ticks, max_batch=" +
                           std::to_string(max_batch));
  }
  EXPECT_EQ(clean[0].decisions, 10);
  EXPECT_EQ(clean[2].decisions, 14);
#ifndef PPN_OBS_DISABLED
  // Two bad runs × four rounds × two ticks.
  EXPECT_EQ(obs::TakeSnapshot().counters.at("serve.rejected.past_end"),
            16.0);
#endif
}

TEST(PortfolioServerTest, RoundOfOnlyRejectedTicksMovesOn) {
  const market::OhlcPanel panel = TestPanel();
  auto policy = MakeTestPolicy();
  PortfolioServer server(&panel, policy.get(), SmallServerConfig(1));
  const int64_t done = server.AddUser(panel.num_periods() - 1);
  const int64_t live = server.AddUser(20);
  ASSERT_TRUE(server.SubmitTick(done));
  ASSERT_EQ(server.ProcessBatch(), 1);  // Its last period.
  const UserResult before = ResultOf(server.user(done));

  // A one-row round of a past-end tick does not end ProcessBatch: it goes
  // on to the next round and serves the live user.
  ASSERT_TRUE(server.SubmitTick(done));
  ASSERT_TRUE(server.SubmitTick(live));
  EXPECT_EQ(server.ProcessBatch(), 1);
  EXPECT_EQ(server.user(live).decisions, 1);
  ExpectBitIdentical({before}, {ResultOf(server.user(done))}, "past end");

  // Only rejected work left: drains to nothing without blocking, and a
  // closed intake still ends ProcessBatch with 0.
  ASSERT_TRUE(server.SubmitTick(done));
  EXPECT_EQ(server.DrainPending(), 0);
  ASSERT_TRUE(server.SubmitTick(done));
  server.CloseIntake();
  EXPECT_EQ(server.ProcessBatch(), 0);
  EXPECT_EQ(server.decisions(), 2);
}

TEST(PortfolioServerTest, BadBookingRejectsOnlyThatRequest) {
#ifndef PPN_OBS_DISABLED
  obs::ScopedObsEnable obs_on;
  obs::ResetAll();
#endif
  // At ψ = 0.9999 a full buy from cash hits the solver's iteration cap
  // (as in BookPeriodTest.NonConvergedSolveIsAStatus). Every user starts
  // in cash, and a cash row of -100 against all-ones decision weights
  // leaves the policy ~e^-500 in cash, so every booking fails.
  const market::OhlcPanel panel = TestPanel();
  core::PolicyConfig policy_config = SmallConfig();
  policy_config.cash_bias = -100.0f;
  Rng init(1), dropout(2);
  auto policy = core::MakePolicy(policy_config, &init, &dropout);
  for (auto& [name, param] : policy->NamedParameters()) {
    if (name.rfind("decision/", 0) == 0) {
      Tensor* value = param->mutable_value();
      for (int64_t i = 0; i < value->numel(); ++i) {
        value->MutableData()[i] = 1.0f;
      }
    }
  }
  ServerConfig config = SmallServerConfig(8);
  config.costs = backtest::CostModel::Uniform(0.9999);
  PortfolioServer server(&panel, policy.get(), config);
  for (int64_t u = 0; u < 3; ++u) server.AddUser(20 + u);
  std::vector<UserResult> before;
  for (int64_t u = 0; u < 3; ++u) before.push_back(ResultOf(server.user(u)));

  for (int round = 0; round < 4; ++round) {
    for (int64_t u = 0; u < 3; ++u) ASSERT_TRUE(server.SubmitTick(u));
    EXPECT_EQ(server.DrainPending(), 0);
  }
  for (int64_t u = 0; u < 3; ++u) ASSERT_TRUE(server.SubmitTick(u));
  server.CloseIntake();
  EXPECT_EQ(server.ProcessBatch(), 0);

  std::vector<UserResult> after;
  for (int64_t u = 0; u < 3; ++u) {
    after.push_back(ResultOf(server.user(u)));
    EXPECT_EQ(server.user(u).next_period, 20 + u);
  }
  ExpectBitIdentical(before, after, "rejected bookings");
  EXPECT_EQ(server.decisions(), 0);
  EXPECT_TRUE(server.latency_seconds().empty());
#ifndef PPN_OBS_DISABLED
  const obs::Snapshot snapshot = obs::TakeSnapshot();
  EXPECT_EQ(snapshot.counters.at("serve.rejected.booking"), 15.0);
  EXPECT_EQ(snapshot.counters.at("serve.decisions"), 0.0);
#endif
}

TEST(PortfolioServerTest, PoolDisabledMatchesPoolEnabled) {
  // Same comparison the PPN_NO_POOL=1 env switch exercises: the pool and
  // the plain heap path must produce bit-identical decisions.
  const market::OhlcPanel panel = TestPanel();
  auto policy = MakeTestPolicy();
  constexpr int64_t kUsers = 16;
  constexpr int64_t kTicks = 100;
  const std::vector<UserResult> pooled =
      RunServer(panel, policy.get(), /*max_batch=*/16, kUsers, kTicks);
  pool::ScopedPoolDisable no_pool;
  const std::vector<UserResult> unpooled =
      RunServer(panel, policy.get(), /*max_batch=*/16, kUsers, kTicks);
  ExpectBitIdentical(pooled, unpooled, "pool off");
}

TEST(PortfolioServerTest, SingleUserMatchesBacktesterExactly) {
  constexpr int64_t kStart = 20;
  constexpr int64_t kEnd = 120;
  constexpr int64_t kDelisted = 70;
  // The plain panel, and a copy on which asset 0 stops trading at
  // kDelisted, mid-range: the backtester force-sells it there, so the
  // server must too.
  const market::OhlcPanel plain = TestPanel();
  const market::OhlcPanel delisted = [&] {
    market::OhlcPanel panel = plain;
    for (int64_t t = kDelisted; t < panel.num_periods(); ++t) {
      panel.SetTradeable(t, 0, false);
    }
    return panel;
  }();
  auto policy = MakeTestPolicy();
  for (const market::OhlcPanel* panel : {&plain, &delisted}) {
    SCOPED_TRACE(panel == &plain ? "plain panel" : "asset 0 delisted");
    core::PolicyStrategy strategy(policy.get(), "PPN");
    backtest::BacktestConfig config;
    config.start_period = kStart;
    config.end_period = kEnd;
    config.costs = backtest::CostModel::Uniform(0.0025);
    const backtest::BacktestRecord record =
        backtest::RunBacktest(&strategy, *panel, config);

    PortfolioServer server(panel, policy.get(), SmallServerConfig(8));
    const int64_t user = server.AddUser(kStart);
    for (int64_t t = kStart; t < kEnd; ++t) {
      ASSERT_TRUE(server.SubmitTick(user));
      ASSERT_EQ(server.ProcessBatch(), 1);
      ASSERT_EQ(server.user(user).wealth, record.wealth_curve[t - kStart])
          << "wealth diverged from the backtester at t=" << t;
      ASSERT_EQ(server.user(user).weights, record.actions[t - kStart])
          << "holdings diverged from the backtester at t=" << t;
    }
    EXPECT_EQ(server.user(user).decisions, kEnd - kStart);
    if (panel == &delisted) {
      EXPECT_EQ(server.user(user).weights[1], 0.0);  // Asset 0 sold.
    }
  }
}

TEST(PortfolioServerTest, DuplicateTicksDeferToLaterRounds) {
  const market::OhlcPanel panel = TestPanel();
  auto policy = MakeTestPolicy();
  PortfolioServer server(&panel, policy.get(), SmallServerConfig(8));
  const int64_t u0 = server.AddUser(20);
  const int64_t u1 = server.AddUser(20);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(server.SubmitTick(u0));
  ASSERT_TRUE(server.SubmitTick(u1));

  // Round one serves each user once; the two duplicate u0 ticks hold over.
  EXPECT_EQ(server.ProcessBatch(), 2);
  EXPECT_EQ(server.user(u0).decisions, 1);
  EXPECT_EQ(server.user(u1).decisions, 1);

  EXPECT_EQ(server.DrainPending(), 2);
  EXPECT_EQ(server.user(u0).decisions, 3);
  EXPECT_EQ(server.user(u0).next_period, 23);
  EXPECT_EQ(server.decisions(), 4);
  EXPECT_EQ(server.latency_seconds().size(), 4u);
}

TEST(PortfolioServerTest, FullQueueShedsTrySubmit) {
  const market::OhlcPanel panel = TestPanel();
  auto policy = MakeTestPolicy();
  ServerConfig config = SmallServerConfig(8);
  config.queue_capacity = 4;
  PortfolioServer server(&panel, policy.get(), config);
  const int64_t user = server.AddUser(20);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(server.TrySubmitTick(user));
  EXPECT_FALSE(server.TrySubmitTick(user));  // Admission control kicks in.
  server.DrainPending();
  EXPECT_TRUE(server.TrySubmitTick(user));  // Capacity freed.
}

TEST(PortfolioServerTest, CloseIntakeRejectsAndDrains) {
  const market::OhlcPanel panel = TestPanel();
  auto policy = MakeTestPolicy();
  PortfolioServer server(&panel, policy.get(), SmallServerConfig(8));
  const int64_t user = server.AddUser(20);
  ASSERT_TRUE(server.SubmitTick(user));
  server.CloseIntake();
  EXPECT_FALSE(server.SubmitTick(user));
  EXPECT_FALSE(server.TrySubmitTick(user));
  EXPECT_EQ(server.ProcessBatch(), 1);  // Admitted work still serves.
  EXPECT_EQ(server.ProcessBatch(), 0);  // Closed and fully drained.
}

TEST(PortfolioServerTest, MetricsReachTheObsLayer) {
#ifdef PPN_OBS_DISABLED
  GTEST_SKIP() << "obs compiled out (-DPPN_OBS_COMPILED=OFF)";
#endif
  obs::ScopedObsEnable obs_on;
  obs::ResetAll();
  const market::OhlcPanel panel = TestPanel();
  auto policy = MakeTestPolicy();
  PortfolioServer server(&panel, policy.get(), SmallServerConfig(8));
  const int64_t u0 = server.AddUser(20);
  const int64_t u1 = server.AddUser(21);
  const int64_t u2 = server.AddUser(20);  // Shares u0's periods.
  for (int tick = 0; tick < 5; ++tick) {
    ASSERT_TRUE(server.SubmitTick(u0));
    ASSERT_TRUE(server.SubmitTick(u1));
    ASSERT_TRUE(server.SubmitTick(u2));
    server.DrainPending();
  }
  const obs::Snapshot snapshot = obs::TakeSnapshot();
  ASSERT_NE(snapshot.counters.find("serve.decisions"),
            snapshot.counters.end());
  EXPECT_EQ(snapshot.counters.at("serve.decisions"), 15.0);
  // One feature row per distinct period per batch: two of three rows.
  ASSERT_NE(snapshot.counters.find("serve.features.rows"),
            snapshot.counters.end());
  EXPECT_EQ(snapshot.counters.at("serve.features.rows"), 10.0);
  ASSERT_NE(snapshot.histograms.find("serve.decide.latency.seconds"),
            snapshot.histograms.end());
  EXPECT_EQ(snapshot.histograms.at("serve.decide.latency.seconds").count, 15);
  ASSERT_NE(snapshot.histograms.find("serve.batch.size"),
            snapshot.histograms.end());
  // The batched forward must not touch the tape.
  const auto tape = snapshot.counters.find("autograd.tape.nodes");
  EXPECT_TRUE(tape == snapshot.counters.end() || tape->second == 0.0);
}

TEST(PortfolioServerDeathTest, UserWithoutHistoryAborts) {
  const market::OhlcPanel panel = TestPanel();
  auto policy = MakeTestPolicy();
  PortfolioServer server(&panel, policy.get(), SmallServerConfig(8));
  EXPECT_DEATH(server.AddUser(5), "history");
}

TEST(PortfolioServerDeathTest, AssetMismatchAborts) {
  const market::OhlcPanel panel = TestPanel(/*assets=*/5);
  auto policy = MakeTestPolicy(/*assets=*/3);
  EXPECT_DEATH(
      PortfolioServer(&panel, policy.get(), SmallServerConfig(8)),
      "PPN_CHECK");
}

}  // namespace
}  // namespace ppn::serve
