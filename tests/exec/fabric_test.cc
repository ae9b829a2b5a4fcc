// The multi-process sweep fabric: merged results must be bit-identical to
// the in-process runner at any process count — including when a worker is
// SIGKILLed mid-sweep and a replacement rejoins, and when a hung worker's
// cell is re-dispatched to a backup. Workers are real processes: each test
// fork/execs the ppn_cli binary (PPN_CLI_BIN, injected by CMake) as
// `sweep-worker`, a shell script that wraps it, or one that breaks the
// channel protocol.

#include "exec/fabric.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/parallel.h"
#include "exec/experiment.h"
#include "obs/stats.h"

namespace ppn::exec {
namespace {

using strategies::StrategySpec;

// Workers rebuild the spec from flags via GetRunScale(), so the scale must
// travel through the environment, not just the in-process spec.
const bool kScaleForced = [] {
  ::setenv("PPN_SCALE", "smoke", 1);
  return true;
}();

/// Sets an env var for one test and restores the previous state on exit,
/// so fault-injection knobs cannot leak into later tests' worker fleets.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (had_old_) ::setenv(name_, old_.c_str(), 1);
    else ::unsetenv(name_);
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/fabric_" + name;
  std::filesystem::remove_all(dir);
  return dir;  // Created by the fabric.
}

/// Classic-baseline spec: no training, so twelve cells finish in seconds
/// even on one core, and every metric is exactly reproducible.
ExperimentSpec SmallSpec() {
  ExperimentSpec spec;
  spec.title = "fabric test";
  spec.scale = RunScale::kSmoke;
  spec.datasets = {market::DatasetId::kCryptoA};
  spec.strategies = {StrategySpec{.name = "UBAH"}, StrategySpec{.name = "CRP"},
                     StrategySpec{.name = "OLMAR"}};
  spec.cost_rates = {0.0, 0.0025};
  spec.seeds = {1, 7};
  return spec;
}

/// The worker argv that rebuilds SmallSpec() from flags. Must agree with
/// the spec above or the workers reject every task.
std::vector<std::string> SmallSpecArgv() {
  return {PPN_CLI_BIN,      "sweep-worker", "--datasets", "crypto-a",
          "--strategies",   "UBAH,CRP,OLMAR",
          "--costs",        "0,0.0025",
          "--seeds",        "1,7"};
}

FabricOptions BaseOptions(const std::string& dir_name) {
  FabricOptions options;
  options.fabric_dir = FreshDir(dir_name);
  options.worker_argv = SmallSpecArgv();
  options.worker_timeout_s = 300.0;  // No accidental straggler triggers.
  options.max_restarts = 8;
  return options;
}

void ExpectIdenticalRows(const std::vector<CellResult>& a,
                         const std::vector<CellResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    EXPECT_EQ(a[i].key.strategy, b[i].key.strategy);
    EXPECT_EQ(a[i].key.dataset, b[i].key.dataset);
    EXPECT_EQ(a[i].key.cost_rate, b[i].key.cost_rate);
    EXPECT_EQ(a[i].key.seed, b[i].key.seed);
    EXPECT_EQ(a[i].derived_seed, b[i].derived_seed);
    // Bitwise equality is the contract, not near-equality.
    EXPECT_EQ(a[i].metrics.apv, b[i].metrics.apv);
    EXPECT_EQ(a[i].metrics.sr_pct, b[i].metrics.sr_pct);
    EXPECT_EQ(a[i].metrics.std_pct, b[i].metrics.std_pct);
    EXPECT_EQ(a[i].metrics.mdd_pct, b[i].metrics.mdd_pct);
    EXPECT_EQ(a[i].metrics.cr, b[i].metrics.cr);
    EXPECT_EQ(a[i].metrics.turnover, b[i].metrics.turnover);
  }
}

std::vector<CellResult> InProcessRows(const ExperimentSpec& spec) {
  return ExperimentRunner(0).Run(spec);
}

TEST(FabricTest, TwoProcessesMatchInProcessRunner) {
  const ExperimentSpec spec = SmallSpec();
  FabricOptions options = BaseOptions("two_proc");
  options.num_processes = 2;
  FabricStats stats;
  const std::vector<CellResult> rows = RunSweepFabric(spec, options, &stats);
  ExpectIdenticalRows(InProcessRows(spec), rows);
  EXPECT_EQ(stats.workers_spawned, 2);
  EXPECT_EQ(stats.workers_died, 0);
  EXPECT_EQ(stats.ckpt_write_failures, 0);
  // Scratch is cleaned up after a fully successful run.
  EXPECT_FALSE(std::filesystem::exists(options.fabric_dir));
}

TEST(FabricTest, EachWorkerRunsAnOpenMpTeamOfItsShareOfTheCores) {
  // Each worker records its OMP_NUM_THREADS, then execs the real worker;
  // the coordinator's own value (7) must not reach it. `sh -c` puts the
  // fabric's flags in $0, $1, ..., so the slot is $3.
  const ExperimentSpec spec = SmallSpec();
  const ScopedEnv coordinator_team("OMP_NUM_THREADS", "7");
  for (const int processes : {1, HardwareThreads()}) {
    const std::string record =
        FreshDir("omp_teams_" + std::to_string(processes));
    std::filesystem::create_directories(record);
    std::string script =
        "echo \"$OMP_NUM_THREADS\" > " + record + "/$3; exec";
    for (const std::string& arg : SmallSpecArgv()) script += " " + arg;
    FabricOptions options = BaseOptions("omp_" + std::to_string(processes));
    options.num_processes = processes;
    options.worker_argv = {"/bin/sh", "-c", script + " \"$0\" \"$@\""};
    ExpectIdenticalRows(InProcessRows(spec), RunSweepFabric(spec, options));
    int workers = 0;
    for (const auto& entry : std::filesystem::directory_iterator(record)) {
      std::ifstream in(entry.path());
      int team = 0;
      in >> team;
      EXPECT_EQ(team, std::max(1, HardwareThreads() / processes))
          << processes << " processes, slot " << entry.path().filename();
      ++workers;
    }
    EXPECT_GE(workers, 1) << processes << " processes";
  }
}

TEST(FabricTest, SigkilledWorkerIsRespawnedAndResultsAreIdentical) {
  // One slot, killed by SIGKILL after its first completed cell: the
  // coordinator must requeue whatever it held, respawn the slot (with the
  // fault knob stripped from the replacement), and still merge rows
  // bit-identical to the in-process run.
  const ScopedEnv kill("PPN_FABRIC_TEST_KILL_AFTER", "0:1");
  const ExperimentSpec spec = SmallSpec();
  FabricOptions options = BaseOptions("kill");
  options.num_processes = 1;
  FabricStats stats;
  const std::vector<CellResult> rows = RunSweepFabric(spec, options, &stats);
  ExpectIdenticalRows(InProcessRows(spec), rows);
  EXPECT_GE(stats.workers_died, 1);
  EXPECT_GE(stats.workers_restarted, 1);
}

TEST(FabricTest, KilledWorkersCellGoesToTheSurvivor) {
  // Two slots, slot 0 dies early: its cell is requeued and slot 1 (or the
  // respawned slot 0) runs it — either way, identical bits.
  const ScopedEnv kill("PPN_FABRIC_TEST_KILL_AFTER", "0:1");
  const ExperimentSpec spec = SmallSpec();
  FabricOptions options = BaseOptions("kill_steal");
  options.num_processes = 2;
  FabricStats stats;
  const std::vector<CellResult> rows = RunSweepFabric(spec, options, &stats);
  ExpectIdenticalRows(InProcessRows(spec), rows);
  EXPECT_GE(stats.workers_died, 1);
}

TEST(FabricTest, HungWorkerCellIsRedispatchedToABackup) {
  // Slot 0 hangs forever on its first cell. The cell goes late, the
  // coordinator queues a backup, slot 1 computes it, and the straggler is
  // killed at shutdown without poisoning anything.
  const ScopedEnv hang("PPN_FABRIC_TEST_HANG_AFTER", "0:1");
  const ExperimentSpec spec = SmallSpec();
  FabricOptions options = BaseOptions("hang");
  options.num_processes = 2;
  options.worker_timeout_s = 0.3;
  FabricStats stats;
  const std::vector<CellResult> rows = RunSweepFabric(spec, options, &stats);
  ExpectIdenticalRows(InProcessRows(spec), rows);
  EXPECT_GE(stats.cells_redispatched, 1);
}

TEST(FabricTest, ResumesFromExistingCellCheckpoints) {
  // A sweep pointed at a checkpoint dir that already holds every cell
  // dispatches nothing: no workers, rows assembled straight from disk.
  ExperimentSpec spec = SmallSpec();
  spec.checkpoint_dir = FreshDir("resume_cells");
  const std::vector<CellResult> expected = InProcessRows(spec);

  FabricOptions options = BaseOptions("resume");
  options.num_processes = 2;
  std::vector<std::string> argv = options.worker_argv;
  argv.push_back("--checkpoint-dir");
  argv.push_back(spec.checkpoint_dir);
  options.worker_argv = argv;
  FabricStats stats;
  const std::vector<CellResult> rows = RunSweepFabric(spec, options, &stats);
  ExpectIdenticalRows(expected, rows);
  EXPECT_EQ(stats.workers_spawned, 0);
}

TEST(FabricTest, MergesWorkerProfilesAndPublishesFabricCounters) {
#ifdef PPN_OBS_DISABLED
  GTEST_SKIP() << "obs compiled out (-DPPN_OBS_COMPILED=OFF)";
#endif
  const bool was_enabled = obs::SetEnabled(true);
  // Snapshots are cumulative, so measure the run as a delta.
  const obs::Snapshot before = obs::TakeSnapshot();
  const ExperimentSpec spec = SmallSpec();
  FabricOptions options = BaseOptions("obs_merge");
  options.num_processes = 2;
  FabricStats stats;
  const std::vector<CellResult> rows = RunSweepFabric(spec, options, &stats);
  const obs::Snapshot after = obs::TakeSnapshot();
  obs::SetEnabled(was_enabled);
  ASSERT_EQ(rows.size(), 12u);
  // Workers computed the cells, yet the coordinator's snapshot carries
  // their counters: the per-worker profile JSONs were merged in.
  auto delta = [&before, &after](const std::string& name) {
    const auto now = after.counters.find(name);
    const auto base = before.counters.find(name);
    return (now == after.counters.end() ? 0.0 : now->second) -
           (base == before.counters.end() ? 0.0 : base->second);
  };
  EXPECT_GE(delta("exec.cells.completed"), 12.0);
  EXPECT_EQ(delta("exec.fabric.workers_spawned"), 2.0);
  EXPECT_EQ(delta("exec.fabric.workers_died"), 0.0);
}

// ------------------------------------------------------- the channel --
// Each case below ends in one fixed abort: the coordinator must survive
// the broken worker, count it dead, and respawn the slot until the
// restart budget runs out (or stop at once on a spec mismatch).

/// Options whose "workers" are `script` run by /bin/sh, one slot, one
/// restart.
FabricOptions FakeWorkerOptions(const std::string& dir_name,
                                const std::string& script) {
  FabricOptions options = BaseOptions(dir_name);
  options.num_processes = 1;
  options.max_restarts = 1;
  options.worker_argv = {"/bin/sh", "-c", script};
  return options;
}

TEST(FabricChannelDeathTest, WorkerThatClosesItsEndIsDeadAndRespawned) {
  // The worker drops fd 3 and lives on: the channel's EOF is its death.
  const FabricOptions options =
      FakeWorkerOptions("closed_end", "exec 3<&-; sleep 5");
  EXPECT_DEATH(RunSweepFabric(SmallSpec(), options),
               "worker 0\\.g0 .*died.*worker 0\\.g1 .*died.*"
               "restart budget \\(1\\) is exhausted");
}

TEST(FabricChannelDeathTest, SendToAClosedEndIsADeathNotASigpipe) {
  // The worker answers its cell, then drops fd 3 and lives on, so the
  // coordinator's next send (the requeued cell) meets a closed end. It
  // must fail, not SIGPIPE the coordinator.
  FabricOptions options = FakeWorkerOptions(
      "closed_after_reply",
      "read line <&3; echo \"failed ${line%% *}\" >&3; exec 3<&-; sleep 5");
  options.max_restarts = 0;
  EXPECT_DEATH(RunSweepFabric(SmallSpec(), options),
               "worker 0\\.g0 .*died: channel closed.*"
               "restart budget \\(0\\) is exhausted");
}

TEST(FabricChannelDeathTest, GarbageReplyCountsAsADeath) {
  const FabricOptions options = FakeWorkerOptions(
      "garbage", "read line <&3; echo garbage >&3; sleep 5");
  EXPECT_DEATH(RunSweepFabric(SmallSpec(), options),
               "worker 0\\.g0 .*unexpected reply \"garbage\".*"
               "worker 0\\.g1 .*died.*restart budget \\(1\\) is exhausted");
}

TEST(FabricChannelDeathTest, RepeatedlyFailedCommitAbortsNamingTheCell) {
  // Every cell comes back `failed`: cell T0 is requeued until its fourth
  // failure ends the sweep.
  const FabricOptions options = FakeWorkerOptions(
      "failed",
      "while read line <&3; do echo \"failed ${line%% *}\" >&3; done");
  EXPECT_DEATH(RunSweepFabric(SmallSpec(), options),
               "cell T0 cannot be persisted");
}

TEST(FabricChannelDeathTest, DoneWithoutACheckpointIsRequeuedUntilAbort) {
  // `done` is a claim, not a result: no checkpoint loads behind it.
  const FabricOptions options = FakeWorkerOptions(
      "lost",
      "while read line <&3; do echo \"done ${line%% *} 0\" >&3; done");
  EXPECT_DEATH(RunSweepFabric(SmallSpec(), options),
               "cell T0 keeps losing its checkpoint");
}

TEST(FabricChannelDeathTest, WorkerWithAnotherSpecAbortsAtTheFirstMismatch) {
  // Real workers rebuilt from --seeds 1,8: cell T0 (seed 1) agrees, T1
  // (seed 7 here, 8 there) is the first that does not.
  FabricOptions options = BaseOptions("mismatch");
  options.num_processes = 1;
  options.worker_argv.back() = "1,8";
  EXPECT_DEATH(RunSweepFabric(SmallSpec(), options),
               "cell T1 does not match worker 0\\.g0's spec");
}

// ------------------------------------------------------------------ e2e --

/// Rows of a results JSON written by `ppn_cli sweep --json`, with
/// wall_seconds dropped — everything else must be bit-exact across
/// process counts, which is why WriteResultsJson emits %.17g.
std::vector<std::string> JsonRowsModuloWall(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  JsonValue root;
  std::string error;
  EXPECT_TRUE(ParseJson(buffer.str(), &root, &error)) << error;
  std::vector<std::string> rows;
  for (const JsonValue& row : root.AsArray()) {
    std::ostringstream canon;
    for (const auto& [key, value] : row.AsObject()) {
      if (key == "wall_seconds") continue;
      canon << key << "=";
      if (value.is_number()) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", value.AsNumber());
        canon << buf;
      } else if (value.is_string()) {
        canon << value.AsString();
      }
      canon << ";";
    }
    rows.push_back(canon.str());
  }
  return rows;
}

// The heavy acceptance case below trains neural cells; under
// ThreadSanitizer that is minutes of instrumented training, so the tsan
// lane keeps the classic-strategy cases only.
#if defined(__SANITIZE_THREAD__)
#define PPN_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PPN_TSAN_BUILD 1
#endif
#endif

TEST(FabricCliTest, Table3SmokeSpecMatchesAcrossProcessCountsAndAKill) {
#ifdef PPN_TSAN_BUILD
  GTEST_SKIP() << "neural training under tsan is too slow for CI";
#endif
  // The acceptance spec: a table3-shaped smoke sweep (classic baselines
  // plus the EIIE / PPN-I / PPN neural rows) run at --processes 4 with
  // one worker SIGKILLed mid-run, at --processes 1, and in-process — all
  // three bit-identical modulo wall_seconds.
  const std::string dir = FreshDir("table3");
  std::filesystem::create_directories(dir);
  const std::string base =
      std::string(PPN_CLI_BIN) +
      " sweep --datasets crypto-a"
      " --strategies UBAH,Best,CRP,EG,OLMAR,RMR,EIIE,PPN-I,PPN"
      " --costs 0.0025 --seeds 1 --steps 100";
  const std::string log = dir + "/cli.log";
  {
    const ScopedEnv kill("PPN_FABRIC_TEST_KILL_AFTER", "0:1");
    ASSERT_EQ(std::system((base + " --processes 4 --json " + dir +
                           "/p4.json >> " + log + " 2>&1")
                              .c_str()),
              0);
  }
  ASSERT_EQ(std::system((base + " --processes 1 --json " + dir +
                         "/p1.json >> " + log + " 2>&1")
                            .c_str()),
            0);
  ASSERT_EQ(std::system((base + " --workers 0 --json " + dir +
                         "/inproc.json >> " + log + " 2>&1")
                            .c_str()),
            0);
  const std::vector<std::string> p4 = JsonRowsModuloWall(dir + "/p4.json");
  const std::vector<std::string> p1 = JsonRowsModuloWall(dir + "/p1.json");
  const std::vector<std::string> inproc =
      JsonRowsModuloWall(dir + "/inproc.json");
  ASSERT_EQ(p4.size(), 9u);
  EXPECT_EQ(p4, p1);
  EXPECT_EQ(p4, inproc);
}

TEST(FabricCliTest, FourProcessSweepJsonMatchesOneProcessAndInProcess) {
  const std::string dir = FreshDir("cli");
  std::filesystem::create_directories(dir);
  const std::string base =
      std::string(PPN_CLI_BIN) +
      " sweep --datasets crypto-a --strategies UBAH,CRP,OLMAR"
      " --costs 0,0.0025 --seeds 1,7";
  const std::string log = dir + "/cli.log";
  ASSERT_EQ(std::system((base + " --processes 4 --json " + dir +
                         "/p4.json >> " + log + " 2>&1")
                            .c_str()),
            0);
  ASSERT_EQ(std::system((base + " --processes 1 --json " + dir +
                         "/p1.json >> " + log + " 2>&1")
                            .c_str()),
            0);
  ASSERT_EQ(std::system((base + " --workers 0 --json " + dir +
                         "/inproc.json >> " + log + " 2>&1")
                            .c_str()),
            0);
  const std::vector<std::string> p4 = JsonRowsModuloWall(dir + "/p4.json");
  const std::vector<std::string> p1 = JsonRowsModuloWall(dir + "/p1.json");
  const std::vector<std::string> inproc =
      JsonRowsModuloWall(dir + "/inproc.json");
  ASSERT_EQ(p4.size(), 12u);
  EXPECT_EQ(p4, p1);
  EXPECT_EQ(p4, inproc);
}

}  // namespace
}  // namespace ppn::exec
