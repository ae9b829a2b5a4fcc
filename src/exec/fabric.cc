#include "exec/fabric.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <set>
#include <thread>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/env.h"
#include "common/parse.h"
#include "obs/report.h"
#include "obs/sampler.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "obs/trace_merge.h"

extern char** environ;

namespace ppn::exec {

namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

/// The worker's end of its channel.
constexpr int kChannelFd = 3;
/// Supervision wake-up: stragglers, respawn backoff and the progress file
/// are looked at least this often.
constexpr int kPollIntervalMs = 50;
/// Failure-driven requeues (worker death, failed commit, lost checkpoint)
/// one cell may absorb before the sweep aborts. Straggler backups are
/// capped at the same count per cell but never abort: a cell legitimately
/// slower than the timeout keeps its first copy running.
constexpr int kMaxCellAttempts = 4;
/// How long shutdown waits for idle workers' clean exit (trace and stats
/// stream flush) before SIGKILLing them.
constexpr std::chrono::seconds kShutdownGrace(5);
/// The progress file `ppn_cli top` reads, and its one line.
constexpr char kProgressFile[] = "progress";
constexpr char kProgressFormat[] =
    "queued=%lld running=%lld done=%lld failed=%lld\n";

void MakeDirs(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  PPN_CHECK(!ec) << "cannot create " << path << ": " << ec.message();
}

std::string CellsDir(const ExperimentSpec& spec,
                     const std::string& fabric_dir) {
  // Both sides derive this the same way: the worker's spec comes from the
  // same flags the coordinator's did, so a user --checkpoint-dir is
  // shared and the default lands inside the fabric scratch dir.
  return spec.checkpoint_dir.empty()
             ? (fs::path(fabric_dir) / "cells").string()
             : spec.checkpoint_dir;
}

// ----------------------------------------------------------- channel ----

/// Sends `line` and its '\n'; false when the peer is gone. Each side has
/// at most one line in flight, so a short line fits the socket buffer and
/// goes whole. MSG_NOSIGNAL: a dead peer must not SIGPIPE the sender.
bool SendLine(int fd, const std::string& line) {
  const std::string data = line + "\n";
  return TEMP_FAILURE_RETRY(::send(fd, data.data(), data.size(),
                                   MSG_NOSIGNAL)) ==
         static_cast<ssize_t>(data.size());
}

/// Appends one read's worth of bytes to `buffer`; false at EOF or on error.
bool ReadSome(int fd, std::string* buffer) {
  char chunk[512];
  const ssize_t n = TEMP_FAILURE_RETRY(::read(fd, chunk, sizeof(chunk)));
  if (n <= 0) return false;
  buffer->append(chunk, static_cast<size_t>(n));
  return true;
}

/// Moves the first whole line out of `buffer`, without its '\n'.
bool PopLine(std::string* buffer, std::string* line) {
  const size_t end = buffer->find('\n');
  if (end == std::string::npos) return false;
  line->assign(*buffer, 0, end);
  buffer->erase(0, end + 1);
  return true;
}

/// The coordinator's line for `cell`. The worker formats the line for its
/// own cell at that index and compares, so the seed echo is exact.
std::string TaskLine(const PlannedCell& cell) {
  char line[48];
  std::snprintf(line, sizeof(line), "%lld %016llx",
                static_cast<long long>(cell.index),
                static_cast<unsigned long long>(cell.derived_seed));
  return line;
}

// -------------------------------------------------- fault injection ----

/// The count of a "<slot>:<count>" fault knob when it names `slot`, else -1.
int64_t FaultKnobFor(const char* knob, int slot) {
  const std::string value = env::StringOr(knob, "");
  if (value.empty()) return -1;
  const size_t colon = value.find(':');
  PPN_CHECK(colon != std::string::npos)
      << knob << " must be <slot>:<cells>, got \"" << value << "\"";
  const int64_t knob_slot = ParseInt64OrDie(value.substr(0, colon), knob);
  const int64_t count = ParseInt64OrDie(value.substr(colon + 1), knob);
  return knob_slot == slot ? count : -1;
}

// ---------------------------------------------------------- spawning ----

/// The environment of a worker of generation `gen` whose files start with
/// `prefix`: the coordinator's, minus the per-worker overrides. Fault
/// knobs reach only first-generation workers (a replacement must not
/// re-die on the same injected fault), and obs sink paths are redirected
/// per worker so children never clobber the coordinator's own
/// profile/trace files. PPN_HEALTH stays coordinator-only: a worker
/// tripping a health rule would exit nonzero and read as a death, burning
/// the restart budget for an SLO miss; the coordinator judges health on
/// the merged view.
std::vector<std::string> WorkerEnvironment(const std::string& prefix,
                                           int gen) {
  std::set<std::string> drop = {"PPN_PROFILE_JSON", "PPN_TRACE_JSON",
                                "PPN_STATS_JSONL", "PPN_HEALTH"};
  if (gen > 0) {
    drop.insert("PPN_FABRIC_TEST_KILL_AFTER");
    drop.insert("PPN_FABRIC_TEST_HANG_AFTER");
  }
  std::vector<std::string> env;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string text = *entry;
    if (drop.count(text.substr(0, text.find('='))) == 0) env.push_back(text);
  }
  if (obs::Enabled()) {
    env.push_back("PPN_PROFILE_JSON=" + prefix + ".profile.json");
  }
  if (env::HasValue("PPN_TRACE_JSON")) {
    env.push_back("PPN_TRACE_JSON=" + prefix + ".trace.json");
  }
  if (env::HasValue("PPN_STATS_JSONL")) {
    env.push_back("PPN_STATS_JSONL=" + prefix + ".stats.jsonl");
  }
  return env;
}

/// Forks and execs worker `slot`.`gen` with `channel` as its fd 3.
pid_t SpawnWorker(const FabricOptions& options, int slot, int gen,
                  int channel) {
  // Every per-worker file is obs/worker-<slot>.g<gen>.<kind>.
  const std::string prefix =
      (fs::path(options.fabric_dir) / "obs" /
       ("worker-" + std::to_string(slot) + ".g" + std::to_string(gen)))
          .string();
  const std::string log_path = prefix + ".log";
  std::vector<std::string> args = options.worker_argv;
  args.insert(args.end(), {"--fabric-dir", options.fabric_dir,
                           "--worker-slot", std::to_string(slot),
                           "--worker-gen", std::to_string(gen)});
  std::vector<std::string> env = WorkerEnvironment(prefix, gen);
  // exec()-shaped arrays, built BEFORE fork so the child only touches
  // async-signal-safe calls.
  std::vector<char*> argv, envp;
  for (std::string& arg : args) argv.push_back(arg.data());
  for (std::string& entry : env) envp.push_back(entry.data());
  argv.push_back(nullptr);
  envp.push_back(nullptr);
  const pid_t pid = ::fork();
  PPN_CHECK(pid >= 0) << "fork failed: " << std::strerror(errno);
  if (pid == 0) {
    // Child: async-signal-safe territory only. Every channel end is
    // close-on-exec; this one moves to fd 3 without the flag. stdout and
    // stderr go to the log (a failed open leaves them as they are), and
    // nothing past fd 3 (the log's fd included) is inherited.
    ::fcntl(channel, F_SETFD, 0);
    ::dup2(channel, kChannelFd);
    const int log_fd =
        ::open(log_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    ::dup2(log_fd, 1);
    ::dup2(log_fd, 2);
    ::close_range(kChannelFd + 1, ~0U, 0);
    ::execve(argv[0], argv.data(), envp.data());
    _exit(127);  // exec failed; the coordinator sees the channel close.
  }
  return pid;
}

// ------------------------------------------------------- coordinator ----

/// One worker slot: at most one live process, holding at most one cell.
struct Slot {
  int gen = -1;                ///< Generation of the current or last worker.
  pid_t pid = -1;              ///< Unreaped worker, or -1.
  int fd = -1;                 ///< Coordinator's channel end; -1 when dead.
  std::string pending;         ///< Reply bytes short of a whole line.
  int64_t cell = -1;           ///< In flight, or -1 when idle.
  Clock::time_point sent_at;   ///< When `cell` was sent or last backed up.
  int deaths = 0;
  Clock::time_point respawn_at;  ///< End of the backoff after a death.
};

/// SIGKILLs (harmless on an exited worker) and reaps `slot`'s process.
void Reap(Slot* slot) {
  if (slot->pid <= 0) return;
  ::kill(slot->pid, SIGKILL);
  int status = 0;
  ::waitpid(slot->pid, &status, 0);
  slot->pid = -1;
}

/// The supervision state of one sweep. It alone knows which cells are
/// queued, in flight and accepted; the per-cell checkpoint is the only
/// result a worker hands back.
class Coordinator {
 public:
  Coordinator(const ExperimentSpec& spec, const FabricOptions& options)
      : options_(options),
        plan_(spec),
        cells_dir_(CellsDir(spec, options.fabric_dir)),
        timeout_(options.worker_timeout_s >= 0.0
                     ? options.worker_timeout_s
                     : env::DoubleOr("PPN_FABRIC_WORKER_TIMEOUT_S", 300.0)),
        max_restarts_(options.max_restarts >= 0
                          ? options.max_restarts
                          : env::Int64Or("PPN_FABRIC_MAX_RESTARTS", 8)),
        slots_(static_cast<size_t>(options.num_processes)),
        rows_(plan_.cells().size()),
        accepted_(rows_.size(), false),
        failures_(rows_.size(), 0),
        backups_(rows_.size(), 0) {
    PPN_CHECK(timeout_.count() > 0.0) << "worker timeout must be > 0";
    MakeDirs(cells_dir_);
  }

  /// Accepts the cells a previous run checkpointed, queues the rest, and
  /// supervises workers until every cell is accepted or the sweep must
  /// abort (`abort_reason()` says why).
  void Run() {
    for (const PlannedCell& cell : plan_.cells()) {
      if (!TryAccept(cell.index)) queue_.push_back(cell.index);
    }
    while (done_ < static_cast<int64_t>(rows_.size()) &&
           abort_reason_.empty()) {
      Dispatch();
      PollChannels();
      BackUpStragglers();
      WriteProgress();
    }
  }

  /// Closes every channel — each worker's EOF — and reaps every worker.
  /// An idle worker exits on its own after flushing its trace and stats
  /// stream, within a bounded grace. A worker still computing (a
  /// straggler whose cell a backup finished, or any worker of an aborted
  /// sweep) has nothing left to deliver and is killed at once.
  void Shutdown() {
    const Clock::time_point deadline = Clock::now() + kShutdownGrace;
    for (Slot& slot : slots_) {
      if (slot.fd >= 0) ::close(slot.fd);
      slot.fd = -1;
    }
    for (Slot& slot : slots_) {
      int status = 0;
      while (slot.cell < 0 && slot.pid > 0 && Clock::now() < deadline) {
        if (::waitpid(slot.pid, &status, WNOHANG) != 0) slot.pid = -1;
        else std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      Reap(&slot);  // Still computing, or past the grace: down hard.
      slot.cell = -1;
    }
    WriteProgress();
  }

  const std::string& abort_reason() const { return abort_reason_; }
  const FabricStats& stats() const { return stats_; }
  std::vector<CellResult> TakeRows() { return std::move(rows_); }

 private:
  /// Accepts cell `index` when its checkpoint loads.
  bool TryAccept(int64_t index) {
    CellResult result;
    std::string error;
    if (!plan_.TryLoadCell(cells_dir_, plan_.cells()[index], &result,
                           &error)) {
      return false;
    }
    rows_[index] = std::move(result);
    accepted_[index] = true;
    ++done_;
    std::erase(queue_, index);
    return true;
  }

  /// Puts cell `index` at the front of the queue unless it is accepted or
  /// queued already; true when it was queued.
  bool Requeue(int64_t index) {
    if (accepted_[index] || std::ranges::count(queue_, index) > 0) return false;
    queue_.push_front(index);
    ++stats_.cells_redispatched;
    return true;
  }

  /// While cells wait: spawns a worker into every empty slot past its
  /// backoff, and sends every idle worker its next cell.
  void Dispatch() {
    const Clock::time_point now = Clock::now();
    for (size_t s = 0; s < slots_.size() && !queue_.empty(); ++s) {
      Slot& slot = slots_[s];
      if (slot.fd < 0 && now >= slot.respawn_at) Spawn(s);
      if (slot.fd < 0 || slot.cell >= 0) continue;
      slot.cell = queue_.front();
      queue_.pop_front();
      slot.sent_at = now;
      // The span carries the cell index so the trace stitcher can draw a
      // flow arrow from its end to the worker's `exec.cell` span.
      obs::Span dispatch_span("fabric.dispatch");
      dispatch_span.AddArg("index", static_cast<double>(slot.cell));
      if (!SendLine(slot.fd, TaskLine(plan_.cells()[slot.cell]))) {
        OnDeath(s, "channel closed");
      }
    }
  }

  /// Spawns slot `s`'s next worker. Its first is free; replacements spend
  /// the restart budget, and once that is spent with no worker left the
  /// sweep aborts.
  void Spawn(size_t s) {
    Slot& slot = slots_[s];
    if (slot.gen >= 0 && stats_.workers_restarted >= max_restarts_) {
      if (std::none_of(slots_.begin(), slots_.end(),
                       [](const Slot& other) { return other.fd >= 0; })) {
        abort_reason_ = "work remains but the restart budget (" +
                        std::to_string(max_restarts_) + ") is exhausted";
      }
      return;
    }
    if (slot.gen >= 0) ++stats_.workers_restarted;
    int fds[2];
    PPN_CHECK(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) == 0)
        << "socketpair failed: " << std::strerror(errno);
    ++slot.gen;
    slot.pid = SpawnWorker(options_, static_cast<int>(s), slot.gen, fds[1]);
    ::close(fds[1]);
    slot.fd = fds[0];
    slot.pending.clear();
    ++stats_.workers_spawned;
  }

  /// Waits up to one poll interval for replies and handles them. A worker
  /// whose channel reaches EOF dies after its last whole lines count.
  void PollChannels() {
    std::vector<pollfd> fds;  // poll(2) skips the -1 of an empty slot.
    for (const Slot& slot : slots_) fds.push_back(pollfd{slot.fd, POLLIN, 0});
    if (::poll(fds.data(), fds.size(), kPollIntervalMs) <= 0) return;
    for (size_t s = 0; s < slots_.size(); ++s) {
      if (fds[s].revents == 0) continue;
      Slot& slot = slots_[s];
      const bool open = ReadSome(slot.fd, &slot.pending);
      std::string line;
      while (slot.fd >= 0 && PopLine(&slot.pending, &line)) OnReply(s, line);
      if (!open && slot.fd >= 0) OnDeath(s, "channel closed");
    }
  }

  /// Handles one reply line: exactly `done <index> <0|1>`, `failed
  /// <index>` or `mismatch <index>` for the cell the worker holds.
  /// Anything else is the worker's death.
  void OnReply(size_t s, const std::string& line) {
    Slot& slot = slots_[s];
    const int64_t index = slot.cell;
    const std::string number = std::to_string(index);
    const bool done =
        line == "done " + number + " 0" || line == "done " + number + " 1";
    const bool failed = line == "failed " + number;
    if (index < 0 || !(done || failed || line == "mismatch " + number)) {
      OnDeath(s, "unexpected reply \"" + line + "\"");
      return;
    }
    slot.cell = -1;
    const std::string cell = "cell T" + number;
    if (failed) {
      ++stats_.ckpt_write_failures;
      Fail(index, cell + " cannot be persisted (checkpoint writes keep "
                         "failing — disk full?)");
    } else if (!done) {
      abort_reason_ = cell + " does not match worker " + std::to_string(s) +
                      ".g" + std::to_string(slot.gen) +
                      "'s spec (the coordinator and its workers built "
                      "different specs)";
    } else if (accepted_[index] || TryAccept(index)) {
      // (Already accepted when a backup's twin finished first.)
      if (line.back() == '1') ++stats_.cells_restored;
    } else {
      std::fprintf(stderr,
                   "[fabric] %s reported done but its checkpoint does not "
                   "load; requeueing\n",
                   cell.c_str());
      Fail(index, cell + " keeps losing its checkpoint");
    }
  }

  /// A worker is dead once its channel closes or it breaks the protocol:
  /// kill and reap it, back its slot off, and requeue its cell.
  void OnDeath(size_t s, const std::string& why) {
    Slot& slot = slots_[s];
    std::fprintf(stderr, "[fabric] worker %zu.g%d (pid %ld) died: %s\n", s,
                 slot.gen, static_cast<long>(slot.pid), why.c_str());
    ::close(slot.fd);
    slot.fd = -1;
    Reap(&slot);
    ++stats_.workers_died;
    ++slot.deaths;
    const int backoff_ms = std::min(2000, 100 << std::min(5, slot.deaths));
    slot.respawn_at = Clock::now() + std::chrono::milliseconds(backoff_ms);
    const int64_t cell = slot.cell;
    slot.cell = -1;
    if (cell >= 0) {
      Fail(cell, "cell T" + std::to_string(cell) +
                     " exceeded its attempts after worker deaths");
    }
  }

  /// Requeues cell `index` after a failed attempt, unless another worker
  /// still runs it; a cell that failed kMaxCellAttempts times aborts the
  /// sweep with `reason`.
  void Fail(int64_t index, const std::string& reason) {
    if (accepted_[index]) return;
    ++failed_attempts_;
    const bool held =
        std::any_of(slots_.begin(), slots_.end(),
                    [index](const Slot& slot) { return slot.cell == index; });
    if (++failures_[index] >= kMaxCellAttempts) {
      abort_reason_ = reason;
    } else if (!held) {
      Requeue(index);
    }
  }

  /// Queues a backup copy of every cell in flight longer than the
  /// timeout; the clock then restarts, and backups are capped per cell.
  void BackUpStragglers() {
    const Clock::time_point now = Clock::now();
    for (size_t s = 0; s < slots_.size(); ++s) {
      Slot& slot = slots_[s];
      if (slot.cell < 0 || accepted_[slot.cell] ||
          now - slot.sent_at < timeout_) {
        continue;
      }
      slot.sent_at = now;
      if (backups_[slot.cell] < kMaxCellAttempts && Requeue(slot.cell)) {
        ++backups_[slot.cell];
        std::fprintf(stderr,
                     "[fabric] cell T%lld on worker %zu.g%d is late (> "
                     "%.1fs); queued a backup\n",
                     static_cast<long long>(slot.cell), s, slot.gen,
                     timeout_.count());
      }
    }
  }

  /// Rewrites the progress file when a count changed.
  void WriteProgress() {
    const long long running = std::count_if(
        slots_.begin(), slots_.end(),
        [](const Slot& slot) { return slot.cell >= 0; });
    char line[128];
    std::snprintf(line, sizeof(line), kProgressFormat,
                  static_cast<long long>(queue_.size()), running,
                  static_cast<long long>(done_),
                  static_cast<long long>(failed_attempts_));
    if (line == progress_) return;
    progress_ = line;
    AtomicFileWriter file(
        (fs::path(options_.fabric_dir) / kProgressFile).string());
    file.stream() << progress_;
    if (!file.Commit()) {
      std::fprintf(stderr, "[fabric] cannot write %s\n", file.path().c_str());
    }
  }

  const FabricOptions& options_;
  const CellPlan plan_;  ///< Datasets stay ungenerated.
  const std::string cells_dir_;
  const std::chrono::duration<double> timeout_;
  const int64_t max_restarts_;
  std::vector<Slot> slots_;
  std::vector<CellResult> rows_;  ///< Accepted cells, from their checkpoints.
  std::vector<bool> accepted_;
  std::vector<int> failures_;   ///< Failed attempts: the abort budget.
  std::vector<int> backups_;    ///< Straggler backups: capped, never fatal.
  std::deque<int64_t> queue_;   ///< Unaccepted cells no worker holds.
  int64_t done_ = 0;
  int64_t failed_attempts_ = 0;
  std::string progress_;        ///< The progress file's current line.
  std::string abort_reason_;
  FabricStats stats_;
};

/// Folds every worker profile under `obs_dir` into this process's
/// registry: counters add and gauges take the max, so one report covers
/// the whole sweep. A dropped profile is counted, never silent: it would
/// understate the merged counters.
void MergeWorkerProfiles(const std::string& obs_dir, FabricStats* stats) {
  if (!obs::Enabled()) return;
  for (const std::string& path :
       obs::FilesWithSuffix(obs_dir, ".profile.json")) {
    obs::Snapshot profile;
    std::string error;
    if (!obs::ReadProfileJson(path, &profile, &error)) {
      std::fprintf(stderr, "[fabric] skipping unreadable profile %s: %s\n",
                   path.c_str(), error.c_str());
      ++stats->profile_merge_failed;
      continue;
    }
    for (const auto& [metric, value] : profile.counters) {
      obs::GetCounter(metric).Add(value);
    }
    for (const auto& [metric, value] : profile.gauges) {
      obs::GetGauge(metric).UpdateMax(value);
    }
  }
  const std::pair<const char*, int64_t> counters[] = {
      {"exec.fabric.workers_spawned", stats->workers_spawned},
      {"exec.fabric.workers_died", stats->workers_died},
      {"exec.fabric.workers_restarted", stats->workers_restarted},
      {"exec.fabric.cells_redispatched", stats->cells_redispatched},
      {"exec.fabric.ckpt_write_failed", stats->ckpt_write_failures},
      {"exec.fabric.profile_merge_failed", stats->profile_merge_failed},
  };
  for (const auto& [name, value] : counters) {
    obs::GetCounter(name).Add(static_cast<double>(value));
  }
}

/// Copies a merged artifact next to the user's own sink path, so it
/// survives scratch cleanup; returns where it can be found.
std::string Persist(const std::string& merged, const std::string& persist) {
  std::error_code ec;
  fs::copy_file(merged, persist, fs::copy_options::overwrite_existing, ec);
  return ec ? merged : persist;
}

/// Stitches the coordinator's and workers' traces and stats streams while
/// the scratch dir still holds them.
void StitchTelemetry(const std::string& dir) {
  const fs::path obs_dir = fs::path(dir) / "obs";
  if (env::HasValue("PPN_TRACE_JSON")) {
    obs::WriteTraceJson((obs_dir / "coordinator.trace.json").string());
    const std::string merged = (obs_dir / "merged.trace.json").string();
    std::string error;
    obs::TraceMergeStats merge_stats;
    if (obs::MergeFabricTraces(dir, merged, &error, &merge_stats)) {
      std::fprintf(
          stderr,
          "[fabric] merged trace: %d processes, %lld events, %lld flow "
          "pairs -> %s\n",
          merge_stats.processes, static_cast<long long>(merge_stats.events),
          static_cast<long long>(merge_stats.flow_pairs),
          Persist(merged, env::StringOr("PPN_TRACE_JSON", "") + ".merged.json")
              .c_str());
    } else {
      std::fprintf(stderr, "[fabric] trace merge failed: %s\n", error.c_str());
    }
  }
  if (env::HasValue("PPN_STATS_JSONL")) {
    const std::vector<std::string> streams =
        obs::FindStatsStreams(obs_dir.string());
    if (streams.empty()) return;
    const std::string merged = (obs_dir / "merged.stats.jsonl").string();
    std::string error;
    if (obs::MergeStatsStreams(streams, merged, &error)) {
      std::fprintf(
          stderr, "[fabric] merged %zu worker stats streams -> %s\n",
          streams.size(),
          Persist(merged,
                  env::StringOr("PPN_STATS_JSONL", "") + ".workers.jsonl")
              .c_str());
    } else {
      std::fprintf(stderr, "[fabric] stats stream merge failed: %s\n",
                   error.c_str());
    }
  }
}

}  // namespace

bool CountFabricQueue(const std::string& fabric_dir, FabricQueueCounts* out) {
  std::FILE* file =
      std::fopen((fs::path(fabric_dir) / kProgressFile).c_str(), "r");
  if (file == nullptr) return false;
  long long n[4] = {0, 0, 0, 0};
  const bool ok =
      std::fscanf(file, kProgressFormat, &n[0], &n[1], &n[2], &n[3]) == 4;
  std::fclose(file);
  if (ok) *out = FabricQueueCounts{n[0], n[1], n[2], n[3]};
  return ok;
}

// =============================================================== worker ==

int FabricWorkerMain(const ExperimentSpec& spec, const std::string& fabric_dir,
                     int worker_slot, int worker_gen) {
  PPN_CHECK(::fcntl(kChannelFd, F_GETFD) != -1)
      << "a fabric worker reads its cells from fd " << kChannelFd
      << "; start it through `ppn_cli sweep --processes N`";
  const CellPlan plan(spec);
  const std::vector<PlannedCell>& cells = plan.cells();
  const std::string cells_dir = CellsDir(spec, fabric_dir);
  const int64_t kill_after =
      FaultKnobFor("PPN_FABRIC_TEST_KILL_AFTER", worker_slot);
  const int64_t hang_after =
      FaultKnobFor("PPN_FABRIC_TEST_HANG_AFTER", worker_slot);

  int64_t received = 0, done = 0;
  std::string buffer, line;
  auto next_line = [&buffer, &line] {
    while (!PopLine(&buffer, &line)) {
      if (!ReadSome(kChannelFd, &buffer)) return false;
    }
    return true;
  };
  while (next_line()) {
    if (hang_after >= 0 && ++received >= hang_after) {
      // Injected straggler: sit on the cell until the coordinator's
      // backup finishes it and shutdown kills us.
      while (true) ::pause();
    }
    const int64_t index =
        ParseInt64(line.substr(0, line.find(' '))).value_or(-1);
    const std::string number = std::to_string(index);
    std::string reply = "mismatch " + number;
    // The line for this worker's own cell at the sent index must be the
    // same: any difference means the two sides built different specs.
    if (index >= 0 && index < static_cast<int64_t>(cells.size()) &&
        line == TaskLine(cells[index])) {
      // A complete checkpoint may already exist (a predecessor died after
      // committing, or a backup's twin finished first): restoring it is
      // what makes a replacement cheap.
      const CellStep step = plan.RunOrRestore(cells_dir, cells[index]);
      if (step.saved) {
        ++done;
        reply = "done " + number + (step.restored ? " 1" : " 0");
      } else {
        reply = "failed " + number;
        std::fprintf(stderr,
                     "[fabric] worker %d.g%d: cell T%s not saved: %s\n",
                     worker_slot, worker_gen, number.c_str(),
                     step.save_error.c_str());
      }
    }
    if (!SendLine(kChannelFd, reply)) break;  // The coordinator is gone.
    if (kill_after >= 0 && done >= kill_after) {
      // Injected crash: die the hard way, mid-fleet, like a real OOM kill.
      ::raise(SIGKILL);
    }
  }
  std::printf("[fabric] worker %d.g%d: %lld cells done\n", worker_slot,
              worker_gen, static_cast<long long>(done));
  return 0;
}

// ========================================================== coordinator ==

std::vector<CellResult> RunSweepFabric(const ExperimentSpec& spec,
                                       const FabricOptions& options,
                                       FabricStats* stats_out) {
  PPN_CHECK_GE(options.num_processes, 1);
  PPN_CHECK(!options.fabric_dir.empty()) << "fabric needs a fabric_dir";
  PPN_CHECK(!options.worker_argv.empty()) << "fabric needs a worker argv";
  obs::Span fabric_span("exec.fabric");
  const std::string& dir = options.fabric_dir;
  MakeDirs((fs::path(dir) / "obs").string());
  if (!spec.telemetry_dir.empty()) MakeDirs(spec.telemetry_dir);

  // The coordinator plans but never computes: its CellPlan derives every
  // key and seed without generating a single dataset.
  Coordinator coordinator(spec, options);
  coordinator.Run();
  coordinator.Shutdown();
  FabricStats stats = coordinator.stats();
  MergeWorkerProfiles((fs::path(dir) / "obs").string(), &stats);
  if (stats_out != nullptr) *stats_out = stats;
  PPN_CHECK(coordinator.abort_reason().empty())
      << "fabric sweep failed: " << coordinator.abort_reason()
      << " (scratch kept at " << dir << "; see obs/worker-*.log)";

  StitchTelemetry(dir);
  std::vector<CellResult> rows = coordinator.TakeRows();
  if (!options.keep_fabric_dir) {
    std::error_code ec;
    fs::remove_all(dir, ec);  // Best-effort; scratch only.
  }
  return rows;
}

}  // namespace ppn::exec
