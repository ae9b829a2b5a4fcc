#include "exec/fabric.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/env.h"
#include "common/parse.h"
#include "obs/sampler.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "obs/trace_merge.h"

extern char** environ;

namespace ppn::exec {

namespace fs = std::filesystem;

namespace {

constexpr char kTaskMagic[] = "ppnfab1";

// ------------------------------------------------------- file layout ----

std::string ShardDir(const std::string& fabric_dir, int shard) {
  return (fs::path(fabric_dir) / "queue" / ("shard-" + std::to_string(shard)))
      .string();
}

std::string TaskFileName(int64_t index, int attempt) {
  char name[48];
  std::snprintf(name, sizeof(name), "T%lld.a%d.task",
                static_cast<long long>(index), attempt);
  return name;
}

/// True when `name` ends in ".task" — a fully published task file. The
/// claim scan must never touch anything else: an in-flight temp (e.g. a
/// "*.task.tmp" from an atomic writer) renamed away mid-write would make
/// the writer's commit fail and abort the sweep for a phantom reason.
bool HasTaskSuffix(const std::string& name) {
  constexpr char kSuffix[] = ".task";
  constexpr size_t kLen = sizeof(kSuffix) - 1;
  return name.size() > kLen &&
         name.compare(name.size() - kLen, kLen, kSuffix) == 0;
}

/// Parses "T<index>.a<attempt>" from the front of a queue/claim/fail file
/// name. False when the name is not ours (e.g. editor droppings).
bool ParseIndexAttempt(const std::string& name, int64_t* index,
                       int* attempt) {
  long long idx = 0;
  int att = 0;
  if (std::sscanf(name.c_str(), "T%lld.a%d.", &idx, &att) != 2) return false;
  *index = idx;
  *attempt = att;
  return true;
}

std::string ClaimFileName(int64_t index, int attempt, int slot, int gen) {
  char name[80];
  std::snprintf(name, sizeof(name), "T%lld.a%d.s%d.g%d.claim",
                static_cast<long long>(index), attempt, slot, gen);
  return name;
}

std::string FailFileName(int64_t index, int attempt, int slot, int gen) {
  char name[80];
  std::snprintf(name, sizeof(name), "T%lld.a%d.s%d.g%d.fail",
                static_cast<long long>(index), attempt, slot, gen);
  return name;
}

/// Parses the owner out of "T<i>.a<k>.s<slot>.g<gen>.claim" (or ".fail").
bool ParseClaimOwner(const std::string& name, int64_t* index, int* attempt,
                     int* slot, int* gen) {
  long long idx = 0;
  if (std::sscanf(name.c_str(), "T%lld.a%d.s%d.g%d.", &idx, attempt, slot,
                  gen) != 4) {
    return false;
  }
  *index = idx;
  return true;
}

std::string DoneFileName(int64_t index) {
  return "T" + std::to_string(index) + ".done";
}

std::string TaskContent(const PlannedCell& cell) {
  char line[64];
  std::snprintf(line, sizeof(line), "%s %lld %016llx\n", kTaskMagic,
                static_cast<long long>(cell.index),
                static_cast<unsigned long long>(cell.derived_seed));
  return line;
}

bool ParseTaskContent(const std::string& content, int64_t* index,
                      uint64_t* seed) {
  char magic[16] = {0};
  long long idx = 0;
  unsigned long long seed_bits = 0;
  if (std::sscanf(content.c_str(), "%15s %lld %llx", magic, &idx,
                  &seed_bits) != 3) {
    return false;
  }
  if (std::strcmp(magic, kTaskMagic) != 0 || idx < 0) return false;
  *index = idx;
  *seed = seed_bits;
  return true;
}

bool ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return in.good() || in.eof();
}

bool WriteFileAtomic(const std::string& path, const std::string& content) {
  AtomicFileWriter file(path);
  if (!file.ok()) return false;
  file.stream() << content;
  return file.Commit();
}

/// Names (not paths) of the regular files in `dir`, sorted for
/// deterministic claim order. Missing dir = empty.
std::vector<std::string> ListDirSorted(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) names.push_back(entry.path().filename());
  }
  std::sort(names.begin(), names.end());
  return names;
}

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

// -------------------------------------------------- fault injection ----

/// Parses a "<slot>:<count>" fault knob; true when it names `slot`.
bool FaultKnobFor(const char* knob, int slot, int64_t* count) {
  const std::string value = env::StringOr(knob, "");
  if (value.empty()) return false;
  const size_t colon = value.find(':');
  PPN_CHECK(colon != std::string::npos)
      << knob << " must be <slot>:<cells>, got \"" << value << "\"";
  const int64_t knob_slot = ParseInt64OrDie(value.substr(0, colon), knob);
  *count = ParseInt64OrDie(value.substr(colon + 1), knob);
  return knob_slot == slot;
}

// ------------------------------------------------------ status files ----

struct WorkerStatus {
  int64_t cells_done = 0;
  int64_t cells_restored = 0;
  int64_t cells_stolen = 0;
  int64_t ckpt_write_failed = 0;
};

std::string StatusPath(const std::string& fabric_dir, int slot, int gen) {
  char name[48];
  std::snprintf(name, sizeof(name), "worker-%d.g%d.status", slot, gen);
  return (fs::path(fabric_dir) / "obs" / name).string();
}

void WriteStatus(const std::string& fabric_dir, int slot, int gen,
                 const WorkerStatus& status) {
  std::ostringstream out;
  out << "ppnfabstatus1\n"
      << "cells_done=" << status.cells_done << "\n"
      << "cells_restored=" << status.cells_restored << "\n"
      << "cells_stolen=" << status.cells_stolen << "\n"
      << "ckpt_write_failed=" << status.ckpt_write_failed << "\n";
  if (!WriteFileAtomic(StatusPath(fabric_dir, slot, gen), out.str())) {
    std::fprintf(stderr, "[fabric] worker status write failed\n");
  }
}

bool ParseStatus(const std::string& content, WorkerStatus* status) {
  std::istringstream in(content);
  std::string line;
  if (!std::getline(in, line) || line != "ppnfabstatus1") return false;
  while (std::getline(in, line)) {
    const size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const long long value = std::atoll(line.c_str() + eq + 1);
    if (key == "cells_done") status->cells_done = value;
    else if (key == "cells_restored") status->cells_restored = value;
    else if (key == "cells_stolen") status->cells_stolen = value;
    else if (key == "ckpt_write_failed") status->ckpt_write_failed = value;
  }
  return true;
}

// ---------------------------------------------------------- spawning ----

struct Child {
  int slot = 0;
  int gen = 0;
  pid_t pid = -1;
  bool alive = false;
};

/// argv/envp marshalled into exec()-shaped arrays. Built BEFORE fork so
/// the child only touches async-signal-safe calls.
struct ExecImage {
  std::vector<std::string> argv_storage;
  std::vector<std::string> env_storage;
  std::vector<char*> argv;
  std::vector<char*> envp;
  std::string log_path;
};

ExecImage BuildExecImage(const FabricOptions& options,
                         const std::string& fabric_dir, int slot, int gen) {
  ExecImage image;
  image.argv_storage = options.worker_argv;
  image.argv_storage.push_back("--fabric-dir");
  image.argv_storage.push_back(fabric_dir);
  image.argv_storage.push_back("--worker-slot");
  image.argv_storage.push_back(std::to_string(slot));
  image.argv_storage.push_back("--worker-gen");
  image.argv_storage.push_back(std::to_string(gen));

  // The child environment is the coordinator's, minus the per-worker
  // overrides: fault knobs reach only first-generation workers (a
  // replacement must not re-die on the same injected fault), and obs sink
  // paths are redirected per worker so children never clobber the
  // coordinator's own profile/trace files.
  // PPN_HEALTH stays coordinator-only: a worker tripping a health rule
  // would exit nonzero and read as a death, burning the restart budget
  // for an SLO miss; the coordinator judges health on the merged view.
  std::set<std::string> drop = {"PPN_PROFILE_JSON", "PPN_TRACE_JSON",
                                "PPN_STATS_JSONL", "PPN_HEALTH"};
  if (gen > 0) {
    drop.insert("PPN_FABRIC_TEST_KILL_AFTER");
    drop.insert("PPN_FABRIC_TEST_HANG_AFTER");
  }
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    const size_t eq = entry.find('=');
    if (eq != std::string::npos && drop.count(entry.substr(0, eq)) > 0) {
      continue;
    }
    image.env_storage.push_back(entry);
  }
  char name[64];
  if (obs::Enabled()) {
    std::snprintf(name, sizeof(name), "worker-%d.g%d.profile.json", slot, gen);
    image.env_storage.push_back(
        "PPN_PROFILE_JSON=" +
        (fs::path(fabric_dir) / "obs" / name).string());
  }
  if (env::HasValue("PPN_TRACE_JSON")) {
    std::snprintf(name, sizeof(name), "worker-%d.g%d.trace.json", slot, gen);
    image.env_storage.push_back(
        "PPN_TRACE_JSON=" + (fs::path(fabric_dir) / "obs" / name).string());
  }
  if (env::HasValue("PPN_STATS_JSONL")) {
    std::snprintf(name, sizeof(name), "worker-%d.g%d.stats.jsonl", slot, gen);
    image.env_storage.push_back(
        "PPN_STATS_JSONL=" + (fs::path(fabric_dir) / "obs" / name).string());
  }

  for (std::string& arg : image.argv_storage) {
    image.argv.push_back(arg.data());
  }
  image.argv.push_back(nullptr);
  for (std::string& entry : image.env_storage) {
    image.envp.push_back(entry.data());
  }
  image.envp.push_back(nullptr);
  std::snprintf(name, sizeof(name), "worker-%d.g%d.log", slot, gen);
  image.log_path = (fs::path(fabric_dir) / "obs" / name).string();
  return image;
}

pid_t SpawnWorker(const FabricOptions& options, const std::string& fabric_dir,
                  int slot, int gen) {
  const ExecImage image = BuildExecImage(options, fabric_dir, slot, gen);
  const pid_t pid = ::fork();
  PPN_CHECK(pid >= 0) << "fork failed: " << std::strerror(errno);
  if (pid == 0) {
    // Child: async-signal-safe territory only.
    const int fd = ::open(image.log_path.c_str(),
                          O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      if (fd > 2) ::close(fd);
    }
    ::execve(image.argv[0], image.argv.data(), image.envp.data());
    _exit(127);  // exec failed; the coordinator sees a death.
  }
  if (options.on_spawn) options.on_spawn(slot, static_cast<long>(pid));
  return pid;
}

}  // namespace

bool CountFabricQueue(const std::string& fabric_dir, FabricQueueCounts* out) {
  const fs::path root(fabric_dir);
  std::error_code ec;
  if (!fs::is_directory(root / "queue", ec)) return false;
  auto count = [](const fs::path& dir) {
    return static_cast<int64_t>(ListDirSorted(dir.string()).size());
  };
  *out = FabricQueueCounts{};
  for (const fs::directory_entry& shard :
       fs::directory_iterator(root / "queue", ec)) {
    out->queued += count(shard.path());
  }
  out->running = count(root / "claims");
  out->done = count(root / "done");
  out->failed = count(root / "failed");
  return true;
}

// =============================================================== worker ==

int FabricWorkerMain(const ExperimentSpec& spec, const std::string& fabric_dir,
                     int worker_slot, int worker_gen) {
  PPN_CHECK(!fabric_dir.empty()) << "worker needs --fabric-dir";
  PPN_CHECK_GE(worker_slot, 0);
  const CellPlan plan(spec);
  const std::string cells_dir = CellsDir(spec, fabric_dir);
  const fs::path claims = fs::path(fabric_dir) / "claims";
  const fs::path done = fs::path(fabric_dir) / "done";
  const fs::path failed = fs::path(fabric_dir) / "failed";
  const fs::path corrupt = fs::path(fabric_dir) / "corrupt";
  const fs::path queue = fs::path(fabric_dir) / "queue";

  // Shard count comes from the queue layout, not argv: the worker joins
  // whatever fabric the coordinator laid out.
  int num_shards = 0;
  {
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(queue, ec)) {
      if (entry.is_directory()) ++num_shards;
    }
    PPN_CHECK(num_shards > 0) << "no queue shards under " << queue.string();
  }

  int64_t kill_after = -1;
  int64_t hang_after = -1;
  if (!FaultKnobFor("PPN_FABRIC_TEST_KILL_AFTER", worker_slot, &kill_after)) {
    kill_after = -1;
  }
  if (!FaultKnobFor("PPN_FABRIC_TEST_HANG_AFTER", worker_slot, &hang_after)) {
    hang_after = -1;
  }

  WorkerStatus status;
  int64_t claimed_count = 0;
  while (true) {
    // Claim: own shard first, then steal round-robin from the others.
    std::string claim_path;
    int64_t task_index = -1;
    int task_attempt = 0;
    bool stolen = false;
    for (int offset = 0; offset < num_shards && claim_path.empty(); ++offset) {
      const int shard = (worker_slot + offset) % num_shards;
      const std::string shard_dir = ShardDir(fabric_dir, shard);
      for (const std::string& name : ListDirSorted(shard_dir)) {
        int64_t index = 0;
        int attempt = 0;
        const std::string task_path =
            (fs::path(shard_dir) / name).string();
        if (!HasTaskSuffix(name) ||
            !ParseIndexAttempt(name, &index, &attempt)) {
          // Not a published task file: quarantine it for the coordinator
          // rather than looping over it forever. Safe because the
          // coordinator publishes tasks by rename from a staging dir, so
          // nothing of its own is ever mid-write in a shard.
          ::rename(task_path.c_str(),
                   (corrupt / (name + ".corrupt")).string().c_str());
          continue;
        }
        const std::string target =
            (claims / ClaimFileName(index, attempt, worker_slot, worker_gen))
                .string();
        // Atomic claim: exactly one renamer wins; losers see ENOENT and
        // move on.
        if (::rename(task_path.c_str(), target.c_str()) == 0) {
          // Stamp the claim with the CLAIM time — rename preserves mtime,
          // so the file would otherwise still carry the task's write
          // time. Debugging aid only: the coordinator ages claims against
          // its own first-seen clock, never this timestamp.
          ::utimensat(AT_FDCWD, target.c_str(), nullptr, 0);
          claim_path = target;
          task_index = index;
          task_attempt = attempt;
          stolen = offset != 0;
          break;
        }
      }
    }
    if (claim_path.empty()) break;  // Every shard drained: clean exit.
    ++claimed_count;
    if (hang_after >= 0 && claimed_count >= hang_after) {
      // Injected straggler: sit on the claim forever (the coordinator's
      // timeout path must re-dispatch, and its completion path must kill
      // us).
      while (true) ::sleep(1);
    }

    // Validate the claim against our own plan. A mismatch means either a
    // corrupted queue file or a coordinator/worker spec divergence; both
    // are quarantined for the coordinator to recover (bounded), never
    // silently computed.
    std::string content;
    int64_t content_index = -1;
    uint64_t content_seed = 0;
    const bool readable = ReadFileToString(claim_path, &content) &&
                          ParseTaskContent(content, &content_index,
                                           &content_seed);
    const bool valid =
        readable && content_index == task_index &&
        task_index < static_cast<int64_t>(plan.cells().size()) &&
        plan.cells()[task_index].derived_seed == content_seed;
    if (!valid) {
      std::fprintf(stderr, "[fabric] worker %d: quarantining task T%lld "
                   "(unreadable or mismatched vs this worker's spec)\n",
                   worker_slot, static_cast<long long>(task_index));
      ::rename(claim_path.c_str(),
               (corrupt / (TaskFileName(task_index, task_attempt) + ".corrupt"))
                   .string()
                   .c_str());
      continue;
    }
    const PlannedCell& cell = plan.cells()[task_index];

    // A complete checkpoint may already exist: a predecessor died after
    // committing but before marking done, or a straggler's duplicate
    // finished first. Restoring instead of recomputing is what makes
    // elastic rejoin cheap.
    const CellStep step = plan.RunOrRestore(cells_dir, cell);
    if (step.restored) ++status.cells_restored;
    if (step.saved) {
      // The checkpoint is durable; publish completion. An existing done
      // marker (duplicate execution) is replaced with identical content.
      ::rename(claim_path.c_str(),
               (done / DoneFileName(task_index)).string().c_str());
      ++status.cells_done;
      if (stolen) ++status.cells_stolen;
    } else {
      ++status.ckpt_write_failed;
      std::fprintf(stderr,
                   "[fabric] worker %d: cell T%lld checkpoint write "
                   "failed: %s\n",
                   worker_slot, static_cast<long long>(task_index),
                   step.save_error.c_str());
      // The result exists only in this process; hand the cell back so the
      // coordinator can retry it (bounded) somewhere with working disk.
      ::rename(claim_path.c_str(),
               (failed / FailFileName(task_index, task_attempt, worker_slot,
                                      worker_gen))
                   .string()
                   .c_str());
    }
    if (kill_after >= 0 && status.cells_done >= kill_after) {
      // Injected crash: die the hard way, mid-fleet, like a real OOM kill.
      ::raise(SIGKILL);
    }
  }
  WriteStatus(fabric_dir, worker_slot, worker_gen, status);
  std::printf("[fabric] worker %d.g%d: %lld done (%lld restored, %lld "
              "stolen), %lld ckpt failures\n",
              worker_slot, worker_gen,
              static_cast<long long>(status.cells_done),
              static_cast<long long>(status.cells_restored),
              static_cast<long long>(status.cells_stolen),
              static_cast<long long>(status.ckpt_write_failed));
  return 0;
}

// ========================================================== coordinator ==

std::vector<CellResult> RunSweepFabric(const ExperimentSpec& spec,
                                       const FabricOptions& options,
                                       FabricStats* stats_out) {
  PPN_CHECK_GE(options.num_processes, 1);
  PPN_CHECK(!options.fabric_dir.empty()) << "fabric needs a fabric_dir";
  PPN_CHECK(!options.worker_argv.empty()) << "fabric needs a worker argv";
  const double timeout_s =
      options.worker_timeout_s >= 0.0
          ? options.worker_timeout_s
          : env::DoubleOr("PPN_FABRIC_WORKER_TIMEOUT_S", 300.0);
  const int max_restarts =
      options.max_restarts >= 0
          ? options.max_restarts
          : static_cast<int>(env::Int64Or("PPN_FABRIC_MAX_RESTARTS", 8));
  PPN_CHECK(timeout_s > 0.0) << "worker timeout must be > 0";

  obs::Span fabric_span("exec.fabric");
  FabricStats stats;
  // The coordinator plans but never computes: EnumerateCells derives every
  // key and seed without generating a single dataset.
  const std::vector<PlannedCell> cells = EnumerateCells(spec);
  const int64_t total = static_cast<int64_t>(cells.size());
  const std::string& dir = options.fabric_dir;
  const std::string cells_dir = CellsDir(spec, dir);
  const fs::path claims = fs::path(dir) / "claims";
  const fs::path done_dir = fs::path(dir) / "done";
  const fs::path failed_dir = fs::path(dir) / "failed";
  const fs::path corrupt_dir = fs::path(dir) / "corrupt";
  const fs::path staging_dir = fs::path(dir) / "staging";
  for (int s = 0; s < options.num_processes; ++s) MakeDirs(ShardDir(dir, s));
  MakeDirs(staging_dir.string());
  MakeDirs(claims.string());
  MakeDirs(done_dir.string());
  MakeDirs(failed_dir.string());
  MakeDirs(corrupt_dir.string());
  MakeDirs((fs::path(dir) / "obs").string());
  MakeDirs(cells_dir);
  if (!spec.telemetry_dir.empty()) MakeDirs(spec.telemetry_dir);

  /// An index parsed from a claim/corrupt/fail file NAME is untrusted: a
  /// reused fabric dir can hold entries from a previous, larger spec, and
  /// indexing attempts/cells with one would be out-of-bounds UB.
  auto in_range = [total](int64_t index) {
    return index >= 0 && index < total;
  };

  // Tasks are PUBLISHED by writing into staging/ and renaming into the
  // shard: an AtomicFileWriter temp inside the shard itself ("T5.a1.task
  // .tmp") would be visible to live workers mid-write — claimed or
  // quarantined out from under the writer, failing the commit and
  // aborting the sweep with a phantom "exceeded max_cell_attempts".
  auto publish_task = [&](int64_t index, int attempt) -> bool {
    // The dispatch span carries the cell index so the trace stitcher can
    // draw a flow arrow from this span's end to the worker-side
    // `exec.cell` span that eventually claims the task.
    obs::Span dispatch_span("fabric.dispatch");
    dispatch_span.AddArg("index", static_cast<double>(index));
    dispatch_span.AddArg("attempt", static_cast<double>(attempt));
    const std::string name = TaskFileName(index, attempt);
    const std::string staged = (staging_dir / name).string();
    if (!WriteFileAtomic(staged, TaskContent(cells[static_cast<size_t>(
                                     index)]))) {
      return false;
    }
    const int shard = static_cast<int>(index % options.num_processes);
    const std::string dest =
        (fs::path(ShardDir(dir, shard)) / name).string();
    return ::rename(staged.c_str(), dest.c_str()) == 0;
  };

  // Queue: cells round-robin across shards, so each worker starts on an
  // interleaved slice of the grid and stealing only kicks in for
  // stragglers. Cells already checkpointed (a resumed sweep) are not
  // queued at all — the assembly loads them directly.
  //
  // Per-cell bookkeeping is split three ways: `dispatches` is the
  // monotonic task-name counter (every queue file needs a fresh attempt
  // number), `failures` is the abort budget (worker deaths, corruption,
  // failed commits, lost checkpoints), and `backups` caps speculative
  // straggler duplicates WITHOUT counting toward the abort budget — a
  // healthy cell that merely runs longer than the timeout must never
  // take the sweep down.
  std::vector<int> dispatches(static_cast<size_t>(total), 0);
  std::vector<int> failures(static_cast<size_t>(total), 0);
  std::vector<int> backups(static_cast<size_t>(total), 0);
  const CellPlan assembly_plan(spec);  // Datasets stay ungenerated.
  int64_t queued = 0;
  for (const PlannedCell& cell : cells) {
    CellResult probe;
    std::string probe_error;
    if (assembly_plan.TryLoadCell(cells_dir, cell, &probe, &probe_error)) {
      continue;  // Complete from a previous run; nothing to dispatch.
    }
    PPN_CHECK(publish_task(cell.index, 0))
        << "cannot write queue file for cell T" << cell.index;
    ++queued;
  }
  if (options.after_queue_hook) options.after_queue_hook();

  // Requeues a cell after a FAILURE; false (sweep must abort) when the
  // per-cell failure budget is exhausted. Straggler backups go through
  // dispatch_backup instead.
  auto requeue = [&](int64_t index) -> bool {
    PPN_CHECK(in_range(index));
    if (++failures[static_cast<size_t>(index)] >=
        options.max_cell_attempts) {
      return false;
    }
    return publish_task(index, ++dispatches[static_cast<size_t>(index)]);
  };

  // Dispatches a speculative duplicate for a straggler; false when the
  // per-cell backup cap is spent (or the write failed). Never fatal: the
  // slow claim holder may yet finish, and identical bits make whichever
  // copy commits first the winner.
  auto dispatch_backup = [&](int64_t index) -> bool {
    PPN_CHECK(in_range(index));
    int& used = backups[static_cast<size_t>(index)];
    if (used >= options.max_cell_attempts) return false;
    ++used;
    return publish_task(index, ++dispatches[static_cast<size_t>(index)]);
  };

  std::vector<Child> children;
  std::vector<int> slot_gen(static_cast<size_t>(options.num_processes), 0);
  std::vector<std::chrono::steady_clock::time_point> slot_backoff_until(
      static_cast<size_t>(options.num_processes),
      std::chrono::steady_clock::now());
  std::vector<int> slot_deaths(static_cast<size_t>(options.num_processes), 0);
  int restarts_used = 0;
  auto spawn = [&](int slot) {
    const int gen = slot_gen[static_cast<size_t>(slot)]++;
    Child child;
    child.slot = slot;
    child.gen = gen;
    child.pid = SpawnWorker(options, dir, slot, gen);
    child.alive = true;
    children.push_back(child);
    ++stats.workers_spawned;
    if (gen > 0) ++stats.workers_restarted;
  };
  if (queued > 0) {
    for (int s = 0; s < options.num_processes; ++s) spawn(s);
  }

  // Claims the coordinator already re-dispatched as stragglers: one
  // duplicate per stuck claim, not one per poll tick.
  std::set<std::string> redispatched;
  // When each claim was FIRST OBSERVED by the supervision loop. This is
  // what staleness ages against: rename(2) preserves mtime, so a claim
  // file's on-disk timestamp reflects when the TASK was written, and a
  // cell whose queue wait exceeded the timeout would look stale the
  // instant it was claimed. Claim names are unique per dispatch
  // (index, attempt, slot, gen), so first-seen is unambiguous.
  std::map<std::string, std::chrono::steady_clock::time_point>
      claim_first_seen;
  bool complete = queued == 0;
  std::string abort_reason;

  while (!complete && abort_reason.empty()) {
    // 1. Reap. A clean exit (status 0) is a drained worker; anything else
    //    is a death whose claims must go back on the queue.
    for (Child& child : children) {
      if (!child.alive) continue;
      int wait_status = 0;
      const pid_t reaped = ::waitpid(child.pid, &wait_status, WNOHANG);
      if (reaped != child.pid) continue;
      child.alive = false;
      const bool clean =
          WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0;
      if (!clean) {
        ++stats.workers_died;
        ++slot_deaths[static_cast<size_t>(child.slot)];
        const double backoff_s = std::min(
            2.0, 0.1 * static_cast<double>(
                           1 << std::min(5, slot_deaths[static_cast<size_t>(
                                                child.slot)])));
        slot_backoff_until[static_cast<size_t>(child.slot)] =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(backoff_s));
        std::fprintf(stderr,
                     "[fabric] worker %d.g%d (pid %ld) died; requeueing "
                     "its claims\n",
                     child.slot, child.gen, static_cast<long>(child.pid));
      }
      // Requeue everything the worker held, clean exit or not (a clean
      // exit holds nothing; a death may hold one claim).
      for (const std::string& name : ListDirSorted(claims.string())) {
        int64_t index = 0;
        int attempt = 0, slot = 0, gen = 0;
        if (!ParseClaimOwner(name, &index, &attempt, &slot, &gen)) continue;
        if (slot != child.slot || gen != child.gen) continue;
        std::error_code ec;
        fs::remove(claims / name, ec);
        if (!in_range(index)) {
          ++stats.queue_corrupt;  // Foreign entry (reused fabric dir).
          continue;
        }
        ++stats.cells_redispatched;
        if (!requeue(index)) {
          abort_reason = "cell T" + std::to_string(index) +
                         " exceeded max_cell_attempts after worker deaths";
        }
      }
    }

    // 2. Recover quarantined (corrupt/mismatched) queue files from the
    //    coordinator's authoritative cell list.
    for (const std::string& name : ListDirSorted(corrupt_dir.string())) {
      int64_t index = 0;
      int attempt = 0;
      std::error_code ec;
      fs::remove(corrupt_dir / name, ec);
      ++stats.queue_corrupt;
      if (!ParseIndexAttempt(name, &index, &attempt)) continue;
      if (!in_range(index)) continue;  // Junk from a reused fabric dir.
      ++stats.cells_redispatched;
      if (!requeue(index)) {
        abort_reason = "cell T" + std::to_string(index) +
                       " repeatedly corrupt/mismatched in the queue "
                       "(coordinator and worker specs may differ)";
      }
    }

    // 3. Failed checkpoint commits: surfaced and retried elsewhere.
    for (const std::string& name : ListDirSorted(failed_dir.string())) {
      int64_t index = 0;
      int attempt = 0, slot = 0, gen = 0;
      std::error_code ec;
      fs::remove(failed_dir / name, ec);
      if (!ParseClaimOwner(name, &index, &attempt, &slot, &gen)) continue;
      if (!in_range(index)) {
        ++stats.queue_corrupt;  // Foreign entry (reused fabric dir).
        continue;
      }
      ++stats.ckpt_write_failures;
      ++stats.cells_redispatched;
      if (!requeue(index)) {
        abort_reason = "cell T" + std::to_string(index) +
                       " cannot be persisted (checkpoint writes keep "
                       "failing — disk full?)";
      }
    }

    // 4. Stragglers: a claim observed unchanged for longer than the
    //    timeout gets a backup task (speculative duplicate, not a kill —
    //    identical bits make the duplicate harmless, and the slow worker
    //    may yet finish first). Backups are capped per cell but NEVER
    //    abort: only real failures spend the max_cell_attempts budget.
    {
      const auto now = std::chrono::steady_clock::now();
      std::set<std::string> live_claims;
      for (const std::string& name : ListDirSorted(claims.string())) {
        int64_t index = 0;
        int attempt = 0, slot = 0, gen = 0;
        if (!ParseClaimOwner(name, &index, &attempt, &slot, &gen)) continue;
        if (!in_range(index)) {
          // Foreign claim (reused fabric dir): it can never complete
          // against this spec, so discard it instead of indexing with it.
          std::error_code ec;
          fs::remove(claims / name, ec);
          ++stats.queue_corrupt;
          continue;
        }
        live_claims.insert(name);
        if (redispatched.count(name) > 0) continue;
        const auto [seen, first_sighting] = claim_first_seen.emplace(name,
                                                                     now);
        if (first_sighting) continue;  // The stale clock starts here.
        if (std::chrono::duration<double>(now - seen->second).count() <
            timeout_s) {
          continue;
        }
        redispatched.insert(name);
        if (!dispatch_backup(index)) {
          std::fprintf(stderr,
                       "[fabric] claim %s stale (> %.1fs) but its backup "
                       "budget is spent; waiting on the claim holder\n",
                       name.c_str(), timeout_s);
          continue;
        }
        ++stats.cells_redispatched;
        std::fprintf(stderr,
                     "[fabric] claim %s stale (> %.1fs); re-dispatching a "
                     "backup task\n",
                     name.c_str(), timeout_s);
      }
      // Completed (vanished) claims leave the first-seen map so it stays
      // bounded by the number of in-flight claims.
      for (auto it = claim_first_seen.begin();
           it != claim_first_seen.end();) {
        it = live_claims.count(it->first) > 0 ? std::next(it)
                                              : claim_first_seen.erase(it);
      }
    }

    // 5. Completion: every cell marked done AND loadable. A done marker
    //    whose checkpoint does not load (torn by a concurrent duplicate,
    //    eaten by the disk) is dropped and the cell requeued.
    if (static_cast<int64_t>(ListDirSorted(done_dir.string()).size()) >=
        queued) {
      // Cheap gate passed (a marker exists for every dispatched cell);
      // verify for real — markers are hints, loadable checkpoints are
      // the truth.
      int64_t missing = 0;
      for (const PlannedCell& cell : cells) {
        if (fs::exists(done_dir / DoneFileName(cell.index)) ||
            dispatches[static_cast<size_t>(cell.index)] == 0) {
          CellResult probe;
          std::string probe_error;
          if (assembly_plan.TryLoadCell(cells_dir, cell, &probe,
                                        &probe_error)) {
            continue;
          }
        }
        if (!fs::exists(done_dir / DoneFileName(cell.index))) {
          ++missing;  // Still in flight.
          continue;
        }
        std::error_code ec;
        fs::remove(done_dir / DoneFileName(cell.index), ec);
        ++missing;
        ++stats.cells_redispatched;
        std::fprintf(stderr,
                     "[fabric] done marker for T%lld had no loadable "
                     "checkpoint; requeueing\n",
                     static_cast<long long>(cell.index));
        if (!requeue(cell.index)) {
          abort_reason = "cell T" + std::to_string(cell.index) +
                         " keeps losing its checkpoint";
        }
      }
      complete = missing == 0;
      if (complete) break;
    }

    // 6. Elastic capacity: any slot without a live worker respawns (past
    //    its backoff) while claimable work remains, bounded by the
    //    restart budget.
    int64_t tasks_outstanding = 0;
    for (int s = 0; s < options.num_processes; ++s) {
      tasks_outstanding +=
          static_cast<int64_t>(ListDirSorted(ShardDir(dir, s)).size());
    }
    if (tasks_outstanding > 0 && abort_reason.empty()) {
      std::vector<bool> slot_live(static_cast<size_t>(options.num_processes),
                                  false);
      int live = 0;
      for (const Child& child : children) {
        if (child.alive) {
          slot_live[static_cast<size_t>(child.slot)] = true;
          ++live;
        }
      }
      const auto now = std::chrono::steady_clock::now();
      for (int s = 0; s < options.num_processes; ++s) {
        if (slot_live[static_cast<size_t>(s)]) continue;
        if (now < slot_backoff_until[static_cast<size_t>(s)]) continue;
        if (restarts_used >= max_restarts) {
          if (live == 0) {
            abort_reason =
                "work remains but the restart budget (" +
                std::to_string(max_restarts) + ") is exhausted";
          }
          break;
        }
        ++restarts_used;
        spawn(s);
        slot_live[static_cast<size_t>(s)] = true;
        ++live;
      }
    }

    std::this_thread::sleep_for(
        std::chrono::duration<double>(options.poll_interval_s));
  }

  // Shut the fleet down. A worker that drained the queue is already on
  // its clean-exit path — writing its status file and flushing its
  // trace + stats stream — and the coordinator can observe every cell
  // complete (checkpoints land first) while that flush is still in
  // flight, especially on a loaded machine. Give live workers a bounded
  // grace to finish, or the kill below eats their end-of-run telemetry.
  const auto grace_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              std::max(0.0, options.shutdown_grace_s)));
  bool any_alive = true;
  while (any_alive && std::chrono::steady_clock::now() < grace_deadline) {
    any_alive = false;
    for (Child& child : children) {
      if (!child.alive) continue;
      int wait_status = 0;
      if (::waitpid(child.pid, &wait_status, WNOHANG) == child.pid) {
        child.alive = false;
      } else {
        any_alive = true;
      }
    }
    if (any_alive) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  // Anything still alive (hung stragglers whose cells were finished by
  // backups) goes down hard, like any disposable worker.
  for (Child& child : children) {
    if (!child.alive) continue;
    ::kill(child.pid, SIGKILL);
    int wait_status = 0;
    ::waitpid(child.pid, &wait_status, 0);
    child.alive = false;
  }

  // Merge per-worker telemetry into this process: status files (always
  // written on clean exits) and, when profiling is on, profile JSONs.
  for (const std::string& name :
       ListDirSorted((fs::path(dir) / "obs").string())) {
    const std::string path = (fs::path(dir) / "obs" / name).string();
    if (name.size() > 7 && name.rfind(".status") == name.size() - 7) {
      std::string content;
      WorkerStatus status;
      if (ReadFileToString(path, &content) && ParseStatus(content, &status)) {
        stats.cells_stolen += status.cells_stolen;
        stats.cells_restored += status.cells_restored;
        // Worker-side counts: failures whose markers were already
        // consumed in step 3 are not double-counted — markers are the
        // authoritative count; status files only catch markers lost to
        // a mid-rename kill.
      }
    } else if (obs::Enabled() && name.ends_with(".profile.json")) {
      // Counters add and gauges take the max: the shard merge, across
      // processes, so one report covers the whole sweep. A dropped
      // profile is counted (`exec.fabric.profile_merge_failed`), never
      // silent: it would understate the merged counters.
      obs::Snapshot profile;
      std::string error;
      if (!obs::ReadProfileJson(path, &profile, &error)) {
        std::fprintf(stderr, "[fabric] skipping unreadable profile %s: %s\n",
                     path.c_str(), error.c_str());
        ++stats.profile_merge_failed;
        continue;
      }
      for (const auto& [metric, value] : profile.counters) {
        obs::GetCounter(metric).Add(value);
      }
      for (const auto& [metric, value] : profile.gauges) {
        obs::GetGauge(metric).UpdateMax(value);
      }
    }
  }
  if (obs::Enabled()) {
    obs::GetCounter("exec.fabric.workers_spawned")
        .Add(static_cast<double>(stats.workers_spawned));
    obs::GetCounter("exec.fabric.workers_died")
        .Add(static_cast<double>(stats.workers_died));
    obs::GetCounter("exec.fabric.workers_restarted")
        .Add(static_cast<double>(stats.workers_restarted));
    obs::GetCounter("exec.fabric.cells_stolen")
        .Add(static_cast<double>(stats.cells_stolen));
    obs::GetCounter("exec.fabric.cells_redispatched")
        .Add(static_cast<double>(stats.cells_redispatched));
    obs::GetCounter("exec.fabric.queue_corrupt")
        .Add(static_cast<double>(stats.queue_corrupt));
    obs::GetCounter("exec.fabric.ckpt_write_failed")
        .Add(static_cast<double>(stats.ckpt_write_failures));
    obs::GetCounter("exec.fabric.profile_merge_failed")
        .Add(static_cast<double>(stats.profile_merge_failed));
  }
  if (stats_out != nullptr) *stats_out = stats;
  PPN_CHECK(abort_reason.empty())
      << "fabric sweep failed: " << abort_reason << " (scratch kept at "
      << dir << "; see obs/worker-*.log)";

  // Stitch the cross-process observability artifacts while the scratch
  // dir still holds the per-worker files. Merged outputs are also copied
  // next to the user's own sink paths so they survive scratch cleanup.
  if (env::HasValue("PPN_TRACE_JSON")) {
    const std::string coord_trace =
        (fs::path(dir) / "obs" / "coordinator.trace.json").string();
    obs::WriteTraceJson(coord_trace);
    const std::string merged =
        (fs::path(dir) / "obs" / "merged.trace.json").string();
    std::string merge_error;
    obs::TraceMergeStats merge_stats;
    if (obs::MergeFabricTraces(dir, merged, &merge_error, &merge_stats)) {
      const std::string persist =
          env::StringOr("PPN_TRACE_JSON", "") + ".merged.json";
      std::error_code copy_ec;
      fs::copy_file(merged, persist, fs::copy_options::overwrite_existing,
                    copy_ec);
      std::fprintf(stderr,
                   "[fabric] merged trace: %d processes, %lld events, "
                   "%lld flow pairs -> %s\n",
                   merge_stats.processes,
                   static_cast<long long>(merge_stats.events),
                   static_cast<long long>(merge_stats.flow_pairs),
                   copy_ec ? merged.c_str() : persist.c_str());
    } else {
      std::fprintf(stderr, "[fabric] trace merge failed: %s\n",
                   merge_error.c_str());
    }
  }
  if (env::HasValue("PPN_STATS_JSONL")) {
    const std::vector<std::string> streams =
        obs::FindStatsStreams((fs::path(dir) / "obs").string());
    if (!streams.empty()) {
      const std::string merged =
          (fs::path(dir) / "obs" / "merged.stats.jsonl").string();
      std::string merge_error;
      if (obs::MergeStatsStreams(streams, merged, &merge_error)) {
        const std::string persist =
            env::StringOr("PPN_STATS_JSONL", "") + ".workers.jsonl";
        std::error_code copy_ec;
        fs::copy_file(merged, persist, fs::copy_options::overwrite_existing,
                      copy_ec);
        std::fprintf(stderr, "[fabric] merged %zu worker stats streams -> %s\n",
                     streams.size(),
                     copy_ec ? merged.c_str() : persist.c_str());
      } else {
        std::fprintf(stderr, "[fabric] stats stream merge failed: %s\n",
                     merge_error.c_str());
      }
    }
  }

  // Assemble the merged rows from the cell checkpoints — the only state
  // that ever crossed a process boundary.
  std::vector<CellResult> rows;
  rows.reserve(cells.size());
  for (const PlannedCell& cell : cells) {
    CellResult result;
    std::string error;
    PPN_CHECK(assembly_plan.TryLoadCell(cells_dir, cell, &result, &error))
        << "fabric assembly lost cell T" << cell.index << ": " << error;
    rows.push_back(std::move(result));
  }

  if (!options.keep_fabric_dir) {
    std::error_code ec;
    fs::remove_all(dir, ec);  // Best-effort; scratch only.
  }
  return rows;
}

}  // namespace ppn::exec
