#ifndef PPN_EXEC_FABRIC_H_
#define PPN_EXEC_FABRIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/experiment.h"

/// \file
/// The multi-process sweep fabric: a coordinator fans the cells of an
/// `ExperimentSpec` out across WORKER PROCESSES (fork/exec of `ppn_cli
/// sweep-worker`, or any binary speaking the same protocol) and restarts
/// workers that die. This is what scales a sweep past one address space.
/// DESIGN.md §2.9 names the test that covers each failure below.
///
/// Channel: every spawn gets a `socketpair(AF_UNIX, SOCK_STREAM)`. The
/// worker's end is its fd 3 and the only end it inherits, so closing the
/// coordinator's end is the worker's EOF (it exits 0). The coordinator
/// sends an idle worker one line per cell and reads one reply line back:
///
///   coordinator → worker  `<index> <derived_seed hex>`   run this cell
///   worker → coordinator  `done <index> <restored 0|1>`  checkpoint saved
///                         `failed <index>`               commit failed
///                         `mismatch <index>`             not in its spec
///
/// The worker checks the task line against its own `CellPlan`, so a
/// coordinator and worker that disagree about the spec can never silently
/// mix results. A worker holds at most one cell, and the coordinator alone
/// knows what is queued, in flight and done.
///
/// Files under `fabric_dir`: `cells/cell-<seed>.ckpt` (unless the spec
/// names its own checkpoint_dir), `progress` (the counts `ppn_cli top`
/// shows) and `obs/worker-<slot>.g<gen>.{log,profile.json,trace.json,
/// stats.jsonl}`. The atomically committed cell checkpoint is the only
/// result that crosses a process boundary, so workers are disposable: a
/// worker SIGKILLed mid-cell leaves either no checkpoint (the cell is sent
/// again and recomputed — same key, same seed, same bits) or a complete
/// one (the next worker restores it). Merged results are therefore
/// bit-identical to a single-process run, modulo `wall_seconds`.
///
/// Failures: a worker whose channel closes, or whose reply does not parse
/// or names a cell it was not sent, is dead; its cell is requeued and its
/// slot respawns with exponential backoff, within `max_restarts`. A cell
/// in flight longer than `worker_timeout_s` gets a backup copy on an idle
/// worker (commits are idempotent, so whoever finishes first wins);
/// backups are capped per cell and never fatal. A `failed` reply, or a
/// `done` whose checkpoint does not load, requeues the cell. A cell's
/// fourth failure (deaths, failed commits, lost checkpoints) aborts the
/// sweep loudly, and a `mismatch` aborts it at once, naming the cell.
///
/// Observability: `exec.fabric.*` counters, per-worker console logs, and —
/// when obs is on — per-worker profiles whose counters and gauges are
/// merged into the coordinator's registry, so one report covers the whole
/// sweep. With `PPN_TRACE_JSON` set, the coordinator's and every worker
/// generation's traces are stitched into one Perfetto timeline
/// (obs/trace_merge.h), copied to `$PPN_TRACE_JSON.merged.json`; with
/// `PPN_STATS_JSONL` set, the worker streams are merged to
/// `$PPN_STATS_JSONL.workers.jsonl`.

namespace ppn::exec {

/// Coordinator-side bookkeeping for one fabric sweep. Mirrored into
/// `exec.fabric.*` obs counters when profiling is enabled.
struct FabricStats {
  int64_t workers_spawned = 0;     ///< Including respawns.
  int64_t workers_died = 0;        ///< Channel lost or protocol broken.
  int64_t workers_restarted = 0;   ///< Replacement spawns.
  int64_t cells_redispatched = 0;  ///< Requeued after death/loss, or backed up.
  int64_t ckpt_write_failures = 0; ///< Worker-side failed cell commits.
  int64_t cells_restored = 0;      ///< Loaded by workers from existing ckpts.
  int64_t profile_merge_failed = 0;  ///< Worker profiles dropped unmerged.
};

struct FabricOptions {
  /// Worker processes to keep alive while work remains. Must be >= 1.
  int num_processes = 2;

  /// Scratch + handoff directory (created if needed). Unless
  /// `keep_fabric_dir`, it is removed after a fully successful sweep.
  std::string fabric_dir;

  /// Base argv of a worker, e.g. {"/path/ppn_cli", "sweep-worker",
  /// "--datasets", "crypto-a", ...} — flags that rebuild THE SAME spec
  /// the coordinator was given. The fabric appends
  /// `--fabric-dir <dir> --worker-slot <s> --worker-gen <g>`.
  std::vector<std::string> worker_argv;

  /// A cell in flight this long since it was sent gets a backup copy.
  /// < 0 reads `PPN_FABRIC_WORKER_TIMEOUT_S` (default 300).
  double worker_timeout_s = -1.0;

  /// Total worker (re)spawns beyond the initial `num_processes` before
  /// the coordinator gives up. < 0 reads `PPN_FABRIC_MAX_RESTARTS`
  /// (default 8).
  int max_restarts = -1;

  /// Leave `fabric_dir` in place after success (debugging; always left
  /// in place on failure).
  bool keep_fabric_dir = false;
};

/// Runs the sweep across worker processes and returns rows in cell
/// enumeration order — bit-identical to `ExperimentRunner::Run` on the
/// same spec (modulo `wall_seconds`), at any process count, and across
/// worker kills. Aborts (PPN_CHECK) when the sweep cannot be completed
/// within the restart/attempt bounds; `stats`, when non-null, receives
/// the supervision counters either way.
std::vector<CellResult> RunSweepFabric(const ExperimentSpec& spec,
                                       const FabricOptions& options,
                                       FabricStats* stats = nullptr);

/// A fabric's cell counts as of the coordinator's latest supervision tick
/// (what `ppn_cli top` shows, live between sample windows).
struct FabricQueueCounts {
  int64_t queued = 0;   ///< Waiting for an idle worker.
  int64_t running = 0;  ///< In flight on a worker.
  int64_t done = 0;     ///< Checkpointed and accepted.
  int64_t failed = 0;   ///< Attempts lost to deaths, failed or lost commits.
};

/// Reads `fabric_dir`'s progress file. False when it has none (it is not
/// a fabric dir).
bool CountFabricQueue(const std::string& fabric_dir, FabricQueueCounts* out);

/// Worker entry point (what `ppn_cli sweep-worker` calls after rebuilding
/// the spec from its flags): reads cells from its channel on fd 3,
/// computes or restores each, commits its checkpoint, and replies. Returns
/// 0 at the channel's EOF. Honors the fault-injection knobs
/// `PPN_FABRIC_TEST_KILL_AFTER` / `PPN_FABRIC_TEST_HANG_AFTER`
/// ("<slot>:<cells>") for the fabric test suite.
int FabricWorkerMain(const ExperimentSpec& spec, const std::string& fabric_dir,
                     int worker_slot, int worker_gen);

}  // namespace ppn::exec

#endif  // PPN_EXEC_FABRIC_H_
