#ifndef PPN_OBS_TRACE_MERGE_H_
#define PPN_OBS_TRACE_MERGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"

/// \file
/// Cross-process trace stitching: folds the Chrome-trace JSONs written by
/// a fabric coordinator and its worker generations into ONE
/// Perfetto-loadable timeline.
///
/// Each input process becomes one `pid` in the merged file (tids keep
/// their per-process values — they are already disjoint per pid), led by
/// a `ph:"M"` / `process_name` metadata event so Perfetto labels the
/// tracks `coordinator`, `worker-0.g0`, ....
///
/// Three things make the merge more than concatenation:
///
///   1. **Clock alignment.** Every process timestamps spans against its
///      own steady-clock epoch (microseconds since first trace touch), so
///      raw timelines would all start at 0. The exporter records the wall
///      clock captured at that same instant (`otherData.ppn_epoch_unix_us`);
///      the merge shifts each process by `epoch_i - min(epoch)` onto a
///      shared axis. Inputs missing the anchor (older files) keep offset
///      0.
///   2. **Flow-id remapping.** Per-process flow ids are both counted from
///      1; merged as-is they would cross-link unrelated arrows. Ids are
///      rewritten to `(pid << 40) | id`.
///   3. **Cross-process flows.** The coordinator's `fabric.dispatch`
///      spans and the workers' `exec.cell` spans both carry the cell
///      `index` arg; the merge emits one `s`→`f` flow pair per index seen
///      on both sides (dispatch end → earliest matching cell span), so
///      the handoff of every cell is an arrow across process tracks.
///
/// Like `obs/report.h`, this is reader-side tooling and never compiles
/// out: it operates on files, not on the live registry.

namespace ppn::obs {

/// A Chrome trace file as obs writes it (obs/trace.cc, or a merge): its
/// events plus the `otherData` fields the merge reads (0 when absent).
struct TraceFile {
  std::vector<JsonValue> events;
  int64_t epoch_unix_us = 0;  ///< otherData.ppn_epoch_unix_us
  int64_t dropped_events = 0;  ///< otherData.ppn_dropped_events
};

/// The one reader of trace files (`ppn_cli report --trace` and the merge).
/// False, with "<path>: <reason>" in `*error` when non-null, when the
/// file cannot be read, does not parse, or has no `traceEvents` array.
bool ReadTraceFile(const std::string& path, TraceFile* out,
                   std::string* error = nullptr);

/// One input timeline.
struct TraceProcess {
  std::string name;  ///< Merged process_name, e.g. "worker-0.g1".
  std::string path;  ///< Chrome trace JSON written by obs/trace.cc.
};

struct TraceMergeStats {
  int64_t events = 0;      ///< Events in the merged output (sans metadata).
  int processes = 0;       ///< Inputs successfully folded in.
  int skipped_files = 0;   ///< Inputs dropped as unreadable/unparsable.
  int64_t flow_pairs = 0;  ///< Cross-process dispatch→cell pairs emitted.
  int64_t dropped_events = 0;  ///< Sum of inputs' ppn_dropped_events.
};

/// Merges `inputs` into `out_path` (atomic write). Unreadable inputs are
/// skipped and counted, not fatal; returns false only when no input
/// parses or the output cannot be written. Events are emitted sorted by
/// `(pid, ts, tid)` with each pid's metadata event first.
bool MergeChromeTraces(const std::vector<TraceProcess>& inputs,
                       const std::string& out_path, std::string* error,
                       TraceMergeStats* stats = nullptr);

/// Discovers `<fabric_dir>/obs/*.trace.json` (the coordinator's stream
/// first, then workers in name order) and merges them into `out_path`.
bool MergeFabricTraces(const std::string& fabric_dir,
                       const std::string& out_path, std::string* error,
                       TraceMergeStats* stats = nullptr);

}  // namespace ppn::obs

#endif  // PPN_OBS_TRACE_MERGE_H_
