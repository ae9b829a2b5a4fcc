#include "common/env.h"

#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "common/parse.h"

namespace ppn::env {

namespace {

// The single source of truth for every environment knob the binaries read.
// run_benches.sh / CI knobs consumed only by shell scripts are listed too,
// so `ppn_cli help-env` documents the whole surface.
const VarInfo kRegistry[] = {
    {"PPN_WORKERS", "int", "hardware threads",
     "Worker threads for exec::ThreadPool consumers (0 = run inline)"},
    {"PPN_SCALE", "enum", "quick",
     "Run scale for presets and examples: smoke | quick | full"},
    {"PPN_OBS", "flag", "off",
     "Force the obs layer on (any value but \"0\") without a sink path"},
    {"PPN_PROFILE_JSON", "path", "unset",
     "Write an aggregated obs profile snapshot to this path at exit"},
    {"PPN_TRACE_JSON", "path", "unset",
     "Write a Chrome trace-event timeline to this path at exit"},
    {"PPN_RUNLOG_DIR", "path", "unset",
     "Directory for per-step run logs: one JSONL per trained sweep cell, "
     "or train-seed<seed>.runlog.jsonl from `ppn_cli train`"},
    {"PPN_STATS_JSONL", "path", "unset",
     "Stream periodic ppn.stats.v1 registry samples to this JSONL path "
     "(fabric workers get per-worker redirected streams)"},
    {"PPN_SAMPLE_MS", "int", "250",
     "Stats sampler window in milliseconds (must be >= 1)"},
    {"PPN_HEALTH", "rules", "unset",
     "Comma-separated SLO rules (<metric><op><value>, e.g. "
     "serve.decide.latency.seconds.p99<5ms) checked per sample window "
     "and at exit; any violation makes the run exit nonzero"},
    {"PPN_RESULTS_JSON", "path", "unset",
     "Benchmark harness: append bench context results to this JSON"},
    {"PPN_NO_POOL", "flag", "off",
     "Disable the thread-local tensor buffer pool (any value but \"0\")"},
    {"PPN_SIMD", "enum", "auto",
     "Kernel SIMD path: auto (CPUID-selected) | avx2 | scalar; all paths "
     "are bit-identical"},
    {"PPN_FABRIC_WORKER_TIMEOUT_S", "double", "300",
     "Sweep fabric: a cell in flight this many seconds after it was sent "
     "gets a backup copy on an idle worker (capped per cell, never "
     "fatal)"},
    {"PPN_FABRIC_MAX_RESTARTS", "int", "8",
     "Sweep fabric: worker respawns beyond the initial fleet before the "
     "coordinator gives up"},
    {"PPN_FABRIC_TEST_KILL_AFTER", "slot:cells", "unset",
     "Fabric fault injection (tests): worker <slot> SIGKILLs itself after "
     "finishing <cells> cells; stripped from respawned workers"},
    {"PPN_FABRIC_TEST_HANG_AFTER", "slot:cells", "unset",
     "Fabric fault injection (tests): worker <slot> hangs forever on the "
     "<cells>-th cell it is sent; stripped from respawned workers"},
    {"PPN_BENCH_GATE", "flag", "off",
     "run_benches.sh: diff gated benches against the archived baseline"},
    {"PPN_BENCH_REPS", "int", "3",
     "run_benches.sh: benchmark repetitions for gated benches"},
};

const VarInfo* Find(const char* name) {
  for (const VarInfo& info : kRegistry) {
    if (std::strcmp(info.name, name) == 0) return &info;
  }
  return nullptr;
}

const char* CheckedGet(const char* name) {
  PPN_CHECK(Find(name) != nullptr)
      << "environment knob " << name << " is not registered in common/env.cc";
  return std::getenv(name);
}

}  // namespace

const std::vector<VarInfo>& Registry() {
  static const std::vector<VarInfo> registry(std::begin(kRegistry),
                                             std::end(kRegistry));
  return registry;
}

const char* Raw(const char* name) { return CheckedGet(name); }

bool IsSet(const char* name) { return CheckedGet(name) != nullptr; }

bool HasValue(const char* name) {
  const char* value = CheckedGet(name);
  return value != nullptr && value[0] != '\0';
}

bool FlagSet(const char* name) {
  const char* value = CheckedGet(name);
  if (value == nullptr || value[0] == '\0') return false;
  return !(value[0] == '0' && value[1] == '\0');
}

int64_t Int64Or(const char* name, int64_t fallback) {
  const char* value = CheckedGet(name);
  if (value == nullptr) return fallback;
  return ParseInt64OrDie(value, name);
}

double DoubleOr(const char* name, double fallback) {
  const char* value = CheckedGet(name);
  if (value == nullptr) return fallback;
  return ParseDoubleOrDie(value, name);
}

std::string StringOr(const char* name, const std::string& fallback) {
  const char* value = CheckedGet(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  return value;
}

}  // namespace ppn::env
