#!/bin/sh
# Runs every bench binary sequentially and records the combined output in
# bench_output.txt next to this script (all paths resolve from here, so
# any checkout works).
# Table benches also dump machine-readable per-cell results (one
# "<slug>.cells.json" per bench) into bench_results/, keyed by the
# PPN_RESULTS_JSON directory. Each table bench additionally runs with
# PPN_PROFILE_JSON set, so a merged observability profile
# ("<bench>.profile.json": kernel counters, per-cell wall times, solver
# iteration stats) is written next to the results JSON. The per-step
# reward breakdown is not in the profile; set PPN_RUNLOG_DIR to record it.
# PPN_WORKERS controls experiment parallelism (default: hardware thread
# count; 0 forces the serial inline path).
#
# The google-benchmark probes (micro_kernels, stress_bench) run with obs
# OFF: either sink variable would turn the instrumentation on inside the
# timed loops, and a BENCHMARK_MAIN binary never writes a profile or
# starts a sampler.
#
# Observability: each table bench also runs with PPN_STATS_JSONL set,
# writing a periodic ppn.stats.v1 time-series stream
# ("<bench>.stats.jsonl") next to its profile — inspect live with
# `ppn_cli top --dir bench_results/<bench>.stats.jsonl`. SLO gate: when PPN_HEALTH is set
# (e.g. PPN_HEALTH='exec.cell.seconds.p99<=2s') each bench prints a
# PPN_HEALTH: PASS|FAIL verdict at exit; any FAIL in the combined output
# makes this script exit non-zero.
root=$(cd "$(dirname "$0")" && pwd) || exit 1
cd "$root" || exit 1
mkdir -p bench_results
PPN_RESULTS_JSON="$root/bench_results"
export PPN_RESULTS_JSON
{
  for b in build/bench/*; do
    if [ -f "$b" ] && [ -x "$b" ]; then
      name=$(basename "$b")
      echo "===== RUNNING $name ====="
      case "$name" in
        micro_kernels|stress_bench)
          "$b"
          ;;
        *)
          PPN_PROFILE_JSON="$root/bench_results/$name.profile.json" \
            PPN_STATS_JSONL="$root/bench_results/$name.stats.jsonl" \
            "$b"
          ;;
      esac
      echo ""
    fi
  done
  echo "ALL_BENCHES_DONE"
} > "$root/bench_output.txt" 2>&1
# SLO gate: a bench dtor cannot change its process exit status, so the
# health verdict is gated here off the grep-stable token each bench
# prints when PPN_HEALTH is set.
if grep -q "PPN_HEALTH: FAIL" "$root/bench_output.txt"; then
  echo "BENCH_HEALTH_FAILED: a PPN_HEALTH rule was violated (see" \
       "bench_output.txt for the [health] lines)" >&2
  exit 1
fi
