#!/bin/sh
# Runs every bench binary sequentially and records the combined output.
# Table benches also dump machine-readable per-cell results (one
# "<slug>.cells.json" per bench) into bench_results/, keyed by the
# PPN_RESULTS_JSON directory. Each table bench additionally runs with
# PPN_PROFILE_JSON set, so a merged observability profile
# ("<bench>.profile.json": kernel counters, per-cell wall times, solver
# iteration stats) is archived next to the results JSON. The per-step
# reward breakdown is not in the profile; set PPN_RUNLOG_DIR to record it.
# PPN_WORKERS controls experiment parallelism (default: hardware thread
# count; 0 forces the serial inline path).
#
# google-benchmark binaries (micro_kernels, serve_bench, stress_bench)
# archive their machine-readable report as "<bench>.json" in
# bench_results/ — the
# input format of tools/bench_diff.py, which compares two archived runs
# and flags throughput regressions. They run with obs OFF: either sink
# variable would turn the instrumentation on inside the timed loops, and
# a BENCHMARK_MAIN binary never writes a profile or starts a sampler.
#
# Regression gate: PPN_BENCH_GATE=1 turns bench_diff.py into a gate.
# Before running a gated bench the previous archived report (the newest
# bench_results/<bench>.json) is kept as
# <bench>.baseline.json; afterwards the two are diffed and the
# script exits non-zero when any benchmark's median regressed by more
# than 10%. PPN_BENCH_REPS (default 3) sets --benchmark_repetitions so
# the reports carry median aggregates (bench_diff compares medians when
# present, making the gate robust to single-run jitter). When the gate
# is on but no previous archive exists, the bench is reported as
# GATE-SKIPPED (there is nothing to compare against) — NOT as a pass.
#
# CAVEAT: archived baselines are only meaningful against candidates from
# the SAME HOST and the same quiet measurement window (same CPU, same
# governor, nothing else loading the machine). A baseline produced on a
# different box, or hours earlier under different load, makes both the
# gate and any speedup claim noise. For A/B comparisons (e.g.
# PPN_SIMD=scalar vs avx2) run the two sides back to back.
#
# Observability: each table bench also runs with PPN_STATS_JSONL set,
# archiving a periodic ppn.stats.v1 time-series stream
# ("<bench>.stats.jsonl") next to its profile — inspect live with
# `ppn_cli top --dir bench_results/<bench>.stats.jsonl`. SLO gate: when PPN_HEALTH is set
# (e.g. PPN_HEALTH='exec.cell.seconds.p99<=2s') each bench prints a
# PPN_HEALTH: PASS|FAIL verdict at exit; any FAIL in the combined output
# makes this script exit non-zero.
cd /root/repo
mkdir -p bench_results
PPN_RESULTS_JSON=/root/repo/bench_results
export PPN_RESULTS_JSON
gate_status=0
{
  for b in build/bench/*; do
    if [ -f "$b" ] && [ -x "$b" ]; then
      name=$(basename "$b")
      echo "===== RUNNING $name ====="
      case "$name" in
        micro_kernels|serve_bench|stress_bench)
          baseline=""
          if [ "${PPN_BENCH_GATE:-0}" = "1" ] && \
             [ -f "/root/repo/bench_results/$name.json" ]; then
            cp "/root/repo/bench_results/$name.json" \
               "/root/repo/bench_results/$name.baseline.json"
            baseline="/root/repo/bench_results/$name.baseline.json"
          fi
          "$b" \
            --benchmark_repetitions="${PPN_BENCH_REPS:-3}" \
            --benchmark_out="/root/repo/bench_results/$name.json" \
            --benchmark_out_format=json
          if [ -n "$baseline" ]; then
            echo "===== BENCH GATE: $name ====="
            echo "comparing archive pair:"
            echo "  baseline:  $baseline"
            echo "  candidate: /root/repo/bench_results/$name.json"
            echo "(same-host, same-window runs only — see header caveat)"
            if ! python3 /root/repo/tools/bench_diff.py "$baseline" \
                 "/root/repo/bench_results/$name.json"; then
              echo "BENCH_GATE_FAILED: $name"
              gate_status=1
            fi
          elif [ "${PPN_BENCH_GATE:-0}" = "1" ]; then
            echo "BENCH_GATE_SKIPPED: $name (no previous archive to" \
                 "compare against — this is NOT a pass; rerun once" \
                 "bench_results/$name.json is committed)"
          fi
          ;;
        *)
          PPN_PROFILE_JSON="/root/repo/bench_results/$name.profile.json" \
            PPN_STATS_JSONL="/root/repo/bench_results/$name.stats.jsonl" \
            "$b"
          ;;
      esac
      echo ""
    fi
  done
  echo "ALL_BENCHES_DONE"
} > /root/repo/bench_output.txt 2>&1
# SLO gate: a bench dtor cannot change its process exit status, so the
# health verdict is gated here off the grep-stable token each bench
# prints when PPN_HEALTH is set.
if grep -q "PPN_HEALTH: FAIL" /root/repo/bench_output.txt; then
  echo "BENCH_HEALTH_FAILED: a PPN_HEALTH rule was violated (see" \
       "bench_output.txt for the [health] lines)" >&2
  gate_status=1
fi
exit "$gate_status"
