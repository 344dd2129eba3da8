#!/usr/bin/env bash
# Bench-regression gate.
#
# Runs the window-index, sweep, serve, and trace bench suites, records
# each benchmark's median ns/iter as machine-readable JSON
# (BENCH_window_index.json, BENCH_sweep.json, BENCH_serve.json,
# BENCH_trace.json — uploaded as CI artifacts), and compares against the
# committed baseline:
#
#   * a benchmark slower than baseline × MAX_RATIO (1.30 = ±30%, fixed
#     in this script) fails the gate (regression);
#   * a benchmark faster than baseline ÷ MAX_RATIO prints a notice
#     suggesting a baseline refresh (never fails);
#   * window_index/argmin_indexed must beat window_index/argmin_naive by
#     ≥ MIN_ARGMIN_SPEEDUP (10, fixed in this script) — the indexed-query
#     contract, a pure ratio and therefore machine-independent;
#   * serve/estimate_uncached must beat serve/estimate_cached_hit by
#     ≥ MIN_CACHE_SPEEDUP (5, fixed in this script) — the
#     canonical-request cache contract, likewise a pure ratio;
#   * sweep/context/scenario_uncontexted must beat
#     sweep/context/scenario_contexted by ≥ MIN_SWEEP_SPEEDUP (2, fixed
#     in this script) — the per-run context contract (trace simulation,
#     job traces and catalogs derived once per sweep run by
#     Estimator::context_for, not once per row), a pure ratio as well;
#   * grid/simulate_year must beat grid/simulate_year_per_hour by
#     ≥ MIN_GRID_SPEEDUP (1.3, fixed in this script) — the
#     per-local-day grid-year contract (calendar inputs derived once per
#     local date, not once per hour, with bit-identical traces), a pure
#     ratio too;
#   * sched/greenest_window_place_120 must beat
#     sched/greenest_window_place_120_reference by ≥ MIN_PLACE_SPEEDUP
#     (1.4, fixed in this script) — the slot-rule contract (a candidate's
#     trace slot without a floor or a 64-bit modulo, same placements);
#   * json/metric_fixed4 must beat json/metric_std by
#     ≥ MIN_METRIC_SPEEDUP (4, fixed in this script) — the exact `{:.4}`
#     writer the sweep's sinks emit every metric through, byte-equal to
#     std's formatter;
#   * serve/estimate_miss_repeat_key must beat serve/estimate_uncached by
#     ≥ MIN_STORE_SPEEDUP (10, fixed in this script) — the trace-store
#     contract (a row-cache miss on an already-built region-year takes
#     its grid year from the estimator's bounded store instead of a
#     dispatch simulation, same bytes);
#   * serve/estimate_miss_repeat_run must beat serve/estimate_miss_new_run
#     by ≥ MIN_RUN_STORE_SPEEDUP (3, fixed in this script) — the
#     run-store contract (a row-cache miss whose scheduling run and
#     seasonal-PUE year an earlier miss computed copies them from the
#     estimator's stores, and rebuilds no trace, same bytes);
#   * sweep/context/scenario_contexted_seasonal must beat
#     sweep/context/scenario_contexted_cold_run by ≥ MIN_RUN_SPEEDUP (4,
#     fixed in this script) — the run-cell contract (a contexted row whose
#     scheduling run and seasonal-PUE year the context already holds
#     copies their numbers instead of computing them, same bytes).
#
# Usage:
#   ci/bench_gate.sh            run the gate
#   ci/bench_gate.sh --update   rewrite ci/bench_baseline.json from this
#                               machine's run (commit the result)
#
# Knobs (env): BENCH_GATE_OUT_DIR (default ci/out) and
# BENCH_GATE_BASELINE (default ci/bench_baseline.json), both paths. Every
# threshold is a constant in this script, so no environment can weaken a
# gate without a reviewed diff.
#
# Wall-clock baselines move with the host. Refresh them with --update
# only on the CI runner class, in a change of their own that shows
# before-and-after runs; never widen the bound or drop entries to get a
# green run.
set -euo pipefail
cd "$(dirname "$0")/.."

MAX_RATIO=1.30
MIN_ARGMIN_SPEEDUP=10
MIN_CACHE_SPEEDUP=5
MIN_SWEEP_SPEEDUP=2
MIN_GRID_SPEEDUP=1.3
MIN_PLACE_SPEEDUP=1.4
MIN_METRIC_SPEEDUP=4
MIN_STORE_SPEEDUP=10
MIN_RUN_SPEEDUP=4
MIN_RUN_STORE_SPEEDUP=3
OUT_DIR="${BENCH_GATE_OUT_DIR:-ci/out}"
BASELINE="${BENCH_GATE_BASELINE:-ci/bench_baseline.json}"
SUITES=(bench_window_index bench_sweep bench_serve bench_trace)
mkdir -p "$OUT_DIR"

# --- run one suite and emit its JSON ---------------------------------------
run_suite() { # $1 = bench target name (bench_foo -> BENCH_foo.json)
    local target="$1"
    local json="$OUT_DIR/BENCH_${target#bench_}.json"
    local raw="$OUT_DIR/${target}.out"
    echo "== running $target"
    cargo bench --bench "$target" 2>/dev/null | tee "$raw"
    awk '
        index($0, "/iter (median") {
            id = $1; value = $2; unit = $3
            ns = value
            if (unit == "\302\265s")  ns = value * 1e3
            else if (unit == "ms")    ns = value * 1e6
            else if (unit == "s")     ns = value * 1e9
            printf "    \"%s\": %.1f,\n", id, ns
        }
    ' "$raw" >"$raw.entries"
    {
        echo "{"
        echo "  \"suite\": \"$target\","
        echo "  \"unit\": \"ns_per_iter_median\","
        echo "  \"benchmarks\": {"
        sed '$ s/,$//' "$raw.entries"
        echo "  }"
        echo "}"
    } >"$json"
    rm -f "$raw.entries"
    echo "wrote $json"
}

# Print "name value" pairs from one of our flat JSON files.
extract() {
    awk -F'"' '/": [0-9]/ { v = $3; sub(/^: /, "", v); sub(/,.*$/, "", v); print $2, v }' "$1"
}

for suite in "${SUITES[@]}"; do
    run_suite "$suite"
done

# --- --update: rewrite the baseline from this run --------------------------
if [[ "${1:-}" == "--update" ]]; then
    {
        echo "{"
        echo "  \"schema\": \"hpcarbon-bench-baseline-v1\","
        echo "  \"unit\": \"ns_per_iter_median\","
        echo "  \"benchmarks\": {"
        # Parallel-streaming timing scales with the host's core count,
        # so it stays out of the committed baseline.
        for suite in "${SUITES[@]}"; do
            extract "$OUT_DIR/BENCH_${suite#bench_}.json"
        done | grep -v "streaming/parallel" | awk '{ printf "    \"%s\": %s,\n", $1, $2 }' | sed '$ s/,$//'
        echo "  }"
        echo "}"
    } >"$BASELINE"
    echo "rewrote $BASELINE — review and commit it"
    exit 0
fi

# --- gate 1: the indexed-argmin speedup contract ---------------------------
fail=0
naive=$(extract "$OUT_DIR/BENCH_window_index.json" | awk '$1 == "window_index/argmin_naive" { print $2 }')
indexed=$(extract "$OUT_DIR/BENCH_window_index.json" | awk '$1 == "window_index/argmin_indexed" { print $2 }')
if [[ -z "$naive" || -z "$indexed" ]]; then
    echo "FAIL: argmin benchmarks missing from BENCH_window_index.json"
    fail=1
else
    speedup=$(awk -v n="$naive" -v i="$indexed" 'BEGIN { printf "%.1f", n / i }')
    if awk -v s="$speedup" -v m="$MIN_ARGMIN_SPEEDUP" 'BEGIN { exit !(s < m) }'; then
        echo "FAIL: indexed argmin speedup ${speedup}x < required ${MIN_ARGMIN_SPEEDUP}x"
        fail=1
    else
        echo "OK: indexed argmin beats the naive scan by ${speedup}x (>= ${MIN_ARGMIN_SPEEDUP}x)"
    fi
fi

# --- gate 1b: the canonical-cache speedup contract -------------------------
uncached=$(extract "$OUT_DIR/BENCH_serve.json" | awk '$1 == "serve/estimate_uncached" { print $2 }')
cached=$(extract "$OUT_DIR/BENCH_serve.json" | awk '$1 == "serve/estimate_cached_hit" { print $2 }')
if [[ -z "$uncached" || -z "$cached" ]]; then
    echo "FAIL: serve cached/uncached benchmarks missing from BENCH_serve.json"
    fail=1
else
    cache_speedup=$(awk -v u="$uncached" -v c="$cached" 'BEGIN { printf "%.1f", u / c }')
    if awk -v s="$cache_speedup" -v m="$MIN_CACHE_SPEEDUP" 'BEGIN { exit !(s < m) }'; then
        echo "FAIL: cache-hit speedup ${cache_speedup}x < required ${MIN_CACHE_SPEEDUP}x"
        fail=1
    else
        echo "OK: cached estimates beat uncached by ${cache_speedup}x (>= ${MIN_CACHE_SPEEDUP}x)"
    fi
fi

# --- gate 1c: the per-run context speedup contract -------------------------
uncontexted=$(extract "$OUT_DIR/BENCH_sweep.json" | awk '$1 == "sweep/context/scenario_uncontexted" { print $2 }')
contexted=$(extract "$OUT_DIR/BENCH_sweep.json" | awk '$1 == "sweep/context/scenario_contexted" { print $2 }')
if [[ -z "$uncontexted" || -z "$contexted" ]]; then
    echo "FAIL: sweep context benchmarks missing from BENCH_sweep.json"
    fail=1
else
    sweep_speedup=$(awk -v u="$uncontexted" -v c="$contexted" 'BEGIN { printf "%.1f", u / c }')
    if awk -v s="$sweep_speedup" -v m="$MIN_SWEEP_SPEEDUP" 'BEGIN { exit !(s < m) }'; then
        echo "FAIL: hoisted-context speedup ${sweep_speedup}x < required ${MIN_SWEEP_SPEEDUP}x"
        fail=1
    else
        echo "OK: contexted scenarios beat uncontexted by ${sweep_speedup}x (>= ${MIN_SWEEP_SPEEDUP}x)"
    fi
fi

# --- gate 1d: the per-local-day grid-year speedup contract -----------------
per_hour=$(extract "$OUT_DIR/BENCH_trace.json" | awk '$1 == "grid/simulate_year_per_hour" { print $2 }')
per_day=$(extract "$OUT_DIR/BENCH_trace.json" | awk '$1 == "grid/simulate_year" { print $2 }')
if [[ -z "$per_hour" || -z "$per_day" ]]; then
    echo "FAIL: grid simulate_year benchmarks missing from BENCH_trace.json"
    fail=1
else
    grid_speedup=$(awk -v h="$per_hour" -v d="$per_day" 'BEGIN { printf "%.2f", h / d }')
    if awk -v s="$grid_speedup" -v m="$MIN_GRID_SPEEDUP" 'BEGIN { exit !(s < m) }'; then
        echo "FAIL: per-local-day simulate_year speedup ${grid_speedup}x < required ${MIN_GRID_SPEEDUP}x"
        fail=1
    else
        echo "OK: per-local-day simulate_year beats the per-hour reference by ${grid_speedup}x (>= ${MIN_GRID_SPEEDUP}x)"
    fi
fi

# --- gate 1e: the slot-rule placement speedup contract ---------------------
place_ref=$(extract "$OUT_DIR/BENCH_sweep.json" | awk '$1 == "sched/greenest_window_place_120_reference" { print $2 }')
place=$(extract "$OUT_DIR/BENCH_sweep.json" | awk '$1 == "sched/greenest_window_place_120" { print $2 }')
if [[ -z "$place_ref" || -z "$place" ]]; then
    echo "FAIL: greenest-window placement benchmarks missing from BENCH_sweep.json"
    fail=1
else
    place_speedup=$(awk -v r="$place_ref" -v p="$place" 'BEGIN { printf "%.2f", r / p }')
    if awk -v s="$place_speedup" -v m="$MIN_PLACE_SPEEDUP" 'BEGIN { exit !(s < m) }'; then
        echo "FAIL: slot-rule placement speedup ${place_speedup}x < required ${MIN_PLACE_SPEEDUP}x"
        fail=1
    else
        echo "OK: slot-rule placement beats the floor-and-modulo reference by ${place_speedup}x (>= ${MIN_PLACE_SPEEDUP}x)"
    fi
fi

# --- gate 1f: the exact metric-writer speedup contract ---------------------
metric_std=$(extract "$OUT_DIR/BENCH_sweep.json" | awk '$1 == "json/metric_std" { print $2 }')
metric_fixed=$(extract "$OUT_DIR/BENCH_sweep.json" | awk '$1 == "json/metric_fixed4" { print $2 }')
if [[ -z "$metric_std" || -z "$metric_fixed" ]]; then
    echo "FAIL: metric writer benchmarks missing from BENCH_sweep.json"
    fail=1
else
    metric_speedup=$(awk -v s="$metric_std" -v f="$metric_fixed" 'BEGIN { printf "%.1f", s / f }')
    if awk -v s="$metric_speedup" -v m="$MIN_METRIC_SPEEDUP" 'BEGIN { exit !(s < m) }'; then
        echo "FAIL: exact metric writer speedup ${metric_speedup}x < required ${MIN_METRIC_SPEEDUP}x"
        fail=1
    else
        echo "OK: the exact metric writer beats std's {:.4} by ${metric_speedup}x (>= ${MIN_METRIC_SPEEDUP}x)"
    fi
fi

# --- gate 1g: the trace-store speedup contract -----------------------------
repeat_key=$(extract "$OUT_DIR/BENCH_serve.json" | awk '$1 == "serve/estimate_miss_repeat_key" { print $2 }')
if [[ -z "$uncached" || -z "$repeat_key" ]]; then
    echo "FAIL: serve uncached/repeat-key benchmarks missing from BENCH_serve.json"
    fail=1
else
    store_speedup=$(awk -v u="$uncached" -v r="$repeat_key" 'BEGIN { printf "%.1f", u / r }')
    if awk -v s="$store_speedup" -v m="$MIN_STORE_SPEEDUP" 'BEGIN { exit !(s < m) }'; then
        echo "FAIL: trace-store speedup ${store_speedup}x < required ${MIN_STORE_SPEEDUP}x"
        fail=1
    else
        echo "OK: repeat-key misses beat novel-key misses by ${store_speedup}x (>= ${MIN_STORE_SPEEDUP}x)"
    fi
fi

# --- gate 1h: the run-cell speedup contract --------------------------------
cold_run=$(extract "$OUT_DIR/BENCH_sweep.json" | awk '$1 == "sweep/context/scenario_contexted_cold_run" { print $2 }')
held_run=$(extract "$OUT_DIR/BENCH_sweep.json" | awk '$1 == "sweep/context/scenario_contexted_seasonal" { print $2 }')
if [[ -z "$cold_run" || -z "$held_run" ]]; then
    echo "FAIL: sweep cold-run/seasonal context benchmarks missing from BENCH_sweep.json"
    fail=1
else
    run_speedup=$(awk -v c="$cold_run" -v h="$held_run" 'BEGIN { printf "%.1f", c / h }')
    if awk -v s="$run_speedup" -v m="$MIN_RUN_SPEEDUP" 'BEGIN { exit !(s < m) }'; then
        echo "FAIL: run-cell speedup ${run_speedup}x < required ${MIN_RUN_SPEEDUP}x"
        fail=1
    else
        echo "OK: held-run rows beat cold-run rows by ${run_speedup}x (>= ${MIN_RUN_SPEEDUP}x)"
    fi
fi

# --- gate 1i: the run-store speedup contract --------------------------------
new_run=$(extract "$OUT_DIR/BENCH_serve.json" | awk '$1 == "serve/estimate_miss_new_run" { print $2 }')
repeat_run=$(extract "$OUT_DIR/BENCH_serve.json" | awk '$1 == "serve/estimate_miss_repeat_run" { print $2 }')
if [[ -z "$new_run" || -z "$repeat_run" ]]; then
    echo "FAIL: serve new-run/repeat-run benchmarks missing from BENCH_serve.json"
    fail=1
else
    run_store_speedup=$(awk -v n="$new_run" -v r="$repeat_run" 'BEGIN { printf "%.1f", n / r }')
    if awk -v s="$run_store_speedup" -v m="$MIN_RUN_STORE_SPEEDUP" 'BEGIN { exit !(s < m) }'; then
        echo "FAIL: run-store speedup ${run_store_speedup}x < required ${MIN_RUN_STORE_SPEEDUP}x"
        fail=1
    else
        echo "OK: repeat-run misses beat new-run misses by ${run_store_speedup}x (>= ${MIN_RUN_STORE_SPEEDUP}x)"
    fi
fi

# --- gate 2: ±30% against the committed baseline ---------------------------
if [[ ! -f "$BASELINE" ]]; then
    echo "FAIL: no baseline at $BASELINE (run ci/bench_gate.sh --update and commit it)"
    exit 1
fi
while read -r name base; do
    cur=""
    for suite in "${SUITES[@]}"; do
        v=$(extract "$OUT_DIR/BENCH_${suite#bench_}.json" | awk -v n="$name" '$1 == n { print $2 }')
        [[ -n "$v" ]] && cur="$v"
    done
    if [[ -z "$cur" ]]; then
        echo "FAIL: baseline benchmark '$name' missing from the current run"
        fail=1
        continue
    fi
    ratio=$(awk -v c="$cur" -v b="$base" 'BEGIN { printf "%.2f", c / b }')
    if awk -v c="$cur" -v b="$base" -v t="$MAX_RATIO" 'BEGIN { exit !(c > b * t) }'; then
        echo "FAIL: $name regressed ${ratio}x vs baseline (${cur} ns vs ${base} ns, limit ${MAX_RATIO}x)"
        fail=1
    elif awk -v c="$cur" -v b="$base" -v t="$MAX_RATIO" 'BEGIN { exit !(c * t < b) }'; then
        echo "note: $name sped up to ${ratio}x of baseline — consider ci/bench_gate.sh --update"
    else
        echo "ok: $name ${ratio}x of baseline (${cur} ns vs ${base} ns)"
    fi
done < <(extract "$BASELINE")

if [[ "$fail" -ne 0 ]]; then
    echo "bench gate: FAILED"
    exit 1
fi
echo "bench gate: green"
