#!/usr/bin/env bash
# Hermetic CI gate for the MAPLE workspace.
#
# Everything here runs with --offline: the workspace has zero crates.io
# dependencies by design (all deps are in-tree path crates), so a fresh
# checkout builds and tests with no network and no pre-populated cargo
# registry. If a dependency on an external crate ever sneaks in, the
# resolution step below is the first thing that fails.
#
# Usage: scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> dependency audit: workspace must resolve offline with zero crates.io deps"
# cargo tree prints only workspace-local path crates when the workspace is
# hermetic; any registry dependency shows up with a version source.
if cargo tree --offline --workspace --edges normal,build,dev 2>/dev/null \
    | grep -E '\(registry|crates\.io' ; then
    echo "ERROR: external (crates.io) dependency found in the tree above" >&2
    exit 1
fi

echo "==> scripts: shell syntax check"
# This script too, so a syntax error near its end fails here in seconds
# instead of after the full run.
bash -n scripts/ci.sh
bash -n scripts/perf_ab.sh

echo "==> format: rustfmt must leave every file as committed"
cargo fmt --all --check

echo "==> tier-1 gate: release build"
cargo build --offline --workspace --release

echo "==> tier-1 gate: tests"
cargo test --offline --workspace -q

echo "==> chaos: fixed-seed fault-injection grid + generated schedules"
# The grid (named schedules x kernels) is fully fixed-seed; the property
# test generates MAPLE_CHAOS_CASES random schedules on top (default 6 —
# raise it for long soak runs, e.g. MAPLE_CHAOS_CASES=200 scripts/ci.sh).
cargo test --offline --release -p maple-workloads --test chaos_oracle -q
MAPLE_CHAOS_CASES="${MAPLE_CHAOS_CASES:-6}" \
    cargo test --offline --release -p maple-workloads --test chaos_prop -q

echo "==> fabric tick reference: 150000 generated scenarios, diffed cycle by cycle"
# tick_reference checks the activity-driven fabric tick (flat and
# clustered shapes, faults, backpressure, skip gaps) against the
# full-scan reference every cycle; the tier-1 run above covers its
# default 160 scenarios. About 40 s on a 2-vCPU host.
MAPLE_TESTKIT_CASES=150000 \
    cargo test --offline --release -p maple-noc --test tick_reference -q

# Byte-diff gate: runs a maple-bench binary at MAPLE_JOBS=1 and =4, and
# requires the two outputs to be identical, to equal the committed golden
# results/NAME.txt byte for byte and (when OK is non-empty) to contain
# the line OK. The goldens hold host-independent lines only, so a change
# that only speeds up the simulator proves it simulates exactly what its
# parent did. Leaves the seconds both runs took in GATE_WALL.
#
# Usage: gate NAME OK BIN [ARGS...]
gate() {
    local name=$1 ok=$2 bin=$3
    shift 3
    local t0=$SECONDS
    for jobs in 1 4; do
        MAPLE_JOBS=$jobs cargo run --offline --release -q -p maple-bench --bin "$bin" \
            -- "$@" > "target/${name}_jobs${jobs}.txt"
    done
    GATE_WALL=$((SECONDS - t0))
    if ! diff "target/${name}_jobs1.txt" "target/${name}_jobs4.txt"; then
        echo "ERROR: $name output differs between MAPLE_JOBS=1 and =4" >&2
        exit 1
    fi
    if ! diff "results/${name}.txt" "target/${name}_jobs1.txt"; then
        echo "ERROR: $name output differs from results/${name}.txt" >&2
        exit 1
    fi
    if [ -n "$ok" ] && ! grep -q "$ok" "target/${name}_jobs1.txt"; then
        echo "ERROR: $name output lacks the line \"$ok\"" >&2
        exit 1
    fi
    echo "    $(tail -n 1 "target/${name}_jobs1.txt"), identical at 1 and 4 workers and to results/${name}.txt (${GATE_WALL}s)"
}

echo "==> determinism: oracle grid must be bit-identical across worker counts"
# The determinism contract of maple_sim::par::par_map: the full oracle
# grid (differential variants x kernels + fixed-seed chaos schedules)
# prints the same bytes no matter how many workers run it.
gate oracle_grid "" oracle_grid

echo "==> stepper: dense vs event-horizon skipping must be bit-exact"
# One stall-heavy SPMV config runs under both steppers; the binary exits
# nonzero on any divergence in the final cycle count, the run stats, or
# the MetricsSnapshot JSON. Its closing line is the perf smoke: host
# throughput (Mcycles/s) for both loops and the skipping speedup.
cargo run --offline --release -q -p maple-bench --bin stepper_check \
    | tee target/stepper_check.txt | tail -n 1
grep -q "stepper ok: bit-exact" target/stepper_check.txt

echo "==> serving: multi-tenant oracle grid must be bit-exact at any worker count"
# The serving gate runs the multi-tenant differential oracle over every
# stepper × chaos cell, two clustered-fabric cells and the engine-kill
# ladder cell,
# printing only host-independent lines (percentiles, fairness, switch
# counters, a metrics digest), so tenant isolation holds regardless of
# the worker count.
gate serve_gate "serve ok: bit-exact" serve_check

echo "==> scale smoke: 256- and 1024-tile hierarchical fabrics, bit-exact and golden"
# MemPool-scale configurations (16 or 64 crossbar clusters of 16 tiles,
# two cores, one engine and one interleaved L2 bank per cluster) through
# the skipping and dense steppers. The wall-clock budget guards against
# large fabrics becoming accidentally quadratic to simulate.
SCALE_BUDGET=120
for TILES in 256 1024; do
    gate "scale_gate_${TILES}" "scale ok: bit-exact at ${TILES} tiles" \
        stepper_check --scale "$TILES"
    if [ "$GATE_WALL" -gt "$SCALE_BUDGET" ]; then
        echo "ERROR: ${TILES}-tile scale smoke took ${GATE_WALL}s (budget ${SCALE_BUDGET}s)" >&2
        exit 1
    fi
done

echo "==> results: every result file must render byte for byte as committed"
# The paper's figures (fig08-fig15, text and JSON sidecar), cycle
# counts, queue-depth and scaling sweeps, hop latencies, area and
# configuration tables. `results --check` simulates each distinct case
# once and diffs every rendered file against results/ in-process; both
# worker counts must match, which is par_map's determinism check.
for JOBS in 1 4; do
    t0=$SECONDS
    MAPLE_JOBS=$JOBS cargo run --offline --release -q -p maple-bench --bin results -- --check
    echo "    at MAPLE_JOBS=$JOBS ($((SECONDS - t0))s)"
done

echo "==> perf_counters: maple-perf exact counters must equal results/perf_smoke"
# One smoke-scale rep of each benchmark workload; `maple-perf compare`
# diffs the 29 deterministic work counters (cycles, packets, hops,
# instructions, stalls, cache and serving counts) against the committed
# goldens. Host timings in the same files are not gated.
mkdir -p target/perf_smoke
for W in fabric_1024 flat_spmv_dec kernel_mix serve_mt; do
    cargo run --offline --release -q -p maple-perf -- --workload "$W" --scale smoke \
        --reps 1 --out "target/perf_smoke/$W.json" > /dev/null
done
cargo run --offline --release -q -p maple-perf -- compare results/perf_smoke target/perf_smoke \
    | grep '^exact' | tee target/perf_counters.txt
if grep -q ' -> ' target/perf_counters.txt; then
    echo "ERROR: maple-perf exact counters differ from results/perf_smoke" >&2
    exit 1
fi
for W in fabric_1024 flat_spmv_dec kernel_mix serve_mt; do
    if ! grep -Eq "^exact $W: [0-9]+ counters identical over 1 shared seeds" target/perf_counters.txt; then
        echo "ERROR: no exact-counter verdict for $W" >&2
        exit 1
    fi
done

echo "==> lint: clippy, warnings are errors"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> docs gate: rustdoc builds warning-clean, intra-doc links resolve"
RUSTDOCFLAGS="-D warnings -D rustdoc::broken-intra-doc-links" \
    cargo doc --offline --no-deps --workspace -q

echo "==> trace smoke: traced SPMV run exports a valid, non-empty trace"
cargo run --offline --release -q --example trace_spmv > /dev/null
python3 - <<'PY'
import json
with open("target/trace_spmv.json") as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert len(events) > 100, f"trace too small: {len(events)} events"
phases = {e["ph"] for e in events}
for ph in ("B", "E", "X", "C", "M"):
    assert ph in phases, f"missing phase {ph}"
print(f"    trace ok: {len(events)} events, phases {sorted(phases)}")
PY

echo "==> CI gate passed"
