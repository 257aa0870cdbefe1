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

echo "==> scale budget: 256- and 1024-tile hierarchical fabrics within the wall-clock budget"
# MemPool-scale configurations (16 or 64 crossbar clusters of 16 tiles,
# two cores, one engine and one interleaved L2 bank per cluster) through
# the skipping and dense steppers, byte-checked against their goldens in
# one single-worker run. The budget guards against large fabrics becoming
# accidentally quadratic to simulate.
SCALE_BUDGET=120
t0=$SECONDS
MAPLE_JOBS=1 cargo run --offline --release -q -p maple-bench --bin results -- \
    --check scale_gate_256 scale_gate_1024
SCALE_WALL=$((SECONDS - t0))
echo "    ${SCALE_WALL}s (budget ${SCALE_BUDGET}s)"
if [ "$SCALE_WALL" -gt "$SCALE_BUDGET" ]; then
    echo "ERROR: the scale gates took ${SCALE_WALL}s (budget ${SCALE_BUDGET}s)" >&2
    exit 1
fi

echo "==> results: every result file must render byte for byte as committed"
# The paper's figures (fig08-fig15, text and JSON sidecar), cycle
# counts, queue-depth and scaling sweeps, hop latencies, area and
# configuration tables, and the gates: the differential + chaos +
# hierarchy oracle grid, the multi-tenant serving oracle, dense vs
# skipping stepper bit-exactness and the 256/1024-tile scale gates.
# `results --check` simulates each distinct case once and diffs every
# rendered file against results/ in-process; a gate that diverges exits
# 1 with its message. Both worker counts must match the goldens, which
# is par_map's determinism check.
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
# Both checks run before exiting, so a failure names every stale golden
# with the command that regenerates it (after the change is confirmed).
PERF_FAILED=0
for W in fabric_1024 flat_spmv_dec kernel_mix serve_mt; do
    if ! grep -Eq "^exact $W: [0-9]+ counters identical over 1 shared seeds" target/perf_counters.txt; then
        echo "ERROR: maple-perf exact counters of $W differ from results/perf_smoke; regenerate with:" >&2
        echo "    cargo run --offline --release -q -p maple-perf -- --workload $W --scale smoke --reps 1 --out results/perf_smoke/$W.json" >&2
        PERF_FAILED=1
    fi
done
if grep -q ' -> ' target/perf_counters.txt; then
    echo "ERROR: maple-perf exact counters differ from results/perf_smoke" >&2
    PERF_FAILED=1
fi
if [ "$PERF_FAILED" -ne 0 ]; then
    exit 1
fi

echo "==> lint: clippy, warnings are errors"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> docs gate: rustdoc builds warning-clean, intra-doc links resolve"
RUSTDOCFLAGS="-D warnings -D rustdoc::broken-intra-doc-links" \
    cargo doc --offline --no-deps --workspace -q

echo "==> trace smoke: traced SPMV run exports a valid, complete, non-empty trace"
# The example prints the records dropped across every trace ring; at the
# default capacity a drop means the exported trace is truncated.
cargo run --offline --release -q --example trace_spmv > target/trace_spmv.txt
if ! grep -Eq ', 0 dropped\)$' target/trace_spmv.txt; then
    echo "ERROR: the traced SPMV run dropped trace records at the default capacity:" >&2
    head -n 1 target/trace_spmv.txt >&2
    exit 1
fi
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
