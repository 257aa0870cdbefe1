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

echo "==> fleet: oracle grid must be bit-identical across worker counts"
# The determinism contract of the maple-fleet executor: the full oracle
# grid (differential variants x kernels + fixed-seed chaos schedules)
# prints the same bytes no matter how many workers run it.
MAPLE_JOBS=1 cargo run --offline --release -q -p maple-bench --bin oracle_grid \
    > target/oracle_grid_jobs1.txt
MAPLE_JOBS=4 cargo run --offline --release -q -p maple-bench --bin oracle_grid \
    > target/oracle_grid_jobs4.txt
if ! diff target/oracle_grid_jobs1.txt target/oracle_grid_jobs4.txt; then
    echo "ERROR: oracle grid output differs between MAPLE_JOBS=1 and =4" >&2
    exit 1
fi
echo "    fleet ok: $(wc -l < target/oracle_grid_jobs1.txt) grid rows identical at 1 and 4 workers"

echo "==> fleet: distributed dispatch must be bit-identical to the local pool"
# The coordinator/worker protocol must not change a single output byte:
# the same grid through (a) one loopback worker, (b) four loopback
# workers, and (c) four loopback workers under a seeded fault schedule
# that crashes one worker mid-job and drops/delays traffic everywhere —
# all diffed against the local-pool reference from the previous stage.
# The chaos leg additionally proves the kill/reassign path executed
# (--expect-reassignments fails if the reassignment counter stayed 0).
cargo run --offline --release -q -p maple-bench --bin oracle_grid \
    -- --coordinator loopback:1 > target/oracle_grid_loopback1.txt
cargo run --offline --release -q -p maple-bench --bin oracle_grid \
    -- --coordinator loopback:4 > target/oracle_grid_loopback4.txt
cargo run --offline --release -q -p maple-bench --bin oracle_grid \
    -- --coordinator loopback:4 --chaos 7 --expect-reassignments \
    > target/oracle_grid_chaos.txt
for mode in loopback1 loopback4 chaos; do
    if ! diff "target/oracle_grid_jobs1.txt" "target/oracle_grid_${mode}.txt"; then
        echo "ERROR: distributed oracle grid ($mode) diverged from the local pool" >&2
        exit 1
    fi
done
echo "    distributed ok: loopback x1, x4 and chaos all byte-identical to local"

echo "==> fleet: real-TCP smoke with a worker killed mid-batch"
# Two fleet_worker processes on 127.0.0.1 (kernel-assigned ports parsed
# from their announcement lines); one is rigged to die while computing
# its third job. The coordinator must reassign the orphaned lease and
# still produce the exact local-pool bytes.
cargo build --offline --release -q -p maple-bench --bin fleet_worker
target/release/fleet_worker --listen 127.0.0.1:0 > target/fleet_worker_1.log 2>&1 &
WORKER1=$!
target/release/fleet_worker --listen 127.0.0.1:0 --crash-after 2 \
    > target/fleet_worker_2.log 2>&1 &
WORKER2=$!
trap 'kill "$WORKER1" "$WORKER2" 2>/dev/null || true' EXIT
for _ in $(seq 50); do
    PORT1=$(sed -n 's/^listening on .*:\([0-9]*\)$/\1/p' target/fleet_worker_1.log)
    PORT2=$(sed -n 's/^listening on .*:\([0-9]*\)$/\1/p' target/fleet_worker_2.log)
    [ -n "$PORT1" ] && [ -n "$PORT2" ] && break
    sleep 0.1
done
if [ -z "$PORT1" ] || [ -z "$PORT2" ]; then
    echo "ERROR: fleet workers never announced their ports" >&2
    exit 1
fi
MAPLE_WORKERS="127.0.0.1:$PORT1,127.0.0.1:$PORT2" \
    cargo run --offline --release -q -p maple-bench --bin oracle_grid \
    -- --coordinator tcp --expect-reassignments > target/oracle_grid_tcp.txt
kill "$WORKER1" "$WORKER2" 2>/dev/null || true
trap - EXIT
if ! diff target/oracle_grid_jobs1.txt target/oracle_grid_tcp.txt; then
    echo "ERROR: TCP oracle grid diverged from the local pool" >&2
    exit 1
fi
echo "    tcp ok: byte-identical with one of two workers killed mid-batch"

echo "==> stepper: dense vs event-horizon skipping must be bit-exact"
# One stall-heavy SPMV config runs under both steppers; the binary exits
# nonzero on any divergence in the final cycle count, the run stats, or
# the MetricsSnapshot JSON. Its closing line is the perf smoke: host
# throughput (Mcycles/s) for both loops and the skipping speedup.
cargo run --offline --release -q -p maple-bench --bin stepper_check \
    | tee target/stepper_check.txt | tail -n 1
grep -q "stepper ok: bit-exact" target/stepper_check.txt

echo "==> stepper: partitioned run must be bit-exact at any worker count"
# The partitioned parallel stepper shards one System into 4 spatial
# partitions; the gate compares it against the single-threaded stepper
# and prints only host-independent lines (simulated facts + a metrics
# digest), so the output must be byte-identical at 1 and 4 workers.
MAPLE_JOBS=1 cargo run --offline --release -q -p maple-bench --bin stepper_check \
    -- --partitions 4 > target/partitioned_gate_jobs1.txt
MAPLE_JOBS=4 cargo run --offline --release -q -p maple-bench --bin stepper_check \
    -- --partitions 4 > target/partitioned_gate_jobs4.txt
if ! diff target/partitioned_gate_jobs1.txt target/partitioned_gate_jobs4.txt; then
    echo "ERROR: partitioned gate output differs between MAPLE_JOBS=1 and =4" >&2
    exit 1
fi
grep -q "partitioned ok: bit-exact" target/partitioned_gate_jobs1.txt
echo "    $(tail -n 1 target/partitioned_gate_jobs1.txt), identical at 1 and 4 workers"

echo "==> stepper: compiled fast path must be bit-exact with the interpreter"
# The fast-path gate crosses dispatch modes (batched micro-op runs vs
# per-instruction interpretation) against steppers, a 4-way partitioned
# run and the recoverable chaos schedules, then proves the path engages
# on a compute-heavy kernel. Host-independent lines only, so the output
# must be byte-identical at 1 and 4 workers.
MAPLE_JOBS=1 cargo run --offline --release -q -p maple-bench --bin stepper_check \
    -- --fast-path > target/fast_path_gate_jobs1.txt
MAPLE_JOBS=4 cargo run --offline --release -q -p maple-bench --bin stepper_check \
    -- --fast-path > target/fast_path_gate_jobs4.txt
if ! diff target/fast_path_gate_jobs1.txt target/fast_path_gate_jobs4.txt; then
    echo "ERROR: fast-path gate output differs between MAPLE_JOBS=1 and =4" >&2
    exit 1
fi
grep -q "fast-path ok: bit-exact" target/fast_path_gate_jobs1.txt
echo "    $(tail -n 1 target/fast_path_gate_jobs1.txt), identical at 1 and 4 workers"

echo "==> serving: multi-tenant oracle grid must be bit-exact at any worker count"
# The serving gate runs the multi-tenant differential oracle over every
# stepper × fast-path × chaos cell plus the engine-kill ladder cell,
# printing only host-independent lines (percentiles, fairness, switch
# counters, a metrics digest). Byte-diffing across MAPLE_JOBS values
# proves tenant isolation holds regardless of fleet parallelism.
MAPLE_JOBS=1 cargo run --offline --release -q -p maple-bench --bin serve_check \
    > target/serve_gate_jobs1.txt
MAPLE_JOBS=4 cargo run --offline --release -q -p maple-bench --bin serve_check \
    > target/serve_gate_jobs4.txt
if ! diff target/serve_gate_jobs1.txt target/serve_gate_jobs4.txt; then
    echo "ERROR: serving gate output differs between MAPLE_JOBS=1 and =4" >&2
    exit 1
fi
grep -q "serve ok: bit-exact" target/serve_gate_jobs1.txt
echo "    $(tail -n 1 target/serve_gate_jobs1.txt), identical at 1 and 4 workers"

echo "==> scale smoke: 256- and 1024-tile hierarchical fabrics, bit-exact and golden"
# MemPool-scale configurations (16 or 64 crossbar clusters of 16 tiles,
# two cores, one engine and one interleaved L2 bank per cluster) through
# the skipping and 4-partition steppers. Host-independent lines only,
# byte-diffed across MAPLE_JOBS and against the committed golden outputs
# in results/ — so a change that only speeds up the simulator proves it
# simulates exactly what its parent did. The wall-clock budget guards
# against large fabrics becoming accidentally quadratic to simulate.
SCALE_BUDGET=120
for TILES in 256 1024; do
    SCALE_T0=$SECONDS
    for JOBS in 1 4; do
        MAPLE_JOBS=$JOBS cargo run --offline --release -q -p maple-bench --bin stepper_check \
            -- --scale "$TILES" > "target/scale_gate_${TILES}_jobs${JOBS}.txt"
    done
    SCALE_WALL=$((SECONDS - SCALE_T0))
    if ! diff "target/scale_gate_${TILES}_jobs1.txt" "target/scale_gate_${TILES}_jobs4.txt"; then
        echo "ERROR: ${TILES}-tile scale gate output differs between MAPLE_JOBS=1 and =4" >&2
        exit 1
    fi
    if ! diff "results/scale_gate_${TILES}.txt" "target/scale_gate_${TILES}_jobs1.txt"; then
        echo "ERROR: ${TILES}-tile scale gate output differs from results/scale_gate_${TILES}.txt" >&2
        exit 1
    fi
    grep -q "scale ok: bit-exact at ${TILES} tiles" "target/scale_gate_${TILES}_jobs1.txt"
    if [ "$SCALE_WALL" -gt "$SCALE_BUDGET" ]; then
        echo "ERROR: ${TILES}-tile scale smoke took ${SCALE_WALL}s (budget ${SCALE_BUDGET}s)" >&2
        exit 1
    fi
    echo "    $(tail -n 1 "target/scale_gate_${TILES}_jobs1.txt"), identical at 1 and 4 workers and to the golden file (${SCALE_WALL}s)"
done

echo "==> stepper: partitioned throughput floor (skipped honestly on 1-core hosts)"
# The speedup expectation is host-dependent: a 1-core container pins the
# parallel stepper at ~1.0x no matter the partition count, so the gate
# skips itself there (with an explicit message) instead of faking a
# pass or failing spuriously. Bit-exactness above is never skipped.
cargo run --offline --release -q -p maple-bench --bin stepper_check \
    -- --speedup-floor 1.2 | tee target/stepper_speedup.txt
grep -Eq "stepper speedup gate" target/stepper_speedup.txt

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
