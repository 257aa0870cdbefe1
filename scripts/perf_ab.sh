#!/usr/bin/env bash
# A/B host-performance comparison of two maple-perf builds.
#
# Runs PAIRS pairs of `maple-perf --workload WORKLOAD --out ...`, one run
# of each binary per pair, alternating which side runs first (the change
# leads on odd pairs), then prints `maple-perf compare` over the two run
# directories. Every run gets the same ARGS, so a pair shares its seed;
# compare pairs the i-th parent run with the i-th change run.
#
# Runs land in target/perf_ab/WORKLOAD/{parent,change}/ under the current
# directory, emptied first.
# Build the two sides into separate target directories, e.g.
#   (cd ../parent && CARGO_TARGET_DIR=/tmp/parent cargo build --release --offline -p maple-perf)
#   cargo build --release --offline -p maple-perf
#   scripts/perf_ab.sh /tmp/parent/release/maple-perf target/release/maple-perf \
#       kernel_mix 10 --seconds 24
#
# Usage: scripts/perf_ab.sh PARENT_BIN CHANGE_BIN WORKLOAD PAIRS [ARGS...]

set -euo pipefail

if [ $# -lt 4 ]; then
    echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD PAIRS [ARGS...]" >&2
    exit 2
fi
parent_bin=$1 change_bin=$2 workload=$3 pairs=$4
shift 4
for bin in "$parent_bin" "$change_bin"; do
    if [ ! -x "$bin" ]; then
        echo "error: $bin is not an executable" >&2
        exit 2
    fi
done
if ! [[ $pairs =~ ^[1-9][0-9]*$ ]]; then
    echo "error: PAIRS must be a positive integer, got '$pairs'" >&2
    exit 2
fi

out="target/perf_ab/$workload"
rm -rf "$out"
mkdir -p "$out/parent" "$out/change"

for i in $(seq 1 "$pairs"); do
    pair=$(printf '%03d' "$i")
    if [ $((i % 2)) -eq 1 ]; then
        order="change parent"
    else
        order="parent change"
    fi
    for side in $order; do
        if [ "$side" = parent ]; then bin=$parent_bin; else bin=$change_bin; fi
        "$bin" --workload "$workload" "$@" --out "$out/$side/$workload-$pair.json" > /dev/null
    done
    echo "pair $i/$pairs done ($order)" >&2
done

"$change_bin" compare "$out/parent" "$out/change"
