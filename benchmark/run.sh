#!/usr/bin/env bash
# The whole benchmark in one command: build `sirep-cluster` and
# `sirep-benchmark` (release, offline), run the four workloads untraced
# (end-to-end metrics), then traced (per-layer metrics and the commit-time
# budget), print every metric by name with its unit, and leave one record
# per run in benchmark/results/<label>/.
#
# usage: benchmark/run.sh [--quick] [--label <name>] [--seed <n>] [--runs <n>]
#   --quick   3 s windows: a smoke test of the harness, not a measurement
#   --label   result-set directory under benchmark/results/ (default: last)
#   --seed    first seed; run i uses seed + i - 1 (default: 7)
#   --runs    untraced + traced passes over the workloads (default: 1);
#             `sirep-benchmark compare` wants several per side
#
# Compare two result sets with:
#   <target>/release/sirep-benchmark compare benchmark/results/A benchmark/results/B
set -euo pipefail
cd "$(dirname "$0")/.."

SECS=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
LABEL=last
SEED=7
RUNS=1
while [ $# -gt 0 ]; do
    case "$1" in
        --quick) SECS=3 ;;
        --label) LABEL=$2; shift ;;
        --seed) SEED=$2; shift ;;
        --runs) RUNS=$2; shift ;;
        *) echo "unknown argument $1" >&2; exit 2 ;;
    esac
    shift
done

# Every exit path — normal end, failure under `set -e`, Ctrl-C, TERM — goes
# through here. The servers are children of the benchmark binary, which
# reaps them itself on any return or panic; if the binary is killed from
# outside they would be orphaned, so take them down first, by parent.
bench_pid=
cleanup() {
    if [ -n "$bench_pid" ] && kill -0 "$bench_pid" 2>/dev/null; then
        pkill -KILL -P "$bench_pid" 2>/dev/null || true
        kill -KILL "$bench_pid" 2>/dev/null || true
    fi
    wait 2>/dev/null || true
}
trap cleanup EXIT
trap 'exit 130' INT TERM

cargo build --release --offline -p sirep-cluster
cargo build --release --offline --manifest-path benchmark/Cargo.toml
BENCH=${CARGO_TARGET_DIR:-benchmark/target}/release/sirep-benchmark
OUT=benchmark/results/$LABEL
mkdir -p "$OUT"

echo "# $(nproc) cores · kernel $(uname -r) · commit $(git rev-parse --short HEAD 2>/dev/null || echo unknown) · ${SECS} s windows"
status=0
for run in $(seq 1 "$RUNS"); do
    seed=$((SEED + run - 1))
    for trace in 0 1; do
        for workload in transfer_wide transfer_hot read_only mixed_rw10; do
            "$BENCH" --workload "$workload" --seed "$seed" --seconds "$SECS" \
                --trace "$trace" --out-dir "$OUT" &
            bench_pid=$!
            # A failed gate fails the command, but the remaining workloads
            # still run so one report shows everything.
            wait "$bench_pid" || status=1
            bench_pid=
        done
    done
done
echo "# records in $OUT/"
exit $status
