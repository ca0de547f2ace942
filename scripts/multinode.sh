#!/usr/bin/env bash
# Launch a real multi-process SI-Rep cluster (sequencer + N middleware
# nodes), drive a money-transfer workload through the remote driver,
# kill -9 one node mid-deployment, restart it, and prove the cluster
# converged: identical table contents on every node, balances conserved,
# zero 1-copy-SI audit violations. Then scrape every node's telemetry
# port: merged cluster report + clock-aligned Perfetto trace must come
# out parseable and the scraped-journal audit must be clean.
#
# Usage: scripts/multinode.sh [N]        (default: 3 nodes)
# Env:   OPS, ACCOUNTS, SEED, PROFILE (debug|release)
# On failure the workdir (logs, report, trace) is copied to
# artifacts/multinode/ for CI upload.
set -euo pipefail

NODES=${1:-3}
OPS=${OPS:-150}
ACCOUNTS=${ACCOUNTS:-32}
SEED=${SEED:-1}
PROFILE=${PROFILE:-debug}

cd "$(dirname "$0")/.."
if [ "$PROFILE" = release ]; then
    cargo build --offline --release -p sirep-cluster
    BIN=target/release/sirep-cluster
else
    cargo build --offline -p sirep-cluster
    BIN=target/debug/sirep-cluster
fi

WORKDIR=$(mktemp -d)
pids=()
cleanup() {
    local status=$?
    kill "${pids[@]}" >/dev/null 2>&1 || true
    wait >/dev/null 2>&1 || true
    if [ "$status" -ne 0 ]; then
        # Keep everything a post-mortem needs: process logs and the scraped
        # report/trace. CI uploads this directory.
        mkdir -p artifacts/multinode
        cp -r "$WORKDIR"/. artifacts/multinode/ 2>/dev/null || true
        echo "multinode failed (exit $status); workdir copied to artifacts/multinode/" >&2
    fi
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

# start_bg <logfile> <args...> — launch $BIN in the background, wait for its
# "READY <addr>" line, echo the addr. Runs inside $(...) command
# substitution, i.e. a subshell — the pid is handed back via "$log.pid".
start_bg() {
    local log=$1
    shift
    "$BIN" "$@" >"$log" 2>&1 &
    echo $! >"$log.pid"
    local addr
    for _ in $(seq 1 200); do
        addr=$(awk '/^READY /{print $2; exit}' "$log" 2>/dev/null || true)
        if [ -n "$addr" ]; then
            echo "$addr"
            return 0
        fi
        sleep 0.05
    done
    echo "error: $* never became ready; log follows" >&2
    cat "$log" >&2
    return 1
}

SCHEMA='CREATE TABLE accounts (id INT, balance INT, PRIMARY KEY (id))'

SEQ_ADDR=$(start_bg "$WORKDIR/seq.log" seq --bind 127.0.0.1:0)
pids+=("$(cat "$WORKDIR/seq.log.pid")")
echo "sequencer at $SEQ_ADDR"

declare -a NODE_ADDR NODE_PID NODE_TEL
# The TELEMETRY line is printed before READY, so once start_bg returns it
# is guaranteed to be in the log already.
telemetry_addr() { awk '/^TELEMETRY /{print $2; exit}' "$1"; }
for k in $(seq 0 $((NODES - 1))); do
    NODE_ADDR[k]=$(start_bg "$WORKDIR/node$k.log" \
        node --seq "$SEQ_ADDR" --replica "$k" --bind 127.0.0.1:0 --schema "$SCHEMA")
    NODE_PID[k]=$(cat "$WORKDIR/node$k.log.pid")
    NODE_TEL[k]=$(telemetry_addr "$WORKDIR/node$k.log")
    pids+=("${NODE_PID[k]}")
    echo "node $k at ${NODE_ADDR[k]} (telemetry ${NODE_TEL[k]}, pid ${NODE_PID[k]})"
done
join_addrs() { local IFS=,; echo "${NODE_ADDR[*]}"; }
join_tel() { local IFS=,; echo "${NODE_TEL[*]}"; }

echo "== phase 1: seed + workload on the healthy cluster =="
"$BIN" workload --nodes "$(join_addrs)" --init \
    --ops "$OPS" --accounts "$ACCOUNTS" --seed "$SEED"
"$BIN" check --nodes "$(join_addrs)" --accounts "$ACCOUNTS"

# Kill the node clients connect to first, while a workload is running:
# the remote driver must fail over mid-stream (§5.4 cases 1–3 over real
# sockets), and the workload must still finish cleanly.
VICTIM=0
echo "== phase 2: kill -9 node $VICTIM (pid ${NODE_PID[VICTIM]}) mid-workload =="
"$BIN" workload --nodes "$(join_addrs)" \
    --ops "$OPS" --accounts "$ACCOUNTS" --seed $((SEED + 1)) &
WL_PID=$!
sleep 1
kill -9 "${NODE_PID[VICTIM]}"
wait "$WL_PID"

echo "== phase 3: restart node $VICTIM, recover by replay, full check =="
NODE_ADDR[VICTIM]=$(start_bg "$WORKDIR/node$VICTIM-restarted.log" \
    node --seq "$SEQ_ADDR" --replica "$VICTIM" --bind 127.0.0.1:0 --schema "$SCHEMA")
NODE_PID[VICTIM]=$(cat "$WORKDIR/node$VICTIM-restarted.log.pid")
NODE_TEL[VICTIM]=$(telemetry_addr "$WORKDIR/node$VICTIM-restarted.log")
pids+=("${NODE_PID[VICTIM]}")
echo "node $VICTIM back at ${NODE_ADDR[VICTIM]} (telemetry ${NODE_TEL[VICTIM]})"

"$BIN" workload --nodes "$(join_addrs)" \
    --ops "$OPS" --accounts "$ACCOUNTS" --seed $((SEED + 2))
"$BIN" check --nodes "$(join_addrs)" --accounts "$ACCOUNTS"

echo "== phase 4: scrape telemetry -> merged report, aligned trace, journal audit =="
"$BIN" report --telemetry "$(join_tel)" --seq "$SEQ_ADDR" --out "$WORKDIR/report"
for f in report.json report.prom trace.json; do
    if [ ! -s "$WORKDIR/report/$f" ]; then
        echo "error: $WORKDIR/report/$f missing or empty" >&2
        exit 1
    fi
done
# The merged Prometheus text must carry both protocol and wire counters.
grep -q '^sirep_commits_update_total ' "$WORKDIR/report/report.prom"
grep -q '^sirep_transport_frames_in_total ' "$WORKDIR/report/report.prom"
"$BIN" audit --telemetry "$(join_tel)"

echo "multinode smoke passed: $NODES nodes, kill+restart of node $VICTIM survived," \
    "telemetry report+audit clean"
