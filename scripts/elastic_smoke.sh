#!/bin/sh
# elastic_smoke.sh -- the live-cluster half of `make elastic-smoke`.
#
# Boots a real UDP aggregator with one absent worker slot, trains two
# incumbents, then has worker 2 join the running job (-join: fence
# admission + model state fetched from a peer over the mesh), run 50
# iterations, and drain gracefully (-drain-after). The gate passes
# only if every process exits cleanly, the joiner logged both the
# admission and the drain, and nothing tripped the failure detector.
set -eu

DIR=$(mktemp -d)
# Every process the script starts is killed on exit, with SIGKILL (a
# worker takes SIGTERM as a request to drain, which a dead aggregator
# never lets finish): incumbents left running when the joiner fails
# would hold the mesh ports, and the next run would fail to bind.
PIDS=""
trap 'kill -9 $PIDS 2>/dev/null || true; wait; rm -rf "$DIR"' EXIT

AGG_PORT=${ELASTIC_SMOKE_AGG_PORT:-15655}
MESH_BASE=${ELASTIC_SMOKE_MESH_BASE:-17001}
M0=127.0.0.1:$MESH_BASE
M1=127.0.0.1:$((MESH_BASE + 1))
M2=127.0.0.1:$((MESH_BASE + 2))
MESH=$M0,$M1,$M2

go build -o "$DIR" ./cmd/switchml-agg ./cmd/switchml-worker

"$DIR/switchml-agg" -listen 127.0.0.1:$AGG_PORT -workers 3 -pool 16 \
    -liveness 2s -absent 2 > "$DIR/agg.log" 2>&1 &
PIDS="$PIDS $!"
sleep 0.3

# The incumbents must still be training when the joiner arrives a
# second from now: a 2,048-element step takes ~0.2 ms on loopback, so
# 3,000 of them were over before it did and the join could never
# commit. 30,000 run for several seconds. Workers take the pool size
# from the aggregator when they connect.
"$DIR/switchml-worker" -agg 127.0.0.1:$AGG_PORT -id 0 -workers 3 \
    -elems-per-tensor 2048 -iters 30000 -heartbeat 200ms \
    -mesh "$MESH" -mesh-listen $M0 -verify=false > "$DIR/w0.log" 2>&1 &
W0=$!
PIDS="$PIDS $W0"
"$DIR/switchml-worker" -agg 127.0.0.1:$AGG_PORT -id 1 -workers 3 \
    -elems-per-tensor 2048 -iters 30000 -heartbeat 200ms \
    -mesh "$MESH" -mesh-listen $M1 -verify=false > "$DIR/w1.log" 2>&1 &
W1=$!
PIDS="$PIDS $W1"
sleep 1

# The joiner: admitted mid-job at the global frontier, drains after 50
# iterations while the incumbents keep training.
"$DIR/switchml-worker" -agg 127.0.0.1:$AGG_PORT -id 2 -workers 3 \
    -elems-per-tensor 2048 -iters 200 -heartbeat 200ms \
    -mesh "$MESH" -mesh-listen $M2 -join -drain-after 50 > "$DIR/w2.log" 2>&1 &
W2=$!
PIDS="$PIDS $W2"

fail() {
    echo "elastic-smoke: $1" >&2
    echo "--- agg.log ---" >&2; cat "$DIR/agg.log" >&2 || true
    echo "--- w2.log ---" >&2; cat "$DIR/w2.log" >&2 || true
    exit 1
}

wait $W2 || fail "joiner exited non-zero"
wait $W0 || fail "worker 0 exited non-zero"
wait $W1 || fail "worker 1 exited non-zero"

grep -q "admitted at frontier" "$DIR/w2.log" || fail "joiner never admitted"
grep -q "drained after 50 iteration" "$DIR/w2.log" || fail "joiner never drained"
grep -q "done: mean" "$DIR/w0.log" || fail "incumbent 0 did not finish"
grep -qi "evict" "$DIR/agg.log" && fail "failure detector fired during graceful churn"

echo "elastic-smoke: live join + drain ok"
