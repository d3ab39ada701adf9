#!/bin/sh
# failover_smoke.sh -- the live-cluster half of `make failover-smoke`.
#
# Boots a primary UDP aggregator plus one warm standby and three
# workers ranking both (-standby) with the host mesh armed behind them
# (-mesh). The primary runs a scripted drill (-down-after/-down-for):
# it goes silent mid-training, the workers' silence detectors trip,
# the job re-homes onto the standby via the adoption roll call, and
# once the primary revives the fail-up probation climbs the job back
# to rank 0. The gate passes only if every worker finished all
# iterations with verified aggregates, logged the failover ladder, and
# ended back on the primary without ever touching the mesh.
set -eu

DIR=$(mktemp -d)
# Every process the script starts is killed on exit, with SIGKILL (a
# worker takes SIGTERM as a request to drain, which a dead aggregator
# never lets finish): workers left running when one fails would hold
# the mesh ports, and the next run would fail to bind.
PIDS=""
trap 'kill -9 $PIDS 2>/dev/null || true; wait; rm -rf "$DIR"' EXIT

PRI_PORT=${FAILOVER_SMOKE_PRI_PORT:-15755}
SBY_PORT=${FAILOVER_SMOKE_SBY_PORT:-15756}
MESH_BASE=${FAILOVER_SMOKE_MESH_BASE:-17101}
M0=127.0.0.1:$MESH_BASE
M1=127.0.0.1:$((MESH_BASE + 1))
M2=127.0.0.1:$((MESH_BASE + 2))
MESH=$M0,$M1,$M2

go build -o "$DIR" ./cmd/switchml-agg ./cmd/switchml-worker

"$DIR/switchml-agg" -listen 127.0.0.1:$PRI_PORT -workers 3 -pool 16 \
    -down-after 2s -down-for 2s > "$DIR/pri.log" 2>&1 &
PIDS="$PIDS $!"
"$DIR/switchml-agg" -listen 127.0.0.1:$SBY_PORT -workers 3 -pool 16 \
    > "$DIR/sby.log" 2>&1 &
PIDS="$PIDS $!"
sleep 0.3

# Workers: short RTO so the default silence window (8x RTO) trips well
# inside the 2 s outage; enough iterations to span outage + probation.
# A 2,048-element step takes ~0.3 ms on loopback, so 4,000 of them were
# over before the drill fired; 40,000 run well past it. Workers take
# the pool size from the primary when they connect.
WPIDS=""
for id in 0 1 2; do
    eval "LISTEN=\$M$id"
    "$DIR/switchml-worker" -agg 127.0.0.1:$PRI_PORT -id $id -workers 3 \
        -elems-per-tensor 2048 -iters 40000 -rto 50ms \
        -standby 127.0.0.1:$SBY_PORT -mesh "$MESH" -mesh-listen "$LISTEN" \
        > "$DIR/w$id.log" 2>&1 &
    WPIDS="$WPIDS $!"
    PIDS="$PIDS $!"
done

fail() {
    echo "failover-smoke: $1" >&2
    for f in pri sby w0 w1 w2; do
        echo "--- $f.log ---" >&2; tail -20 "$DIR/$f.log" >&2 || true
    done
    exit 1
}

for pid in $WPIDS; do
    wait "$pid" || fail "a worker exited non-zero"
done

grep -q "drill: aggregation program down" "$DIR/pri.log" || fail "drill never fired"
grep -q "drill: aggregation program revived" "$DIR/pri.log" || fail "primary never revived"
for id in 0 1 2; do
    grep -q "failover ladder:" "$DIR/w$id.log" || fail "worker $id never walked the ladder"
    grep -q "home rank now 0" "$DIR/w$id.log" || fail "worker $id did not climb back to the primary"
    grep -q "fabric handoffs:" "$DIR/w$id.log" && fail "worker $id fell through the standby to the mesh"
done

echo "failover-smoke: live kill + re-home + fail-up ok"
