#!/usr/bin/env bash
# daemon-smoke.sh — end-to-end smoke of procctld's observability
# surface. Builds the daemon and procctl-top, starts the daemon with
# the introspection HTTP listener, registers a member over the socket,
# then checks every endpoint answers with real content:
#
#   /metrics       Prometheus exposition with the rebalance-span series
#   /debug/pprof/  Go profiling index
#   /debug/vars    expvar JSON (memstats + the coordinator snapshot)
#   events op      flight-recorder dump via procctl-top -events
#
# Then the convergence leg: two real client processes (procctl-top
# -hold) are driven through rebalances, their epochs must settle (the
# converge op reports them), and the daemon's ring dump, both client
# ring dumps, and the journal are merged into one Perfetto timeline
# whose decision→apply→settle flow arrows must cross process
# boundaries (procctl-trace check -require-flows).
#
# Then the durability leg: a member is held open, the daemon is killed
# with SIGKILL and restarted on its journal, and the registry must come
# back without the client re-registering; procctl-replay must audit the
# journal as clean and decision-identical to the sim replay, and a clean
# SIGTERM shutdown must leave a final snapshot.
#
# Fails (exit 1) on any missing endpoint, series, or event. Used by
# `make daemon-smoke` and the daemon-smoke CI job.
#
# pipefail is on, so a check at the end of a pipeline reads all of its
# input (`grep … >/dev/null`, never `grep -q`): a grep that exits at the
# first match can fail the pipeline with the producer's EPIPE.
set -euo pipefail

OUT="${OUT:-/tmp/procctl-daemon-smoke}"
SOCK="$OUT/procctld.sock"
METRICS_ADDR="127.0.0.1:19717"
JOURNAL="$OUT/journal"
rm -rf "$OUT"
mkdir -p "$OUT"

go build -o "$OUT/procctld" ./cmd/procctld
go build -o "$OUT/procctl-top" ./cmd/procctl-top
go build -o "$OUT/procctl-replay" ./cmd/procctl-replay
go build -o "$OUT/procctl-trace" ./cmd/procctl-trace

start_daemon() {
    "$OUT/procctld" -listen "unix:$SOCK" -capacity 8 -metrics "$METRICS_ADDR" \
        -journal-dir "$JOURNAL" -fsync-every 1 \
        -log-level debug >>"$OUT/procctld.log" 2>&1 &
    DAEMON=$!
}
start_daemon
trap 'kill "$DAEMON" 2>/dev/null || true; kill "${HOLD:-0}" 2>/dev/null || true' EXIT

# Wait for both listeners.
for i in $(seq 1 50); do
    [ -S "$SOCK" ] && curl -sf "http://$METRICS_ADDR/" >/dev/null 2>&1 && break
    sleep 0.1
done
[ -S "$SOCK" ] || { echo "daemon-smoke: socket never appeared"; exit 1; }

# Drive some control-plane traffic so the spans and the flight recorder
# have something to show: report external load (a registration-free op
# that triggers a rebalance), then read status.
"$OUT/procctl-top" -connect "unix:$SOCK" -setload 2
"$OUT/procctl-top" -connect "unix:$SOCK" | tee "$OUT/status.txt"

fail() { echo "daemon-smoke: $1" >&2; exit 1; }

# /metrics: the exposition must carry the rebalance-span histogram and
# its derived quantile gauges.
curl -sf "http://$METRICS_ADDR/metrics" >"$OUT/metrics.txt" \
    || fail "/metrics unreachable"
grep -q 'coordinator_rebalance_latency_micros_count{stage="total"}' "$OUT/metrics.txt" \
    || fail "/metrics missing the rebalance-span histogram"
grep -q 'coordinator_rebalance_latency_micros_p99{stage="total"}' "$OUT/metrics.txt" \
    || fail "/metrics missing the derived p99 gauge"
# -fsync-every 1: the setload's records were fsynced, and each fsync timed.
grep -Eq '^journal_fsync_micros_count [1-9]' "$OUT/metrics.txt" \
    || fail "/metrics shows no timed journal fsync (journal_fsync_micros_count is 0)"

# /debug/pprof/: the profiling index and one real profile.
curl -sf "http://$METRICS_ADDR/debug/pprof/" | grep goroutine >/dev/null \
    || fail "/debug/pprof/ index broken"
curl -sf "http://$METRICS_ADDR/debug/pprof/goroutine?debug=1" | grep "goroutine profile" >/dev/null \
    || fail "goroutine profile broken"

# /debug/vars: expvar JSON with the runtime's memstats and the
# published coordinator snapshot.
curl -sf "http://$METRICS_ADDR/debug/vars" >"$OUT/vars.json" \
    || fail "/debug/vars unreachable"
grep -q '"memstats"' "$OUT/vars.json" || fail "/debug/vars missing memstats"
grep -q '"coordinator"' "$OUT/vars.json" || fail "/debug/vars missing the coordinator snapshot"

# Flight recorder via the events op: the setload-triggered rebalance
# span must be in the ring.
"$OUT/procctl-top" -connect "unix:$SOCK" -events 0 >"$OUT/events.txt"
grep -q rebalance "$OUT/events.txt" || fail "flight recorder shows no rebalance event"

# --- convergence leg: two client processes, settled epochs, merged trace ---

# Two real client processes drive pools against the daemon, each
# recording its own flight ring and dumping it on exit.
"$OUT/procctl-top" -connect "unix:$SOCK" -hold alpha:4 -hold-interval 100ms \
    -hold-events "$OUT/alpha-events.jsonl" >"$OUT/alpha.log" 2>&1 &
ALPHA=$!
"$OUT/procctl-top" -connect "unix:$SOCK" -hold beta:4 -hold-interval 100ms \
    -hold-events "$OUT/beta-events.jsonl" >"$OUT/beta.log" 2>&1 &
BETA=$!
trap 'kill "$DAEMON" 2>/dev/null || true; kill "${HOLD:-0}" "$ALPHA" "$BETA" 2>/dev/null || true' EXIT

# Both registrations rebalance the fleet; every epoch they open must
# settle once the clients ack over their poll loops.
for i in $(seq 1 100); do
    "$OUT/procctl-top" -connect "unix:$SOCK" -converge 8 >"$OUT/converge.txt" 2>/dev/null || true
    grep -q 'open epochs 0' "$OUT/converge.txt" && grep -Eq 'settled [1-9]' "$OUT/converge.txt" && break
    sleep 0.1
done
grep -q 'open epochs 0' "$OUT/converge.txt" \
    || fail "epochs never converged with two live clients: $(cat "$OUT/converge.txt")"
grep -Eq 'settled [1-9]' "$OUT/converge.txt" || fail "converge op reports no settled epoch"

# One more decision while both clients watch, so the merged timeline
# has a multi-member epoch: load 2 -> targets shrink -> both re-apply.
"$OUT/procctl-top" -connect "unix:$SOCK" -setload 1
for i in $(seq 1 100); do
    "$OUT/procctl-top" -connect "unix:$SOCK" -converge 8 >"$OUT/converge.txt" 2>/dev/null || true
    grep -q 'open epochs 0' "$OUT/converge.txt" && break
    sleep 0.1
done
grep -q 'open epochs 0' "$OUT/converge.txt" || fail "setload epoch never settled"

# Epoch-filtered events: the newest rebalance's epoch must select a
# non-empty subset of the ring.
EPOCH=$("$OUT/procctl-top" -connect "unix:$SOCK" -events 0 -json \
    | sed -n 's/.*"kind":"rebalance".*"epoch":\([0-9]*\).*/\1/p' | tail -1)
[ -n "$EPOCH" ] || fail "no epoch-stamped rebalance in the events dump"
"$OUT/procctl-top" -connect "unix:$SOCK" -events 0 -epoch "$EPOCH" >"$OUT/events-epoch.txt"
grep -q rebalance "$OUT/events-epoch.txt" || fail "-epoch filter lost the rebalance event"

# Dump the daemon ring, stop the clients (they dump their rings on
# SIGTERM), and merge everything with the journal into one timeline.
"$OUT/procctl-top" -connect "unix:$SOCK" -events 0 -json >"$OUT/daemon-events.jsonl"
kill "$ALPHA" "$BETA"
wait "$ALPHA" 2>/dev/null || true
wait "$BETA" 2>/dev/null || true
[ -s "$OUT/alpha-events.jsonl" ] || fail "alpha client dumped no events"
[ -s "$OUT/beta-events.jsonl" ] || fail "beta client dumped no events"

"$OUT/procctl-trace" export -source daemon \
    -daemon-events "$OUT/daemon-events.jsonl" \
    -client-events "$OUT/alpha-events.jsonl,$OUT/beta-events.jsonl" \
    -journal "$JOURNAL" -out "$OUT/daemon-timeline.json" \
    || fail "merged daemon export failed"
"$OUT/procctl-trace" check -in "$OUT/daemon-timeline.json" -require-flows \
    >"$OUT/trace-check.txt" || fail "merged timeline has no cross-process flow arrows"
cat "$OUT/trace-check.txt"

# --- durability leg: SIGKILL, restart, recover, audit ---

# Hold a member open (the connection must be live at the kill, or the
# disconnect would durably unregister it).
"$OUT/procctl-top" -connect "unix:$SOCK" -hold web:4:2 >"$OUT/hold.txt" 2>&1 &
HOLD=$!
for i in $(seq 1 50); do
    "$OUT/procctl-top" -connect "unix:$SOCK" | grep '^web ' >/dev/null && break
    sleep 0.1
done
"$OUT/procctl-top" -connect "unix:$SOCK" | grep '^web ' >/dev/null \
    || fail "held member never registered"

# SIGKILL: no shutdown path runs; only the journal survives.
kill -9 "$DAEMON"
wait "$DAEMON" 2>/dev/null || true
kill "$HOLD" 2>/dev/null || true
wait "$HOLD" 2>/dev/null || true

start_daemon
for i in $(seq 1 50); do
    [ -S "$SOCK" ] && "$OUT/procctl-top" -connect "unix:$SOCK" >/dev/null 2>&1 && break
    sleep 0.1
done

# The registry must be back — same member, procs, and weight — with no
# client having re-registered.
"$OUT/procctl-top" -connect "unix:$SOCK" | tee "$OUT/status-recovered.txt" \
    | grep -E '^web +4 +2 ' >/dev/null || fail "registry not recovered after SIGKILL restart"
curl -sf "http://$METRICS_ADDR/metrics" | grep 'journal_recovered_members 1' >/dev/null \
    || fail "/metrics missing the recovery gauges"
if curl -sf "http://$METRICS_ADDR/metrics" \
    | grep -E 'coordinator_rpcs_total\{op="register"\}' | grep -v ' 0$' >/dev/null; then
    fail "restarted daemon served register RPCs before the recovery check"
fi

# Offline audit: the journal is clean and every recorded decision
# matches the deterministic sim replay.
"$OUT/procctl-replay" -dir "$JOURNAL" fsck >"$OUT/fsck.txt" \
    || fail "journal fsck found the recovered journal dirty"
"$OUT/procctl-replay" -dir "$JOURNAL" diff -capacity 8 >"$OUT/diff.txt" \
    || fail "record/replay diff found divergent decisions"
grep -q identical "$OUT/diff.txt" || fail "replay diff did not report identity"

# Clean shutdown: SIGTERM must leave a final snapshot behind.
kill "$DAEMON"
wait "$DAEMON" 2>/dev/null || true
ls "$JOURNAL"/snap-*.snap >/dev/null 2>&1 \
    || fail "clean shutdown left no final snapshot"
trap - EXIT
echo "daemon-smoke: OK"
