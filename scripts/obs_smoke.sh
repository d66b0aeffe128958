#!/bin/sh
# obs_smoke.sh - end-to-end check of the introspection server: start
# `pathfinder -serve` on a random port, require 200s with real content from
# /metrics, /status, /flight and /trace, then shut the server down.  Run from the repo root
# (CI's obs-smoke step and `make obs-smoke` both do).  Every file it writes
# lives in one temporary directory that the exit trap removes.
set -eu

dir=$(mktemp -d)
log="$dir/log"
bin="$dir/pathfinder"
bundle="$dir/bundle.json"
pid=""
trap 'kill $pid 2>/dev/null || true; rm -rf "$dir"' EXIT

# Two apps stepping on the sequential sweep.  The flight recorder rides
# along at its default sizing and dumps its postmortem bundle to $bundle on
# SIGQUIT.
go build -o "$bin" ./cmd/pathfinder
"$bin" -serve 127.0.0.1:0 -apps LBM:cxl,MCF:local -epochs 2 \
    -epoch-kcycles 200 -report flows -flight-dump "$bundle" >"$log" 2>&1 &
pid=$!

# The bound address is printed as "pathfinder: serving on http://HOST:PORT".
url=""
for _ in $(seq 1 50); do
    url=$(sed -n 's/^pathfinder: serving on \(http:\/\/[^ ]*\)$/\1/p' "$log" | head -1)
    [ -n "$url" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "obs-smoke: pathfinder exited early:"; cat "$log"; exit 1; }
    sleep 0.2
done
[ -n "$url" ] || { echo "obs-smoke: no serving line in output:"; cat "$log"; exit 1; }

fail() { echo "obs-smoke: $1"; cat "$log"; exit 1; }

code=$(curl -s -o "$dir/metrics" -w '%{http_code}' "$url/metrics")
[ "$code" = 200 ] || fail "/metrics returned $code"
grep -q '^pf_' "$dir/metrics" || fail "/metrics has no pf_ series (empty registry)"

code=$(curl -s -o "$dir/status" -w '%{http_code}' "$url/status")
[ "$code" = 200 ] || fail "/status returned $code"
grep -q '"epochs"' "$dir/status" || fail "/status JSON lacks epoch fields"
grep -q '"inline_steps"' "$dir/status" || fail "/status JSON lacks engine section"
for key in epochs_truncated last_note dispatched_events checkpoint_cache; do
    ! grep -q "\"$key\"" "$dir/status" || fail "/status still carries retired field $key"
done

# The flight recorder must be live: /flight serves its snapshot with real
# records filed by the run.
code=$(curl -s -o "$dir/flight" -w '%{http_code}' "$url/flight")
[ "$code" = 200 ] || fail "/flight returned $code"
grep -q '"enabled": *true' "$dir/flight" || fail "/flight reports the recorder disabled"
grep -q '"records"' "$dir/flight" || fail "/flight JSON lacks a records count"
records=$(sed -n 's/.*"records": *\([0-9][0-9]*\).*/\1/p' "$dir/flight" | head -1)
[ -n "$records" ] && [ "$records" -gt 0 ] || fail "/flight shows zero records after a run"

# /trace exports one flight record in -trace-sample (default 64) per core
# as Chrome trace_event JSON; LBM runs on CXL memory, so its records cross
# the CXL device stages.
code=$(curl -s -o "$dir/trace" -w '%{http_code}' "$url/trace")
[ "$code" = 200 ] || fail "/trace returned $code"
grep -q '"name":"cxl_media"' "$dir/trace" || fail "/trace has no cxl_media event"

# SIGQUIT dumps a postmortem bundle (and keeps the process running): the
# artifact must appear at -flight-dump and parse as a schema-2 bundle.
kill -QUIT "$pid"
for _ in $(seq 1 50); do
    grep -q '^pathfinder: flight bundle (sigquit) written' "$log" && break
    kill -0 "$pid" 2>/dev/null || fail "pathfinder died on SIGQUIT"
    sleep 0.2
done
grep -q '^pathfinder: flight bundle (sigquit) written' "$log" || fail "no flight-bundle notice after SIGQUIT"
kill -0 "$pid" 2>/dev/null || fail "SIGQUIT terminated the process (want dump-and-continue)"
[ -s "$bundle" ] || fail "SIGQUIT bundle $bundle is missing or empty"
grep -q '"schema": *2' "$bundle" || fail "bundle lacks the schema marker"
grep -q '"trigger": *"sigquit"' "$bundle" || fail "bundle trigger is not sigquit"
grep -q '"flight"' "$bundle" || fail "bundle lacks the flight section"
grep -q '"tail"' "$bundle" || fail "bundle lacks the promoted tail store"

# Wait for the run to finish: the SIGTERM handler is installed once the
# post-run serving loop begins, and the final epoch's series are published.
for _ in $(seq 1 50); do
    grep -q '^pathfinder: run complete' "$log" && break
    sleep 0.2
done
grep -q '^pathfinder: run complete' "$log" || fail "no run-complete line"

# After both epochs: the sweep stepped inline, the second capture reused
# the first epoch's released snapshot, and none of the retired series
# (watchdog, epoch length, dispatch oracle, checkpoint cache) is exported.
code=$(curl -s -o "$dir/metrics" -w '%{http_code}' "$url/metrics")
[ "$code" = 200 ] || fail "/metrics after the run returned $code"
inline=$(sed -n 's/^pf_engine_inline_steps \([0-9][0-9]*\)$/\1/p' "$dir/metrics")
[ -n "$inline" ] || fail "/metrics lacks pf_engine_inline_steps"
[ "$inline" -gt 0 ] || fail "pf_engine_inline_steps is 0 (sweep inactive)"
grep -q '^pf_profiler_epochs_total 2$' "$dir/metrics" || fail "pf_profiler_epochs_total is not 2 after the run"
hits=$(sed -n 's/^pf_snapshot_pool_hits_total \([0-9][0-9]*\)$/\1/p' "$dir/metrics")
[ -n "$hits" ] && [ "$hits" -ge 1 ] || fail "pf_snapshot_pool_hits_total is '${hits}' (want >= 1: snapshots not recycled)"
for name in pf_profiler_epochs_truncated_total pf_profiler_watchdog_expiries_total \
    pf_profiler_epochs_idle_total pf_profiler_epoch_cycles \
    pf_engine_dispatched_events pf_engine_events_pending \
    pf_checkpoint_cache_hits_total pf_checkpoint_cache_misses_total \
    pf_checkpoint_forks_total pf_checkpoint_cache_bytes; do
    ! grep -q "^$name " "$dir/metrics" || fail "/metrics still exports retired series $name"
done
series=$(grep -c '^pf_' "$dir/metrics")

# Graceful shutdown: SIGTERM drains and exits 0 rather than being killed.
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
[ "$rc" = 0 ] || fail "SIGTERM exit status $rc (want clean drain)"
grep -q '^pathfinder: shutting down' "$log" || fail "no graceful-shutdown line after SIGTERM"

echo "obs-smoke: OK ($url: /metrics has $series pf_ series)"
