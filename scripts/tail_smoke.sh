#!/bin/sh
# tail_smoke.sh — end-to-end check of the tail-latency observability layer.
#
# Runs a metered batch with a straggler digest and replay (-stragglers 3
# -straggler-replay), asserts the bench report carries the latency block, the
# straggler digests and the environment stamp, that every forensic bundle is
# complete and parses through traceview -tail, that each replay line carries
# its blame (prod/retry/coin step shares), and that the live server's
# /timeseries ring and /stream SSE feed serve samples. Exits nonzero on any
# missing surface.
set -eu

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM
PID=""

go build -o "$TMP/consensus-load" ./cmd/consensus-load
go build -o "$TMP/traceview" ./cmd/traceview

# 1. Metered batch with digest + replay: the report carries the tail blocks.
"$TMP/consensus-load" -instances 80 -seed 7 -stragglers 3 -straggler-replay \
	-straggler-dir "$TMP/bundles" -json >"$TMP/report.json" 2>"$TMP/stderr"

for want in '"latency"' '"p99_ns"' '"stragglers"' '"env"' '"go_version"'; do
	grep -qF "$want" "$TMP/report.json" ||
		{ echo "tail_smoke: report missing $want" >&2; cat "$TMP/report.json" >&2; exit 1; }
done

# 2. Every bundle is complete, and its summary parses through traceview -tail.
BUNDLES=0
for dir in "$TMP"/bundles/*/; do
	BUNDLES=$((BUNDLES + 1))
	for f in trace.jsonl profile.json perfetto.json summary.json; do
		[ -s "$dir$f" ] || { echo "tail_smoke: bundle $dir missing $f" >&2; exit 1; }
	done
	"$TMP/traceview" -tail "${dir}summary.json" | grep -q 'straggler replay' ||
		{ echo "tail_smoke: traceview -tail rejected ${dir}summary.json" >&2; exit 1; }
done
[ "$BUNDLES" -eq 3 ] || { echo "tail_smoke: expected 3 bundles, found $BUNDLES" >&2; exit 1; }

# 3. The bench artifact renders through the tail view.
"$TMP/traceview" -tail "$TMP/report.json" >"$TMP/tailview"
grep -q 'wall-clock latency per workload' "$TMP/tailview" &&
	grep -q 'straggler digests' "$TMP/tailview" ||
	{ echo "tail_smoke: traceview -tail output incomplete" >&2; cat "$TMP/tailview" >&2; exit 1; }

# 4. Every replay line attributes the straggler's steps.
[ "$(grep -c 'blame prod .* retry .* coin ' "$TMP/stderr")" -eq 3 ] ||
	{ echo "tail_smoke: replay lines lack the blame column" >&2; cat "$TMP/stderr" >&2; exit 1; }

# 5. Live timeseries: /timeseries serves the ring, /stream serves SSE frames.
"$TMP/consensus-load" -instances 40 -seed 7 -listen 127.0.0.1:0 -linger 30s \
	>"$TMP/stdout" 2>"$TMP/live_stderr" &
PID=$!
ADDR=""
for _ in $(seq 1 50); do
	ADDR="$(sed -n 's#.*telemetry on http://\([^/]*\)/metrics.*#\1#p' "$TMP/live_stderr" | head -n1)"
	[ -n "$ADDR" ] && break
	sleep 0.1
done
[ -n "$ADDR" ] || { echo "tail_smoke: no telemetry address" >&2; cat "$TMP/live_stderr" >&2; exit 1; }

# The sampler ticks once per second; the final batch sample lands at exit of
# the batch, so poll until the ring is non-empty.
SAMPLED=""
for _ in $(seq 1 50); do
	if curl -sf "http://$ADDR/timeseries" | grep -q '"seq"'; then
		SAMPLED=yes
		break
	fi
	sleep 0.1
done
[ -n "$SAMPLED" ] || { echo "tail_smoke: /timeseries never served a sample" >&2; exit 1; }

curl -sf "http://$ADDR/timeseries" | grep -q '"decisions"' ||
	{ echo "tail_smoke: /timeseries sample missing decisions" >&2; exit 1; }

# SSE: the stream replays the ring immediately; read the first frame and cut
# the connection (curl exits 28 on --max-time, which is expected).
SSE="$(curl -s -N --max-time 2 "http://$ADDR/stream" || true)"
printf '%s\n' "$SSE" | grep -q '^data: {' ||
	{ echo "tail_smoke: /stream served no SSE frame: '$SSE'" >&2; exit 1; }

kill "$PID" 2>/dev/null || true
echo "tail_smoke: ok (3 bundles replayed, timeseries + SSE on $ADDR)"
