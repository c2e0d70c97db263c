#!/usr/bin/env bash
# CI gate for fivegsim: vet, build, the tier-1 test suite, and a race
# pass over the parallel campaign engine. The race step runs -short:
# the long statistical sweeps trim to one seed, but every Workers>1
# path stays on — TestRunAllParallelRace dispatches experiments across
# an 8-worker pool with a shared registry and tracer, and the
# worker-equivalence tests race the survey shards, campaign walks and
# probe sweeps, and TestSurveyConcurrentWithTicks runs a sharded survey
# against concurrent population ticks on one shared campus. `make
# race-full` runs the unabridged suite under -race.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race -short (parallel engine under the race detector) =="
go test -race -short ./...

echo "== fault determinism short suite =="
go test -short -run 'Fault|Injection|Plan|Scenario|Ctx|Cancellation' ./internal/fault/ ./internal/par/ .

echo "== packet core suite (lane order vs AtArg, packet golden, extra-prop fallback) =="
go test -race -short -run 'Lane|PacketGolden|ExtraProp' ./internal/des ./internal/netsim .

echo "== population suite (PRB properties, determinism, N=1, alloc guards) =="
go test -race -short ./internal/pop/ ./internal/traffic/ ./internal/deploy/

echo "== pop-dynamics property suite (churn conservation, A3 invariants, ping-pong, cancellation) =="
go test -race -short -run 'Churn|A3|PingPong|LoadCoupling|Dynamics|AttachSkip|ProbeContract|EstimateETA' \
	./internal/pop/ ./internal/handoff/ ./internal/obs/

echo "== live telemetry smoke (fgobs serve: /metrics + /progress on a quick campaign) =="
# Start a served campaign on an ephemeral port, scrape it while (or just
# after) it runs, and require population and DES series in the
# Prometheus exposition. SIGINT is the one shutdown path — the server
# must exit cleanly on it (context cancellation end to end).
go build -o /tmp/fgobs_ci ./cmd/fgobs
/tmp/fgobs_ci serve -addr 127.0.0.1:0 -quick -workers 2 -run X12,F10 >/tmp/fgobs_ci.log 2>&1 &
FGOBS_PID=$!
trap 'kill "$FGOBS_PID" 2>/dev/null || true' EXIT
ADDR=""
for _ in $(seq 1 50); do
	ADDR=$(sed -n 's|.*serving telemetry on http://\([^ ]*\).*|\1|p' /tmp/fgobs_ci.log)
	[ -n "$ADDR" ] && break
	sleep 0.2
done
[ -n "$ADDR" ] || { echo "fgobs serve never bound an address" >&2; cat /tmp/fgobs_ci.log >&2; exit 1; }
for _ in $(seq 1 150); do
	curl -fsS "http://$ADDR/metrics" > /tmp/fgobs_metrics.txt 2>/dev/null || true
	if grep -q '^pop_' /tmp/fgobs_metrics.txt && grep -q '^des_' /tmp/fgobs_metrics.txt; then
		break
	fi
	sleep 0.2
done
grep -q '^pop_' /tmp/fgobs_metrics.txt || { echo "no pop_ series in /metrics" >&2; cat /tmp/fgobs_ci.log >&2; exit 1; }
grep -q '^des_' /tmp/fgobs_metrics.txt || { echo "no des_ series in /metrics" >&2; cat /tmp/fgobs_ci.log >&2; exit 1; }
curl -fsS "http://$ADDR/progress" | grep -q '"total":2' || { echo "/progress missing campaign totals" >&2; exit 1; }
kill -INT "$FGOBS_PID"
if ! wait "$FGOBS_PID"; then
	echo "fgobs serve did not exit cleanly on SIGINT" >&2
	cat /tmp/fgobs_ci.log >&2
	exit 1
fi
trap - EXIT
echo "live telemetry serves pop_/des_ series and shuts down clean"

echo "== campaign service smoke (fgserve: submit -> stream -> /metrics -> SIGINT) =="
# Start the campaign service on an ephemeral port, submit a quick spec
# with the experiments listed OUT of paper order, and require: a live
# serve_ series in /metrics while the campaign runs, streamed results
# re-ordered to paper order (T1 before F4), a terminal done status, and
# a clean drain on SIGINT.
go build -o /tmp/fgserve_ci ./cmd/fgserve
/tmp/fgserve_ci -addr 127.0.0.1:0 >/tmp/fgserve_ci.log 2>&1 &
FGSERVE_PID=$!
trap 'kill "$FGSERVE_PID" 2>/dev/null || true' EXIT
ADDR=""
for _ in $(seq 1 50); do
	ADDR=$(sed -n 's|.*serving campaigns on http://\([^ ]*\).*|\1|p' /tmp/fgserve_ci.log)
	[ -n "$ADDR" ] && break
	sleep 0.2
done
[ -n "$ADDR" ] || { echo "fgserve never bound an address" >&2; cat /tmp/fgserve_ci.log >&2; exit 1; }
CID=$(curl -fsS -X POST "http://$ADDR/campaigns" \
	-d '{"schema":"fgserve.spec/v1","name":"ci smoke","experiments":["F4","T1"],"seeds":[7],"quick":true}' \
	| sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$CID" ] || { echo "campaign submit failed" >&2; cat /tmp/fgserve_ci.log >&2; exit 1; }
curl -fsS "http://$ADDR/metrics" > /tmp/fgserve_metrics.txt
grep -q '^serve_campaigns_submitted 1' /tmp/fgserve_metrics.txt || {
	echo "no live serve_ series in /metrics" >&2; cat /tmp/fgserve_metrics.txt >&2; exit 1; }
ORDER=$(curl -fsS --max-time 120 "http://$ADDR/campaigns/$CID/stream" \
	| sed -n 's|.*"kind":"result".*"result":{"schema":"fivegsim.result/v1","id":"\([A-Z0-9]*\)".*|\1|p' \
	| paste -sd, -)
[ "$ORDER" = "T1,F4" ] || { echo "streamed results '$ORDER', want paper order T1,F4" >&2; exit 1; }
curl -fsS "http://$ADDR/campaigns/$CID" | grep -q '"state":"done"' || {
	echo "campaign never reached done" >&2; exit 1; }
curl -fsS "http://$ADDR/metrics" | grep -q '^serve_units_completed 2' || {
	echo "serve_units_completed never reached 2" >&2; exit 1; }
kill -INT "$FGSERVE_PID"
if ! wait "$FGSERVE_PID"; then
	echo "fgserve did not exit cleanly on SIGINT" >&2
	cat /tmp/fgserve_ci.log >&2
	exit 1
fi
grep -q 'drained clean' /tmp/fgserve_ci.log || { echo "fgserve never drained clean" >&2; cat /tmp/fgserve_ci.log >&2; exit 1; }
trap - EXIT
echo "campaign service streams paper-order results and drains clean"

echo "== bench smoke (quick hot-path benches vs checked-in baseline) =="
go run ./cmd/fgperf bench -quick -out /tmp/fgperf_current.json -compare BENCH_10.json -threshold 0.15

echo "== bench gate self-check (must trip on a synthetic regression) =="
# Doctor a baseline from the run above: same host fingerprint, but every
# ns/op forced to 1, so the current numbers look like a massive slowdown.
# The comparator must exit nonzero, proving the regression path works.
sed 's/"ns_per_op": [0-9]*/"ns_per_op": 1/' /tmp/fgperf_current.json > /tmp/fgperf_doctored.json
# -filter keeps the re-run to one cheap bench; the comparator still sees
# the doctored DESStep number and must trip on it.
if go run ./cmd/fgperf bench -quick -filter '^DESStep$' -compare /tmp/fgperf_doctored.json -threshold 0.15 >/dev/null 2>&1; then
	echo "bench gate FAILED to catch a synthetic regression" >&2
	exit 1
fi
echo "bench gate trips correctly"

echo "ci: all green"
