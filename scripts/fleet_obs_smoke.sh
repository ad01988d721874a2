#!/usr/bin/env bash
# fleet_obs_smoke.sh — end-to-end check of the fleet observability
# plane across real processes.
#
# Builds a race-instrumented dvserve + dvgateway with tracing on in
# BOTH tiers and the gateway SLO engine running, then drives the
# cross-tier triage loop over HTTP: an injected X-DV-Trace-Id must come
# back from the gateway's /debug/dv/trace/{id} as ONE stitched tree
# holding both the gateway's hop spans and the replica's verdict spans;
# /debug/dv/fleet and /debug/dv/flight must merge the fleet view; a
# kill -9'd replica must degrade the same trace lookup to an explicitly
# marked partial tree (never a 500); and a forced shed burst must raise
# a gateway availability burn-rate breach whose event cross-links a
# trace ID that resolves on the gateway. Finally no process log may
# hold a race report. Used by `make smoke` and CI.
set -euo pipefail
source "$(dirname "$0")/lib.sh"
smoke_init fleet-obs

echo "== building CLIs (dvserve and dvgateway race-instrumented)"
build dvtrain dvvalidate
build -race dvserve dvgateway

echo "== training a tiny model + validator"
train_fixture

mkdir -p "$workdir/r1" "$workdir/r2"
cp "$workdir/validator.gob" "$workdir/r1/validator.gob"
cp "$workdir/validator.gob" "$workdir/r2/validator.gob"
write_images

in_rotation_is() { curl -sf "http://$gw_addr/admin/replicas" | grep -q "\"in_rotation\":$1,"; }
breach_raised() {
    curl -sf "http://$gw_addr/debug/dv/events?type=slo_breach&level=error" \
        | grep -q '"slo":"availability"'
}

echo "== starting 2 traced dvserve replicas + dvgateway (tracing + SLO on)"
# Tracing at 1.0 on the replicas: every request that reaches one leaves
# a replica-side span tree.
start_dvserve "$workdir/r1.stderr" -validator "$workdir/r1/validator.gob" -eps 0.5 -trace-sample 1
r1_pid=$pid r1_addr=$addr
start_dvserve "$workdir/r2.stderr" -validator "$workdir/r2/validator.gob" -eps 0.5 -trace-sample 1
r2_pid=$pid r2_addr=$addr
start_gateway "$workdir/gw.stderr" \
    -replica "r1@$r1_addr" -replica "r2@$r2_addr" \
    -probe-interval 100ms -drain-after 2 -reinstate-after 2 \
    -reprobe-backoff 100ms -reprobe-backoff-cap 500ms \
    -trace-sample 1 -slo -slo-interval 100ms
echo "   r1:      http://$r1_addr"
echo "   r2:      http://$r2_addr"
echo "   gateway: http://$gw_addr"
wait_for "2 replicas in rotation" in_rotation_is 2

echo "== injected trace ID stitches into one two-tier tree"
post "$gw_addr" /v1/check "$workdir/check.json" -H "X-DV-Trace-Id: smoke-stitch-1"
[ "$code" = 200 ] || { echo "traced check: want 200, got $code: $body"; exit 1; }
get "$gw_addr" /debug/dv/trace/smoke-stitch-1
[ "$code" = 200 ] || { echo "stitched trace: want 200, got $code: $body"; exit 1; }
grep -q '"partial":false' <<<"$body" || { echo "healthy stitch marked partial: $body"; exit 1; }
# Gateway tier spans...
grep -q '"name":"route"' <<<"$body" || { echo "stitched tree lacks the gateway route span: $body"; exit 1; }
grep -q '"name":"upstream"' <<<"$body" || { echo "stitched tree lacks the gateway upstream span: $body"; exit 1; }
# ...and the replica tier's verdict tree, grafted and marked.
grep -q '"name":"verdict"' <<<"$body" || { echo "stitched tree lacks the replica verdict span: $body"; exit 1; }
grep -q '"tier":"replica"' <<<"$body" || { echo "grafted replica root not tier-marked: $body"; exit 1; }
serving_replica=$(grep -o '"tier":"replica","replica":"r[12]"' <<<"$body" | head -n1 | grep -o 'r[12]')
[ -n "$serving_replica" ] || serving_replica=$(grep -o '"replica":"r[12]"' <<<"$body" | head -n1 | grep -o 'r[12]')
echo "   two-tier tree OK (served by $serving_replica)"

echo "== fleet + flight aggregation over the healthy fleet"
get "$gw_addr" /debug/dv/fleet
[ "$code" = 200 ] || { echo "fleet view: want 200, got $code"; exit 1; }
grep -q '"partial":false' <<<"$body" || { echo "healthy fleet marked partial: $body"; exit 1; }
[ "$(grep -o '"fetch":"ok"' <<<"$body" | wc -l)" = 2 ] || { echo "fleet view lacks 2 ok rows: $body"; exit 1; }
grep -q '"gateway_slo":{"enabled":true' <<<"$body" || { echo "fleet view lacks gateway SLO: $body"; exit 1; }
get "$gw_addr" '/debug/dv/flight?limit=5'
[ "$code" = 200 ] || { echo "fleet flight: want 200, got $code"; exit 1; }
grep -q '"replica":"r' <<<"$body" || { echo "merged flight entries lack replica annotations: $body"; exit 1; }

echo "== kill -9 the serving replica: same lookup degrades to a marked partial tree"
if [ "$serving_replica" = r1 ]; then victim=$r1_pid; else victim=$r2_pid; fi
kill -9 "$victim"
wait "$victim" 2>/dev/null || true
get "$gw_addr" /debug/dv/trace/smoke-stitch-1
[ "$code" = 200 ] || { echo "degraded stitch: want 200, got $code: $body"; exit 1; }
grep -q '"partial":true' <<<"$body" || { echo "degraded stitch not marked partial: $body"; exit 1; }
grep -q '"state":"unreachable"' <<<"$body" || { echo "replica tier not marked unreachable: $body"; exit 1; }
grep -q '"name":"route"' <<<"$body" || { echo "partial tree lost the gateway spans: $body"; exit 1; }
get "$gw_addr" /debug/dv/fleet
grep -q '"partial":true' <<<"$body" || { echo "fleet view not partial with a replica down: $body"; exit 1; }
grep -q '"fetch":"unreachable"' <<<"$body" || { echo "fleet view lacks the unreachable row: $body"; exit 1; }
echo "   partial tree + fleet row marked unreachable; no 500s"

echo "== kill the whole fleet: shed burst must breach availability with cross-linked traces"
for p in "$r1_pid" "$r2_pid"; do
    kill -9 "$p" 2>/dev/null || true
    wait "$p" 2>/dev/null || true
done
# Route-path failures + probes drain both replicas, then every traced
# request sheds 503 (unroutable) and lands in the SLO cross-link ring.
for i in $(seq 1 20); do
    post "$gw_addr" /v1/check "$workdir/check.json" -H "X-DV-Trace-Id: shed-$i" || true
done
wait_for "0 replicas in rotation" in_rotation_is 0
for i in $(seq 1 5); do
    post "$gw_addr" /v1/check "$workdir/check.json" -H "X-DV-Trace-Id: breach-$i"
    [ "$code" = 503 ] || { echo "drained-fleet check breach-$i: want 503, got $code"; exit 1; }
done
wait_for "availability burn-rate breach event" breach_raised
get "$gw_addr" '/debug/dv/events?type=slo_breach&level=error'
linked=$(grep -o '"trace_ids":\["[^"]*"' <<<"$body" | head -n1 | cut -d'"' -f4)
[ -n "$linked" ] || { echo "breach event cross-links no trace IDs: $body"; exit 1; }
get "$gw_addr" "/debug/dv/trace/$linked"
[ "$code" = 200 ] || { echo "cross-linked trace $linked: want 200, got $code: $body"; exit 1; }
grep -q "\"id\":\"$linked\"" <<<"$body" || { echo "cross-linked trace body mismatch: $body"; exit 1; }
get "$gw_addr" /readyz
grep -q 'slo: BREACH' <<<"$body" || { echo "readyz lacks the breach line: $body"; exit 1; }
get "$gw_addr" /debug/dv/slo
grep -q '"breaching":true' <<<"$body" || { echo "/debug/dv/slo not breaching: $body"; exit 1; }
echo "   breach event → $linked resolved on the gateway trace store"

echo "== SIGTERM drains the gateway cleanly"
kill -TERM "$gw_pid"
wait "$gw_pid" || { echo "dvgateway exited non-zero after SIGTERM"; cat "$workdir/gw.stderr"; exit 1; }
grep -q 'drained cleanly' "$workdir/gw.stderr" \
    || { cat "$workdir/gw.stderr"; echo "no clean-drain log line"; exit 1; }

assert_no_races

echo "fleet obs smoke: OK"
