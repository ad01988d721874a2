#!/usr/bin/env bash
# obs_smoke.sh — end-to-end check of the wide-event logging, runtime
# self-observability, and SLO burn-rate path against a real dvserve
# process.
#
# Trains a tiny model, fits a validator, and starts a race-built
# dvserve with the SLO engine on, trace sampling at 1, and an NDJSON
# event log with a tiny rotation threshold. Drives healthy traffic and
# proves: dv_build_info / dv_runtime_* / dv_slo_* / dv_events_* export
# on /metrics; /debug/dv/events answers triage filters (and 400s on bad
# ones); /readyz carries the machine-parseable slo line. Then forces a
# 429 shedding burst (queue-depth 1, one dispatcher) until the
# availability objective burns through its budget, and proves the
# breach: /debug/dv/slo flips to breaching, the slo_breach event on
# /debug/dv/events cross-links shed trace IDs, and the first linked ID
# resolves on /debug/dv/trace/{id}. Finally checks that the event log
# rotated (events.ndjson.1) and that every NDJSON line parses as an
# event. dvserve is built with -race so the smoke doubles as a race
# check on the real serving binary. Used by `make smoke` and CI.
set -euo pipefail
source "$(dirname "$0")/lib.sh"
smoke_init obs

echo "== building CLIs (dvserve with -race)"
build dvtrain dvvalidate
build -race dvserve

echo "== training a tiny model + validator"
train_fixture
write_images 16

echo "== starting dvserve (-slo, trace-sample 1, NDJSON event log, queue-depth 16)"
# Admission is all-or-nothing per request: a 16-image batch fills the
# 16-slot queue and drains one image at a time through the single
# dispatcher, so any batch posted while another is still scoring sheds
# deterministically. The 1s SLO interval keeps the breach wait short;
# the 2000-byte rotation threshold guarantees the wide request events
# roll the log within one smoke run.
start_dvserve "$workdir/serve.stderr" -metrics-addr 127.0.0.1:0 -eps 1000 \
    -slo -slo-interval 1s -trace-sample 1 \
    -queue-depth 16 -dispatch-workers 1 -max-batch 1 -workers 1 \
    -log info -log-file "$workdir/events.ndjson" -log-max-bytes 2000
maddr=$(await_addr "$workdir/serve.stderr" metrics "$pid")
echo "   serving:  http://$addr"
echo "   metrics:  http://$maddr"

echo "== healthy traffic (traced checks + one batch)"
for i in 1 2 3 4 5 6; do
    post "$addr" /v1/check "$workdir/check.json" -H "X-DV-Trace-Id: obs-smoke-$i"
    [ "$code" = 200 ] || { echo "check $i: want 200, got $code: $body"; exit 1; }
done
post "$addr" /v1/batch "$workdir/batch.json"
[ "$code" = 200 ] || { echo "batch: want 200, got $code: $body"; exit 1; }

echo "== dv_build_info, dv_runtime_*, dv_slo_*, dv_events_* on /metrics"
metrics=$(curl -sf "http://$maddr/metrics")
for want in 'dv_build_info{' 'model_sha256="' \
    'dv_runtime_goroutines' 'dv_runtime_heap_bytes' 'dv_runtime_gc_cycles_total' \
    'dv_slo_objective{slo="availability"}' \
    'dv_slo_burn_rate{slo="availability",window="5m"}' \
    'dv_slo_breach{slo="latency"}' \
    'dv_events_emitted_total{type="request"}'; do
    grep -qF "$want" <<<"$metrics" \
        || { echo "missing metric: $want"; grep 'dv_build\|dv_runtime\|dv_slo\|dv_events' <<<"$metrics" || true; exit 1; }
done
goro=$(sed -n 's/^dv_runtime_goroutines //p' <<<"$metrics")
awk -v g="$goro" 'BEGIN { exit !(g > 0) }' \
    || { echo "dv_runtime_goroutines not live: $goro"; exit 1; }
emitted_before=$(sed -n 's/^dv_events_emitted_total{type="request"} //p' <<<"$metrics")

echo "== /debug/dv/events triage filters"
ev_json=$(curl -sf "http://$addr/debug/dv/events?type=request&limit=3")
grep -qF '"type":"request"' <<<"$ev_json" || { echo "no request events: $ev_json"; exit 1; }
grep -qF '"count":3' <<<"$ev_json" || { echo "limit=3 not honored: $ev_json"; exit 1; }
ev_json=$(curl -sf "http://$addr/debug/dv/events?type=lifecycle")
grep -qF '"msg":"server ready"' <<<"$ev_json" || { echo "no server-ready lifecycle event: $ev_json"; exit 1; }
bad_code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/debug/dv/events?valid=maybe")
[ "$bad_code" = 400 ] || { echo "bad filter want 400, got $bad_code"; exit 1; }

echo "== /readyz carries the machine-parseable slo line + JSON body"
rz=$(curl -sf "http://$addr/readyz")
grep -q '^slo: ' <<<"$rz" || { echo "readyz lacks the slo line: $rz"; exit 1; }
grep -qF '"slo":{"enabled":true' <<<"$rz" || { echo "readyz JSON body lacks slo status: $rz"; exit 1; }

echo "== forcing 429 shedding bursts to burn the availability budget"
sheds=0
for round in 1 2 3 4 5 6; do
    : >"$workdir/burst.codes"
    curl_pids=()
    for _ in $(seq 1 6); do
        curl -sS -o /dev/null -w '%{http_code}\n' \
            -H 'Content-Type: application/json' --data-binary @"$workdir/batch.json" \
            "http://$addr/v1/batch" >>"$workdir/burst.codes" &
        curl_pids+=("$!")
    done
    wait "${curl_pids[@]}" || true
    got=$(grep -c '^429$' "$workdir/burst.codes" || true)
    sheds=$((sheds + got))
    echo "   round $round: $got sheds (total $sheds)"
    [ "$sheds" -ge 3 ] && break
done
[ "$sheds" -ge 1 ] || { echo "no requests shed; cannot burn the budget"; exit 1; }

echo "== waiting for the availability burn to breach"
ev_json=""
for _ in $(seq 1 40); do
    ev_json=$(curl -sf "http://$addr/debug/dv/events?type=slo_breach&level=error")
    grep -qF '"slo":"availability"' <<<"$ev_json" && break
    ev_json=""
    sleep 0.5
done
[ -n "$ev_json" ] || { echo "no availability breach event after 20s"; curl -sf "http://$addr/debug/dv/slo"; exit 1; }
slo_json=$(curl -sf "http://$addr/debug/dv/slo")
grep -qF '"breaching":true' <<<"$slo_json" || { echo "/debug/dv/slo not breaching: $slo_json"; exit 1; }
rz=$(curl -s "http://$addr/readyz")
grep -q '^slo: BREACH' <<<"$rz" || { echo "readyz does not surface the breach: $rz"; exit 1; }

echo "== slo_breach event cross-links shed trace IDs"
tid=$(sed -n 's/.*"trace_ids":\["\([^"]*\)".*/\1/p' <<<"$ev_json" | head -n1)
[ -n "$tid" ] || { echo "breach event carries no trace_ids: $ev_json"; exit 1; }
tr_json=$(curl -sf "http://$addr/debug/dv/trace/$tid") \
    || { echo "cross-linked trace $tid not retrievable"; exit 1; }
grep -qF "\"id\":\"$tid\"" <<<"$tr_json" || { echo "trace mismatch for $tid: $tr_json"; exit 1; }
grep -qF '"outcome":"shed"' <<<"$tr_json" || { echo "linked trace is not a shed: $tr_json"; exit 1; }

echo "== dv_slo_breach flipped and dv_events_emitted_total moved on /metrics"
metrics=$(curl -sf "http://$maddr/metrics")
grep -qF 'dv_slo_breach{slo="availability"} 1' <<<"$metrics" \
    || { echo "dv_slo_breach did not flip:"; grep dv_slo_breach <<<"$metrics"; exit 1; }
emitted_after=$(sed -n 's/^dv_events_emitted_total{type="request"} //p' <<<"$metrics")
awk -v a="$emitted_before" -v b="$emitted_after" 'BEGIN { exit !(b > a) }' \
    || { echo "event counter never moved: $emitted_before -> $emitted_after"; exit 1; }

echo "== NDJSON log rotated and both generations carry typed events"
[ -s "$workdir/events.ndjson" ] || { echo "event log missing or empty"; exit 1; }
[ -s "$workdir/events.ndjson.1" ] \
    || { echo "event log never rotated at 2000 bytes"; ls -l "$workdir"; exit 1; }
for f in "$workdir/events.ndjson" "$workdir/events.ndjson.1"; do
    grep -q '"type":"' "$f" || { echo "NDJSON file without typed events: $f"; exit 1; }
done
grep -qh '"type":"slo_breach"' "$workdir/events.ndjson" "$workdir/events.ndjson.1" \
    || { echo "breach event never reached the NDJSON sink"; exit 1; }

echo "== race check: no data races logged by the -race dvserve binary"
assert_no_races

echo "obs smoke: OK"
