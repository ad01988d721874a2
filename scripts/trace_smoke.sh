#!/usr/bin/env bash
# trace_smoke.sh — end-to-end check of the per-verdict observability
# path against a real dvserve process.
#
# Trains a tiny model, fits a validator (with the drift reference), and
# proves the full triage loop over HTTP: an injected X-DV-Trace-Id must
# be echoed and its span tree (admission → batch_wait → dispatch →
# score → forward + per-layer SVM spans) readable on
# /debug/dv/trace/{id}; explain=1 must surface per-layer discrepancies
# in the verdict; the flight recorder must hold the traced verdict and
# answer the ?valid=false triage query; the dv_drift_* gauges must warm
# up and export on /metrics with the drift line on /readyz; and a
# validator fitted with -drift=false must degrade the whole drift watch
# to "disabled" without affecting serving. dvserve is built with -race
# so the smoke doubles as a race check on the real serving binary.
# Used by `make smoke` and CI.
set -euo pipefail
source "$(dirname "$0")/lib.sh"
smoke_init trace

echo "== building CLIs (dvserve with -race)"
build dvtrain dvvalidate
build -race dvserve

echo "== training a tiny model + validator (drift reference persisted)"
train_fixture
grep -q 'drift reference: persisted' "$workdir/fit.out" \
    || { cat "$workdir/fit.out"; echo "fit did not persist the drift reference"; exit 1; }

# 16-image batch, posted thrice below: 48 accepted verdicts clears the
# drift watch's warm-up floor (32) with margin.
write_images 16

echo "== starting dvserve (trace-sample 1, metrics on, generous eps so verdicts are accepted)"
start_dvserve "$workdir/serve.stderr" -trace-sample 1 -metrics-addr 127.0.0.1:0 -eps 1000
maddr=$(await_addr "$workdir/serve.stderr" metrics "$pid")
grep -q 'drift on' "$workdir/serve.stderr" \
    || { cat "$workdir/serve.stderr"; echo "banner does not report the drift watch on"; exit 1; }
echo "   serving:  http://$addr"
echo "   metrics:  http://$maddr"

echo "== traced /v1/check: injected X-DV-Trace-Id is echoed"
post "$addr" /v1/check "$workdir/check.json" -H 'X-DV-Trace-Id: smoke-trace-1' -D "$workdir/check.headers"
[ "$code" = 200 ] || { echo "traced check: want 200, got $code: $body"; exit 1; }
grep -qi '^x-dv-trace-id: smoke-trace-1' "$workdir/check.headers" \
    || { cat "$workdir/check.headers"; echo "trace id not echoed"; exit 1; }

echo "== GET /debug/dv/trace/smoke-trace-1: full span tree"
tr_json=$(curl -sf "http://$addr/debug/dv/trace/smoke-trace-1")
for want in '"id":"smoke-trace-1"' '"endpoint":"check"' '"name":"verdict"' \
    '"name":"admission"' '"name":"batch_wait"' '"name":"dispatch"' \
    '"name":"score"' '"name":"forward"' '"name":"svm_layer_' '"d":'; do
    grep -qF "$want" <<<"$tr_json" || { echo "trace missing $want:"; echo "$tr_json"; exit 1; }
done

echo "== explain=1 surfaces per-layer discrepancies in the verdict"
post "$addr" '/v1/check?explain=1' "$workdir/check.json"
[ "$code" = 200 ] || { echo "explain check: want 200, got $code: $body"; exit 1; }
grep -qF '"per_layer"' <<<"$body" || { echo "explain verdict lacks per_layer: $body"; exit 1; }
post "$addr" /v1/check "$workdir/check.json"
grep -qF '"per_layer"' <<<"$body" && { echo "per_layer leaked without explain: $body"; exit 1; }

echo "== flight recorder holds the traced verdict with per-layer d_i"
fl_json=$(curl -sf "http://$addr/debug/dv/flight")
for want in '"trace_id":"smoke-trace-1"' '"per_layer"' '"outcome":"ok"' '"endpoint":"check"'; do
    grep -qF "$want" <<<"$fl_json" || { echo "flight missing $want:"; echo "$fl_json"; exit 1; }
done

echo "== warming the drift window (3 x 16-image batches, all accepted)"
for _ in 1 2 3; do
    post "$addr" /v1/batch "$workdir/batch.json"
    [ "$code" = 200 ] || { echo "warming batch: want 200, got $code: $body"; exit 1; }
done

echo "== dv_drift_* gauges on /metrics"
metrics=$(curl -sf "http://$maddr/metrics")
for want in 'dv_drift_score{layer="' 'dv_drift_alarm' 'dv_drift_window_fill'; do
    grep -qF "$want" <<<"$metrics" || { echo "missing metric: $want"; echo "$metrics" | grep dv_drift; exit 1; }
done
fill=$(sed -n 's/^dv_drift_window_fill //p' <<<"$metrics")
awk -v f="$fill" 'BEGIN { exit !(f >= 32) }' \
    || { echo "drift window never warmed: fill=$fill"; exit 1; }

echo "== /readyz carries the drift line, /debug/dv/drift reports warmed"
rz=$(curl -sf "http://$addr/readyz")
sed -n 1p <<<"$rz" | grep -q ready || { echo "readyz line 1 not ready: $rz"; exit 1; }
grep -q '^drift: \(ok\|ALARM\)' <<<"$rz" || { echo "readyz lacks a warmed drift line: $rz"; exit 1; }
dr=$(curl -sf "http://$addr/debug/dv/drift")
grep -qF '"enabled":true' <<<"$dr" || { echo "drift status not enabled: $dr"; exit 1; }
grep -qF '"scores"' <<<"$dr" || { echo "drift status lacks scores after warm-up: $dr"; exit 1; }

echo "== triage query: /debug/dv/flight?valid=false returns rejected verdicts"
# A second instance with a tiny eps rejects everything it scores.
start_dvserve "$workdir/reject.stderr" -trace-sample 1 -eps 0.000001
post "$addr" /v1/check "$workdir/check.json" -H 'X-DV-Trace-Id: smoke-reject-1'
[ "$code" = 200 ] || { echo "reject check: want 200, got $code: $body"; exit 1; }
grep -qF '"valid":false' <<<"$body" || { echo "tiny-eps verdict unexpectedly valid: $body"; exit 1; }
fl_json=$(curl -sf "http://$addr/debug/dv/flight?valid=false")
for want in '"trace_id":"smoke-reject-1"' '"valid":false' '"per_layer"'; do
    grep -qF "$want" <<<"$fl_json" || { echo "triage query missing $want:"; echo "$fl_json"; exit 1; }
done
fl_json=$(curl -sf "http://$addr/debug/dv/flight?valid=true")
grep -qF '"count":0' <<<"$fl_json" || { echo "valid=true filter leaked rejected entries: $fl_json"; exit 1; }

echo "== legacy leg: validator without a drift reference degrades cleanly"
"$workdir/dvvalidate" fit -model "$workdir/model.gob" -dataset digits \
    -train 400 -test 100 -max-per-class 40 -max-features 64 -drift=false \
    -out "$workdir/validator-nodrift.gob" >"$workdir/fit2.out"
grep -q 'drift reference: none' "$workdir/fit2.out" \
    || { cat "$workdir/fit2.out"; echo "-drift=false still persisted a reference"; exit 1; }
start_dvserve "$workdir/legacy.stderr" -validator "$workdir/validator-nodrift.gob" -trace-sample 1
grep -q 'drift off' "$workdir/legacy.stderr" \
    || { cat "$workdir/legacy.stderr"; echo "banner does not report the drift watch off"; exit 1; }
post "$addr" /v1/check "$workdir/check.json"
[ "$code" = 200 ] || { echo "legacy check: want 200, got $code: $body"; exit 1; }
rz=$(curl -sf "http://$addr/readyz")
grep -q '^drift: disabled' <<<"$rz" || { echo "readyz lacks the disabled drift line: $rz"; exit 1; }
dr=$(curl -sf "http://$addr/debug/dv/drift")
grep -qF '"enabled":false' <<<"$dr" || { echo "legacy drift status not disabled: $dr"; exit 1; }

echo "== race check: no data races logged by the -race dvserve binaries"
assert_no_races

echo "trace smoke: OK"
