#!/usr/bin/env bash
# telemetry_smoke.sh — end-to-end check of the observability surface.
#
# Trains a tiny model, fits a validator, then runs a scoring pass with
# the metrics endpoint bound to an ephemeral port and scrapes it:
# /metrics must serve populated dv_* series in the Prometheus text
# format, /metrics?format=json must parse, and /debug/vars must carry
# the expvar bridge. Used by `make smoke` and CI.
set -euo pipefail
source "$(dirname "$0")/lib.sh"
smoke_init telemetry

echo "== building CLIs"
build dvtrain dvvalidate

echo "== training a tiny model"
train_model

echo "== fitting the validator (with -telemetry summary)"
"$workdir/dvvalidate" fit -model "$workdir/model.gob" -dataset digits \
    -train 400 -test 100 -max-per-class 40 -max-features 64 \
    -out "$workdir/validator.gob" -telemetry

echo "== scoring with the metrics endpoint on an ephemeral port"
"$workdir/dvvalidate" score -model "$workdir/model.gob" \
    -validator "$workdir/validator.gob" -dataset digits \
    -train 400 -test 100 -telemetry \
    -metrics-addr 127.0.0.1:0 -metrics-linger 30s \
    2>"$workdir/score.stderr" &
pids+=("$!")
# The CLI prints the bound address before it starts working.
addr=$(await_addr "$workdir/score.stderr" metrics "$!")
echo "   endpoint: http://$addr"

# Let the scoring pass populate the histograms, then scrape while the
# endpoint lingers.
wait_for_metric() {
    local body
    for _ in $(seq 1 200); do
        body=$(curl -sf "http://$addr/metrics" || true)
        if echo "$body" | grep -q "$1"; then return 0; fi
        sleep 0.1
    done
    echo "metric $1 never appeared:"
    curl -sf "http://$addr/metrics" || true
    return 1
}

echo "== scraping /metrics (Prometheus text)"
wait_for_metric '^dv_checked_total [1-9]'
metrics=$(curl -sf "http://$addr/metrics")
for want in \
    '# TYPE dv_checked_total counter' \
    '# TYPE dv_verdict_latency_seconds histogram' \
    'dv_verdict_latency_seconds_bucket' \
    'dv_layer_discrepancy_bucket' \
    'dv_epsilon'; do
    echo "$metrics" | grep -q "$want" || { echo "missing: $want"; echo "$metrics"; exit 1; }
done

echo "== scraping /metrics?format=json"
# Capture bodies before grepping: with pipefail, `curl | grep -q` dies
# of curl's SIGPIPE when grep exits on an early match.
json=$(curl -sf "http://$addr/metrics?format=json")
echo "$json" | grep -q '"dv_checked_total"' \
    || { echo "JSON snapshot lacks dv_checked_total"; exit 1; }

echo "== scraping /debug/vars (expvar bridge)"
vars=$(curl -sf "http://$addr/debug/vars")
echo "$vars" | grep -q '"deepvalidation"' || { echo "expvar bridge missing"; exit 1; }
echo "$vars" | grep -q '"memstats"' || { echo "stock expvars missing"; exit 1; }

echo "== scraping /debug/pprof/"
pprof=$(curl -sf "http://$addr/debug/pprof/")
echo "$pprof" | grep -q goroutine \
    || { echo "pprof index not serving"; exit 1; }

echo "telemetry smoke: OK"
