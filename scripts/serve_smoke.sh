#!/usr/bin/env bash
# serve_smoke.sh — end-to-end check of the online serving subsystem.
#
# Trains a tiny model, fits a validator, then drives a real dvserve
# process over HTTP: /healthz and /readyz must answer, /v1/check and
# /v1/batch must agree verdict-for-verdict, malformed and wrong-shape
# bodies must be rejected with 400, /v1/reload and SIGHUP must hot-swap
# without dropping the listener, an overloaded instance must shed with
# 429 + Retry-After, and SIGTERM must drain the in-flight request to a
# 200 before the process exits 0. Used by `make smoke` and CI.
set -euo pipefail
source "$(dirname "$0")/lib.sh"
smoke_init serve

echo "== building CLIs"
build dvtrain dvvalidate dvserve

echo "== training a tiny model + validator"
train_fixture

write_images 3
printf '{"channels":1,"height":8,"width":8,"pixels":[%s]}' "$(zeros 64)" >"$workdir/badshape.json"

echo "== starting dvserve (ephemeral port, metrics enabled)"
start_dvserve "$workdir/serve.stderr" -metrics-addr 127.0.0.1:0 -eps 0.5
main_pid=$pid
maddr=$(await_addr "$workdir/serve.stderr" metrics "$pid")
echo "   serving:  http://$addr"
echo "   metrics:  http://$maddr"

echo "== /healthz and /readyz"
hz=$(curl -sf "http://$addr/healthz")
grep -q ok <<<"$hz" || { echo "healthz not ok: $hz"; exit 1; }
rz=$(curl -sf "http://$addr/readyz")
grep -q ready <<<"$rz" || { echo "readyz not ready: $rz"; exit 1; }

echo "== POST /v1/check"
post "$addr" /v1/check "$workdir/check.json"
check_body=$body
[ "$code" = 200 ] || { echo "check: want 200, got $code: $check_body"; exit 1; }
grep -q '"label"' <<<"$check_body" || { echo "check body lacks label: $check_body"; exit 1; }
grep -q '"valid"' <<<"$check_body" || { echo "check body lacks valid: $check_body"; exit 1; }

echo "== POST /v1/batch (verdicts must match /v1/check exactly)"
post "$addr" /v1/batch "$workdir/batch.json"
batch_body=$body
[ "$code" = 200 ] || { echo "batch: want 200, got $code: $batch_body"; exit 1; }
# The same image three times must yield the single-check verdict,
# byte-for-byte, three times.
n=$(grep -o -F "$check_body" <<<"$batch_body" | wc -l)
[ "$n" = 3 ] || { echo "batch verdicts differ from check verdict ($n/3 matched):"; \
    echo " check: $check_body"; echo " batch: $batch_body"; exit 1; }

echo "== malformed and wrong-shape bodies are rejected"
printf 'not json' >"$workdir/garbage.json"
post "$addr" /v1/check "$workdir/garbage.json"
[ "$code" = 400 ] || { echo "garbage: want 400, got $code"; exit 1; }
post "$addr" /v1/check "$workdir/badshape.json"
[ "$code" = 400 ] || { echo "badshape: want 400, got $code"; exit 1; }
grep -q 'model expects' <<<"$body" || { echo "badshape error unhelpful: $body"; exit 1; }

echo "== POST /v1/reload and SIGHUP hot-swap"
printf '{}' >"$workdir/empty.json"
post "$addr" /v1/reload "$workdir/empty.json"
[ "$code" = 200 ] || { echo "reload: want 200, got $code: $body"; exit 1; }
grep -q '"reloaded":true' <<<"$body" || { echo "reload body: $body"; exit 1; }
kill -HUP "$main_pid"
for _ in $(seq 1 50); do
    grep -q 'dvserve: reloaded' "$workdir/serve.stderr" && break
    sleep 0.1
done
grep -q 'dvserve: reloaded' "$workdir/serve.stderr" \
    || { cat "$workdir/serve.stderr"; echo "SIGHUP reload never logged"; exit 1; }
post "$addr" /v1/check "$workdir/check.json"
[ "$code" = 200 ] || { echo "post-reload check: want 200, got $code"; exit 1; }

echo "== scraping serving metrics"
metrics=$(curl -sf "http://$maddr/metrics")
for want in \
    'dv_serve_requests_total{endpoint="check"}' \
    'dv_serve_requests_total{endpoint="batch"}' \
    'dv_serve_batch_size_bucket' \
    'dv_serve_reload_total 2' \
    'dv_checked_total'; do
    # here-string, not a pipe: with pipefail, `echo | grep -q` can fail
    # on echo's EPIPE when grep exits at an early match
    grep -qF "$want" <<<"$metrics" || { echo "missing metric: $want"; echo "$metrics"; exit 1; }
done

echo "== overload sheds 429 + Retry-After (queue-depth 1, single worker)"
start_dvserve "$workdir/shed.stderr" \
    -queue-depth 1 -max-batch 1 -dispatch-workers 1 -workers 1 \
    -request-timeout 10s
# Eight keep-alive flood clients against a one-deep queue and one
# sequential worker: most requests must shed, some must still score.
flood() {
    local urls=()
    for _ in $(seq 1 100); do urls+=("http://$addr/v1/check"); done
    curl -s -o /dev/null -w '%{http_code}\n' -D "$workdir/shed.headers.$1" \
        -H 'Content-Type: application/json' --data-binary @"$workdir/check.json" \
        "${urls[@]}" >"$workdir/shed.codes.$1"
}
flood_pids=()
for i in $(seq 1 7); do flood "$i" & flood_pids+=("$!"); done
flood 8
for p in "${flood_pids[@]}"; do wait "$p"; done
cat "$workdir"/shed.codes.* >"$workdir/shed.codes"
grep -q '^429$' "$workdir/shed.codes" \
    || { echo "overloaded instance never shed 429"; sort "$workdir/shed.codes" | uniq -c; exit 1; }
grep -q '^200$' "$workdir/shed.codes" \
    || { echo "overloaded instance never answered 200"; sort "$workdir/shed.codes" | uniq -c; exit 1; }
grep -qi '^retry-after:' "$workdir"/shed.headers.* \
    || { echo "429 responses lack Retry-After"; exit 1; }
echo "   codes: $(grep -c '^200$' "$workdir/shed.codes" || true)x200, $(grep -c '^429$' "$workdir/shed.codes" || true)x429"

echo "== SIGTERM drains the in-flight request to a 200"
start_dvserve "$workdir/drain.stderr" -max-batch 8 -eps 0.5
drain_pid=$pid
# The ~1.6 KB body uploads at 500 bytes/s, so it is still arriving when
# SIGTERM lands. Admission checks for a drain only at handler entry, so
# the request is in flight: it must be answered, not dropped.
curl -sS --limit-rate 500 -o "$workdir/drain.body" -w '%{http_code}' \
    -H 'Content-Type: application/json' --data-binary @"$workdir/check.json" \
    "http://$addr/v1/check" >"$workdir/drain.code" &
curl_pid=$!
sleep 0.5
kill -TERM "$drain_pid"
wait "$curl_pid" || { echo "in-flight request failed during drain"; cat "$workdir/drain.stderr"; exit 1; }
[ "$(cat "$workdir/drain.code")" = 200 ] \
    || { echo "drained request: want 200, got $(cat "$workdir/drain.code")"; exit 1; }
grep -q -F "$check_body" "$workdir/drain.body" \
    || { echo "drained verdict differs: $(cat "$workdir/drain.body")"; exit 1; }
wait "$drain_pid" || { echo "dvserve exited non-zero after SIGTERM"; cat "$workdir/drain.stderr"; exit 1; }
grep -q 'drained cleanly' "$workdir/drain.stderr" \
    || { cat "$workdir/drain.stderr"; echo "no clean-drain log line"; exit 1; }

echo "serve smoke: OK"
