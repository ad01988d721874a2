#!/usr/bin/env bash
# gateway_smoke.sh — end-to-end check of the fleet gateway subsystem.
#
# Builds a race-instrumented dvserve + dvgateway, trains a tiny model
# with two distinct validators, and drives a real 2-replica fleet over
# HTTP: rendezvous routing must answer 200s across distinct keys, a
# kill -9'd replica must drain out of rotation with zero client 5xx
# once the drain settles, the restarted replica must reinstate, a
# corrupt staged artifact must be refused before any replica is
# touched, a rollout whose reload fails on replica 2 must halt and
# automatically roll replica 1 back to the prior artifact (on disk and
# in the fleet view), and the healed fleet must converge a retried
# rollout on the staged checksum. Finally no process log may hold a
# race report. Used by `make smoke` and CI.
set -euo pipefail
source "$(dirname "$0")/lib.sh"
smoke_init gateway

echo "== building CLIs (dvserve and dvgateway race-instrumented)"
build dvtrain dvvalidate
build -race dvserve dvgateway

echo "== training a tiny model + two distinct validators"
train_fixture
# A different SVM sample budget yields a payload-distinct (but
# compatible) validator — the staged rollout target.
"$workdir/dvvalidate" fit -model "$workdir/model.gob" -dataset digits \
    -train 400 -test 100 -max-per-class 24 -max-features 64 \
    -out "$workdir/validator-v2.gob" >/dev/null
cmp -s "$workdir/validator.gob" "$workdir/validator-v2.gob" \
    && { echo "v1 and v2 validators are byte-identical; rollout would be a no-op"; exit 1; }

mkdir -p "$workdir/r1" "$workdir/r2"
cp "$workdir/validator.gob" "$workdir/r1/validator.gob"
cp "$workdir/validator.gob" "$workdir/r2/validator.gob"
write_images

# start_replica NAME LOG [ARGS...] — a dvserve replica serving NAME's
# validator copy; sets $addr and $pid.
start_replica() {
    local name=$1 log=$2; shift 2
    start_dvserve "$log" -validator "$workdir/$name/validator.gob" -eps 0.5 "$@"
}

replicas_json() { curl -sf "http://$gw_addr/admin/replicas"; }

in_rotation_is() { grep -q "\"in_rotation\":$1," <<<"$(replicas_json)"; }
has_state() { grep -q "\"state\":\"$1\"" <<<"$(replicas_json)"; }
sha_count_is() { # sha_count_is SHA N — N replicas report validator SHA
    local n
    n=$(grep -o "\"validator_sha256\":\"$1\"" <<<"$(replicas_json)" | wc -l)
    [ "$n" = "$2" ]
}

echo "== starting 2 dvserve replicas + dvgateway"
start_replica r1 "$workdir/r1.stderr"
r1_addr=$addr
start_replica r2 "$workdir/r2.stderr"
r2_pid=$pid r2_addr=$addr
start_gateway "$workdir/gw.stderr" \
    -replica "r1@$r1_addr=$workdir/r1/validator.gob" \
    -replica "r2@$r2_addr=$workdir/r2/validator.gob" \
    -probe-interval 100ms -drain-after 2 -reinstate-after 2 \
    -reprobe-backoff 100ms -reprobe-backoff-cap 500ms
echo "   r1:      http://$r1_addr"
echo "   r2:      http://$r2_addr"
echo "   gateway: http://$gw_addr"

echo "== routing across the healthy fleet"
wait_for "2 replicas in rotation" in_rotation_is 2
for i in $(seq 1 8); do
    post "$gw_addr" /v1/check "$workdir/check.json" -H "X-DV-Trace-Id: trace-$i"
    [ "$code" = 200 ] || { echo "routed check trace-$i: want 200, got $code: $body"; exit 1; }
done
grep -q '"label"' <<<"$body" || { echo "check body lacks label: $body"; exit 1; }
v1_sha=$(grep -o '"validator_sha256":"[0-9a-f]*"' <<<"$(replicas_json)" | head -n1 | cut -d'"' -f4)
[ -n "$v1_sha" ] || { echo "fleet view lacks validator checksums"; replicas_json; exit 1; }
sha_count_is "$v1_sha" 2 || { echo "replicas disagree on the v1 checksum"; replicas_json; exit 1; }
echo "   fleet on validator $(cut -c1-12 <<<"$v1_sha")…"

echo "== kill -9 one replica: it must drain, clients must see zero 5xx"
kill -9 "$r2_pid"
wait "$r2_pid" 2>/dev/null || true
# Route-path failures plus probes feed the health machine; the victim's
# failure streak drains it out of rotation within a couple of probes.
for i in $(seq 1 20); do
    post "$gw_addr" /v1/check "$workdir/check.json" -H "X-DV-Trace-Id: kill-$i" || true
done
wait_for "victim replica drained" has_state drained
wait_for "1 replica in rotation" in_rotation_is 1
# Settled: every request must answer 200 — the drained replica takes
# no traffic, so not a single client-visible 5xx is acceptable.
for i in $(seq 1 20); do
    post "$gw_addr" /v1/check "$workdir/check.json" -H "X-DV-Trace-Id: settled-$i"
    [ "$code" = 200 ] || { echo "post-drain check settled-$i: want 200, got $code: $body"; exit 1; }
done
echo "   drained; 20/20 settled requests answered 200"

echo "== restart the replica: the success streak reinstates it"
start_replica r2 "$workdir/r2-back.stderr" -addr "$r2_addr"
r2_pid=$pid
wait_for "2 replicas in rotation" in_rotation_is 2
post "$gw_addr" /v1/check "$workdir/check.json" -H "X-DV-Trace-Id: reinstated"
[ "$code" = 200 ] || { echo "post-reinstate check: want 200, got $code"; exit 1; }

echo "== corrupt staged artifact is refused before touching any replica"
cp "$workdir/validator-v2.gob" "$workdir/corrupt.gob"
printf 'XX' | dd of="$workdir/corrupt.gob" bs=1 seek=200 conv=notrunc 2>/dev/null
printf '{"artifact":"%s"}' "$workdir/corrupt.gob" >"$workdir/rollout-corrupt.json"
post "$gw_addr" /admin/rollout "$workdir/rollout-corrupt.json"
[ "$code" = 400 ] || { echo "corrupt rollout: want 400, got $code: $body"; exit 1; }
sha_count_is "$v1_sha" 2 || { echo "refused rollout changed the fleet view"; replicas_json; exit 1; }
cmp -s "$workdir/r1/validator.gob" "$workdir/validator.gob" \
    || { echo "refused rollout touched r1's disk artifact"; exit 1; }

echo "== rollout halts on a reload-failing replica and rolls back"
# Re-arm replica 2 with an always-failing reload point: the staged
# switch succeeds on r1, exhausts every reload retry on r2, halts, and
# must roll r1 back to the prior artifact automatically.
kill -9 "$r2_pid"
wait "$r2_pid" 2>/dev/null || true
DV_FAULT=serve.reload start_replica r2 "$workdir/r2-fault.stderr" -addr "$r2_addr"
r2_pid=$pid
wait_for "2 replicas in rotation" in_rotation_is 2
printf '{"artifact":"%s"}' "$workdir/validator-v2.gob" >"$workdir/rollout.json"
post "$gw_addr" /admin/rollout "$workdir/rollout.json"
[ "$code" = 500 ] || { echo "halted rollout: want 500, got $code: $body"; exit 1; }
grep -q 'rolled back' <<<"$body" || { echo "halted rollout not rolled back: $body"; exit 1; }
grep -q '"rolled_back":true' <<<"$body" || { echo "no replica reports rolled_back: $body"; exit 1; }
cmp -s "$workdir/r1/validator.gob" "$workdir/validator.gob" \
    || { echo "r1 disk artifact not restored after rollback"; exit 1; }
cmp -s "$workdir/r2/validator.gob" "$workdir/validator.gob" \
    || { echo "r2 disk artifact not restored after rollback"; exit 1; }
wait_for "fleet view back on v1" sha_count_is "$v1_sha" 2
echo "   halted on r2, rolled r1 back; every replica on the prior SHA"

echo "== healed fleet converges the retried rollout"
kill -9 "$r2_pid"
wait "$r2_pid" 2>/dev/null || true
start_replica r2 "$workdir/r2-heal.stderr" -addr "$r2_addr"
r2_pid=$pid
wait_for "2 replicas in rotation" in_rotation_is 2
post "$gw_addr" /admin/rollout "$workdir/rollout.json"
[ "$code" = 200 ] || { echo "retried rollout: want 200, got $code: $body"; exit 1; }
grep -q '"completed":true' <<<"$body" || { echo "retried rollout incomplete: $body"; exit 1; }
target_sha=$(grep -o '"target_sha256":"[0-9a-f]*"' <<<"$body" | head -n1 | cut -d'"' -f4)
[ -n "$target_sha" ] && [ "$target_sha" != "$v1_sha" ] \
    || { echo "rollout target checksum missing or unchanged: $body"; exit 1; }
wait_for "fleet view converged on the target" sha_count_is "$target_sha" 2
cmp -s "$workdir/r1/validator.gob" "$workdir/validator-v2.gob" \
    || { echo "r1 disk artifact is not the staged v2"; exit 1; }
cmp -s "$workdir/r2/validator.gob" "$workdir/validator-v2.gob" \
    || { echo "r2 disk artifact is not the staged v2"; exit 1; }
post "$gw_addr" /v1/check "$workdir/check.json" -H "X-DV-Trace-Id: converged"
[ "$code" = 200 ] || { echo "post-rollout check: want 200, got $code"; exit 1; }
echo "   converged on $(cut -c1-12 <<<"$target_sha")…"

echo "== SIGTERM drains the gateway cleanly"
kill -TERM "$gw_pid"
wait "$gw_pid" || { echo "dvgateway exited non-zero after SIGTERM"; cat "$workdir/gw.stderr"; exit 1; }
grep -q 'drained cleanly' "$workdir/gw.stderr" \
    || { cat "$workdir/gw.stderr"; echo "no clean-drain log line"; exit 1; }

assert_no_races

echo "gateway smoke: OK"
