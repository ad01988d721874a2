#!/usr/bin/env bash
# chaos_smoke.sh — end-to-end check of the fault-tolerant artifact
# layer against real binaries.
#
# Trains a model, fits a validator, then proves the failure model the
# repository promises: saved artifacts are checksummed containers; a
# crash injected between temp-file write and rename (DV_FAULT) fails
# the save loudly and leaves the previous artifact byte-identical; a
# corrupted validator makes every reload fail with 500 while the old
# detector keeps answering the exact same verdict; enough consecutive
# reload failures flip /readyz to degraded; restoring the artifact
# heals the instance; dvcheck and dvvalidate score refuse a validator
# fitted for another architecture with an error, not a panic. Used by
# `make smoke` and CI.
set -euo pipefail
source "$(dirname "$0")/lib.sh"
smoke_init chaos

echo "== building CLIs"
build dvtrain dvvalidate dvserve dvcheck

echo "== training a tiny model + validator"
train_fixture

echo "== saved artifacts are checksummed containers"
for f in model.gob validator.gob; do
    magic=$(head -c 8 "$workdir/$f")
    [ "$magic" = "DVARTFC1" ] || { echo "$f lacks the container magic (got '$magic')"; exit 1; }
done

echo "== a crash between write and rename leaves the old artifact intact"
cp "$workdir/validator.gob" "$workdir/validator.backup"
if DV_FAULT=artifact.rename "$workdir/dvvalidate" fit -model "$workdir/model.gob" \
    -dataset digits -train 400 -test 100 -max-per-class 40 -max-features 64 \
    -out "$workdir/validator.gob" >/dev/null 2>"$workdir/crash.stderr"; then
    echo "fit with the rename fault armed exited 0"; exit 1
fi
grep -q 'injected fault' "$workdir/crash.stderr" \
    || { cat "$workdir/crash.stderr"; echo "crash-leg error does not mention the injected fault"; exit 1; }
cmp -s "$workdir/validator.gob" "$workdir/validator.backup" \
    || { echo "failed save mutated the previous artifact"; exit 1; }
ls "$workdir"/validator.gob.tmp-* 2>/dev/null \
    && { echo "failed save left temp litter behind"; exit 1; }

write_images
printf '{}' >"$workdir/empty.json"

echo "== starting dvserve (reload-max-failures 3)"
start_dvserve "$workdir/serve.stderr" -metrics-addr 127.0.0.1:0 -eps 0.5 -reload-max-failures 3
maddr=$(await_addr "$workdir/serve.stderr" metrics "$pid")

post "$addr" /v1/check "$workdir/check.json"
good_verdict=$body
[ "$code" = 200 ] || { echo "baseline check: want 200, got $code: $body"; exit 1; }

echo "== corrupting the validator on disk (one byte, deep in the payload)"
size=$(wc -c <"$workdir/validator.gob")
off=$((size - 10))
orig=$(od -An -tu1 -j "$off" -N 1 "$workdir/validator.gob" | tr -d ' ')
printf "$(printf '\\x%02x' $(( (orig + 1) % 256 )))" \
    | dd of="$workdir/validator.gob" bs=1 seek="$off" conv=notrunc 2>/dev/null

echo "== every reload is rejected; the old detector keeps serving"
for i in 1 2 3; do
    post "$addr" /v1/reload "$workdir/empty.json"
    [ "$code" = 500 ] || { echo "reload $i of corrupt artifact: want 500, got $code: $body"; exit 1; }
    grep -q 'corrupt' <<<"$body" || { echo "reload error does not mention corruption: $body"; exit 1; }
    post "$addr" /v1/check "$workdir/check.json"
    [ "$code" = 200 ] || { echo "check after failed reload $i: want 200, got $code"; exit 1; }
    [ "$body" = "$good_verdict" ] \
        || { echo "verdict drifted after failed reload $i:"; echo " before: $good_verdict"; echo " after:  $body"; exit 1; }
done

echo "== after 3 consecutive failures /readyz is degraded (503)"
rz_code=$(curl -s -o "$workdir/readyz.out" -w '%{http_code}' "http://$addr/readyz")
[ "$rz_code" = 503 ] || { echo "degraded readyz: want 503, got $rz_code"; exit 1; }
grep -q 'degraded' "$workdir/readyz.out" \
    || { echo "readyz body lacks 'degraded': $(cat "$workdir/readyz.out")"; exit 1; }

echo "== reload-failure metrics are exported"
metrics=$(curl -sf "http://$maddr/metrics")
grep -qF 'dv_serve_reload_failed_total 3' <<<"$metrics" \
    || { echo "missing dv_serve_reload_failed_total 3"; grep reload <<<"$metrics" || true; exit 1; }
grep -qF 'dv_serve_reload_fail_streak 3' <<<"$metrics" \
    || { echo "missing dv_serve_reload_fail_streak 3"; grep reload <<<"$metrics" || true; exit 1; }

echo "== restoring the artifact heals the instance"
cp "$workdir/validator.backup" "$workdir/validator.gob"
post "$addr" /v1/reload "$workdir/empty.json"
[ "$code" = 200 ] || { echo "reload of restored artifact: want 200, got $code: $body"; exit 1; }
rz=$(curl -sf "http://$addr/readyz")
grep -q ready <<<"$rz" || { echo "readyz after recovery not ready: $rz"; exit 1; }
post "$addr" /v1/check "$workdir/check.json"
[ "$code" = 200 ] && [ "$body" = "$good_verdict" ] \
    || { echo "post-recovery verdict differs: $body"; exit 1; }

echo "== a validator fitted for another architecture is refused, not a panic"
"$workdir/dvtrain" -dataset digits -train 400 -test 100 -epochs 1 \
    -width 6 -fc 24 -out "$workdir/wide.gob" -quiet >/dev/null
{ printf 'P5\n28 28\n255\n'; head -c 784 /dev/zero; } >"$workdir/probe.pgm"
# refuses NAME CMD... — CMD must exit non-zero, naming the incompatible
# pair on stderr, without a panic.
refuses() {
    local name=$1
    shift
    if "$@" >/dev/null 2>"$workdir/$name.stderr"; then
        echo "$name accepted a mismatched model/validator pair"; exit 1
    fi
    if grep -q 'panic:' "$workdir/$name.stderr"; then
        cat "$workdir/$name.stderr"; echo "$name panicked on a mismatched pair"; exit 1
    fi
    grep -q 'not a compatible pair' "$workdir/$name.stderr" \
        || { cat "$workdir/$name.stderr"; echo "$name error does not name the incompatible pair"; exit 1; }
}
refuses dvcheck "$workdir/dvcheck" -model "$workdir/wide.gob" \
    -validator "$workdir/validator.gob" "$workdir/probe.pgm"
refuses dvvalidate "$workdir/dvvalidate" score -model "$workdir/wide.gob" \
    -validator "$workdir/validator.gob" -train 400 -test 100

echo "chaos smoke: OK"
