# lib.sh — the shared harness of the end-to-end smoke scripts.
#
# Sourced, never run: each scripts/*_smoke.sh sources it, calls
# smoke_init, and keeps only its own story — the flags it starts
# processes with, its requests and its assertions. Every helper fails
# the script (exit 1, with the evidence printed) rather than returning
# an error the caller could ignore.

# smoke_init NAME — cd to the repo root, create $workdir
# (/tmp/dv-NAME-smoke-XXXXXX) and an empty $pids, and install an EXIT
# trap that kills and reaps every pid in $pids before removing
# $workdir, so no process still writes into a directory being deleted.
smoke_init() {
    cd "$(dirname "${BASH_SOURCE[0]}")/.."
    workdir=$(mktemp -d "/tmp/dv-$1-smoke-XXXXXX")
    pids=()
    trap smoke_cleanup EXIT
}

smoke_cleanup() {
    local p
    for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
    for p in "${pids[@]:-}"; do wait "$p" 2>/dev/null || true; done
    rm -rf "$workdir"
}

# build [-race] CMD... — compile each ./cmd/CMD to $workdir/CMD, with
# the race detector when -race comes first.
build() {
    local race="" c
    if [ "$1" = -race ]; then race=-race; shift; fi
    for c in "$@"; do go build $race -o "$workdir/$c" "./cmd/$c"; done
}

# train_model — the shared tiny digits model, $workdir/model.gob.
train_model() {
    "$workdir/dvtrain" -dataset digits -train 400 -test 100 -epochs 6 \
        -width 4 -fc 16 -out "$workdir/model.gob" -quiet
}

# train_fixture — train_model plus the default validator fit,
# $workdir/validator.gob (it carries the drift reference), with the
# fit's stdout kept in $workdir/fit.out.
train_fixture() {
    train_model
    "$workdir/dvvalidate" fit -model "$workdir/model.gob" -dataset digits \
        -train 400 -test 100 -max-per-class 40 -max-features 64 \
        -out "$workdir/validator.gob" >"$workdir/fit.out"
}

# zeros N — N comma-separated zeros.
zeros() { seq "$1" | sed 's/.*/0/' | paste -sd, -; }

# write_images [N] — request bodies for the digits model (1x28x28 =
# 784 pixels): $workdir/check.json holds one zero image and
# $workdir/batch.json holds N copies of it (default 1).
write_images() {
    local img batch i
    img=$(printf '{"channels":1,"height":28,"width":28,"pixels":[%s]}' "$(zeros 784)")
    printf '%s' "$img" >"$workdir/check.json"
    batch=$img
    for ((i = 1; i < ${1:-1}; i++)); do batch="$batch,$img"; done
    printf '{"images":[%s]}' "$batch" >"$workdir/batch.json"
}

# poll_addr LOG PREFIX PID — print the address PID logged to LOG as
# "PREFIX: serving ... on http://HOST:PORT". Returns 1 after 10 s, or
# as soon as PID exits without having logged it.
poll_addr() {
    local log=$1 prefix=$2 pid=$3 addr
    for _ in $(seq 1 100); do
        addr=$(sed -n "s|^$prefix: serving .* on http://||p" "$log" | head -n1)
        [ -n "$addr" ] && { echo "$addr"; return 0; }
        kill -0 "$pid" 2>/dev/null || return 1
        sleep 0.1
    done
    return 1
}

# await_addr LOG PREFIX PID — poll_addr, but on failure print LOG and
# exit 1. Used as addr=$(await_addr ...), so the exit fails the
# assignment and set -e stops the script.
await_addr() {
    poll_addr "$@" && return 0
    cat "$1" >&2
    echo "never saw the $2 address (pid $3)" >&2
    exit 1
}

# start_dvserve LOG ARGS... — start dvserve on the fixture pair at an
# ephemeral port, stderr to LOG, and set $addr and $pid (appended to
# $pids). ARGS come last, so a -validator or -addr among them
# overrides the default (the flag package keeps the last value). A
# fixed -addr whose port a kill -9'd listener still holds is retried
# until the bind succeeds. DV_FAULT, when set, reaches the process.
start_dvserve() {
    local log=$1; shift
    for _ in $(seq 1 30); do
        "$workdir/dvserve" -model "$workdir/model.gob" -validator "$workdir/validator.gob" \
            -addr 127.0.0.1:0 "$@" 2>"$log" &
        pid=$!
        if addr=$(poll_addr "$log" dvserve "$pid"); then
            pids+=("$pid")
            return 0
        fi
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
        grep -q 'address already in use' "$log" || break
        sleep 0.2
    done
    cat "$log"
    echo "dvserve never served (log $log)"
    exit 1
}

# start_gateway LOG ARGS... — start dvgateway with ARGS on an
# ephemeral port, stderr to LOG, and set $gw_addr and $gw_pid
# (appended to $pids).
start_gateway() {
    local log=$1; shift
    "$workdir/dvgateway" -addr 127.0.0.1:0 "$@" 2>"$log" &
    gw_pid=$!
    pids+=("$gw_pid")
    gw_addr=$(await_addr "$log" dvgateway "$gw_pid")
}

# post HOST PATH BODYFILE [CURL_ARGS...] — POST BODYFILE as JSON to
# http://HOST/PATH; sets $code and $body.
post() {
    local host=$1 path=$2 bodyfile=$3; shift 3
    code=$(curl -sS -o "$workdir/resp.out" -w '%{http_code}' "$@" \
        -H 'Content-Type: application/json' --data-binary @"$bodyfile" "http://$host$path")
    body=$(cat "$workdir/resp.out")
}

# get HOST PATH — GET http://HOST/PATH; sets $code and $body.
get() {
    code=$(curl -sS -o "$workdir/resp.out" -w '%{http_code}' "http://$1$2")
    body=$(cat "$workdir/resp.out")
}

# wait_for DESC PREDICATE... — poll PREDICATE until it holds; after
# 10 s print DESC (and, once a gateway is up, its fleet view) and
# exit 1.
wait_for() {
    local desc=$1; shift
    for _ in $(seq 1 100); do
        "$@" && return 0
        sleep 0.1
    done
    echo "timeout waiting for: $desc"
    if [ -n "${gw_addr:-}" ]; then
        curl -sf "http://$gw_addr/admin/replicas" || true
        echo
    fi
    exit 1
}

# assert_no_races — fail if any process log ($workdir/*.stderr) of a
# -race binary holds a race report. A killed process never reports
# exit code 66, so its log is the only witness.
assert_no_races() {
    if grep -q 'WARNING: DATA RACE' "$workdir"/*.stderr; then
        grep -A40 'WARNING: DATA RACE' "$workdir"/*.stderr
        echo "data race reported in a process log"
        exit 1
    fi
}
