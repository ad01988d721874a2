#!/usr/bin/env bash
# perf_smoke.sh — allocation-regression gate for scoring and fitting.
#
# Runs BenchmarkScoreBatch/workers=1 and BenchmarkFit/workers=1 with
# -benchmem at a smoke-length benchtime, at GOMAXPROCS 1, 2 and 4
# (-cpu 1,2,4), and compares every leg's bytes/op against the committed
# baseline in BENCH_pipeline.json (the workers=1 entry of the same
# name). Wall-clock timing is too noisy to gate on in shared CI, but
# bytes/op is deterministic for a fixed workload at any GOMAXPROCS: the
# forward arenas and scoring states come from bounded free lists that a
# GC does not empty. A jump means someone reintroduced per-call buffers
# or arenas (pre-arena, ScoreBatch allocated ~2700x more and Fit ~100x
# more). Fails when any leg exceeds 2x its baseline.
#
# Pass a worker list as $1 (e.g. "1 2 4") to also sweep multicore
# ScoreBatch legs — the nightly CI job does — though only workers=1 is
# gated on: at more workers the number of states in use at once depends
# on scheduling. Used by `make check` and CI.
set -euo pipefail

cd "$(dirname "$0")/.."

sweep=${1:-}
procs=1,2,4 # the -cpu list: every GOMAXPROCS leg is gated
IFS=, read -ra proc_legs <<< "$procs"

# gate NAME: bytes/op of BenchmarkNAME/workers=1 at every GOMAXPROCS in
# $procs must stay within 2x of the NAME workers=1 entry of
# BENCH_pipeline.json.
gate() {
    local name=$1
    # The file is json.MarshalIndent output, so every key sits on its
    # own line and the name/workers lines of an entry precede its
    # bytes_per_op line.
    local baseline
    baseline=$(awk -v want="$name" '
        /"name":/       { name = $2; gsub(/[",]/, "", name) }
        /"workers":/    { workers = $2; gsub(/,/, "", workers) }
        /"bytes_per_op":/ {
            if (name == want && workers == 1) {
                bytes = $2; gsub(/,/, "", bytes); print bytes; exit
            }
        }
    ' BENCH_pipeline.json)
    if [[ -z "$baseline" ]]; then
        echo "perf_smoke: no $name workers=1 entry in BENCH_pipeline.json" >&2
        exit 1
    fi
    echo "== committed baseline: $baseline bytes/op ($name, workers=1)"

    echo "== running Benchmark$name/workers=1 (-benchmem) at GOMAXPROCS $procs"
    local out lines line measured legs=0
    out=$(go test -bench "Benchmark$name\$/workers=1\$" -benchmem -benchtime 2x -cpu "$procs" -run '^$' -count 1 .)
    echo "$out"
    # At GOMAXPROCS P > 1 the result line's name carries a -P suffix.
    lines=$(echo "$out" | grep -E "^Benchmark$name/workers=1(-[0-9]+)?[[:space:]]" || true)
    local limit=$((baseline * 2))
    while read -r line; do
        [[ -z "$line" ]] && continue
        legs=$((legs + 1))
        measured=$(echo "$line" | awk '{ for (i = 2; i <= NF; i++) if ($i == "B/op") print $(i-1) }')
        if [[ -z "$measured" ]]; then
            echo "perf_smoke: could not parse B/op from: $line" >&2
            exit 1
        fi
        echo "== ${line%%[[:space:]]*}: measured $measured bytes/op (limit: ${limit}, 2x baseline)"
        if (( measured > limit )); then
            echo "perf_smoke: FAIL — ${line%%[[:space:]]*} allocates $measured bytes/op," >&2
            echo "perf_smoke: more than 2x the committed baseline of $baseline." >&2
            echo "perf_smoke: If the increase is intentional, refresh the snapshot (make snapshot)." >&2
            exit 1
        fi
    done <<< "$lines"
    if (( legs != ${#proc_legs[@]} )); then
        echo "perf_smoke: Benchmark$name produced $legs workers=1 result lines, want ${#proc_legs[@]} (GOMAXPROCS $procs)" >&2
        exit 1
    fi
    echo "perf_smoke: OK — $name bytes/op within 2x of the committed baseline at GOMAXPROCS $procs"
}

gate ScoreBatch
gate Fit

if [[ -n "$sweep" ]]; then
    echo "== multicore sweep (informational, not gated): workers $sweep"
    for w in $sweep; do
        go test -bench "BenchmarkScoreBatch\$/workers=${w}\$" -benchmem -benchtime 3x -run '^$' -count 1 . \
            | grep -E "^BenchmarkScoreBatch/workers=${w}|^ok|no tests" || true
    done
fi
