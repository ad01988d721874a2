#!/usr/bin/env bash
# perf_smoke.sh — allocation-regression gate for scoring and fitting.
#
# Runs BenchmarkScoreBatch/workers=1 and BenchmarkFit/workers=1 with
# -benchmem at a smoke-length benchtime and compares each measured
# bytes/op against its committed baseline in BENCH_pipeline.json (the
# workers=1 entry of the same name). Wall-clock timing is too noisy to
# gate on in shared CI, but bytes/op is deterministic for a fixed
# workload: a jump means someone reintroduced per-call buffers that the
# scratch arenas removed (pre-arena, ScoreBatch allocated ~2700x more
# and Fit ~100x more). Fails when either exceeds 2x its baseline.
#
# Pass a worker list as $1 (e.g. "1 2 4") to also sweep multicore
# ScoreBatch legs — the nightly CI job does — though only workers=1 is
# gated on. Used by `make check` and CI.
set -euo pipefail

cd "$(dirname "$0")/.."

sweep=${1:-}

# gate NAME: bytes/op of BenchmarkNAME/workers=1 must stay within 2x of
# the NAME workers=1 entry of BENCH_pipeline.json.
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

    echo "== running Benchmark$name/workers=1 (-benchmem)"
    local out line measured
    out=$(go test -bench "Benchmark$name\$/workers=1\$" -benchmem -benchtime 2x -run '^$' -count 1 .)
    echo "$out"
    line=$(echo "$out" | grep -E "^Benchmark$name/workers=1" || true)
    if [[ -z "$line" ]]; then
        echo "perf_smoke: Benchmark$name produced no workers=1 result line" >&2
        exit 1
    fi
    measured=$(echo "$line" | awk '{ for (i = 2; i <= NF; i++) if ($i == "B/op") print $(i-1) }')
    if [[ -z "$measured" ]]; then
        echo "perf_smoke: could not parse B/op from: $line" >&2
        exit 1
    fi

    local limit=$((baseline * 2))
    echo "== measured $measured bytes/op (limit: ${limit}, 2x baseline)"
    if (( measured > limit )); then
        echo "perf_smoke: FAIL — $name workers=1 allocates $measured bytes/op," >&2
        echo "perf_smoke: more than 2x the committed baseline of $baseline." >&2
        echo "perf_smoke: If the increase is intentional, refresh the snapshot (make snapshot)." >&2
        exit 1
    fi
    echo "perf_smoke: OK — $name bytes/op within 2x of the committed baseline"
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
