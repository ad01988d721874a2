#!/usr/bin/env bash
# Runs benchmark workloads on consecutive seeds and prints, per workload
# and metric, the median, the quartiles and the quartile spread as a
# share of the median, computed with Python's
# statistics.quantiles(values, n=4). The bounds in BENCHMARK.json are set
# from these spreads; a spread above a third of its bound is marked.
#
#   bash bench/spread.sh [-n runs] [-s first-seed] [-t seconds] [-T 0|1] [workload...]
#
# Defaults: 10 runs from seed 1, BENCHMARK.json's run_seconds, untraced
# (-T 1 reports the per-layer metrics instead), every workload. Each
# run's summary line is kept in .bench_build/spread/<workload>.jsonl and
# its log in <workload>.log.
set -euo pipefail
cd "$(dirname "$0")/.."
runs=10 seed=1 trace=0
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
while getopts n:s:t:T: opt; do
  case $opt in
    n) runs=$OPTARG ;;
    s) seed=$OPTARG ;;
    t) seconds=$OPTARG ;;
    T) trace=$OPTARG ;;
    *) exit 2 ;;
  esac
done
shift $((OPTIND - 1))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi
out=.bench_build/spread
mkdir -p "$out"
for w in "${workloads[@]}"; do
  : >"$out/$w.jsonl"
  : >"$out/$w.log"
  for ((i = 0; i < runs; i++)); do
    s=$((seed + i))
    if line=$(bash bench/run.sh -workload "$w" -seed "$s" -seconds "$seconds" -trace "$trace" 2>>"$out/$w.log" | tail -n 1); then
      echo "$line" >>"$out/$w.jsonl"
    else
      echo "spread: $w seed $s failed; see $out/$w.log" >&2
    fi
  done
done
python3 - "$out" "${workloads[@]}" <<'EOF'
import json, statistics, sys

out, workloads = sys.argv[1], sys.argv[2:]
bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
print(f"{'workload':14} {'metric':38} {'runs':>4} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
for w in workloads:
    rows = [json.loads(l) for l in open(f"{out}/{w}.jsonl") if l.strip()]
    bad = [r for r in rows if not r["correct"] or r["failed"]]
    if bad:
        print(f"{w}: {len(bad)} of {len(rows)} runs were incorrect or had failed operations")
    if not rows:
        continue
    for name in rows[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in rows]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        mark = " *" if bound is not None and name != "setup_s" and spread > bound / 3 else ""
        bstr = f"{bound:.0%}" if bound is not None else ""
        print(f"{w:14} {name:38} {len(vals):4d} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} {bstr:>6}{mark}")
EOF
