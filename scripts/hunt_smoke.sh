#!/usr/bin/env bash
# hunt_smoke.sh — end-to-end check of the corner-case miner against
# real binaries.
#
# Trains a tiny model + validator (the validator carries the fit-time
# drift reference dvhunt's coverage map needs), runs a short
# coverage-guided hunt, and proves the promises the repository makes
# about it: the corpus directory holds checksummed escape artifacts
# plus a manifest and a per-composition escape-rate table; a fixed-seed
# hunt is byte-identical at a different -workers setting; replaying the
# corpus against the same detector reproduces every recorded verdict
# (-strict); dvbench writes the committed quick digits reproduction
# golden and merges the escape-rate table after it; dvbench rejects an
# unknown experiment id before it creates its cache; and the committed
# testdata/escapes corpus passes its replay regression test. Used by
# `make smoke` and CI.
set -euo pipefail
source "$(dirname "$0")/lib.sh"
smoke_init hunt

echo "== building CLIs"
build dvtrain dvvalidate dvhunt dvbench

echo "== training a tiny model + validator (with drift reference)"
train_fixture

hunt_flags=(-model "$workdir/model.gob" -validator "$workdir/validator.gob"
    -dataset digits -train 400 -test 100
    -seeds 16 -seed 7 -budget 1200 -batch 64 -fpr 0.1 -max-saved 8)

echo "== short coverage-guided hunt (fixed seed)"
"$workdir/dvhunt" "${hunt_flags[@]}" -workers 1 -telemetry \
    -out "$workdir/escapes" | tee "$workdir/hunt.out"

echo "== corpus layout: manifest, rates table, checksummed artifacts"
[ -f "$workdir/escapes/manifest.json" ] || { echo "no manifest written"; exit 1; }
[ -f "$workdir/escapes/rates.json" ] || { echo "no rates.json written"; exit 1; }
grep -q 'Escape rate' "$workdir/hunt.out" \
    || { echo "hunt output lacks the escape-rate table"; exit 1; }
grep -q 'dv_hunt_evals_total' "$workdir/hunt.out" \
    || { echo "hunt output lacks dv_hunt_* telemetry"; exit 1; }
saved=$(ls "$workdir/escapes"/escape-*.dvart 2>/dev/null | wc -l)
[ "$saved" -ge 1 ] || { echo "hunt persisted no escape artifacts"; exit 1; }
for f in "$workdir/escapes"/escape-*.dvart; do
    magic=$(head -c 8 "$f")
    [ "$magic" = "DVARTFC1" ] || { echo "$f lacks the container magic (got '$magic')"; exit 1; }
done
echo "   $saved escape artifacts"

echo "== same seed, different -workers: byte-identical corpus"
"$workdir/dvhunt" "${hunt_flags[@]}" -workers 4 -out "$workdir/escapes2" >/dev/null
diff -r "$workdir/escapes" "$workdir/escapes2" \
    || { echo "corpus differs between -workers 1 and -workers 4"; exit 1; }

echo "== strict replay against the same detector reproduces every verdict"
"$workdir/dvhunt" -model "$workdir/model.gob" -validator "$workdir/validator.gob" \
    -replay "$workdir/escapes" -strict -workers 2 | tee "$workdir/replay.out"
grep -q '0 verdicts diverged from manifest, 0 with transformed-pixel drift' "$workdir/replay.out" \
    || { echo "replay diverged from the mining run"; exit 1; }

echo "== dvbench writes the reproduction golden and merges the escape-rate table"
golden=internal/experiment/testdata/digits_quick.md
"$workdir/dvbench" -exp table3,table5,fig3,table6,table7,table8,fig4 \
    -scale quick -dataset digits -format markdown -quiet \
    -cache "$workdir/cache" -hunt "$workdir/escapes" >"$workdir/report.out"
head -c "$(wc -c <"$golden")" "$workdir/report.out" | cmp - "$golden" \
    || { echo "dvbench output does not begin with $golden"; exit 1; }
grep -q 'Detector-escape mining' "$workdir/report.out" \
    || { echo "dvbench output lacks the mining section"; exit 1; }
grep -q 'persisted escapes' "$workdir/report.out" \
    || { echo "dvbench output lacks the corpus summary"; exit 1; }

echo "== dvbench rejects an unknown experiment before creating its cache"
if "$workdir/dvbench" -exp bogus -cache "$workdir/bogus-cache" 2>/dev/null; then
    echo "dvbench accepted -exp bogus"; exit 1
fi
[ ! -e "$workdir/bogus-cache" ] || { echo "dvbench created -cache for a rejected run"; exit 1; }

echo "== committed escape corpus passes its replay regression test"
go test -run TestEscapeCorpusReplay -count=1 .

echo "hunt smoke: OK"
