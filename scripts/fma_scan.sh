#!/usr/bin/env bash
# Fails when any command, cross-built for linux/arm64, carries a fused
# multiply-add (FMADD/FMSUB/FNMADD/FNMSUB) in one of the repo's own
# functions (symbols under deepvalidation/).
#
# arm64, ppc64le, s390x and riscv64 may fuse x*y + z into one
# instruction that rounds once, so the same Go source would compute
# different bits there than on amd64, which never fuses. The Go spec
# forbids fusion across an explicit conversion: writing float64(x*y) + z
# rounds the product first, on every target. This scan proves no such
# conversion is missing. It needs only the installed toolchain: the
# binaries are built, disassembled with `go tool objdump` and never run.
#
#   scripts/fma_scan.sh
set -euo pipefail
cd "$(dirname "$0")/.."
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

GOOS=linux GOARCH=arm64 go build -o "$out/" ./cmd/...

fused='^FN?M(ADD|SUB)[DS]$'
status=0
for bin in "$out"/*; do
	name=$(basename "$bin")
	go tool objdump "$bin" >"$out/$name.dis"
	# A scan that matches nothing proves nothing: the runtime's own
	# arithmetic fuses (its pacer and its fast log2), so a disassembly
	# without a single fused instruction means this pattern no longer
	# matches objdump's output.
	if ! awk -v re="$fused" '$4 ~ re { found = 1; exit } END { exit !found }' "$out/$name.dis"; then
		echo "fma_scan: no fused instruction at all in $name; the pattern no longer matches objdump's output" >&2
		exit 2
	fi
	# objdump prints "TEXT symbol(SB) file" before each function, then
	# one "file.go:line address encoding OPCODE operands" per instruction.
	hits=$(awk -v re="$fused" '
		/^TEXT / { sym = $2; next }
		sym ~ /^deepvalidation\// && $4 ~ re { print "  " $1 "\t" $4 "\t" sym }
	' "$out/$name.dis" | sort -u)
	if [ -n "$hits" ]; then
		echo "fma_scan: $name has $(wc -l <<<"$hits") fused multiply-add sites in the repo's own code:"
		echo "$hits"
		status=1
	fi
done
if [ "$status" -eq 0 ]; then
	echo "fma_scan: no fused multiply-add in deepvalidation/ symbols of $(ls "$out" | grep -vc '\.dis$') arm64 binaries"
fi
exit "$status"
