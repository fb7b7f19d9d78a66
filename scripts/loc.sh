#!/usr/bin/env bash
# loc.sh — non-test, non-testdata Go and assembly lines per package.
#
# ROADMAP counts net-negative lines as a success metric; this prints the
# numbers it means: physical lines (wc -l) of every .go file that is not a
# _test.go file and not under a testdata/ directory, and of every .s file,
# summed per package directory, Go first and assembly second, with the
# totals on the last line.
#
# Usage:
#   scripts/loc.sh                                   # whole module
#   scripts/loc.sh internal/fl internal/sim internal/emu   # these trees only
#
# Each argument is walked recursively (internal/emu includes
# internal/emu/shard). Paths are relative to the repository root.

set -euo pipefail
cd "$(dirname "$0")/.."

find "${@:-.}" \( -name '*.go' ! -name '*_test.go' -o -name '*.s' \) ! -path '*/testdata/*' ! -path './.bench_build/*' -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" {
		dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\//, "", dir)
		if ($2 ~ /\.s$/) { asm[dir] += $1; asmTotal += $1 } else { lines[dir] += $1; total += $1 }
		seen[dir] = 1
	}
	END {
		printf "%7s  %5s  %s\n", "go", "asm", "package"
		for (d in seen) printf "%7d  %5d  %s\n", lines[d], asm[d], d | "sort -k3"
		close("sort -k3")
		printf "%7d  %5d  total\n", total, asmTotal
	}'
