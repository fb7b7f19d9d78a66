#!/usr/bin/env bash
# loc.sh — non-test, non-testdata Go lines per package.
#
# ROADMAP counts net-negative lines as a success metric; this prints the
# number it means: physical lines (wc -l) of every .go file that is not a
# _test.go file and not under a testdata/ directory, summed per package
# directory, with a total on the last line.
#
# Usage:
#   scripts/loc.sh                                   # whole module
#   scripts/loc.sh internal/fl internal/sim internal/emu   # these trees only
#
# Each argument is walked recursively (internal/emu includes
# internal/emu/shard). Paths are relative to the repository root.

set -euo pipefail
cd "$(dirname "$0")/.."

find "${@:-.}" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" {
		dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\//, "", dir)
		lines[dir] += $1; total += $1
	}
	END {
		for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d  total\n", total
	}'
