#!/usr/bin/env bash
# bench.sh — run the hot-path benchmark suite and gate on regressions.
#
# Runs `go test -bench` over the compute-substrate packages, writes the
# results to benchmarks/latest.txt, and — when a committed
# benchmarks/baseline.txt exists — fails if any benchmark's ns/op regressed
# by more than BENCH_MAX_REGRESSION_PCT percent (default 10).
#
# Usage:
#   scripts/bench.sh                         # run + compare against baseline
#   BENCH_MAX_REGRESSION_PCT=25 scripts/bench.sh
#   BENCH_PKGS="./internal/tensor" scripts/bench.sh
#   scripts/bench-update.sh                  # promote latest.txt to baseline.txt
#
# Notes:
# - Comparison is name-by-name on ns/op; benchmarks present in only one of
#   the two files are reported but never fail the gate (so adding or
#   removing a benchmark does not require touching the baseline first).
# - Benchmark numbers are only comparable on similar hardware. CI runners
#   are noisy; keep the threshold loose there and tighten it locally.
# - The baseline was taken at GOMAXPROCS=1 (names without a -N suffix), except
#   BenchmarkConcurrentLocalRounds/mnist-cnn-2 and BenchmarkAggregatorFold-2:
#   those measure GOMAXPROCS trainers at once, or the merge of GOMAXPROCS
#   workers' partial sums, and say nothing on one core. Run with
#   GOMAXPROCS=1 to gate the rest by name, and with two cores to gate them
#   (not `-cpu 1,2`: the worker pool the trainers split products onto is
#   sized by the GOMAXPROCS of its first use, so a -2 run after a -1 run has
#   no workers).

set -euo pipefail
cd "$(dirname "$0")/.."

PKGS=${BENCH_PKGS:-"./internal/tensor ./internal/core ./internal/nn ./internal/fl ./internal/compress ./internal/emu/shard ./internal/emu ./internal/sim"}
MAX_PCT=${BENCH_MAX_REGRESSION_PCT:-10}
BENCH_RE=${BENCH_RE:-.}
OUT=benchmarks/latest.txt
BASE=benchmarks/baseline.txt

mkdir -p benchmarks

echo "running: go test -run '^$' -bench '$BENCH_RE' -benchmem $PKGS"
# shellcheck disable=SC2086
go test -run '^$' -bench "$BENCH_RE" -benchmem $PKGS | tee "$OUT.tmp"
grep -E '^Benchmark' "$OUT.tmp" > "$OUT" || {
    echo "bench.sh: no benchmark lines produced" >&2
    rm -f "$OUT.tmp"
    exit 1
}
rm -f "$OUT.tmp"
echo
echo "wrote $OUT ($(wc -l < "$OUT") benchmarks)"

if [[ ! -f "$BASE" ]]; then
    echo "no $BASE — skipping regression check."
    echo "promote this run with: scripts/bench-update.sh"
    exit 0
fi

echo "comparing against $BASE (fail above ${MAX_PCT}% ns/op regression)"
awk -v max="$MAX_PCT" '
    # Benchmark lines look like:
    #   BenchmarkName/case-8   123   45678 ns/op   90 B/op   1 allocs/op
    # $1 is the name (GOMAXPROCS suffix included), and "ns/op" follows its value.
    function nsop(line,    n, f, i) {
        n = split(line, f)
        for (i = 2; i <= n; i++) if (f[i] == "ns/op") return f[i-1] + 0
        return -1
    }
    NR == FNR { if (/^Benchmark/) base[$1] = nsop($0); next }
    /^Benchmark/ {
        cur = nsop($0)
        if (!($1 in base)) { printf "  new       %-55s %12.0f ns/op\n", $1, cur; next }
        old = base[$1]; seen[$1] = 1
        if (old <= 0 || cur < 0) next
        pct = 100 * (cur - old) / old
        mark = "ok"
        if (pct > max) { mark = "FAIL"; failed++ }
        printf "  %-9s %-55s %12.0f -> %12.0f ns/op  %+7.1f%%\n", mark, $1, old, cur, pct
    }
    END {
        for (b in base) if (!(b in seen)) printf "  removed   %s\n", b
        if (failed) {
            printf "\n%d benchmark(s) regressed more than %s%%\n", failed, max
            exit 1
        }
        print "\nall benchmarks within threshold"
    }
' "$BASE" "$OUT"
