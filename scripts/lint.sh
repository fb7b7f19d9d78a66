#!/usr/bin/env bash
# lint.sh — run the full static-analysis gate locally, exactly as CI does.
#
# Three layers, cheapest first:
#   1. gofmt      — formatting drift,
#   2. go vet     — the stock toolchain checks,
#   3. cmfl-vet   — this repo's own analyzer suite (internal/lint): hot-path
#                   allocation freedom (transitively, via the call graph),
#                   deterministic aggregation order, the cmfl_* metric
#                   schema, discarded errors, float equality, goroutine and
#                   mutex discipline, seed-provenance taint, wire-protocol
#                   duality, enum exhaustiveness, and the baseline of the
#                   API an importer can reach.
#
# Usage:
#   scripts/lint.sh                  # whole module
#   scripts/lint.sh ./internal/fl    # restrict vet and cmfl-vet to some packages
#
# To run the gate automatically before every commit:
#   git config core.hooksPath .githooks
#
# cmfl-vet exits 1 on findings or a blown suppression budget, 2 on load
# errors; pass -json through `go run ./cmd/cmfl-vet -json ./...` when you
# want the machine-readable findings document instead. It reads the
# standard library from the export data go vet has just left in Go's build
# cache, so a whole-module run takes about half a second; -stats below
# shows the load and wall time and each analyzer's time, findings and
# subjects (the sites where its rule applied and held).

set -euo pipefail
cd "$(dirname "$0")/.."

PKGS=("${@:-./...}")

echo "== gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needs to be run on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet "${PKGS[@]}"

echo "== cmfl-vet"
go run ./cmd/cmfl-vet -stats -budget benchmarks/lint_budget.json "${PKGS[@]}"
