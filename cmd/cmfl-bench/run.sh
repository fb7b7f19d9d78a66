#!/usr/bin/env bash
# run.sh — the command BENCHMARK.json names. It builds cmfl-bench from the
# checkout's own source and runs it with the driver's arguments
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Run it from the root of a checkout. Everything the build writes — the
# binary, Go's build cache, its module and config directories — goes under
# .bench_build/ in that checkout, so a run reads and writes nothing outside
# it (the Go toolchain itself excepted). In a directory without the
# repository's go.mod the script exits non-zero before it starts anything,
# without printing a result.
set -euo pipefail

if [[ ! -f go.mod ]]; then
	echo "cmfl-bench: no go.mod in $PWD: run from the root of a checkout of the repository" >&2
	exit 2
fi

build="$PWD/.bench_build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=

# With a fresh config directory the go command would start its telemetry
# child, a detached process that can outlive the build. Mode "off" stops the
# go command from starting it: every process of a run ends with the run.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/cmfl-bench" ./cmd/cmfl-bench
exec "$build/cmfl-bench" "$@"
