#!/usr/bin/env bash
# unreached.sh — functions that no binary and no example reaches.
#
# ROADMAP item 16(b) deletes code that ships without a caller; this prints
# the candidates. It links every cmd/* and examples/* main package with
# inlining off (-gcflags=all=-l, so an inlined function keeps its symbol)
# and the linker's dependency dump (-ldflags=-dumpdep, every symbol the
# linker keeps), then lists each function declared in a non-test .go file
# of the module — outside internal/lint and cmd/cmfl-vet, whose analyzers
# are reached through cmfl-vet's registry tables — that no binary keeps:
# its line count, file:line and linker symbol, sorted by file and line. The
# last line is the count and the line total.
#
# CI's lint job holds the count on the last line to a ratchet: it may only
# fall. What it lists may be reached on purpose by tests, benchmarks or the
# root facade; whether to delete it, or to name the command that should
# reach it, is decided per function. A method the
# linker keeps because an interface might call it counts as reached.
#
# Usage:
#   scripts/unreached.sh
#
# Each binary is relinked (about a second each with a warm build cache).

set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C # join and sort must agree on the order

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Reached symbols, one per line: both ends of every dumpdep edge, with the
# linker's <annotations> and generic instantiations ([...]) dropped and a
# main package's "main." prefix replaced by its import path.
for dir in cmd/*/ examples/*/; do
	path="cmfl/${dir%/}"
	go build -o /dev/null -gcflags=all=-l -ldflags=-dumpdep "./$dir" 2>&1 >/dev/null |
		awk -F ' -> ' -v path="$path" 'NF == 2 {
			for (i = 1; i <= 2; i++) {
				s = $i
				sub(/ <.*/, "", s)
				while (match(s, /\[[^][]*\]/)) s = substr(s, 1, RSTART - 1) substr(s, RSTART + RLENGTH)
				if (s ~ /^main\./) s = path substr(s, 5)
				print s
			}
		}' >>"$tmp/reached"
done
sort -u -o "$tmp/reached" "$tmp/reached"

# Declared functions: "symbol<TAB>lines<TAB>file:line" for every func in the
# packages' compiled (non-test, this platform's) Go files.
go list -f '{{.ImportPath}}{{range .GoFiles}} {{$.Dir}}/{{.}}{{end}}' ./... |
	while read -r path files; do
		case "$path" in cmfl/internal/lint | cmfl/internal/lint/* | cmfl/cmd/cmfl-vet) continue ;; esac
		[[ -n "$files" ]] || continue
		# shellcheck disable=SC2086 # files is a space-separated list
		awk -v path="$path" -v root="$PWD/" '
			function flush() {
				if (sym != "") printf "%s\t%d\t%s:%d\n", sym, FNR0 - start + 1, file, start
				sym = ""
			}
			FNR == 1 { file = FILENAME; sub(root, "", file) }
			/^func / {
				line = $0
				recv = ""
				if (line ~ /^func \(/) {
					r = line; sub(/^func \(/, "", r); sub(/\).*/, "", r)
					n = split(r, parts, " "); t = parts[n]
					sub(/\[.*/, "", t)
					recv = (t ~ /^\*/) ? "(" t ")." : t "."
					sub(/^func \([^)]*\) /, "", line)
				} else {
					sub(/^func /, "", line)
				}
				name = line; sub(/[[(].*/, "", name)
				if (name == "init" || name == "_") next
				sym = path "." recv name; start = FNR
				if ($0 !~ /\{$/) { FNR0 = FNR; flush() }
				next
			}
			/^}/ { FNR0 = FNR; flush() }
		' $files
	done | sort -t '	' -k1,1 >"$tmp/declared"

join -t '	' -v 1 "$tmp/declared" "$tmp/reached" |
	awk -F '\t' '{ split($3, at, ":"); print at[1] "\t" at[2] "\t" $2 "\t" $1 }' |
	sort -t '	' -k1,1 -k2,2n |
	awk -F '\t' '{ printf "%5d  %-48s %s\n", $3, $1 ":" $2, $4; n++; lines += $3 }
		END { printf "%d functions, %d lines\n", n, lines }'
