#!/usr/bin/env bash
# Builds the repository benchmark from the checkout's sources and runs
# it with the given flags, e.g.
#
#   bash perfbench/run.sh --workload tvla-o1 --seed 1 --seconds 36 --trace 0
#   bash perfbench/run.sh --workload all
#
# Run from the repository root. Build products, the Go build cache and
# traced-run artifacts (spans, CPU profiles) stay under .bench_build/.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

sha=unknown
if [[ -d "$root/.git" ]]; then
	sha="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --git-sha "$sha" --out-dir "$out" "$@"
