#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload fattree8-cold --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run write —
# Go build cache, temporary files, the binary and the per-run result files —
# stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
bench="$root/perfbench"
build="$root/.bench_build"

if [[ ! -f "$root/go.mod" ]]; then
	echo "perfbench: no go.mod in $root; run from the repository root" >&2
	exit 2
fi

mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/mod"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off CGO_ENABLED=0

if ! go -C "$bench" build -buildvcs=false -o "$build/perfbench" . >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
commit=unknown
if [[ -e "$root/.git" ]]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$build/perfbench" -out "$build/out" -commit "$commit" "$@"
