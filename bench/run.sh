#!/usr/bin/env bash
# Builds the benchmark harness from the checkout it sits in and runs it.
# Run from the repository root:
#
#   bash bench/run.sh --workload cgc-corpus --seed 0 --seconds 25 --trace 0
#   bash bench/run.sh compare base.jsonl change.jsonl
#
# The build cache, the harness binary and every temporary file stay
# under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/zbench" .)
exec "$out/zbench" "$@"
