#!/usr/bin/env bash
# Builds the repository benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload trickle --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind (Go build cache, temporary files, binary, data directories, trace
# files) goes under .bench_build/ in the checkout. The build needs the
# module one directory up (replace cpa => ../), so outside a full checkout
# it fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
