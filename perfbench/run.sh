#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload inproc-exact --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build in
# the checkout; nothing is fetched over the network.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
(cd perfbench && go build -o "$out/perfbench" .) >&2
commit=unknown
if [ -e .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
PERFBENCH_COMMIT="$commit" exec "$out/perfbench" "$@"
