#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# executes it. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory (Go build cache, binary, stores, traces). The
# module resolves the system under test through a `replace repro => ../`
# directive, so outside a full checkout the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off

(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
