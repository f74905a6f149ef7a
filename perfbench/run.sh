#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload hot-hits --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, Go configuration)
# stays under .bench_build at the root of the tree. See perfbench/README.md.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"

go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
