#!/usr/bin/env bash
# run.sh is the benchmark's single command (BENCHMARK.json "command"). From
# the root of a checkout it builds the harness and cmd/fabricnode from that
# checkout's source and runs the harness with the arguments it was given:
#
#   bash benchmark/run.sh --workload solo-uniform --seed 1 --seconds 20 --trace 0
#
# Everything it writes -- Go build and module caches, the two binaries, node
# logs and durable state -- stays under .bench_build/ in the checkout. Where
# the rest of the repository is missing the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-modcacherw

(cd "$here" && go build -o "$build/bin/" . fabricsharp/cmd/fabricnode)
exec "$build/bin/benchmark" -node-bin "$build/bin/fabricnode" -work-dir "$build/work" "$@"
