#!/usr/bin/env bash
# run.sh builds the benchmark of record from the checkout it sits in and
# runs it with the given arguments. Run it from the root of the checkout:
#
#	bash benchrec/run.sh --workload flagship --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run touch stays under .bench_build in the
# checkout: the Go build cache, the binary and the benchmark's scratch
# directories. The build fails, and so does the run, in a directory that
# holds the benchmark without the suite's sources.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"

(cd "$root/benchrec" && go build -o "$out/benchrec" .)
exec "$out/benchrec" "$@"
