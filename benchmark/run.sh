#!/bin/sh
# Entry point named by BENCHMARK.json. It builds the benchmark from the
# checkout it is started in and runs it with the arguments it was given
# (--workload NAME --seed N --seconds S --trace 0|1). Everything the Go
# toolchain writes — build cache, temporary files, telemetry counters,
# binaries — stays under .bench_build/ in that checkout. `go run
# ./benchmark` is the same program for interactive use; it uses the
# user's own Go build cache instead.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
