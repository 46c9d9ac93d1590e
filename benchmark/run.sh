#!/bin/sh
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments. Run it from the repository root:
#
#   sh benchmark/run.sh --workload micro --seed 1 --seconds 20 --trace 0
#
# The build uses the same profile-guided optimisation as sitm-bench, so a
# refreshed profile shows up in the numbers. Everything the toolchain and
# the benchmark write (build cache, binary, traces) stays in .bench_build/,
# and Go settings inherited from the environment are overridden.
set -eu

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GO111MODULE=on GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= CGO_ENABLED=0

go -C benchmark build -pgo=../cmd/sitm-bench/default.pgo -o "$out/sitm-benchmark" .
exec "$out/sitm-benchmark" "$@"
