#!/bin/sh
# pgo.sh regenerates cmd/sitm-bench/default.pgo, the profile that
# `go build ./cmd/sitm-bench` applies (-pgo=auto) and that
# scripts/inline-pin.sh checks inlining against. It merges CPU profiles of
# Figures 1, 7 and 8 at one seed on one worker: together they cover the
# three engines' access, commit and conductor paths. Rerun it after a
# change that moves or renames hot functions, since the profile's
# call-site weights are keyed by function name and line offset.
#
#   scripts/pgo.sh
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/sitm-bench" ./cmd/sitm-bench
for fig in 1 7 8; do
	"$tmp/sitm-bench" -fig "$fig" -seeds 1 -workers 1 -cpuprofile "$tmp/fig$fig.pprof" >/dev/null
done
go tool pprof -proto "$tmp/fig1.pprof" "$tmp/fig7.pprof" "$tmp/fig8.pprof" >"$tmp/default.pgo"
mv "$tmp/default.pgo" cmd/sitm-bench/default.pgo
echo "pgo: wrote cmd/sitm-bench/default.pgo"
