#!/usr/bin/env bash
# Builds lonad and the servebench load generator from this checkout, then
# runs one benchmark run. Run from the repository root:
#
#   bash servebench/run.sh --workload cold-read --seed 1 --seconds 36 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
go build -o "$out/lonad" ./cmd/lonad
(cd servebench && go build -o "$out/servebench" .)
sha=$(git rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/servebench" -lonad "$out/lonad" -workdir "$out/tmp" -git-sha "$sha" "$@"
