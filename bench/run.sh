#!/usr/bin/env bash
# Builds the benchmark and the assocmined daemon from the checkout it is
# run in, then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash bench/run.sh --workload mine_t10 --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 1 -trace 1 -out .bench_build/set.json   # all four workloads
#   bash bench/run.sh compare bench/results/seed1-a.json bench/results/seed1-b.json
#
# Builds, the Go build cache and every file a run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/bench" && go build -o "$out/bin/bench" .)
go build -o "$out/bin/assocmined" ./cmd/assocmined

exec "$out/bin/bench" -daemon "$out/bin/assocmined" -workdir "$out/tmp" "$@"
