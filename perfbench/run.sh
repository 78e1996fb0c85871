#!/usr/bin/env bash
# Builds the benchmark and the eigenpro server from this checkout's source,
# then runs the benchmark with the given arguments. Everything the build and
# the runs leave behind goes under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload train-mnist --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --all --trace 1
#   bash perfbench/run.sh --compare base.json new.json
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/bin/perfbench" ./cmd/perfbench) >&2
go build -o "$out/bin/eigenpro" ./cmd/eigenpro >&2
exec "$out/bin/perfbench" "$@"
