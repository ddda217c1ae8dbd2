#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root,
# then runs it from the root with the given arguments, e.g.
#
#   bash bench/run.sh --workload paper_run --seed 1 --seconds 10 --trace 0
#
# The Go build cache lives in .bench_build/ too, so nothing is written
# outside the checkout. The toolchain is the local one; nothing is fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/bench" && go build -buildvcs=false -o "$build/bench" .) >&2
cd "$root"
exec "$build/bench" "$@"
