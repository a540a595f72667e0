#!/usr/bin/env bash
# Builds the campaign benchmark from the checkout this script sits in and
# runs it with the given arguments (see bench/README.md), e.g.
#
#   bash bench/run.sh --workload pqs --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files and the pager backend's database
# files all stay under .bench_build/ at the root of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=

# Build output goes to standard error: the last line of standard output is
# the benchmark's JSON result.
go build -C "$root/bench" -o "$build/bench" . >&2
exec "$build/bench" "$@"
