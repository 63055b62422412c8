#!/usr/bin/env bash
# Builds the join benchmark from the sources of the checkout it is run
# from and runs it with the given arguments. Run it from the checkout's
# root:
#
#   bash joinbench/run.sh --workload paper-device --seed 1 --seconds 20 --trace 0
#
# Every build output and temporary file, the Go build cache included,
# stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build/joinbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOPATH="$out/go-path"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"

go -C "$bench" build -o "$out/joinbench" .
exec "$out/joinbench" "$@"
