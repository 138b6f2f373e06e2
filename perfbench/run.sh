#!/usr/bin/env bash
# Builds the benchmark program from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload tree-dna --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go toolchain's caches, temporary files
# and configuration live under .bench_build, so building reads and writes
# nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
(
	cd "$root/perfbench"
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
	export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off GOWORK=off
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
	go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
