#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload ace-seq2 --seed 1 --seconds 20 --trace 0
# Build outputs, the Go cache and span traces stay under $CARGO_TARGET_DIR
# (default .bench_build) at the root of the tree.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
