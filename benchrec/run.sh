#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments (see benchrec/main.go). Run from the repository root:
#
#   bash benchrec/run.sh --workload s3-hammer --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build in the
# checkout (or $CARGO_TARGET_DIR when set); nothing is downloaded.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOPATH="$out/gopath"
(cd "$root/benchrec" && go build -o "$out/benchrec" .)
exec "$out/benchrec" --spans "$out/spans" "$@"
