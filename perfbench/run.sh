#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root, for example:
#
#   bash perfbench/run.sh --workload batch-bounded-n5 --seed 1 --seconds 38 --trace 0
#
# The Go build cache, GOPATH and toolchain state are kept under
# .bench_build in the current directory, so a run writes nowhere else;
# traced runs write their span log and layer table under .bench_out.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$root/.bench_out" "$@"
