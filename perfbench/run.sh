#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, from the
# root of the checkout:
#
#   bash perfbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache, the temporary database files and the
# span dumps all stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --dir "$out" "$@"
