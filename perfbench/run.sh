#!/usr/bin/env bash
# Builds the benchmark from source in the enclosing checkout and runs it.
# Every argument passes through to the benchmark binary, e.g.
#
#   bash perfbench/run.sh --workload spmd-euler3d-tcp --seed 1 --seconds 30 --trace 0
#
# The Go build cache, go's own config and telemetry files, the binary,
# checkpoints and span logs all stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/perfbench/tmp"
out=$(cd "$out/perfbench" && pwd)
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && XDG_CONFIG_HOME="$out/config" go build -o "$out/perfbench" .)
exec "$out/perfbench" -work "$out/work" "$@"
