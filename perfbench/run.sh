#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload map-arbitrary --seed 1 --seconds 20 --trace 0
#
# Every build artifact (the Go build cache included) stays under
# .bench_build/ at the checkout root, so a run reads and writes nothing
# outside the checkout. The build fails, and the script exits non-zero
# without printing a result, when the repository sources are missing.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local CGO_ENABLED=0

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
