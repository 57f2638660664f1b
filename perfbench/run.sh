#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload broadcast --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build outputs (binary, Go build cache)
# and span files stay under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

# Keep the Go command's cache, module path, temporary files and config
# lookups inside the build directory, and never fetch a toolchain.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
