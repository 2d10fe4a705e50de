#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the driver's
# arguments. Everything the build writes — Go's build cache and the
# binary — stays under .bench_build at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/benchmark" .)
cd "$root"
exec "$out/benchmark" "$@"
