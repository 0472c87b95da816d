#!/usr/bin/env bash
# Builds the load generator (and, through it, bcserved and bcrouter) from the
# checkout this script lives in and runs it. Everything the build and the run
# write stays under <checkout>/.bench_build and <checkout>/bench/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/bin/bcload" .)
exec "$out/bin/bcload" -root "$root" "$@"
