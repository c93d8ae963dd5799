#!/usr/bin/env bash
# Builds bivocbench into .bench_build/ of the checkout it is started from
# and runs it there with the given arguments. Everything the build and the
# run write (compiler cache, the go command's own configuration and
# counters, binary, temp data dirs, traces) stays under .bench_build/, so a
# checkout is left as it was apart from that directory.
set -euo pipefail
root=$PWD
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOWORK=off
(cd "$src" && go build -o "$out/bivocbench" .)
exec "$out/bivocbench" "$@"
