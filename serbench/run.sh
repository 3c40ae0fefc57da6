#!/usr/bin/env bash
# Builds serbench from the checkout it is run in and runs it with the
# given arguments, e.g.
#
#   bash serbench/run.sh --workload serve-warm --seed 3 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files
# and the binary stay in .bench_build/ under that root. Build output
# goes to standard error, so the benchmark's last line of standard
# output is always its JSON result; a failed build prints nothing there
# and exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/serbench" && go build -o "$out/serbench" .) >&2
exec "$out/serbench" "$@"
