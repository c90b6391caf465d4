#!/usr/bin/env bash
# Builds the FTGM benchmark from the sources of the checkout it sits in and
# runs it. Every build artefact (binary, Go build cache, temp files) stays
# under .bench_build/ at the checkout root; nothing is downloaded.
#
#   bash ftbench/run.sh --workload pair_stream --seed 1 --seconds 15 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/ftbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$here" && go build -o "$out/ftbench.new" .)
mv -f "$out/ftbench.new" "$out/ftbench"
cd "$root"
exec "$out/ftbench" "$@"
