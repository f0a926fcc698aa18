#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the repository root:
#
#   bash lsbench/run.sh --workload cesca2-replay --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every other file the toolchain
# writes stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/lsbench/go.mod" ]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
# -trimpath: the binary does not depend on where the checkout sits.
(cd "$root/lsbench" && go build -trimpath -o "$out/lsbench" .) >&2
exec "$out/lsbench" "$@"
