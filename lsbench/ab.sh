#!/usr/bin/env bash
# Compares two commits on the benchmark, on this machine: both are
# checked out as git worktrees under a temporary directory, built with
# the current benchmark code, and run in alternating pairs. Run it from
# the repository root:
#
#   bash lsbench/ab.sh -base HEAD~1 -cand HEAD
#   bash lsbench/ab.sh -base main -cand HEAD -workloads cesca2-replay
#
# See ab/main.go for the verdicts.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/lsbench/go.mod" ]; then
	echo "ab.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/lsbench" && go build -o "$out/ab" ./ab) >&2
exec "$out/ab" "$@"
