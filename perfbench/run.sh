#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments:
#
#   bash perfbench/run.sh --workload paper-mem --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root.  Everything it builds or writes stays
# under .perfbench/ in that directory.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
work="$PWD/.perfbench"
mkdir -p "$work/tmp"
# Keep the toolchain's caches and temporary files inside the checkout.
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" GOPATH="$work/gopath"
export XDG_CONFIG_HOME="$work/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$work/perfbench" .) >&2
exec "$work/perfbench" "$@"
