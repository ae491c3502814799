#!/usr/bin/env bash
# Builds the Garnet benchmark from source and runs it. Run from the root
# of a checkout:
#
#   bash garnetbench/run.sh --workload sensor_field --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the workloads' scratch files all live
# in .bench_build/ under the current directory.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [[ ! -f "$here/../go.mod" || ! -d "$here/../internal/core" ]]; then
	echo "garnetbench: the Garnet module is not in $here/.. ; run from a full checkout" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/garnetbench" .)
exec "$build/garnetbench" --workdir "$build" "$@"
