#!/usr/bin/env bash
# Builds the designer-cycle benchmark from the checkout it is run in and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload checkin-small --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# in the current directory: the Go build cache, the binary, the state
# directories of each round (removed when the round ends) and, with
# --trace 1, the span dump.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)

rev=unknown
dirty=unknown
if git -C "$root" rev-parse --verify -q HEAD >/dev/null 2>&1; then
	rev=$(git -C "$root" rev-parse HEAD)
	if [ -z "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
		dirty=false
	else
		dirty=true
	fi
fi

exec "$out/perfbench" --out "$out" --rev "$rev" --dirty "$dirty" "$@"
