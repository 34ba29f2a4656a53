#!/usr/bin/env bash
# Builds the flow benchmark from the checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash flowbench/run.sh --workload tagged_abbe --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
(
	cd "$root/flowbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" \
		GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off \
		go build -buildvcs=false -o "$out/flowbench" .
) >&2
exec "$out/flowbench" "$@"
