#!/usr/bin/env bash
# Builds fsbench from the source tree around it and runs it with the given
# flags, from the repository root:
#
#   bash bench/run.sh --workload fig14a --seed 1 --seconds 20 --trace 0
#
# The build cache, the go command's config and telemetry, the binary and
# fsbench's scratch files (CPU profiles) stay under .bench_build/ in the
# repository root. The build never fetches: the only module it needs is the
# simulator in the parent directory.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/fsbench" ./fsbench)
cd "$root"
exec "$out/fsbench" "$@"
