#!/usr/bin/env bash
# Builds engarde-gatewayd, engarde-router and the perfbench generator from
# the checkout this script sits in, then runs the generator with the
# arguments given. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold-mixed --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and run artefact stays under .bench_build/ in
# the repository root.
set -euo pipefail

root=$(pwd)
for need in go.mod cmd/engarde-gatewayd cmd/engarde-router perfbench/go.mod; do
	if [ ! -e "$root/$need" ]; then
		echo "perfbench: $root/$need not found; run this from the root of an EnGarde checkout" >&2
		exit 1
	fi
done

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off CGO_ENABLED=0
# With telemetry on (its default mode is "local"), the go command forks a
# detached child that outlives it. "off" keeps every go command to one
# process that this script waits for.
echo off > "$out/config/go/telemetry/mode"

go build -o "$out/bin/" ./cmd/engarde-gatewayd ./cmd/engarde-router
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" "$@"
