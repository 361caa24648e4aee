#!/usr/bin/env bash
# Builds the benchmark and ffserved from the source tree it is run in, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload lfa_packet --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binaries, trace files) stays under
# .bench_build/ in the current directory. Outside a full source tree the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d internal || ! -d cmd/ffserved ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and cmd/ffserved/ are missing)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin" "$build/config"
# XDG_CONFIG_HOME keeps the go command's user config and telemetry in the
# checkout too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOFLAGS= GOTOOLCHAIN=local GOWORK=off

# The simulation workloads run with the same profile-guided build ffbench
# uses, so they measure the code users run.
pgo=off
if [[ -f cmd/ffbench/default.pgo ]]; then
	pgo="$root/cmd/ffbench/default.pgo"
fi
(cd perfbench && go build -pgo="$pgo" -o "$build/bin/perfbench" . && go build -o "$build/bin/ffserved" fastflex/cmd/ffserved) >&2

exec "$build/bin/perfbench" -ffserved "$build/bin/ffserved" -out "$build/perfbench" "$@"
