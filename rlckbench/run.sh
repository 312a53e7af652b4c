#!/usr/bin/env bash
# Builds rlckit's benchmark and the rlckitd daemon from the source tree
# in the current directory, then runs the benchmark with the given
# arguments:
#
#   bash rlckbench/run.sh --workload serve-hot --seed 1 --seconds 16 --trace 0
#
# Run it from the repository root. Build outputs (and the Go build
# cache) go to .bench_build/ under that root.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/rlckitd || ! -f rlckbench/go.mod ]]; then
	echo "rlckbench: run from the root of an rlckit source tree (go.mod, cmd/rlckitd and rlckbench/ not found here)" >&2
	exit 2
fi

# The Go toolchain's standard install location, if go is not on PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# Everything the toolchain writes (build cache, telemetry counters under
# the config directory, temporary build directories) stays under
# .bench_build.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$out/rlckitd" ./cmd/rlckitd
go -C rlckbench build -o "$out/rlckbench" .
exec "$out/rlckbench" -rlckitd "$out/rlckitd" -out "$out/trace" "$@"
