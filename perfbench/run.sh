#!/usr/bin/env bash
# Builds the benchmark and vitexd from this checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1 [ticker rates]
#   bash perfbench/run.sh compare A.json B.json
#
# Binaries, the Go build cache, run records (.bench_build/results) and
# per-run scratch data stay under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root" && go build -o "$build/bin/vitexd" ./cmd/vitexd) >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
if [ "${1:-}" = compare ]; then
	exec "$build/bin/perfbench" "$@"
fi
exec "$build/bin/perfbench" --vitexd "$build/bin/vitexd" --work "$build/work" \
	--results "$build/results" "$@"
