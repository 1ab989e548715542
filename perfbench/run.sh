#!/usr/bin/env bash
# Entry point of the end-to-end benchmark. Run it from the root of a
# prochecker checkout:
#
#   bash perfbench/run.sh --workload checkall-srsLTE --seed 1 --seconds 20 --trace 0
#
# It builds the prochecker CLI and the benchmark driver from the
# checkout's sources into .bench_build/ (Go build cache included, so
# nothing is written outside the checkout), then hands every argument to
# the driver, whose last line of output is the JSON result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/prochecker" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a prochecker checkout (go.mod, cmd/prochecker and perfbench/ must exist)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS= CGO_ENABLED=0

# Build into temporary names and rename, so an interrupted build never
# leaves a half-written binary behind.
go build -o "$out/bin/prochecker.tmp" ./cmd/prochecker
mv -f "$out/bin/prochecker.tmp" "$out/bin/prochecker"
(cd "$root/perfbench" && go build -o "$out/bin/perfbench.tmp" .)
mv -f "$out/bin/perfbench.tmp" "$out/bin/perfbench"

exec "$out/bin/perfbench" -root "$root" -cli "$out/bin/prochecker" "$@"
