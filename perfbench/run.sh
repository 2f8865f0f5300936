#!/usr/bin/env bash
# Builds mmlpd and the benchmark program from source, then runs the
# program with the given arguments from the root of the checkout:
#
#   bash perfbench/run.sh --workload weights-firstseen --seed 1 --seconds 15 --trace 0
#
# Every build artefact, Go cache and temporary file stays under
# .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
  GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
  XDG_CACHE_HOME="$out/cache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go build -o "$out/bin/mmlpd" ./cmd/mmlpd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -mmlpd "$out/bin/mmlpd" -run-dir "$out/run" "$@"
