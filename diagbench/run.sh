#!/usr/bin/env bash
# Builds the diagnosis benchmark from the checkout's sources and runs it.
#
#   bash diagbench/run.sh --workload table2-enum --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# serving workload's journal live under $CARGO_TARGET_DIR (default
# .bench_build), so the run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config/go/telemetry" "$out/tmp"
# Telemetry off: in its default local mode the go command starts a
# background process that builds telemetry reports and outlives the build.
printf off >"$out/config/go/telemetry/mode"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(cd "$root/diagbench" && go build -o "$out/diagbench" .)

commit=unknown
if command -v git >/dev/null 2>&1; then
	commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

exec "$out/diagbench" --repo "$root" --workdir "$out/tmp" --commit "$commit" "$@"
