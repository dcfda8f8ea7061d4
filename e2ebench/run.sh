#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload baat-jobs --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build in the checkout root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOTELEMETRY=off CGO_ENABLED=0
(cd "$here" && go build -o "$out/e2ebench" .)
cd "$root"
# The benchmark process hosts the simulator (and the daemon), so this
# runtime setting applies to the code under test: freed heap memory goes
# back to the kernel with MADV_FREE rather than MADV_DONTNEED. With
# MADV_DONTNEED every page the scavenger had returned faults in again when
# the heap regrows; on serve-fork that cost 0 to 50 ms of system time per
# served day, depending on when the scavenger last ran.
export GODEBUG=madvdontneed=0
exec "$out/e2ebench" --spans "$out/spans" "$@"
