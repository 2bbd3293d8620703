#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload paper_oc3fo --seed 1 --seconds 50 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, scratch state and the
# span files of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
# The go command keeps its env file and telemetry counters under the user
# config directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
# Build with the installed toolchain and stdlib only: never download.
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# By default the Go runtime hands freed heap pages back to the kernel with
# MADV_DONTNEED, so an allocation-heavy op (evolve_churn allocates ~120 MB
# per op) faults them back in on every GC cycle. On a shared VM the cost of
# a fault follows the host's memory pressure, which made run-to-run times
# drift far more than the program does. MADV_FREE (madvdontneed=0) leaves
# the pages mapped until the kernel needs them and cuts those faults 15- to
# 40-fold (see README.md). A GODEBUG set by the caller comes later in the
# list and wins.
export GODEBUG="madvdontneed=0${GODEBUG:+,$GODEBUG}"
exec "$out/perfbench" "$@"
