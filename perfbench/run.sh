#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload svc-decide --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays inside the checkout,
# under $CARGO_TARGET_DIR (default .bench_build): the Go build cache,
# the binary and the checkpoint scratch directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache
export GOMODCACHE=$out/gomodcache
export GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/work" "$@"
