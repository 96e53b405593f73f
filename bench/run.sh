#!/bin/bash
# Build the benchmark once into the checkout's build directory, then run
# it. No arguments: every workload, the traced pass and the probes, with
# seed 1 (or `bench/run.sh 7` for seed 7). With flags: passed through, as
# in `bench/run.sh --workload gcc_compute --seed 3 --seconds 10 --trace 0`.
set -eu
dir="$(cd "$(dirname "$0")" && pwd)"
build="${dir}/../.bench_build"
case "${1:-}" in ''|*[!0-9]*) ;; *) set -- -seed "$1" ;; esac
GOCACHE="${build}/go-cache" go -C "${dir}" build -o "${build}/flukebench" . && exec "${build}/flukebench" -out "${dir}/out" "$@"
