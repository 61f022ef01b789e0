#!/bin/sh
# Flat CPU profile of one benchmark workload, by gprof's PC sampling.
#
# Usage, from the root of the repository:
#
#     scripts/profile.sh WORKLOAD [SEED]
#
# Builds bench_e2e/e2e.exe in the gprof profile (the root dune file links
# it with -pg) into _build_gprof, so _build/default is left alone. Runs
# one measured pass of WORKLOAD (ycsb-cp, open-batched, failover or
# cross-group) on SEED (default 1) and prints `gprof -b -p`: self time
# per symbol. OCaml frames get no call graph, and the program must not
# install its own SIGPROF handler, which the sampler needs.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: scripts/profile.sh WORKLOAD [SEED]" >&2
  exit 2
fi
workload=$1
seed=${2:-1}
root=$(pwd)

dune build --root . --profile gprof --build-dir _build_gprof ./bench_e2e/e2e.exe
exe=$root/_build_gprof/default/bench_e2e/e2e.exe

# gmon.out lands in the working directory of the profiled process.
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
(cd "$dir" && "$exe" --workload "$workload" --seed "$seed" --seconds 0 >&2)
gprof -b -p "$exe" "$dir/gmon.out"
