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
#
# After the flat profile comes the same self time grouped by layer, by
# symbol prefix: the sim engine, net/RPC, the service (core), the
# oracles (serial checker and Verify), storage (WAL, kvstore, codec),
# the rest of the project, Stdlib.Hashtbl, the runtime's GC and
# allocation, polymorphic hash and compare, formatting, and the rest.
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
gprof -b -p "$exe" "$dir/gmon.out" > "$dir/flat.txt"
cat "$dir/flat.txt"

awk '
function layer(name) {
  if (name ~ /^camlMdds_serial__|^camlMdds_core__Verify/) return "oracles (serial, Verify)"
  if (name ~ /^camlMdds_sim__/) return "sim engine"
  if (name ~ /^camlMdds_net__/) return "net/RPC"
  if (name ~ /^camlMdds_core__/) return "service (core)"
  if (name ~ /^camlMdds_(wal|kvstore|codec)__/) return "wal/kvstore/codec"
  if (name ~ /^camlMdds_/) return "other project code"
  if (name ~ /^camlStdlib__Hashtbl/) return "Stdlib.Hashtbl"
  if (name ~ /^(caml_alloc|caml_make_vect|caml_create_|caml_floatarray_create|caml_(major|minor)_|caml_empty_minor|caml_oldify|oldify_|do_some_marking|mark_|pool_|caml_shared_|caml_darken|caml_modify|caml_call_gc|caml_garbage_collection|caml_gc_|large_alloc|link_pool_block|sweep|caml_free_gc|caml_do_opportunistic|alloc_size_class|spin_on_header|caml_check_pending|caml_set_action_pending|caml_do_pending)/) return "GC and allocation"
  if (name ~ /^(caml_hash|compare_val|do_compare|caml_compare|caml_equal|caml_notequal|caml_(less|greater)(than|equal))/) return "polymorphic hash and compare"
  if (name ~ /^(camlCamlinternalFormat|camlStdlib__Printf|camlStdlib__Format|caml_format_|caml_alloc_sprintf|parse_format)/) return "formatting"
  return "everything else"
}
BEGIN {
  n = split("sim engine|net/RPC|service (core)|oracles (serial, Verify)|wal/kvstore/codec|other project code|Stdlib.Hashtbl|GC and allocation|polymorphic hash and compare|formatting|everything else", order, "|")
}
$1 ~ /^[0-9.]+$/ && $2 ~ /^[0-9.]+$/ && $3 ~ /^[0-9.]+$/ && NF >= 4 {
  self[layer($NF)] += $3; total += $3
}
END {
  denom = (total > 0) ? total : 1
  print ""
  print "Self time by layer:"
  printf "  %-30s %8s %7s\n", "layer", "seconds", "%"
  for (i = 1; i <= n; i++)
    printf "  %-30s %8.2f %7.1f\n", order[i], self[order[i]], 100 * self[order[i]] / denom
  printf "  %-30s %8.2f\n", "total", total
}' "$dir/flat.txt"
