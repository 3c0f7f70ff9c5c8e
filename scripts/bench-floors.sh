#!/usr/bin/env bash
# Four collapse floors over one traced run of the repo benchmark:
#
#   bash benchmark/run.sh --seconds 2 --trace 1 | tee run.log
#   scripts/bench-floors.sh run.log .bench_build/out
#
# Generous on purpose: each catches a mechanism collapsing — the step
# boundary going serial, the WAL tee halving ingest, a fanned-out step
# losing to the sequential loop, matmult's initial puts building a tuple
# per operand cell again — not run-to-run noise; a performance claim
# is ten paired runs (benchmark/README.md), not this. Exits 1 naming every
# row past its floor; a row that is missing counts as past it.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 <run.log> <trace-dir>" >&2; exit 2; }
log=$1 traces=$2

max_boundary_frac=0.95 # core.boundary_frac@pvwatts, 0.41 on 2 vCPU
min_wal_ratio=0.5      # wal.on_over_off@serve-saturate, 0.66-0.68
min_fanout_gain=1.0    # exec.sequential_s / exec.auto_s @matmult, 1.5
max_matmult_allocs=50  # runtime.allocs_per_tuple@matmult, 2.4 (960 with a tuple per cell)

failed=0

# row <workload> <metric>: that row's value in run.log, empty if absent.
row() { awk -v w="$1" -v m="$2" '$1 == w && $2 == m { print $3; exit }' "$log"; }

# check <name> <value> <op> <bound>
check() {
  if [ -z "$2" ] || [ "$2" = null ]; then
    echo "FAIL $1: row missing"
    failed=1
  elif awk -v v="$2" -v b="$4" "BEGIN { exit !(v $3 b) }"; then
    echo "ok   $1 = $2 ($3 $4)"
  else
    echo "FAIL $1 = $2, want $3 $4"
    failed=1
  fi
}

check core.boundary_frac@pvwatts "$(row pvwatts core.boundary_frac)" '<=' "$max_boundary_frac"
check wal.on_over_off@serve-saturate "$(row serve-saturate wal.on_over_off)" '>=' "$min_wal_ratio"
check runtime.allocs_per_tuple@matmult "$(row matmult runtime.allocs_per_tuple)" '<=' "$max_matmult_allocs"

# The strategy rows are in the trace file only. With one proc nothing fans
# out and the two strategies are the same loop.
trace=$traces/trace-matmult.json
procs=$(jq -r '.host | capture("gomaxprocs=(?<n>[0-9]+)").n' "$trace")
if [ "$procs" -ge 2 ]; then
  check exec.sequential_s/exec.auto_s@matmult \
    "$(jq -r '.detail | .["exec.sequential_s"] / .["exec.auto_s"]' "$trace")" '>=' "$min_fanout_gain"
else
  echo "skip exec.sequential_s/exec.auto_s@matmult: gomaxprocs=$procs"
fi

exit $failed
