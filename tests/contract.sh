#!/usr/bin/env bash
# Determinism contract of the cps_run driver, run by ctest under the
# "contract" label (`ctest -L contract`):
#
#   contract.sh CPS_RUN WORKDIR EXPERIMENT...
#
# Every CSV each experiment writes at --jobs 1 equals, byte for byte,
# the one it writes at --jobs 4.  The *_times.csv wall-clock sidecars
# are exempt, so each experiment must write at least one other CSV.
set -euo pipefail

run() {  # run LOG CMD...: quiet unless the command fails
  local log=$1
  shift
  if ! "$@" > "$log" 2>&1; then
    cat "$log"
    echo "contract: failed: $*" >&2
    exit 1
  fi
}

cps_run=$1 work=$2
shift 2
rm -rf "$work"
mkdir -p "$work"
total=0
for experiment in "$@"; do
  # One directory per experiment and job count, so every CSV is
  # attributed to the experiment that wrote it.
  j1=$work/$experiment/j1 j4=$work/$experiment/j4
  mkdir -p "$work/$experiment"
  run "$j1.log" "$cps_run" "$experiment" --jobs 1 --csv "$j1"
  run "$j4.log" "$cps_run" "$experiment" --jobs 4 --csv "$j4"
  diff <(ls "$j1") <(ls "$j4")
  compared=0
  for csv in "$j1"/*.csv; do
    name=${csv##*/}
    [[ -f $csv && $name != *_times.csv ]] || continue
    cmp "$csv" "$j4/$name"
    compared=$((compared + 1))
  done
  ((compared > 0)) || { echo "contract: $experiment wrote no CSV to compare" >&2; exit 1; }
  total=$((total + compared))
done
echo "contract: $total CSVs byte-identical at --jobs 1 and --jobs 4"
