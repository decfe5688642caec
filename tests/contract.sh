#!/usr/bin/env bash
# Byte-identity contracts, run by ctest under the "contract" label
# (`ctest -L contract`), one per subcommand:
#
#   contract.sh jobs CPS_RUN WORKDIR EXPERIMENT...
#     Every CSV each experiment writes at --jobs 1 equals, byte for byte,
#     the one it writes at --jobs 4.  The *_times.csv wall-clock sidecars
#     are exempt, so each experiment must write at least one other CSV.
#
#   contract.sh shard CPS_RUN WORKDIR
#     sweep_flexray_params run as two --shard processes that load their
#     fixtures from a warm store, then --merge 2, equals byte for byte the
#     unsharded run at --jobs 2, and so does the cold-store run that
#     warmed the store.  A merge with a missing shard fails.
#
#   contract.sh daemon CPS_SERVE CPS_QUERY WORKDIR
#     A warm cps_serve daemon answers curve, design, sched and alloc
#     queries (ff and exact) byte-identically to `cps_query --local`,
#     which runs the same dispatcher in-process; a deadline-tagged slow
#     ping answers deadline_exceeded; SIGTERM drains the daemon to exit 0
#     and unlinks its socket.  The daemon is killed on any failure.
set -euo pipefail

fail() {
  echo "contract: $*" >&2
  exit 1
}

run() {  # run LOG CMD...: quiet unless the command fails
  local log=$1
  shift
  if ! "$@" > "$log" 2>&1; then
    cat "$log"
    fail "failed: $*"
  fi
}

jobs_identity() {
  local cps_run=$1 work=$2
  shift 2
  rm -rf "$work"
  mkdir -p "$work"
  local total=0 experiment j1 j4 compared csv name
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
    ((compared > 0)) || fail "$experiment wrote no CSV to compare"
    total=$((total + compared))
  done
  echo "contract: $total CSVs byte-identical at --jobs 1 and --jobs 4"
}

shard_merge() {
  local cps_run=$1 work=$2
  local csv=sweep_flexray_params.csv i
  rm -rf "$work"
  mkdir -p "$work"
  run "$work/single.log" "$cps_run" sweep_flexray_params --jobs 2 --csv "$work/single"
  run "$work/cold.log" "$cps_run" sweep_flexray_params --jobs 2 --csv "$work/cold" \
    --fixture-store "$work/store"
  [[ -d $work/store/dwell_wait_curve ]] || fail "the cold run stored no dwell/wait curves"
  for i in 0 1; do
    run "$work/shard$i.log" "$cps_run" sweep_flexray_params --jobs 2 --csv "$work/shards" \
      --fixture-store "$work/store" --shard $i/2
    grep -Eq 'fixture store .* 0 disk misses, 0 writes' "$work/shard$i.log" \
      || { cat "$work/shard$i.log"; fail "shard $i/2 did not load every fixture from the store"; }
  done
  run "$work/merge.log" "$cps_run" sweep_flexray_params --merge 2 --csv "$work/shards"
  cmp "$work/single/$csv" "$work/shards/$csv"
  cmp "$work/single/$csv" "$work/cold/$csv"
  # The merge's gap check: a missing shard must fail loudly.
  rm "$work/shards/$csv.shard1of2"
  if "$cps_run" sweep_flexray_params --merge 2 --csv "$work/shards" > "$work/gap.log" 2>&1; then
    fail "a merge with a missing shard succeeded"
  fi
  echo "contract: two shards from a warm store merge to the unsharded CSV; a gap fails the merge"
}

serve_pid='' sock_dir=''
stop_daemon() {  # the EXIT trap: a failed check leaves no daemon behind
  if [[ -n $serve_pid ]]; then
    kill -KILL "$serve_pid" 2> /dev/null || true
    wait "$serve_pid" 2> /dev/null || true
  fi
  if [[ -n $sock_dir ]]; then rm -rf "$sock_dir"; fi
}

daemon_local() {
  local serve=$1 query=$2 work=$3
  rm -rf "$work"
  mkdir -p "$work"
  trap stop_daemon EXIT
  trap 'exit 1' INT TERM
  # A Unix socket path holds at most 107 bytes: keep it out of the
  # (arbitrarily deep) build tree.
  sock_dir=$(mktemp -d "${TMPDIR:-/tmp}/cps_contract.XXXXXX")
  local sock=$sock_dir/serve.sock
  "$serve" --socket "$sock" --workers 2 --ready-file "$work/ready" --warm \
    > "$work/serve.log" 2>&1 &
  serve_pid=$!
  local attempt
  for attempt in $(seq 300); do  # up to 30 s, unless the daemon exits first
    [[ ! -f $work/ready ]] && kill -0 "$serve_pid" 2> /dev/null || break
    sleep 0.1
  done
  [[ -f $work/ready ]] || { cat "$work/serve.log"; fail "daemon did not become ready"; }

  local queries=(
    curve
    design
    sched
    alloc
    "alloc --allocator exact --apps 8 --util 0.6"
    "sched --apps 16 --util 3.5"
    "alloc --allocator exact --apps 16 --util 3.5"
  )
  local i=0 q
  for q in "${queries[@]}"; do
    i=$((i + 1))
    # shellcheck disable=SC2086  # each entry is an argument list
    run "$work/$i.daemon" "$query" $q --socket "$sock"
    # shellcheck disable=SC2086
    run "$work/$i.local" "$query" $q --local
    cmp "$work/$i.daemon" "$work/$i.local" || fail "daemon and --local differ on: $q"
  done

  # A deadline-tagged slow request comes back deadline_exceeded (exit 1
  # with the status printed); it neither hangs nor drops the connection.
  local status=0
  "$query" ping --socket "$sock" --sleep-ms 2000 --deadline-ms 200 \
    > "$work/deadline.txt" 2>&1 || status=$?
  ((status == 1)) && grep -q '^status deadline_exceeded' "$work/deadline.txt" \
    || { cat "$work/deadline.txt"; fail "deadline ping exited $status"; }

  # Graceful drain: SIGTERM finishes in-flight work, exits 0 and unlinks
  # the socket.
  kill -TERM "$serve_pid"
  status=0
  wait "$serve_pid" || status=$?
  serve_pid=''
  ((status == 0)) || { cat "$work/serve.log"; fail "drained daemon exited $status"; }
  [[ ! -S $sock ]] || fail "drained daemon left its socket behind"
  echo "contract: ${#queries[@]} daemon answers byte-identical to --local; deadline and drain held"
}

case ${1:-} in
  jobs) shift && jobs_identity "$@" ;;
  shard) shift && shard_merge "$@" ;;
  daemon) shift && daemon_local "$@" ;;
  *)
    fail "usage: contract.sh jobs CPS_RUN WORKDIR EXPERIMENT... | shard CPS_RUN WORKDIR" \
      "| daemon CPS_SERVE CPS_QUERY WORKDIR"
    ;;
esac
