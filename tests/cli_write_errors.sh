#!/usr/bin/env bash
# Failed output writes of a real ncg_run process: when the timing JSON
# (--timings-out), the JSONL copy (--out), a run's stdout or the
# scenario list (`ncg_run list`) cannot be written, ncg_run must report
# "cannot write ..." and exit 1 instead of exiting 0 with the output
# lost. /dev/full opens fine and fails every write with ENOSPC, which is
# how a full disk looks to the process.
#
#   cli_write_errors.sh <path-to-ncg_run>
set -u

die() { echo "cli_write_errors: $*" >&2; exit 1; }

[ $# -eq 1 ] || die "usage: $0 <path-to-ncg_run>"
run=$1
[ -x "$run" ] || die "not executable: $run"
[ -w /dev/full ] || die "/dev/full is not available"

workdir=$(mktemp -d) || die "mktemp failed"
trap 'rm -rf "$workdir"' EXIT
log="$workdir/stderr"

# expect_write_error <case> <stdout target> <ncg_run arguments...>
expect_write_error() {
  local name=$1 target=$2
  shift 2
  "$run" "$@" >"$target" 2>"$log"
  local status=$?
  [ "$status" -eq 1 ] ||
    { cat "$log" >&2; die "$name: expected exit 1, got $status"; }
  grep -q "^cannot write " "$log" ||
    { cat "$log" >&2; die "$name: no 'cannot write' report"; }
}

smoke=(run smoke_dynamics --procs=1)
expect_write_error "--timings-out" "$workdir/stdout" "${smoke[@]}" \
  --timings-out=/dev/full
expect_write_error "--out" "$workdir/stdout" "${smoke[@]}" --out=/dev/full
expect_write_error "stdout" /dev/full "${smoke[@]}"
expect_write_error "list" /dev/full list

echo "ok: every failed write exited 1"
