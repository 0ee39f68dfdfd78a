#!/bin/sh
# Byte-identity check of the reference-rig reports.
#
#     scripts/identity_check.sh [REV]        (REV defaults to HEAD)
#
# Exports REV's src/ and scripts/ with git archive, runs
# scripts/run_catalog.py on REV and on the working tree with one BLAS
# thread each, and compares the two output roots with the working tree's
# scripts/compare_runs.py.  Exits with compare_runs.py's status: 0 when
# every file is byte-identical.  Everything is written to a temporary
# directory that is removed on exit.
set -eu

rev=${1:-HEAD}
top=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

mkdir "$tmp/rev"
git -C "$top" archive "$rev" src scripts | tar -x -f - -C "$tmp/rev"

OPENBLAS_NUM_THREADS=1
OMP_NUM_THREADS=1
export OPENBLAS_NUM_THREADS OMP_NUM_THREADS

PYTHONPATH="$tmp/rev/src" python3 "$tmp/rev/scripts/run_catalog.py" \
    --root "$tmp/runs-rev" >/dev/null
PYTHONPATH="$top/src" python3 "$top/scripts/run_catalog.py" \
    --root "$tmp/runs-tree" >/dev/null

status=0
python3 "$top/scripts/compare_runs.py" "$tmp/runs-rev" "$tmp/runs-tree" \
    || status=$?
exit "$status"
