#!/bin/sh
# Byte-identity check of the reference-rig reports.
#
#     scripts/identity_check.sh [REV]        (REV defaults to HEAD)
#
# Exports REV's src/ and scripts/ with git archive, runs
# scripts/run_catalog.py on REV and on the working tree with one BLAS
# thread each, writes each side's scripts/verdict_table.py output into its
# output root as verdicts.json, and compares the two roots with the working
# tree's scripts/compare_runs.py: report numbers that moved and verdict
# keys that changed are listed by JSON path.  Exits with compare_runs.py's
# status: 0 when every file is byte-identical.  Everything is written to a
# temporary directory that is removed on exit.
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

# side NAME DIR: the catalog run and the verdict table of the code in DIR
side() {
    PYTHONPATH="$2/src" python3 "$2/scripts/run_catalog.py" \
        --root "$tmp/runs-$1" >/dev/null
    PYTHONPATH="$2/src" python3 "$2/scripts/verdict_table.py" \
        >"$tmp/runs-$1/verdicts.json"
}
side rev "$tmp/rev"
side tree "$top"

status=0
python3 "$top/scripts/compare_runs.py" "$tmp/runs-rev" "$tmp/runs-tree" \
    || status=$?
exit "$status"
