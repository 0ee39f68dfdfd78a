#!/usr/bin/env python3
"""Compare two output roots of ``run_catalog.py`` file by file.

    python3 scripts/compare_runs.py A B

Prints every file that is present in only one root or whose bytes differ.
For a differing ``*.json`` file it also prints each JSON path that differs
(list indices folded into the path of the list) with the largest relative
and the largest absolute difference over its numbers, or ``changed`` when
a non-number differs.  The absolute one shows when a number that is zero
up to round-off makes a large relative move.

Exit status: 0 when the two roots hold the same files with the same bytes,
1 otherwise, 2 on a usage error.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys


def _files(root: str) -> set:
    out = set()
    for dirpath, _, names in os.walk(root):
        for name in names:
            out.add(os.path.relpath(os.path.join(dirpath, name), root))
    return out


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _diffs(a: float, b: float) -> tuple:
    """The relative and the absolute difference of two numbers."""
    if a == b:
        return 0.0, 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf, math.inf
    return abs(a - b) / max(abs(a), abs(b)), abs(a - b)


def json_diffs(a, b, path: str = "", out: dict = None) -> dict:
    """JSON path -> (largest relative, largest absolute) difference
    (``None`` for a change that is not between two numbers)."""
    if out is None:
        out = {}

    def note(p, d):
        # a change that is not between numbers outranks any number
        if d is None or out.get(p, ()) is None:
            out[p] = None
        else:
            rel, abs_ = out.get(p, (0.0, 0.0))
            out[p] = (max(rel, d[0]), max(abs_, d[1]))

    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key in a and key in b:
                json_diffs(a[key], b[key], sub, out)
            else:
                note(sub, None)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            note(f"{path}[]", None)
        for x, y in zip(a, b):
            json_diffs(x, y, f"{path}[]", out)
    elif _is_number(a) and _is_number(b):
        d = _diffs(float(a), float(b))
        if d[0] > 0:
            note(path, d)
    elif a != b:
        note(path, None)
    return out


def compare(root_a: str, root_b: str) -> list:
    """Report lines, one per difference; empty when the roots match."""
    files_a, files_b = _files(root_a), _files(root_b)
    lines = [f"only in A: {p}" for p in sorted(files_a - files_b)]
    lines += [f"only in B: {p}" for p in sorted(files_b - files_a)]
    for rel in sorted(files_a & files_b):
        raw_a = _read(os.path.join(root_a, rel))
        raw_b = _read(os.path.join(root_b, rel))
        if raw_a == raw_b:
            continue
        lines.append(f"differs: {rel}")
        if not rel.endswith(".json"):
            continue
        try:
            diffs = json_diffs(json.loads(raw_a), json.loads(raw_b))
        except ValueError as exc:
            lines.append(f"  not JSON: {exc}")
            continue
        for p, d in diffs.items():
            lines.append(f"  {p}: " + (
                "changed" if d is None
                else f"max rel diff {d[0]:.3g}, max abs diff {d[1]:.3g}"))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="first output root")
    ap.add_argument("b", help="second output root")
    args = ap.parse_args(argv)
    for root in (args.a, args.b):
        if not os.path.isdir(root):
            ap.error(f"{root} is not a directory")
    lines = compare(args.a, args.b)
    for line in lines:
        print(line)
    n_files = sum(not line.startswith(" ") for line in lines)
    print(f"{n_files} files differ" if lines else
          f"identical: {len(_files(args.a))} files")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
