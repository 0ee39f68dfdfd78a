#!/usr/bin/env python3
"""Record a parent/change benchmark comparison in BENCH_<label>.json.

    python3 scripts/bench_record.py --parent REV [--change REV] --label NAME
        [--pairs WORKLOAD=N ...] [--first-seed S] [--claim WORKLOAD/METRIC]
        [--out PATH]

Exports the ``src/`` and ``bench/`` of the parent revision with
``git archive``, and those of the change (a revision, or by default the
working tree) the same way into a sibling directory, so both sides run
from equal places.  For each workload it runs ``bench/run.py --trace 0``
in alternating pairs: pair i uses seed S + i - 1 on both sides, and the
change runs first in the even pairs.  S is ``--first-seed`` (default 1),
so a record can use seeds that were not tuned on.  Then it makes one
``--trace 1`` run per side and workload, with seed 1.  The file holds
every run with its pass count, the median and quartiles of each end-to-end
metric per workload and side, each side's median pass count, the pairs
the change won, both trace count tables, both revisions and the machine:
cores, platform, Python, NumPy, and the BLAS library NumPy was built with
and its version.  A run's ``wall_s`` is the median over however many
passes fit in its time, and later passes run faster than the first, so
``wall_s`` compares fairly only between sides that fit alike pass counts.

Each workload's metrics also say whether the change's median is within the
metric's bound in BENCHMARK.json (``within_bound``): at most (1 + bound)
times the parent's median for a metric where lower is better, at least
(1 - bound) times it where higher is.  ``--claim WORKLOAD/METRIC`` records
whether a claimed gain holds: the change wins at least 9 in 10 of the
pairs, and its median is better than the parent's by more than the
parent's interquartile range.

The workloads, the metrics and the run length come from BENCHMARK.json at
the top of the repository; each workload gets 3 pairs unless ``--pairs``
says otherwise (0 skips it).  Runs go one at a time.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TOP = Path(__file__).resolve().parent.parent
DEFAULT_PAIRS = 3
TRACE_SEED = 1


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(TOP), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str | None, dest: Path) -> str:
    """Put ``src/`` and ``bench/`` of ``rev`` (None: the working tree) in
    ``dest``; returns a description of what was exported."""
    dest.mkdir(parents=True)
    if rev is None:
        skip = shutil.ignore_patterns("__pycache__", ".bench_out")
        for part in ("src", "bench"):
            shutil.copytree(TOP / part, dest / part, ignore=skip)
        dirty = git("status", "--porcelain", "--", "src", "bench")
        head = git("rev-parse", "HEAD")
        return f"working tree at {head}" + (" with changes" if dirty else "")
    archive = subprocess.run(
        ["git", "-C", str(TOP), "archive", rev, "src", "bench"],
        check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-f", "-", "-C", str(dest)], input=archive,
                   check=True)
    return git("rev-parse", rev)


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One ``bench/run.py`` run; its result line and the lines before it."""
    cmd = [sys.executable, str(checkout / "bench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=checkout)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["log"] = lines[:-1]
    return result


def pass_count(outcome: str) -> int:
    """The number of passes in a run's outcome line, "W: N passes, ..."."""
    found = re.match(r"\S+: (\d+) passes,", outcome)
    if found is None:
        raise ValueError(f"no pass count in outcome line {outcome!r}")
    return int(found.group(1))


def spread(values: list) -> dict:
    q1, q3 = values[0], values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def within_bound(parent: float, change: float, better: str,
                 bound: float) -> bool:
    """Is the change's median no worse than the parent's by more than
    ``bound``, a fraction of the parent's median?"""
    if better == "lower":
        return change <= parent * (1.0 + bound)
    return change >= parent * (1.0 - bound)


def claim_holds(entry: dict) -> bool:
    """The claim rule on one metric's summary: the change won at least 9 in
    10 of the pairs, and its median is better than the parent's by more
    than the parent's interquartile range."""
    parent, change = entry["parent"], entry["change"]
    gain = parent["median"] - change["median"]
    if entry["better"] != "lower":
        gain = -gain
    return (10 * entry["change_won"] >= 9 * entry["pairs"]
            and gain > parent["q3"] - parent["q1"])


def summarize(runs: list, metrics: list) -> dict:
    """Per workload and metric: each side's median and quartiles, the
    pairs the change won (ties count for neither side) and, for a metric
    with a bound, whether the change is within it (:func:`within_bound`).
    Under "passes", each side's median pass count, when every run of the
    workload has one."""
    out = {}
    for wl in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == wl:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        out[wl] = {}
        if all("passes" in p[s] for p in pairs.values()
               for s in ("parent", "change")):
            out[wl]["passes"] = {
                s: statistics.median(p[s]["passes"] for p in pairs.values())
                for s in ("parent", "change")}
        for m in metrics:
            name, sign = m["name"], 1 if m["better"] == "lower" else -1
            sides = {s: [p[s]["metrics"][name] for p in pairs.values()]
                     for s in ("parent", "change")}
            wins = sum(sign * c < sign * p
                       for c, p in zip(sides["change"], sides["parent"]))
            entry = {"unit": m["unit"], "better": m["better"],
                     "parent": spread(sides["parent"]),
                     "change": spread(sides["change"]),
                     "change_won": wins, "pairs": len(pairs)}
            if "bound" in m:
                entry["bound"] = m["bound"]
                entry["within_bound"] = within_bound(
                    entry["parent"]["median"], entry["change"]["median"],
                    m["better"], m["bound"])
            out[wl][name] = entry
    return out


#: prints the interpreter's NumPy version and the BLAS NumPy was built with
_BUILD_PROBE = """
import json, numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except (TypeError, KeyError):  # NumPy before 1.25, or no BLAS entry
    blas = {}
print(json.dumps({"numpy": numpy.__version__,
                  "blas": blas.get("name", "unavailable"),
                  "blas_version": blas.get("version", "unavailable")}))
"""


def numpy_build(python: str = sys.executable) -> dict:
    """NumPy's version and its BLAS library and version, as the interpreter
    that runs the benchmark reports them; "unavailable" where it cannot."""
    try:
        proc = subprocess.run([python, "-c", _BUILD_PROBE],
                              capture_output=True, text=True)
        return json.loads(proc.stdout)
    except (OSError, ValueError):
        return dict.fromkeys(("numpy", "blas", "blas_version"),
                             "unavailable")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent revision")
    ap.add_argument("--change", help="change revision (default: the "
                    "working tree)")
    ap.add_argument("--label", required=True)
    ap.add_argument("--pairs", action="append", default=[],
                    metavar="WORKLOAD=N",
                    help=f"pairs for one workload (default {DEFAULT_PAIRS})")
    ap.add_argument("--first-seed", type=int, default=1, metavar="S",
                    help="seed of the first pair (default 1)")
    ap.add_argument("--claim", metavar="WORKLOAD/METRIC",
                    help="record whether this gain holds by the claim rule")
    ap.add_argument("--out", help="output path (default BENCH_<label>.json "
                    "at the top of the repository)")
    args = ap.parse_args(argv)

    spec = json.loads((TOP / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    pairs = dict.fromkeys(workloads, DEFAULT_PAIRS)
    for item in args.pairs:
        name, _, count = item.partition("=")
        if name not in pairs or not count.isdigit():
            ap.error(f"--pairs {item!r}: want WORKLOAD=N with WORKLOAD one "
                     f"of {', '.join(workloads)} and N >= 0")
        pairs[name] = int(count)
    if args.claim:
        wl, _, metric = args.claim.partition("/")
        if (not pairs.get(wl)
                or metric not in [m["name"] for m in spec["end_to_end"]]):
            ap.error(f"--claim {args.claim!r}: want WORKLOAD/METRIC with a "
                     "workload that runs pairs and an end-to-end metric")
    seconds = float(spec["run_seconds"])
    out_path = Path(args.out) if args.out else TOP / f"BENCH_{args.label}.json"

    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        revisions = {"parent": export(args.parent, trees["parent"]),
                     "change": export(args.change, trees["change"])}
        runs, traces = [], {}
        for wl in (w for w in workloads if pairs[w]):
            for pair in range(1, pairs[wl] + 1):
                order = (("change", "parent") if pair % 2 == 0
                         else ("parent", "change"))
                for side in order:
                    t0 = time.time()
                    seed = args.first_seed + pair - 1
                    res = run_bench(trees[side], wl, seed, seconds, 0)
                    outcome = res["log"][0] if res["log"] else ""
                    runs.append({
                        "workload": wl, "pair": pair, "seed": seed,
                        "side": side, "first": side == order[0],
                        "correct": res["correct"],
                        "attempted": res["attempted"],
                        "failed": res["failed"],
                        "metrics": {k: v["value"]
                                    for k, v in res["metrics"].items()},
                        "passes": pass_count(outcome),
                        "outcome": outcome})
                    print(f"{wl} pair {pair} {side}: wall_s "
                          f"{runs[-1]['metrics']['wall_s']:.4g}, "
                          f"{runs[-1]['passes']} passes "
                          f"({time.time() - t0:.0f} s)", file=sys.stderr)
            traces[wl] = {}
            for side in ("parent", "change"):
                res = run_bench(trees[side], wl, TRACE_SEED, seconds, 1)
                traces[wl][side] = {
                    "correct": res["correct"], "failed": res["failed"],
                    "summary": [line for line in res["log"]
                                if line.startswith(("traced passes",
                                                    "tracing overhead"))],
                    "counts": {k: v["value"]
                               for k, v in res["metrics"].items()}}
                print(f"{wl} trace {side}: correct {res['correct']}",
                      file=sys.stderr)

    record = {
        "label": args.label,
        "revisions": revisions,
        "machine": {"cores": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version(), **numpy_build()},
        "settings": {"command": spec["command"], "seconds": seconds,
                     "pairs": pairs, "first_seed": args.first_seed,
                     "trace_seed": TRACE_SEED},
        "summary": summarize(runs, spec["end_to_end"]),
        "trace": traces,
        "runs": runs,
    }
    if args.claim:
        wl, _, metric = args.claim.partition("/")
        record["claim"] = {"claim": args.claim, "holds": claim_holds(
            record["summary"][wl][metric])}
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"written: {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
