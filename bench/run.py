#!/usr/bin/env python3
"""Run one gfalg benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout: gfalg is imported from ``src/`` next to this
directory, never from an installed copy.  The workload repeats whole passes
over its operations until another pass would overrun ``--seconds``: the
first pass in the listed order, the others in orders drawn from the seed.
Every operation is timed on its own and its output is checked afterwards,
untimed.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics: ``setup_s`` (median of several fresh interpreters, each
importing gfalg and building the workload), ``wall_s`` (median time of one
pass), ``op_p50_s`` (median time of one operation) and ``peak_rss_mib``
(at the end of the first pass).

With ``--trace 1`` the run first makes one untraced pass, then installs the
tracing wrappers (``tracing.py``) and makes traced passes.  It reports the
per-layer metrics, writes the spans to ``.bench_out/trace-*.json`` and
prints the tracing overhead.  ``correct`` is false if a traced pass counts
differently from another, gives other verdicts than the untraced pass, or
saw a numpy transform outside ``grids.forward``/``inverse``.

Exit status: 0 with a result line; 2 without one when the checkout holds no
gfalg sources or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("catalog_ref", "conormal_2d", "depth_sweep", "algebra_chain")

#: fresh interpreters whose set-up times give the median ``setup_s``.
SETUP_SAMPLES = 15

#: every thread pool numpy may link against is held to one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
                    "peak_rss_mib": "MiB"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class OpResult:
    name: str
    seconds: float
    ok: bool
    verdicts: tuple


def setup(name: str, seed: int):
    """Import gfalg from ``src/`` and build the workload.  Returns the
    workload, the seeded generator (it goes on to draw the orders of the
    passes after the first) and the set-up time, measured from before numpy
    is imported."""
    t0 = time.perf_counter()
    if not (SRC / "gfalg" / "__init__.py").is_file():
        raise BenchError(f"no gfalg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gfalg
    if Path(gfalg.__file__).resolve().parent != SRC / "gfalg":
        raise BenchError(f"gfalg imported from {gfalg.__file__}, not {SRC}")
    import workloads
    rng = random.Random(seed)
    wl = workloads.setup(name, rng, str(OUT / f"{name}-{os.getpid()}"))
    return wl, rng, time.perf_counter() - t0


def setup_in_child(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"set-up process failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def run_pass(order, tracer=None) -> list:
    """One pass over the operations, in the given order."""
    results = []
    for op in order:
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # a failed operation, reported below
            out, error = None, exc
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                ok, verdicts = op.check(out)
            except Exception as exc:  # a malformed output fails the check
                ok, verdicts, error = False, ("check error",), exc
        else:
            ok, verdicts = False, ("error", type(error).__name__)
        if error is not None:
            print(f"operation {op.name} raised:", file=sys.stderr)
            traceback.print_exception(error, file=sys.stderr)
        del out
        results.append(OpResult(op.name, seconds, bool(ok), verdicts))
    return results


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(wl, rng, seconds: float, tracer=None):
    """Whole passes until another one would overrun ``seconds``.

    The first pass runs the operations in their listed order and the later
    ones in seeded orders.  The peak RSS is read at the end of the first
    pass: glibc's heap fragments differently under different orders
    (348-396 MiB on ``depth_sweep`` across seeds), while one order repeats
    its peak to 0.1 MiB.  Returns the passes, the tracer's per-pass
    snapshots and that peak."""
    passes, took, snaps = [], [], []
    order = list(wl.operations)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(order, tracer))
        took.append(time.perf_counter() - t0)
        if len(passes) == 1:
            first_peak = peak_rss_mib()
        if tracer is not None:
            snaps.append(tracer.end_round())
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(took) > seconds:
            return passes, snaps, first_peak
        order = list(wl.operations)
        rng.shuffle(order)


def pass_wall(results) -> float:
    return sum(r.seconds for r in results)


def summarize(name, passes, known_faults):
    results = [r for p in passes for r in p]
    failed = [r.name for r in results if not r.ok]
    unexpected = sorted(set(failed) - known_faults)
    print(f"{name}: {len(passes)} passes, {len(results)} operations "
          f"attempted, {len(failed)} failed")
    for op in sorted(set(failed)):
        note = "known fault" if op in known_faults else "UNEXPECTED"
        print(f"  failed: {op} ({note})")
    return len(results), len(failed), not unexpected


def measure(name: str, seed: int, seconds: float) -> dict:
    samples = [setup_in_child(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    wl, rng, setup_s = setup(name, seed)
    samples.append(setup_s)
    try:
        passes, _, peak = run_passes(wl, rng, seconds)
    finally:
        wl.close()
    attempted, failed, correct = summarize(name, passes, wl.known_faults)
    values = {
        "setup_s": statistics.median(samples),
        "wall_s": statistics.median(pass_wall(p) for p in passes),
        "op_p50_s": statistics.median(r.seconds for p in passes for r in p),
        "peak_rss_mib": peak,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in values.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def trace(name: str, seed: int, seconds: float) -> dict:
    wl, rng, _ = setup(name, seed)
    import tracing
    import workloads

    try:
        baseline = run_pass(wl.operations)
        tracer = tracing.Tracer()
        tracer.install([workloads])
        passes, snaps, _ = run_passes(wl, rng, seconds, tracer)
    finally:
        wl.close()
    attempted, failed, correct = summarize(name, [baseline] + passes,
                                           wl.known_faults)

    counts = [tracing.round_counts(s) for s in snaps]
    repeat = all(c == counts[0] for c in counts)
    expected = {r.name: r.verdicts for r in baseline}
    same_verdicts = all({r.name: r.verdicts for r in p} == expected
                        for p in passes)
    missed = tracer.unwrapped_references()
    complete = tracer.fft_outside == 0 and not missed
    untraced_wall = pass_wall(baseline)
    traced_wall = statistics.median(pass_wall(p) for p in passes)
    numpy_ffts = snaps[0]["counts"].get("numpy.fft_calls", 0)
    print(f"traced passes: {len(passes)}; counts repeat: {repeat}; verdicts "
          f"equal the untraced pass: {same_verdicts}; numpy transforms per "
          f"pass: {numpy_ffts}, outside grids.forward/inverse in all passes: "
          f"{tracer.fft_outside}; unwrapped references: {missed}")
    print(f"tracing overhead: {traced_wall - untraced_wall:+.4f} s per pass "
          f"(traced {traced_wall:.4f} s, untraced {untraced_wall:.4f} s)")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed,
                   "untraced_wall_s": untraced_wall,
                   "traced_wall_s": [pass_wall(p) for p in passes],
                   "rounds": snaps,
                   "span_fields": ["id", "name", "start", "end", "parent"],
                   "spans": tracer.spans}, fh)
    print(f"trace written to {path}")
    return {"correct": correct and repeat and same_verdicts and complete,
            "attempted": attempted, "failed": failed,
            "metrics": tracing.per_layer_metrics(snaps, tracer.layer_of)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="only time one set-up (used for setup_s)")
    args = ap.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        if args.setup_only:
            wl, _, seconds = setup(args.workload, args.seed)
            wl.close()
            print(json.dumps({"setup_s": seconds}))
            return 0
        if args.trace:
            result = trace(args.workload, args.seed, args.seconds)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.trace:
        for key, m in result["metrics"].items():
            print(f"{key:14s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
