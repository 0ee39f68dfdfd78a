#!/usr/bin/env python3
"""Quick self-check of the benchmark harness (about half a minute).

    python3 bench/selfcheck.py

Runs a reduced pass of each workload (a subset of its operations) and
checks that the harness, not the program, behaves:

- the run refuses a directory without gfalg sources (exit != 0, no result);
- every operation's check passes, and the only failures are the known
  faults of the depth-6 operations;
- each check rejects a deliberately wrong output;
- an operation that raises is counted as failed and makes the run incorrect;
- the traced passes repeat every count, give the untraced verdicts, miss no
  reference to a wrapped function, and the completeness check notices a
  transform made outside ``grids.forward``/``inverse``.

Prints one PASS/FAIL line per check and exits 1 if any failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import run

#: the reduced pass of each workload: a predicate on operation names.
SUBSETS = {
    "catalog_ref": lambda n: n.endswith(("/delta", "/gaussian")) or "/" not in n,
    "conormal_2d": lambda n: n == "delta_x_gaussian",
    "depth_sweep": lambda n: n.startswith(("depth6/", "depth7/")),
    "algebra_chain": lambda n: True,
}

RESULTS = []


def report(label: str, ok: bool, detail: str = "") -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {label}" + (f"  ({detail})" if detail
                                                    else ""))


def check_bare_directory() -> None:
    bare = run.OUT / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload",
         "algebra_chain", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    printed_result = any(line.startswith("{") for line in
                         proc.stdout.splitlines())
    report("a checkout without gfalg sources is refused",
           proc.returncode != 0 and not printed_result,
           f"exit {proc.returncode}")


def mutated_outputs_fail(name, wl, outputs) -> None:
    """Feed each workload's checks an output that contradicts theory."""
    ops = {op.name: op for op in wl.operations}
    if name == "catalog_ref":
        from workloads import _catalog_verdict

        def ok(code=0):
            return _catalog_verdict("regularity", "delta", code, out)[0]

        code, out = ops["regularity/delta"].run()
        path = os.path.join(out, "report.json")
        with open(path) as fh:
            original = fh.read()
        doc = json.loads(original)
        doc["results"]["verdict"]["verdict"] = "regular"
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
        tampered = ok()
        _rewrite_manifest_hash(out)
        contradicted = ok()
        with open(path, "w") as fh:
            fh.write(original)
        _rewrite_manifest_hash(out)
        report("catalog_ref: a report that no longer matches its manifest "
               "fails", not tampered)
        report("catalog_ref: 'regular' for delta fails", not contradicted)
        report("catalog_ref: the restored report passes again", ok())
        report("catalog_ref: a non-zero exit code fails", not ok(1))
        shutil.rmtree(out)
    elif name == "conormal_2d":
        op = ops["delta_x_gaussian"]
        rep = outputs[op.name]
        quiet = replace(rep, entries=tuple(
            (c, replace(v, verdict="regular")) for c, v in rep.entries))
        report("conormal_2d: a wave front missing the conormal line fails",
               not op.check(quiet)[0])
    elif name == "depth_sweep":
        op = ops["depth7/delta"]
        label, regular, wf = outputs[op.name]
        report("depth_sweep: 'neither' for the delta net fails",
               not op.check(("neither", regular, wf))[0])
        report("depth_sweep: 'regular' for the delta net fails",
               not op.check((label, "regular", wf))[0])
        report("depth_sweep: an off-support delta that is 'moderate' fails",
               not ops["depth7/delta_offsupport"].check("moderate")[0])
    elif name == "algebra_chain":
        op = ops["chain"]
        out = dict(outputs[op.name])
        z = out["defects"][0]
        out["defects"] = [replace(z, values=z.values + 1e-7)] + out[
            "defects"][1:]
        report("algebra_chain: H^2 - H off by 1e-7 at 0 fails",
               not op.check(out)[0])
        out = dict(outputs[op.name])
        out["d_d"] = out["d"]
        report("algebra_chain: i D(delta) replaced by delta fails",
               not op.check(out)[0])


def _rewrite_manifest_hash(out_dir: str) -> None:
    path = os.path.join(out_dir, "MANIFEST.json")
    with open(path) as fh:
        manifest = json.load(fh)
    with open(os.path.join(out_dir, "report.json"), "rb") as fh:
        manifest["outputs"]["report.json"] = hashlib.sha256(
            fh.read()).hexdigest()
    with open(path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)


def reduced(wl):
    keep = SUBSETS[wl.name]
    wl.operations = [op for op in wl.operations if keep(op.name)]
    return wl


def failure_counting() -> None:
    from workloads import Operation, Workload

    def boom():
        raise RuntimeError("deliberate failure")

    wl = Workload("synthetic", [
        Operation("raises", boom, lambda out: (True, ())),
        Operation("known", lambda: 1, lambda out: (False, ("wrong",))),
        Operation("fine", lambda: 2, lambda out: (out == 2, ("ok",)))],
        frozenset({"known"}), str(run.OUT / "selfcheck-synthetic"))
    with contextlib.redirect_stderr(io.StringIO()), \
            contextlib.redirect_stdout(io.StringIO()):
        passes = [run.run_pass(wl.operations) for _ in range(2)]
        attempted, failed, correct = run.summarize(wl.name, passes,
                                                   wl.known_faults)
    report("an operation that raises counts as failed and makes the run "
           "incorrect", (attempted, failed, correct) == (6, 4, False),
           f"attempted {attempted}, failed {failed}, correct {correct}")


def main() -> int:
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    check_bare_directory()
    loaded = []
    for name in run.WORKLOADS:
        wl, rng, _ = run.setup(name, 0)
        reduced(wl)
        results = run.run_pass(wl.operations)
        failed = {r.name for r in results if not r.ok}
        expected = {n for n in wl.known_faults
                    if any(op.name == n for op in wl.operations)}
        report(f"{name}: reduced pass of {len(results)} operations fails "
               f"exactly at the known faults", failed == expected,
               f"failed: {sorted(failed)}")
        outputs = {op.name: op.run() for op in wl.operations
                   if op.name in _MUTATED.get(name, ())}
        mutated_outputs_fail(name, wl, outputs)
        loaded.append((wl, rng, results))
    failure_counting()

    import numpy as np
    import tracing
    import workloads
    tracer = tracing.Tracer()
    tracer.install([workloads])
    report("the tracer left no reference to an unwrapped function",
           not tracer.unwrapped_references(),
           ", ".join(tracer.unwrapped_references()))
    for wl, rng, untraced in loaded:
        passes, snaps = [], []
        for _ in range(2):
            order = list(wl.operations)
            rng.shuffle(order)
            passes.append(run.run_pass(order, tracer))
            snaps.append(tracer.end_round())
        counts = [tracing.round_counts(s) for s in snaps]
        expected = {r.name: r.verdicts for r in untraced}
        report(f"{wl.name}: two traced passes repeat every count",
               counts[0] == counts[1])
        report(f"{wl.name}: traced verdicts equal the untraced ones",
               all({r.name: r.verdicts for r in p} == expected
                   for p in passes))
        wl.close()
    report("every traced transform went through grids.forward/inverse",
           tracer.fft_outside == 0, f"{tracer.fft_outside} outside")
    tracer.active = True
    np.fft.fft(np.ones(8))
    tracer.active = False
    report("a transform made outside grids.forward/inverse is noticed",
           tracer.fft_outside == 1)
    print(f"{sum(RESULTS)} of {len(RESULTS)} checks passed")
    return 0 if all(RESULTS) else 1


#: operations whose outputs the mutation checks need.
_MUTATED = {"conormal_2d": ("delta_x_gaussian",),
            "depth_sweep": ("depth7/delta",),
            "algebra_chain": ("chain",)}


if __name__ == "__main__":
    sys.exit(main())
