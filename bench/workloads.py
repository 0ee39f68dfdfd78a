"""The four gfalg benchmark workloads and their correctness checks.

Each workload is built by :func:`setup` from a seeded ``random.Random``
and yields a list of :class:`Operation`.  ``run`` is the timed call into
the program; ``check`` runs afterwards, untimed, and compares the output
with theory or with a computation made here independently of the program.
``check`` returns ``(ok, verdicts)``: ``ok`` is False when a verdict
contradicts the expected one ("inconclusive" never does), and ``verdicts``
is the tuple of verdict labels that a traced run must reproduce.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import shutil
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermval

from gfalg.cli import main as cli_main
from gfalg.distributions import (ModelDistribution, classical_wf_oracle,
                                 regularize, required_oversample)
from gfalg.estimators import classify_net, regularity_test
from gfalg.grids import GridSpec
from gfalg.microlocal import ConePartition, wavefront, wf_compare
from gfalg.mollifier import build_mollifier
from gfalg.nets import (EpsilonLadder, GeneralizedPoint, UltradiffOperator,
                        apply_ultradiff, combine, constant_embed, point_value,
                        scale, spectral_derivative, window_net)
from gfalg.weights import WeightSequence

CATALOG = ("delta", "delta_prime", "heaviside", "pv_inverse", "gaussian",
           "gaussian_times_sine")
SINGULAR = ("delta", "delta_prime", "heaviside", "pv_inverse")
ENTRY_COMMANDS = ("embed", "classify", "regularity", "wavefront",
                  "bb-classify", "crosscheck")
RIG_COMMANDS = ("weights-check", "mollifier-build", "impossibility-demo")

#: classical blow-up order of sup|f * phi_eps| as eps -> 0.
BLOWUP_ORDER = {"delta": 1.0, "delta_prime": 2.0, "heaviside": 0.0,
                "pv_inverse": 1.0, "gaussian": 0.0,
                "gaussian_times_sine": 0.0}

#: operations that fail on every run because of faults in the program:
#: at ladder depth 6 the wave-front estimate disagrees with the classical
#: one, and at depth 10 FFT round-off above the fixed machine floor makes
#: the off-support delta net "moderate" instead of "negligible".
KNOWN_FAULTS = {
    "depth_sweep": frozenset({"depth6/delta", "depth6/heaviside",
                              "depth6/pv_inverse",
                              "depth10/delta_offsupport"}),
}

WF_CENTERS_1D = (-2.0, 0.0, 2.0)
WF_RADIUS_1D = 0.5
BOX = (-10.0, 10.0)
WINDOW = (0.0, 10.0)  # centre, radius: the CLI's defaults

TOL = 1e-9


@dataclass(frozen=True)
class Operation:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


@dataclass
class Workload:
    name: str
    operations: list
    known_faults: frozenset
    scratch: str

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)


def _reference_rig():
    grid = GridSpec(1, 20.0, 4096)
    return (grid, EpsilonLadder(2.0 ** -3, 0.5, 8), WeightSequence.gevrey(2.0),
            build_mollifier(1.5, grid))


def _agrees(label: str, expected: str) -> bool:
    """A verdict contradicts the expectation unless it is the expected one
    or "inconclusive"."""
    return label in (expected, "inconclusive")


def _same_directions(found, expected) -> bool:
    """Compare two sets of (centre, direction) pairs up to float noise in
    the directions."""
    if len(found) != len(expected):
        return False
    rest = list(expected)
    for c, d in found:
        for i, (ce, de) in enumerate(rest):
            if np.allclose(c, ce) and np.allclose(d, de, atol=1e-9):
                del rest[i]
                break
        else:
            return False
    return True


def _wf_1d_expected(kind: str) -> list:
    """Classical WF over the 1-D windows: {0} x {+, -} for the singular
    entries, nothing for the smooth ones."""
    if kind in SINGULAR:
        return [(0.0, (1.0,)), (0.0, (-1.0,))]
    return []


# ------------------------------------------------------------ catalog_ref

def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_manifest(out: str) -> bool:
    with open(os.path.join(out, "MANIFEST.json")) as fh:
        manifest = json.load(fh)
    return all(_sha256_file(os.path.join(out, name)) == digest
               for name, digest in manifest["outputs"].items())


def _catalog_verdict(command: str, dist: str | None, code: int, out: str):
    """Check one CLI command's exit code, manifest and report."""
    if code != 0 or not _check_manifest(out):
        return False, ("exit", code)
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    res = report["results"]
    verdict = res["verdict"]
    if command in ("embed", "classify", "bb-classify"):
        label = verdict["classification"]
        return _agrees(label, "moderate"), (label,)
    if command == "regularity":
        label = verdict["verdict"]
        expected = "not_regular" if dist in SINGULAR else "regular"
        return _agrees(label, expected), (label,)
    if command == "wavefront":
        found = [(e["center"][0], tuple(e["direction"]))
                 for e in res["wavefront"]["entries"]
                 if e["verdict"] == "singular"]
        ok = (verdict["matches_classical"] is True
              and _same_directions(found, _wf_1d_expected(dist)))
        return ok, (tuple(verdict["flagged_centers"]),
                    verdict["matches_classical"])
    if command == "crosscheck":
        order = verdict["fitted_order"]
        ok = (verdict["agree"] is True
              and abs(order - BLOWUP_ORDER[dist]) <= 0.2)
        return ok, (verdict["agree"], round(order, 1))
    if command == "weights-check":
        consts = res["conditions"]["m2_constants"]
        ok = (verdict["ok"] is True and consts["A"] == 1.0
              and consts["H"] == 4.0)
        return ok, (verdict["ok"], consts["A"], consts["H"])
    if command == "mollifier-build":
        arrays = res["export"]["arrays"].values()
        ok = verdict["ok"] is True and all(
            _sha256_file(os.path.join(out, a["file"])) == a["sha256"]
            for a in arrays)
        return ok, (verdict["ok"],)
    if command == "impossibility-demo":
        values = res["values_at_origin"]
        ok = (verdict["non_negligible"] is True
              and all(abs(v + 0.25) <= 1e-3 for v in values))
        return ok, (verdict["classification"], verdict["non_negligible"])
    raise ValueError(command)


def _catalog_ref(rng, scratch):
    ops = []
    for command in ENTRY_COMMANDS:
        for dist in CATALOG:
            args = [command, "--dist", dist]
            if command == "bb-classify":
                args += ["--weight", "omega:log1p"]
            ops.append(_cli_operation(f"{command}/{dist}", args, command,
                                      dist, scratch))
    for command in RIG_COMMANDS:
        ops.append(_cli_operation(command, [command], command, None, scratch))
    return ops


def _cli_operation(name, args, command, dist, scratch):
    """Each run writes into a new directory, as a first run does: on ext4,
    renaming a report over an existing one flushes its data to disk, which
    would time the disk rather than gfalg.  The check removes it."""
    runs = itertools.count()

    def run():
        out = os.path.join(scratch, name, str(next(runs)))
        # ``cli_main`` is looked up at call time, so a traced run sees its
        # wrapper
        return cli_main([*args, "--out", out]), out

    def check(result):
        code, out = result
        try:
            return _catalog_verdict(command, dist, code, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    return Operation(name, run, check)


# ------------------------------------------------------------ conormal_2d

CONORMAL_CENTERS = ((0.0, 0.0), (3.0, 0.0))
CONORMAL_RADIUS = 1.0


def _conormal_2d(rng, scratch):
    # the 1-D reference mollifier: only its profile enters the 2-D rig
    _, _, seq, moll = _reference_rig()
    grid = GridSpec(2, 5.0, 1024)
    ladder = EpsilonLadder(0.25, 0.5, 6)
    cones = ConePartition.sectors_2d(8)
    entries = {
        "delta_x_gaussian": ((ModelDistribution("delta"),
                              ModelDistribution("gaussian")),
                             [((0.0, 0.0), (1.0, 0.0)),
                              ((0.0, 0.0), (-1.0, 0.0))]),
        "gaussian_x_gaussian": ((ModelDistribution("gaussian"),
                                 ModelDistribution("gaussian")), []),
    }
    ops = []
    for name, (factors, expected) in entries.items():
        m = ModelDistribution("tensor2d", dim=2, factors=factors)

        def run(m=m):
            net = regularize(m, moll, ladder, grid, weight=seq)
            return wavefront(net, CONORMAL_CENTERS, CONORMAL_RADIUS,
                             cones=cones, mode="beurling")

        def check(rep, m=m, expected=expected):
            found = list(rep.singular_set)
            ok = (wf_compare(classical_wf_oracle(m), rep)
                  and _same_directions(found, expected))
            return ok, tuple((c, v.label) for c, v in rep.entries
                             if v.verdict == "singular")

        ops.append(Operation(name, run, check))
    return ops


# ------------------------------------------------------------ depth_sweep

DEPTHS = (6, 7, 8, 9, 10)
SWEEP_KINDS = ("delta", "heaviside", "pv_inverse", "gaussian")


def _depth_sweep(rng, scratch):
    grid, _, seq, moll = _reference_rig()
    ops = []
    for depth in DEPTHS:
        ladder = EpsilonLadder(2.0 ** -3, 0.5, depth)
        for kind in SWEEP_KINDS:
            m = ModelDistribution(kind)

            def run(m=m, ladder=ladder):
                net = regularize(m, moll, ladder, grid, weight=seq)
                verdict = classify_net(net, BOX)
                regular = regularity_test(window_net(net, *WINDOW))
                wf = wavefront(net, WF_CENTERS_1D, WF_RADIUS_1D)
                return verdict.classification, regular.verdict, wf

            def check(out, m=m):
                label, regular, wf = out
                expected = "not_regular" if m.kind in SINGULAR else "regular"
                found = list(wf.singular_set)
                ok = (_agrees(label, "moderate") and _agrees(regular, expected)
                      and wf_compare(classical_wf_oracle(m), wf)
                      and _same_directions(found, _wf_1d_expected(m.kind)))
                return ok, (label, regular, wf.flagged_centers())

            ops.append(Operation(f"depth{depth}/{kind}", run, check))

        def run_offsupport(ladder=ladder):
            net = regularize(ModelDistribution("delta"), moll, ladder, grid,
                             mode="roumieu", weight=seq)
            return classify_net(net, (2.0, 10.0), mode="roumieu").classification

        def check_offsupport(label):
            return _agrees(label, "negligible"), (label,)

        ops.append(Operation(f"depth{depth}/delta_offsupport",
                             run_offsupport, check_offsupport))
    return ops


# ---------------------------------------------------------- algebra_chain

ULTRADIFF_ORDER = 4
INNER = 4.0       # |x| <= INNER lies inside every window's plateau
POINT_BOX = (-3.0, 3.0)


def _algebra_chain(rng, scratch):
    grid, ladder, seq, moll = _reference_rig()
    # Gevrey-bounded coefficients |a_k| <= C L^k / M_k with (C, L) = (1, 1)
    coeffs = {k: math.exp(-seq.log_m[k]) * rng.uniform(-1.0, 1.0)
              for k in range(ULTRADIFF_ORDER + 1)}
    op = UltradiffOperator(coeffs, seq, 1.0, 1.0)
    points = GeneralizedPoint(
        ladder, np.array([[rng.uniform(*POINT_BOX)]
                          for _ in range(ladder.count)]), POINT_BOX)
    origin = GeneralizedPoint(ladder, np.zeros((ladder.count, 1)), (-1.0, 1.0))
    oversample = required_oversample(ladder, grid)
    fine = grid.refine(oversample)
    x = fine.axis()
    inner = np.abs(x) <= INNER

    def embed(kind):
        return regularize(ModelDistribution(kind), moll, ladder, grid,
                          weight=seq)

    def run():
        h, d, dp, g = (embed(k) for k in
                       ("heaviside", "delta", "delta_prime", "gaussian"))
        power, defects = h, []
        for _ in range(2, 7):
            power = combine(power, h, "mul")
            defects.append(point_value(combine(power, h, "sub"), origin))
        d_h = scale(spectral_derivative(window_net(h, *WINDOW), 1), 1j)
        d_d = scale(spectral_derivative(window_net(d, *WINDOW), 1), 1j)
        xs = constant_embed(lambda t: t, ladder, grid, weight=seq,
                            oversample=d.oversample)
        zero = combine(combine(xs, dp, "mul"), d, "add")
        pg = apply_ultradiff(op, window_net(g, *WINDOW))
        at = {"d_h": point_value(d_h, points), "d": point_value(d, points),
              "d_d": point_value(d_d, points), "dp": point_value(dp, points)}
        return {"defects": defects, "d_h": d_h, "d": d, "d_d": d_d,
                "dp": dp, "zero": zero, "pg": pg, "at": at}

    def rel_inner(a_frames, b_frames):
        return max(float(np.max(np.abs(a - b)[inner]) / np.max(np.abs(b)))
                   for a, b in zip(a_frames, b_frames))

    def check(out):
        checks = {}
        # H^p - H at 0 is 2^-p - 1/2: the embedded step is exactly 1/2 at 0
        checks["powers"] = all(
            np.max(np.abs(z.values - (2.0 ** -p - 0.5))) <= TOL
            for p, z in zip(range(2, 7), out["defects"]))
        # i D = d/dx: i D(H_eps) = delta_eps and i D(delta_eps) = delta'_eps
        checks["d_step"] = rel_inner(out["d_h"].frames, out["d"].frames) <= TOL
        checks["d_delta"] = rel_inner(out["d_d"].frames,
                                      out["dp"].frames) <= TOL
        at = out["at"]
        sup_d = np.array([np.max(np.abs(f)) for f in out["d"].frames])
        sup_dp = np.array([np.max(np.abs(f)) for f in out["dp"].frames])
        checks["points"] = bool(
            np.all(np.abs(at["d_h"].values - at["d"].values) <= TOL * sup_d)
            and np.all(np.abs(at["d_d"].values - at["dp"].values)
                       <= TOL * sup_dp))
        # <x delta'_eps + delta_eps, exp(-x^2)> -> 0: association with 0
        gauss = np.exp(-x ** 2)
        checks["association"] = all(
            abs(float(np.sum(np.real(f) * gauss)) * fine.spacing) <= TOL
            for f in out["zero"].frames)
        checks["ultradiff"] = _ultradiff_ok(out["pg"], coeffs, x, inner,
                                            fine, ladder)
        return all(checks.values()), tuple(sorted(checks.items()))

    return [Operation("chain", run, check)]


def _ultradiff_ok(pg, coeffs, x, inner, fine, ladder) -> bool:
    """P(D) exp(-x^2) = sum_k a_k i^k H_k(x) exp(-x^2) (Hermite H_k, since
    D^k = (-i d/dx)^k), compared on the plateau of the window for the rungs
    with eps <= 2^-5, where the mollified gaussian equals the gaussian to
    within exp(-256).  Spectral differentiation on the refined grid
    amplifies FFT round-off by |P(xi)| up to Nyquist; the tolerance adds
    that standard bound, u log2(N) sum_k |a_k| xi_max^k sup|g^| / (2L)."""
    ref = sum(a * (1j) ** k * hermval(x, [0] * k + [1])
              for k, a in coeffs.items()) * np.exp(-x ** 2)
    u = np.finfo(float).eps
    noise = (u * math.log2(fine.n) * math.sqrt(math.pi)
             * sum(abs(a) * fine.dual_max ** k for k, a in coeffs.items())
             / (2.0 * fine.half_width))
    tol = TOL * float(np.max(np.abs(ref[inner]))) + 4.0 * noise
    return all(float(np.max(np.abs(f - ref)[inner])) <= tol
               for eps, f in zip(ladder.values, pg.frames)
               if eps <= 2.0 ** -5)


# ------------------------------------------------------------------ setup

_BUILDERS = {
    "catalog_ref": _catalog_ref,
    "conormal_2d": _conormal_2d,
    "depth_sweep": _depth_sweep,
    "algebra_chain": _algebra_chain,
}


def setup(name: str, rng, scratch: str) -> Workload:
    """Build the workload's grids, ladders, mollifier, weight tables and
    seeded inputs.  ``scratch`` is a directory the workload may write to;
    :meth:`Workload.close` removes it."""
    warnings.simplefilter("ignore", RuntimeWarning)
    os.makedirs(scratch, exist_ok=True)
    return Workload(name, _BUILDERS[name](rng, scratch),
                    KNOWN_FAULTS.get(name, frozenset()), scratch)
