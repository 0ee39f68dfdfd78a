#!/usr/bin/env python3
"""Print every catalog verdict on the reference rig as one JSON object.

    PYTHONPATH=src python3 scripts/verdict_table.py [DEPTH ...]

DEPTH is the number of ladder rungs (default 6 7 8 9 10).  The rig is the
CLI's default: n = 4096 on [-20, 20), ladder 2^-3 * 2^-j, Gevrey-2 weight,
mollifier index 1.5, gaussian_times_sine at frequency 3.  For each depth,
each of the six catalog entries and each mode it records:

* ``classify``: the net's class on the box (-10, 10);
* ``classify_off_support``: its class on (2, 10), away from the support;
* ``regularity``: the Fourier-decay verdict of the net windowed at 0 with
  radius 10;
* ``wavefront``: the flagged centres among (-2, 0, 2), window radius 0.5;
* ``bb_log1p`` and ``bb_pow0.5``: the weight-function class of the windowed
  net for omega = log(1 + t) and omega = t^0.5;

and, once per entry (the cross-check is a Beurling reading),
``crosscheck``: ``[agree, omega verdict]`` of the Colombeau cross-check,
and once per mode ``h2_minus_h``: the generalized-number verdict of
H^2 - H at the origin.  That is 80 verdicts per depth.  Keys are
``depth/entry/mode/verdict``; the output has sorted keys, so two
revisions compare with ``cmp``.  gfalg and the standard library only.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from gfalg import (EpsilonLadder, GeneralizedPoint, GridSpec,
                   ModelDistribution, WeightFunction, WeightSequence,
                   build_mollifier, classify_generalized_number,
                   classify_net, classify_net_bb, colombeau_crosscheck,
                   combine, point_value, regularity_test, regularize,
                   wavefront, window_net)

CATALOG = ("delta", "delta_prime", "heaviside", "pv_inverse", "gaussian",
           "gaussian_times_sine")
MODES = ("beurling", "roumieu")
DEPTHS = (6, 7, 8, 9, 10)


def _entry(kind: str) -> ModelDistribution:
    if kind == "gaussian_times_sine":
        return ModelDistribution(kind, freq=3.0)
    return ModelDistribution(kind)


def _h2_minus_h(h, ladder, seq, mode) -> str:
    defect = combine(combine(h, h, "mul"), h, "sub")
    origin = GeneralizedPoint(ladder, [[0.0]] * ladder.count, (-1.0, 1.0))
    scale = float(defect.sups.max())
    verdict = classify_generalized_number(point_value(defect, origin), seq,
                                          mode, reference_scale=scale)
    return verdict.classification


def table(depths) -> dict:
    grid = GridSpec(1, 20.0, 4096)
    moll = build_mollifier(1.5, grid)
    seq = WeightSequence.gevrey(2.0)
    omegas = {"bb_log1p": WeightFunction.log_one_plus_t(),
              "bb_pow0.5": WeightFunction.power(0.5)}
    out = {}
    for depth in depths:
        ladder = EpsilonLadder(2.0 ** -3, 0.5, depth)
        for kind in CATALOG:
            net = regularize(_entry(kind), moll, ladder, grid, weight=seq)
            netw = window_net(net, 0.0, 10.0)
            cross = colombeau_crosscheck(netw)
            out[f"{depth}/{kind}/crosscheck"] = [
                cross.agree, cross.omega_verdict.classification]
            for mode in MODES:
                key = f"{depth}/{kind}/{mode}"
                out[f"{key}/classify"] = classify_net(
                    net, (-10.0, 10.0), mode).classification
                out[f"{key}/classify_off_support"] = classify_net(
                    net, (2.0, 10.0), mode).classification
                out[f"{key}/regularity"] = regularity_test(netw, mode).verdict
                out[f"{key}/wavefront"] = list(wavefront(
                    net, (-2.0, 0.0, 2.0), 0.5, mode=mode).flagged_centers())
                for name, w in omegas.items():
                    out[f"{key}/{name}"] = classify_net_bb(
                        netw, w, mode).classification
                if kind == "heaviside":
                    out[f"{depth}/{mode}/h2_minus_h"] = _h2_minus_h(
                        net, ladder, seq, mode)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Print the catalog verdicts on the reference rig.")
    ap.add_argument("depths", nargs="*", type=int, default=list(DEPTHS),
                    metavar="DEPTH", help="ladder depths (rung counts)")
    args = ap.parse_args(argv)
    # the boundary-mass warnings of the unwindowed nets are expected, as in
    # the CLI, and are not verdicts
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        verdicts = table(args.depths)
    json.dump(verdicts, sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
