"""Property test of the command-line exit contract over fuzzed configs.

Configs are drawn from a fixed menu of valid and invalid values for each
key (wrong types, out-of-range values, NaN, Infinity, weight specs and
``expect`` entries) on top of a small rig: grid_n 256 and 6 rungs.  Every
run must keep the contract:

* the exit code is 0, 1 or 2;
* exit 2 leaves exactly one stderr line, starting with ``error:``;
* exit 0 or 1 leaves a MANIFEST.json whose output hashes verify;
* exit 1 happens exactly when the report lists expectation failures.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from gfalg.cli import COMMANDS, main

NAN = float("nan")
INF = float("inf")

RIG = {"grid_n": 256, "ladder_count": 6}

MENU = {
    "weight": ["gevrey:2", "gevrey:1.5", "gevrey:13", "gevrey:200",
               "gevrey:0.5", "gevrey:nan", "gevrey:1e300", "omega:log1p",
               "omega:pow:0.5", "omega:pow:2", "omega:", "foo:bar", 2],
    "sigma": [1.5, 2, 1.0, 0.5, NAN, INF, "1.5", True],
    "grid_n": [256, 512, 300, 128, 256.0, -256, "256"],
    "grid_half_width": [20.0, 10, 0, -1.0, NAN, INF],
    "ladder_eps0": [0.125, 0.5, 1, 0, 1.5, NAN],
    "ladder_ratio": [0.5, 0.7, 1.0, 0, -INF],
    "ladder_count": [6, 7, 5, 6.5, 40, True],
    "dist": ["delta", "heaviside", "gaussian", "gaussian_times_sine",
             "polynomial", "pv_inverse", "zero", "table", "bogus", 1],
    "freq": [3.0, 0, -1.0, NAN, INF],
    "coeffs": [[], [1, 0, 1], [1.0, NAN], [1, "x"], "1"],
    "table_path": ["", "no-such-table.json"],
    "mode": ["beurling", "roumieu", "bogus", None],
    "box": [[-10, 10], [-1.0, 1.0], [5, -5], [1], [-INF, 10], 5],
    "window_center": [0.0, 2, 15.0, NAN, INF, "0"],
    "window_radius": [10.0, 1, 0, -2.0, NAN],
    "wf_centers": [[-2.0, 0.0, 2.0], [0.0], [], [100.0], [NAN]],
    "wf_radius": [0.5, 2, 0, NAN, INF],
    "grids": ["oops"],
}

#: ``expect`` entries, drawn apart from the other keys so that runs which
#: reach a report often carry one; None leaves the key out
EXPECT = [None, {}, {"verdict.classification": "moderate"},
          {"verdict.ok": True}, {"verdict.kappa": 1.0}, {"verdict": 1.0},
          {"verdict.classification": 1.0}, {"no.such.path": 1},
          {"verdict.ok": NAN}, {"verdict.classification": [1.0, {"a": INF}]},
          "x"]

# at most two keys per config, so that valid configs, which run the
# pipeline to a report, are drawn about as often as invalid ones
configs = st.lists(st.sampled_from(sorted(MENU)), max_size=2,
                   unique=True).flatmap(
    lambda keys: st.fixed_dictionaries(
        {k: st.sampled_from(MENU[k]) for k in keys}))


def _check_run(command: str, config: dict, tmp: str):
    # the rig's weight suits the command; a drawn weight overrides it
    weight = "omega:log1p" if command == "bb-classify" else "gevrey:2"
    cfgp = os.path.join(tmp, "cfg.json")
    with open(cfgp, "w") as fh:  # NaN, Infinity: JSON extensions
        json.dump({**RIG, "weight": weight, **config}, fh)
    out = os.path.join(tmp, "out")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([command, "--config", cfgp, "--out", out])
    err = stderr.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1, err
        return
    with open(os.path.join(out, "MANIFEST.json")) as fh:
        manifest = json.load(fh)
    assert "report.json" in manifest["outputs"]
    for name, digest in manifest["outputs"].items():
        with open(os.path.join(out, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    assert (code == 1) == bool(report["expectation_failures"])


@given(command=st.sampled_from(COMMANDS), config=configs,
       expect=st.sampled_from(EXPECT))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_exit_contract(command, config, expect):
    if expect is not None:
        config = {**config, "expect": expect}
    with tempfile.TemporaryDirectory() as tmp:
        _check_run(command, config, tmp)
