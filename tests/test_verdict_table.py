"""scripts/verdict_table.py: the catalog verdicts as one sorted JSON
object, and how they hold across ladder depths."""

import importlib.util
import json
import warnings
from collections import defaultdict
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "verdict_table.py"
#: the 160 verdicts at depths 6 and 8, as printed at 850dfb8.  A change that
#: moves a verdict on purpose updates this file and says why.
_FIXTURE = (Path(__file__).resolve().parent / "fixtures"
            / "verdict_table_6_8.json")
_spec = importlib.util.spec_from_file_location("verdict_table", _SCRIPT)
verdict_table = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verdict_table)

#: Verdict keys (``entry/mode/verdict``) whose reading changes between
#: depths 6 and 10, each with the depths at which it changes; an
#: "inconclusive" reading is skipped.  Any other change fails.  A change
#: that mends one of these removes it here and says why.
DEPTH_FLIPS = {
    # wave fronts: the shallower ladders flag no centre, where deeper ones
    # flag 0; at depth 6 in Beurling mode the window's Gevrey tail fills
    # the band (ROADMAP item 2)
    "delta/beurling/wavefront": (7,),
    "heaviside/beurling/wavefront": (7,),
    "pv_inverse/beurling/wavefront": (7,),
    "heaviside/roumieu/wavefront": (8,),
    # regular at depths 6-7, classically not_regular from depth 8
    "heaviside/roumieu/regularity": (8,),
    # off the support (2, 10): delta and delta_prime read moderate before
    # the classical negligible, gaussian_times_sine reads negligible at
    # depth 6 before the classical moderate; ROADMAP item 3
    "delta/beurling/classify_off_support": (10,),
    "delta_prime/beurling/classify_off_support": (9,),
    "gaussian_times_sine/roumieu/classify_off_support": (7,),
}


@pytest.fixture(scope="module")
def table():
    """The verdicts at every depth of ``verdict_table.DEPTHS``, computed
    once for the module."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return verdict_table.table(verdict_table.DEPTHS)


def _at(table, *depths) -> dict:
    return {k: v for k, v in table.items()
            if int(k.split("/", 1)[0]) in depths}


def test_main_prints_the_table_sorted(table, capsys, monkeypatch):
    asked = []

    def cached(depths):
        asked.append(list(depths))
        return _at(table, *depths)

    monkeypatch.setattr(verdict_table, "table", cached)
    assert verdict_table.main(["6"]) == 0
    assert asked == [[6]]
    out = capsys.readouterr().out
    printed = json.loads(out)
    assert len(printed) == 80
    assert list(printed) == sorted(printed)
    assert json.dumps(printed, sort_keys=True, indent=1) + "\n" == out


def test_depth_6_smoke(table):
    six = _at(table, 6)
    assert len(six) == 80
    assert {k.split("/")[-1] for k in six} == {
        "classify", "classify_off_support", "regularity", "wavefront",
        "bb_log1p", "bb_pow0.5", "crosscheck", "h2_minus_h"}
    for mode in ("beurling", "roumieu"):
        assert six[f"6/gaussian/{mode}/regularity"] == "regular"
        assert six[f"6/delta/{mode}/regularity"] == "not_regular"
        assert six[f"6/gaussian/{mode}/wavefront"] == []
    assert all(six[f"6/{kind}/crosscheck"][0]
               for kind in verdict_table.CATALOG)


def test_depths_6_and_8_match_the_committed_table(table):
    printed = json.dumps(_at(table, 6, 8), sort_keys=True, indent=1) + "\n"
    assert printed == _FIXTURE.read_text()


def test_verdicts_agree_across_depths_or_are_inconclusive(table):
    readings = defaultdict(dict)
    for key, verdict in table.items():
        depth, rest = key.split("/", 1)
        readings[rest][int(depth)] = verdict
    assert len(readings) == 80
    flips = {}
    for rest, by_depth in readings.items():
        assert sorted(by_depth) == list(verdict_table.DEPTHS), rest
        last, at = None, []
        for depth, verdict in sorted(by_depth.items()):
            if verdict == "inconclusive":
                continue
            if last is not None and verdict != last:
                at.append(depth)
            last = verdict
        if at:
            flips[rest] = tuple(at)
    assert flips == DEPTH_FLIPS
