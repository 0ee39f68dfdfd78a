"""scripts/verdict_table.py: the catalog verdicts as one sorted JSON
object."""

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "verdict_table.py"
#: the 160 verdicts at depths 6 and 8, as printed at 850dfb8.  A change that
#: moves a verdict on purpose updates this file and says why.
_FIXTURE = (Path(__file__).resolve().parent / "fixtures"
            / "verdict_table_6_8.json")
_spec = importlib.util.spec_from_file_location("verdict_table", _SCRIPT)
verdict_table = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verdict_table)


def test_depth_6_smoke(capsys):
    assert verdict_table.main(["6"]) == 0
    out = capsys.readouterr().out
    table = json.loads(out)
    assert len(table) == 80
    assert list(table) == sorted(table)
    assert json.dumps(table, sort_keys=True, indent=1) + "\n" == out
    assert {k.split("/")[-1] for k in table} == {
        "classify", "classify_off_support", "regularity", "wavefront",
        "bb_log1p", "bb_pow0.5", "crosscheck", "h2_minus_h"}
    for mode in ("beurling", "roumieu"):
        assert table[f"6/gaussian/{mode}/regularity"] == "regular"
        assert table[f"6/delta/{mode}/regularity"] == "not_regular"
        assert table[f"6/gaussian/{mode}/wavefront"] == []
    assert all(table[f"6/{kind}/crosscheck"][0]
               for kind in verdict_table.CATALOG)


def test_depths_6_and_8_match_the_committed_table(capsys):
    assert verdict_table.main(["6", "8"]) == 0
    out = capsys.readouterr().out
    fixture = _FIXTURE.read_text()
    assert json.loads(out) == json.loads(fixture)
    assert out == fixture
