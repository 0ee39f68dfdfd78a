"""scripts/compare_runs.py: file and JSON-path differences between two
run_catalog.py output roots."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_runs.py"
_spec = importlib.util.spec_from_file_location("compare_runs", _SCRIPT)
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)

REPORT = {"results": {"verdict": {"classification": "moderate",
                                  "nu": [1.0, 2.0, 4.0]}},
          "schema": "gfalg-report/1"}


def _root(path: Path, report: dict, extra: str = None) -> Path:
    run = path / "classify" / "delta"
    run.mkdir(parents=True)
    (run / "report.json").write_text(json.dumps(report, sort_keys=True))
    (run / "nu.csv").write_text("j,nu\n0,1.0\n")
    if extra:
        (run / extra).write_text("x")
    return path


def test_identical_roots_exit_zero(tmp_path, capsys):
    a = _root(tmp_path / "a", REPORT)
    b = _root(tmp_path / "b", REPORT)
    assert compare_runs.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == "identical: 2 files\n"


def test_differences_listed_with_json_paths(tmp_path, capsys):
    changed = json.loads(json.dumps(REPORT))
    changed["results"]["verdict"]["nu"][1] = 2.002
    changed["results"]["verdict"]["nu"][2] = 4.004
    changed["results"]["verdict"]["classification"] = "neither"
    a = _root(tmp_path / "a", REPORT)
    b = _root(tmp_path / "b", changed, extra="extra.csv")
    assert compare_runs.main([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "only in B: classify/delta/extra.csv"
    assert lines[1] == "differs: classify/delta/report.json"
    assert "  results.verdict.classification: changed" in lines
    assert ("  results.verdict.nu[]: max rel diff 0.000999, "
            "max abs diff 0.004") in lines
    assert lines[-1] == "2 files differ"


def test_missing_root_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        compare_runs.main([str(tmp_path), str(tmp_path / "absent")])
    assert exc.value.code == 2


def test_every_json_file_listed_with_json_paths(tmp_path, capsys):
    a = _root(tmp_path / "a", REPORT)
    b = _root(tmp_path / "b", REPORT)
    (a / "verdicts.json").write_text(json.dumps(
        {"10/delta/beurling/classify_off_support": "moderate"}))
    (b / "verdicts.json").write_text(json.dumps(
        {"10/delta/beurling/classify_off_support": "negligible"}))
    assert compare_runs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: verdicts.json",
        "  10/delta/beurling/classify_off_support: changed",
        "1 files differ"]


def test_absolute_difference_beside_the_relative_one(tmp_path, capsys):
    # an order that is 0 up to round-off: a large relative move of a
    # negligible number
    report = {"fitted_order": -1.008e-17, "kappa": [1.0, 2.0]}
    moved = {"fitted_order": -1.161e-17, "kappa": [1.0, 2.0 + 2 ** -51]}
    a = _root(tmp_path / "a", report)
    b = _root(tmp_path / "b", moved)
    assert compare_runs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: classify/delta/report.json",
        "  fitted_order: max rel diff 0.132, max abs diff 1.53e-18",
        "  kappa[]: max rel diff 2.22e-16, max abs diff 4.44e-16",
        "1 files differ"]
