"""scripts/bench_record.py: the per-workload summary of paired runs."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower"},
           {"name": "ops", "unit": "1/s", "better": "higher"}]


def _runs(parent, change):
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change), start=1):
        for side, v in (("parent", p), ("change", c)):
            runs.append({"workload": "w", "pair": pair, "side": side,
                         "metrics": {"wall_s": v, "ops": v}})
    return runs


def test_wins_count_by_direction_and_ties_count_for_neither():
    out = bench_record.summarize(_runs([2.0, 2.0, 2.0, 2.0],
                                       [1.0, 1.0, 2.0, 3.0]), METRICS)["w"]
    assert out["wall_s"]["change_won"] == 2
    assert out["ops"]["change_won"] == 1
    assert out["wall_s"]["pairs"] == 4


def test_median_and_quartiles_per_side():
    out = bench_record.summarize(_runs([1.0, 2.0, 3.0, 4.0, 5.0],
                                       [5.0] * 5), METRICS)["w"]
    assert out["wall_s"]["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0,
                                       "n": 5}
    assert out["wall_s"]["change"]["q1"] == out["wall_s"]["change"]["q3"]


def test_one_run_has_no_spread():
    assert bench_record.spread([1.5]) == {"median": 1.5, "q1": 1.5,
                                          "q3": 1.5, "n": 1}


def test_bad_pairs_argument_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--parent", "HEAD", "--label", "x",
                           "--pairs", "nosuch=2"])
    assert exc.value.code == 2
    assert "--pairs" in capsys.readouterr().err


def test_machine_entry_names_numpy_and_its_blas():
    import numpy
    build = bench_record.numpy_build()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert build == {"numpy": numpy.__version__, "blas": blas["name"],
                     "blas_version": blas["version"]}


def test_machine_entry_without_an_interpreter_is_unavailable(tmp_path):
    build = bench_record.numpy_build(str(tmp_path / "no-python"))
    assert build == {"numpy": "unavailable", "blas": "unavailable",
                     "blas_version": "unavailable"}


def test_first_seed_must_be_a_number(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--parent", "HEAD", "--label", "x",
                           "--first-seed", "one"])
    assert exc.value.code == 2
    assert "--first-seed" in capsys.readouterr().err


def test_pass_count_read_from_the_outcome_line():
    line = "depth_sweep: 2 passes, 50 operations attempted, 8 failed"
    assert bench_record.pass_count(line) == 2
    assert bench_record.pass_count(
        "catalog_ref: 17 passes, 663 operations attempted, 0 failed") == 17
    with pytest.raises(ValueError, match="no pass count"):
        bench_record.pass_count("")


def test_median_pass_count_per_side():
    runs = _runs([2.0, 2.0, 2.0], [1.0, 1.0, 1.0])
    for r, passes in zip(runs, (1, 2, 2, 2, 1, 3)):
        r["passes"] = passes
    out = bench_record.summarize(runs, METRICS)["w"]
    assert out["passes"] == {"parent": 1, "change": 2}
    assert type(out["passes"]["parent"]) is int


def test_no_pass_count_without_one_on_every_run():
    runs = _runs([2.0, 2.0], [1.0, 1.0])
    runs[0]["passes"] = 1
    assert "passes" not in bench_record.summarize(runs, METRICS)["w"]


BOUNDED = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
           {"name": "ops", "unit": "1/s", "better": "higher", "bound": 0.1}]


def test_within_bound_by_direction():
    assert bench_record.within_bound(1.0, 1.24, "lower", 0.24)
    assert not bench_record.within_bound(1.0, 1.25, "lower", 0.24)
    assert bench_record.within_bound(1.0, 0.9, "higher", 0.1)
    assert not bench_record.within_bound(1.0, 0.89, "higher", 0.1)


def test_summary_records_the_bound_and_whether_the_change_keeps_it():
    out = bench_record.summarize(_runs([1.0] * 3, [1.2] * 3), BOUNDED)["w"]
    assert out["wall_s"]["bound"] == 0.24
    assert out["wall_s"]["within_bound"] is True
    # more ops is better: 1.2 against 1.0 is inside any bound
    assert out["ops"]["within_bound"] is True
    out = bench_record.summarize(_runs([1.0] * 3, [1.3] * 3), BOUNDED)["w"]
    assert out["wall_s"]["within_bound"] is False
    out = bench_record.summarize(_runs([1.0] * 3, [0.8] * 3), BOUNDED)["w"]
    assert out["ops"]["within_bound"] is False


def test_no_verdict_without_a_bound():
    out = bench_record.summarize(_runs([1.0], [9.0]), METRICS)["w"]
    assert "within_bound" not in out["wall_s"]


def _claim(parent, change):
    return bench_record.summarize(_runs(parent, change), BOUNDED)["w"]


def test_claim_holds_on_nine_wins_past_the_parents_spread():
    parent = [2.0, 2.1, 2.2, 2.0, 2.1, 2.2, 2.0, 2.1, 2.2, 2.1]
    change = [1.5] * 9 + [2.5]
    entry = _claim(parent, change)["wall_s"]
    assert entry["change_won"] == 9
    assert bench_record.claim_holds(entry)


def test_claim_fails_on_eight_wins():
    parent = [2.0] * 10
    change = [1.0] * 8 + [3.0] * 2
    assert not bench_record.claim_holds(_claim(parent, change)["wall_s"])


def test_claim_fails_inside_the_parents_spread():
    # every pair won, but by less than the parent's interquartile range
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    change = [p - 0.5 for p in parent]
    entry = _claim(parent, change)["wall_s"]
    assert entry["change_won"] == 10
    assert not bench_record.claim_holds(entry)


def test_claim_reads_the_metrics_direction():
    parent = [1.0] * 10
    entry = _claim(parent, [1.5] * 10)
    assert bench_record.claim_holds(entry["ops"])
    assert not bench_record.claim_holds(entry["wall_s"])


@pytest.mark.parametrize("claim", ("nosuch/wall_s", "depth_sweep/nosuch",
                                   "depth_sweep"))
def test_bad_claim_argument_rejected(capsys, claim):
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--parent", "HEAD", "--label", "x",
                           "--claim", claim])
    assert exc.value.code == 2
    assert "--claim" in capsys.readouterr().err


def test_claim_on_a_skipped_workload_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--parent", "HEAD", "--label", "x",
                           "--pairs", "depth_sweep=0",
                           "--claim", "depth_sweep/wall_s"])
    assert exc.value.code == 2
    assert "--claim" in capsys.readouterr().err
