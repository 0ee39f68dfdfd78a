"""Command-line driver: exit codes, deterministic reports, manifests."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import gfalg
from gfalg.cli import main
from gfalg.weights import WeightSequence


def run(tmp_path, *argv, name="out"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    report = {}
    rp = out / "report.json"
    if rp.exists():
        report = json.loads(rp.read_text())
    return code, out, report


class TestWeightsCheck:
    def test_gevrey2_certificate(self, tmp_path):
        code, _, rep = run(tmp_path, "weights-check", "--weight", "gevrey:2")
        assert code == 0
        cond = rep["results"]["conditions"]
        assert cond["m1_ok"] and cond["m2_ok"]
        assert cond["m2_constants"] == {"A": 1.0, "H": 4.0}
        assert cond["m2_functional_ok"]
        assert rep["results"]["verdict"]["ok"]

    def test_omega_log1p(self, tmp_path):
        code, _, rep = run(tmp_path, "weights-check", "--weight",
                           "omega:log1p")
        assert code == 0
        assert rep["results"]["verdict"]["ok"]

    def test_bad_weight_spec_is_precondition_error(self, tmp_path, capsys):
        code, _, _ = run(tmp_path, "weights-check", "--weight", "foo:bar")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


class TestClassify:
    def test_delta_moderate(self, tmp_path):
        code, _, rep = run(tmp_path, "classify", "--dist", "delta")
        assert code == 0
        assert rep["results"]["verdict"]["classification"] == "moderate"

    def test_zero_dist_negligible(self, tmp_path):
        code, _, rep = run(tmp_path, "classify", "--dist", "zero")
        assert code == 0
        assert rep["results"]["verdict"]["classification"] == "negligible"

    def test_deterministic_across_out_dirs(self, tmp_path):
        _, out1, _ = run(tmp_path, "classify", "--dist", "gaussian",
                         name="a")
        _, out2, _ = run(tmp_path, "classify", "--dist", "gaussian",
                         name="b")
        assert (out1 / "report.json").read_bytes() == \
            (out2 / "report.json").read_bytes()
        assert (out1 / "MANIFEST.json").read_bytes() == \
            (out2 / "MANIFEST.json").read_bytes()

    def test_expectation_mismatch_exits_one(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({
            "dist": "delta",
            "expect": {"verdict.classification": "negligible"}}))
        code, _, rep = run(tmp_path, "classify", "--config", str(cfgp))
        assert code == 1
        assert "expectation failed" in capsys.readouterr().err
        assert rep["expectation_failures"]

    def test_expectation_match_exits_zero(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({
            "dist": "delta",
            "expect": {"verdict.classification": "moderate"}}))
        code, _, _ = run(tmp_path, "classify", "--config", str(cfgp))
        assert code == 0


class TestThreadCount:
    def test_report_independent_of_blas_threads(self, tmp_path):
        src = os.path.dirname(os.path.dirname(gfalg.__file__))
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "PYTHONPATH": src,
                   "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads}
            subprocess.run(
                [sys.executable, "-m", "gfalg.cli", "embed", "--dist",
                 "delta_prime", "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=300)
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]


_NUMPY_ONLY = """
import json, sys
# the test extras may not be imported
for name in ("scipy", "hypothesis", "pytest"):
    sys.modules[name] = None
before = set(sys.modules)
from gfalg.cli import main
codes = {}
for command in ("embed", "classify", "regularity", "wavefront",
                "bb-classify", "crosscheck", "weights-check",
                "mollifier-build", "impossibility-demo"):
    argv = [command, "--out", sys.argv[1] + "/" + command]
    if command == "bb-classify":
        argv += ["--weight", "omega:log1p"]
    codes[command] = main(argv)
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps({"codes": codes, "added": sorted(
    added - set(sys.stdlib_module_names))}))
"""


class TestRuntimeDependencies:
    def test_every_command_runs_on_numpy_alone(self, tmp_path):
        """Runtime dependencies stay at NumPy only: all nine commands run
        on the reference rig with the test extras unimportable, and the
        only non-stdlib modules they load are gfalg's and NumPy's."""
        src = os.path.dirname(os.path.dirname(gfalg.__file__))
        done = subprocess.run(
            [sys.executable, "-c", _NUMPY_ONLY, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src}, check=True,
            capture_output=True, text=True, timeout=300)
        result = json.loads(done.stdout)
        assert set(result["codes"].values()) == {0}, result["codes"]
        assert result["added"] == ["gfalg", "numpy"]


class TestManifest:
    def test_hashes_cover_outputs(self, tmp_path):
        code, out, _ = run(tmp_path, "embed", "--dist", "gaussian")
        assert code == 0
        manifest = json.loads((out / "MANIFEST.json").read_text())
        for fname, entry in manifest["outputs"].items():
            digest = hashlib.sha256((out / fname).read_bytes()).hexdigest()
            assert digest == entry

    def test_config_hash_recorded(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"dist": "gaussian"}))
        code, out, _ = run(tmp_path, "embed", "--config", str(cfgp))
        assert code == 0
        manifest = json.loads((out / "MANIFEST.json").read_text())
        digest = hashlib.sha256(cfgp.read_bytes()).hexdigest()
        assert manifest["inputs"]["cfg.json"] == digest


class TestWavefront:
    def test_delta_matches_classical_with_csv(self, tmp_path):
        code, out, rep = run(tmp_path, "wavefront", "--dist", "delta")
        assert code == 0
        assert rep["results"]["verdict"]["matches_classical"] is True
        lines = (out / "wf.csv").read_text().strip().splitlines()
        # header + one row per (center, ray) pair: 3 centers x 2 rays
        assert len(lines) == 7


class TestImpossibilityDemo:
    def test_square_defect_not_negligible(self, tmp_path):
        code, _, rep = run(tmp_path, "impossibility-demo")
        assert code == 0
        assert rep["results"]["verdict"]["non_negligible"] is True
        vals = rep["results"]["values_at_origin"]
        assert all(v == pytest.approx(-0.25, abs=1e-6) for v in vals)


class TestConfigErrors:
    def test_unknown_config_key(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"dist": "delta", "grids": "oops"}))
        code, _, _ = run(tmp_path, "classify", "--config", str(cfgp))
        assert code == 2
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        {"grid_n": "4096"}, {"sigma": "1.5"}, {"box": 5},
        {"ladder_count": 6.5}, {"wf_radius": True}, {"box": [-5, "5"]}])
    def test_wrongly_typed_value_rejected(self, tmp_path, capsys, entry):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"dist": "delta", **entry}))
        code, _, _ = run(tmp_path, "classify", "--config", str(cfgp))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert next(iter(entry)) in err

    @pytest.mark.parametrize("command,entry", [
        ("classify", {"box": [1]}),
        # wavefront never reads the box, but a bad config is bad everywhere
        ("wavefront", {"box": [1]}),
        ("classify", {"box": [5, -5]}),
        ("classify", {"box": [-5, 0, 5]}),
        ("wavefront", {"wf_centers": []})])
    def test_badly_shaped_value_rejected(self, tmp_path, capsys, command,
                                         entry):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"dist": "delta", **entry}))
        code, out, _ = run(tmp_path, command, "--config", str(cfgp))
        assert code == 2
        assert not (out / "report.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert next(iter(entry)) in err

    @pytest.mark.parametrize("entry", [
        {"grid_n": 100}, {"grid_n": 128}, {"grid_n": 3000},
        {"grid_half_width": 0}, {"window_radius": -2.0},
        {"wf_radius": -1}, {"sigma": 1.0}, {"ladder_eps0": 0},
        {"ladder_eps0": 1.5}, {"ladder_ratio": 1.0}, {"ladder_ratio": 0},
        {"ladder_count": 5}])
    def test_out_of_range_value_names_its_key(self, tmp_path, capsys,
                                               entry):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"dist": "delta", **entry}))
        code, out, _ = run(tmp_path, "wavefront", "--config", str(cfgp))
        assert code == 2
        assert not (out / "report.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{next(iter(entry))}=" in err

    def test_aliasing_ladder_rejected(self, tmp_path, capsys):
        code, _, _ = run(tmp_path, "embed", "--dist", "delta",
                         "--ladder", "0.125,0.5,14")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_flag_overrides_config(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"dist": "delta"}))
        code, _, rep = run(tmp_path, "embed", "--config", str(cfgp),
                           "--dist", "gaussian")
        assert code == 0
        assert rep["config"]["dist"] == "gaussian"
        assert "out" not in rep["config"]


class TestFlagValues:
    @pytest.mark.parametrize("flag,value", [
        ("ladder", "0.125,0.5,inf"), ("ladder", "0.125,0.5,8.7"),
        ("grid", "nan,20"), ("grid", "4096.9,20"), ("grid", "4096,inf")])
    def test_whole_finite_slots_required(self, tmp_path, capsys, flag,
                                         value):
        # N of --grid and COUNT of --ladder are integers; no slot may be
        # infinite or NaN
        code, out, _ = run(tmp_path, "weights-check", f"--{flag}", value)
        assert code == 2
        assert not (out / "report.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"--{flag}" in err


class TestBbClassifyReusesLadder:
    def test_one_forward_per_rung(self, tmp_path, monkeypatch):
        # fl_norms.csv reads the classifier's lambda = 1 ladder instead of
        # transforming every frame a second time; frames are transformed by
        # the spectrum reader nets._spectrum
        from gfalg import bb, nets
        calls = []
        real = bb.forward

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(bb, "forward", counted)
        monkeypatch.setattr(nets, "forward", counted)
        code, out, rep = run(tmp_path, "bb-classify", "--weight",
                             "omega:log1p", "--dist", "delta")
        assert code == 0
        assert len(calls) == rep["config"]["ladder_count"]
        rows = (out / "fl_norms.csv").read_text().splitlines()
        assert rows[0] == "eps,log_fl1_lambda1"
        assert len(rows) == 1 + rep["config"]["ladder_count"]


class TestModeAndWeightFromTheNet:
    """The commands pass each classifier the net alone (and a box, centres
    or a weight function): mode and weight sequence come from the net."""

    @pytest.mark.parametrize("command,target", [
        ("embed", "classify_net"), ("classify", "classify_net"),
        ("regularity", "regularity_test"), ("wavefront", "wavefront"),
        ("bb-classify", "classify_net_bb")])
    def test_no_mode_or_sequence_is_passed(self, tmp_path, monkeypatch,
                                           command, target):
        from gfalg import cli
        seen = []
        real = getattr(cli, target)

        def spy(net, *args, **kwargs):
            seen.append((net.mode, args, kwargs))
            return real(net, *args, **kwargs)

        monkeypatch.setattr(cli, target, spy)
        weight = "omega:log1p" if command == "bb-classify" else "gevrey:2"
        code, _, rep = run(tmp_path, command, "--mode", "roumieu",
                           "--weight", weight, "--ladder", "0.125,0.5,6")
        assert code == 0
        ((mode, args, kwargs),) = seen
        assert mode == "roumieu" and kwargs == {}
        assert not any(isinstance(a, (str, WeightSequence)) for a in args)
        mode_path = {"embed": None, "wavefront": ("wavefront", "mode")}.get(
            command, ("verdict", "mode"))
        if mode_path:
            node = rep["results"]
            for key in mode_path:
                node = node[key]
            assert node.endswith("roumieu")


class TestWeightsCheckOrders:
    @pytest.mark.parametrize("s,H", [("1.25", 4.0), ("1.5", 4.0),
                                     ("2.2", 8.0), ("2.5", 8.0)])
    def test_functional_m2_at_the_reported_h(self, tmp_path, s, H):
        code, _, rep = run(tmp_path, "weights-check", "--weight",
                           f"gevrey:{s}")
        assert code == 0
        cond = rep["results"]["conditions"]
        assert cond["m2_constants"] == {"A": 1.0, "H": H}
        assert cond["m2_functional_ok"]
        assert rep["results"]["verdict"]["ok"]

    @pytest.mark.parametrize("s", ["13", "20", "200", "1e300"])
    def test_no_finite_h_is_a_failed_condition(self, tmp_path, s):
        # H = 2^s is past the search grid: (M.2) is reported as failed,
        # and the functional form, which needs an H, is not evaluated
        code, _, rep = run(tmp_path, "weights-check", "--weight",
                           f"gevrey:{s}")
        assert code == 0
        cond = rep["results"]["conditions"]
        assert cond["m2_constants"]["H"] == "inf"
        assert cond["m2_ok"] is False
        assert cond["m2_functional_ok"] is False
        assert rep["results"]["verdict"]["ok"] is False


class TestWeightsCheckDeepTable:
    """H is read from the table the functional (M.2) is checked on."""

    @pytest.mark.parametrize("s,H", [("1.01", 4.0), ("2", 4.0),
                                     ("2.01", 8.0)])
    def test_h_is_stable_on_the_checked_table(self, tmp_path, s, H):
        from gfalg.weights import (WeightSequence, check_conditions,
                                   resolved_for)
        code, _, rep = run(tmp_path, "weights-check", "--weight",
                           f"gevrey:{s}")
        assert code == 0
        cond = rep["results"]["conditions"]
        assert cond["m2_constants"] == {"A": 1.0, "H": H}
        assert H >= 2.0 ** float(s)  # 2 M_p M_q <= M_{p+q} needs H >= 2^s
        assert cond["m2_ok"] and cond["m2_functional_ok"]
        deep = resolved_for(WeightSequence.gevrey(float(s)), H * 1e6)
        assert check_conditions(deep).m2_constants == (1.0, H)

    def test_the_deep_table_moves_h(self, tmp_path, monkeypatch):
        # gevrey:1.01 reads H = 2 on its 256-entry table and H = 4 on the
        # 2 165 492-entry table that resolves M(2 t) up to t = 1e6; the
        # deep table's H is read by m2_constant alone, not by the whole
        # check_conditions
        from gfalg import cli
        from gfalg.weights import (WeightSequence, check_conditions,
                                   m2_constant, resolved_for)
        w = WeightSequence.gevrey(1.01)
        assert w.p_max == 256
        assert check_conditions(w).m2_constants == (1.0, 2.0)
        deep = resolved_for(w, 2.0 * 1e6)
        assert deep.p_max == 2165492
        assert m2_constant(deep) == 4.0
        checked = []
        real = cli.check_conditions

        def counted(seq):
            checked.append(seq.p_max)
            return real(seq)

        monkeypatch.setattr(cli, "check_conditions", counted)
        code, _, rep = run(tmp_path, "weights-check", "--weight", "gevrey:1.01")
        assert code == 0
        assert rep["results"]["conditions"]["m2_constants"]["H"] == 4.0
        assert checked == [256]


class TestContractGaps:
    @pytest.mark.parametrize("expect", [
        {"conditions.m2_constants": 1.0},  # a number against an object
        {"conditions.weight.kind": 2.0},  # a number against a string
        {"conditions.m2_constants.H": [4.0]}])
    def test_number_against_non_number_is_a_mismatch(self, tmp_path, capsys,
                                                    expect):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"expect": expect}))
        code, _, rep = run(tmp_path, "weights-check", "--config", str(cfgp))
        assert code == 1
        assert [f["reason"] for f in rep["expectation_failures"]] == [
            "mismatch"]
        assert "expectation failed" in capsys.readouterr().err

    def test_classify_kappa_against_a_number(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({
            "dist": "delta", "grid_n": 256, "ladder_count": 6,
            "expect": {"verdict.kappa": 1.0}}))
        code, _, rep = run(tmp_path, "classify", "--config", str(cfgp))
        assert code == 1
        assert rep["expectation_failures"][0]["reason"] == "mismatch"

    @pytest.mark.parametrize("spec", ["gevrey:nan", "gevrey:inf",
                                      "gevrey:-inf", "gevrey:0"])
    def test_gevrey_order_must_be_finite_and_positive(self, tmp_path, capsys,
                                                     spec):
        code, out, _ = run(tmp_path, "weights-check", "--weight", spec)
        assert code == 2
        assert not (out / "report.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(spec) in err

    @pytest.mark.parametrize("command,text", [
        ("regularity", '{"window_center": NaN}'),
        ("classify", '{"dist": "gaussian_times_sine", "freq": Infinity}'),
        ("wavefront", '{"wf_centers": [0.0, -Infinity]}'),
        ("classify", '{"expect": {"verdict.classification": NaN}}'),
        ("classify", '{"sigma": 1e400}')])
    def test_non_finite_config_value_names_its_key(self, tmp_path, capsys,
                                                   command, text):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(text)
        key = [k for k in json.loads(text) if k != "dist"][0]
        code, out, _ = run(tmp_path, command, "--config", str(cfgp))
        assert code == 2
        assert not (out / "report.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{key}=" in err and "not finite" in err


class TestSanitize:
    def test_numpy_values_become_plain_json(self):
        from gfalg.cli import _sanitize
        import numpy as np
        got = _sanitize({"a": np.array([1.0, np.nan, -np.inf]),
                         "b": (np.int64(3), np.bool_(True)),
                         "c": np.float32(0.5), "d": [np.array([[1, 2]])]})
        assert got == {"a": [1.0, "nan", "-inf"], "b": [3, True],
                       "c": 0.5, "d": [[[1, 2]]]}
        assert type(got["b"][0]) is int and type(got["b"][1]) is bool
        json.dumps(got, allow_nan=False)


class TestSigmaFlag:
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_sigma_names_its_key(self, tmp_path, capsys, value):
        code, out, _ = run(tmp_path, "mollifier-build", "--sigma", value)
        assert code == 2
        assert not (out / "report.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "sigma=" in err


class TestBoolIsNeverANumber:
    """A bool in the report or in ``expect`` matches only a bool, the rule
    load_config applies to config values."""

    @pytest.mark.parametrize("command,expect", [
        ("weights-check", {"verdict.ok": 1}),
        ("weights-check", {"verdict.ok": 1.0}),
        ("weights-check", {"conditions.m2_constants.A": True}),
        ("impossibility-demo", {"verdict.non_negligible": 1.0})])
    def test_bool_against_a_number_is_a_mismatch(self, tmp_path, capsys,
                                                command, expect):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"expect": expect}))
        code, _, rep = run(tmp_path, command, "--config", str(cfgp))
        assert code == 1
        assert [f["reason"] for f in rep["expectation_failures"]] == [
            "mismatch"]
        assert "expectation failed" in capsys.readouterr().err

    def test_bool_against_a_bool_still_matches(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"expect": {"verdict.ok": True}}))
        code, _, rep = run(tmp_path, "weights-check", "--config", str(cfgp))
        assert code == 0 and rep["expectation_failures"] == []


class TestMissingPathMessage:
    def test_missing_path_is_named_missing(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"expect": {"verdict.absent": None}}))
        code, _, rep = run(tmp_path, "weights-check", "--config", str(cfgp))
        assert code == 1
        assert rep["expectation_failures"][0]["reason"] == "missing"
        err = capsys.readouterr().err
        assert err == ("expectation failed: verdict.absent: expected None, "
                       "missing from the report\n")


class TestBoxBetweenBaseNodes:
    @pytest.mark.parametrize("dist", ("delta", "heaviside"))
    def test_classified_on_the_refined_nodes(self, tmp_path, dist):
        # base nodes are 40/4096 = 0.0098 apart and none lies in the box;
        # the rungs whose alias-free grid is coarser than that take the
        # derivatives on the grid refined 4 times, which has a node there
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"dist": dist, "box": [0.001, 0.004]}))
        code, _, rep = run(tmp_path, "classify", "--config", str(cfgp))
        assert code in (0, 1)
        assert rep["results"]["verdict"]["classification"] == "moderate"


class TestWindowLeavesTheGrid:
    @pytest.mark.parametrize("command,weight", [
        ("regularity", "gevrey:2"), ("bb-classify", "omega:log1p"),
        ("crosscheck", "gevrey:2")])
    def test_precondition_error_names_the_window(self, tmp_path, capsys,
                                                 command, weight):
        # |15| + 10 passes the half-width 20: the window would be cut at
        # the periodic seam
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({
            "dist": "gaussian", "weight": weight, "grid_n": 256,
            "ladder_count": 6, "window_center": 15.0,
            "window_radius": 10.0}))
        code, out, _ = run(tmp_path, command, "--config", str(cfgp))
        assert code == 2
        assert not (out / "report.json").exists()
        assert capsys.readouterr().err == (
            "error: ValueError: window at 15.0 leaves the grid\n")

    def test_default_window_and_one_reaching_the_edge(self, tmp_path):
        code, _, rep = run(tmp_path, "regularity", "--dist", "gaussian",
                           "--grid", "256,20", "--ladder", "0.125,0.5,6",
                           name="default")
        assert code == 0
        assert rep["results"]["window"] == {"center": 0.0, "radius": 10.0}
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({
            "dist": "gaussian", "grid_n": 256, "ladder_count": 6,
            "window_center": 10.0, "window_radius": 10.0}))
        code, _, rep = run(tmp_path, "regularity", "--config", str(cfgp),
                           name="edge")
        assert code == 0
        assert rep["results"]["window"] == {"center": 10.0, "radius": 10.0}


class TestWindowOffTheSupport:
    """delta' vanishes on |x - 15| <= 3: the windowed frames hold only the
    round-off of their parent frames, which the window's noise-only rule
    zeroes; read as data they would make the net "not_regular" and
    "moderate" (fitted blow-up order 1.37)."""

    @pytest.mark.parametrize("command,weight,path,expected", [
        ("regularity", "gevrey:2", ("verdict", "verdict"), "regular"),
        ("bb-classify", "omega:log1p", ("verdict", "classification"),
         "negligible"),
        ("crosscheck", "gevrey:2",
         ("crosscheck", "omega_verdict", "classification"), "negligible")])
    def test_delta_prime_reads_zero(self, tmp_path, command, weight, path,
                                    expected):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({
            "dist": "delta_prime", "weight": weight, "window_center": 15.0,
            "window_radius": 3.0}))
        code, _, rep = run(tmp_path, command, "--config", str(cfgp))
        assert code == 0
        value = rep["results"]
        for key in path:
            value = value[key]
        assert value == expected
