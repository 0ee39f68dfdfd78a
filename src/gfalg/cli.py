"""Command-line driver: configure an experiment, run one pipeline, write a
deterministic report.json plus CSV tables and a content-hash MANIFEST.

Exit codes: 0 = ran and all declared expectations matched; 1 = ran but an
expectation failed; 2 = precondition or configuration error (single-line
machine-parsable reason on stderr).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .bb import classify_net_bb, colombeau_crosscheck
from .distributions import (ModelDistribution, classical_wf_oracle,
                            regularize)
from .errors import GfalgError
from .estimators import classify_net, regularity_test
from .grids import GridSpec
from .microlocal import wavefront, wf_compare
from .mollifier import build_mollifier, export_mollifier, verify_mollifier
from .nets import (EpsilonLadder, GeneralizedPoint, combine,
                   classify_generalized_number, point_value, window_net)
from .weights import (WeightFunction, WeightSequence, check_assoc_m2,
                      check_conditions, m2_constant, omega_check,
                      resolved_for)

REPORT_SCHEMA = "gfalg-report/1"

COMMANDS = ("weights-check", "mollifier-build", "embed", "classify",
            "regularity", "wavefront", "impossibility-demo", "bb-classify",
            "crosscheck")


class ConfigError(GfalgError):
    pass


@dataclass
class ExperimentConfig:
    """Resolved experiment parameters; defaults are the reference rig."""

    weight: str = "gevrey:2"
    sigma: float = 1.5
    grid_n: int = 4096
    grid_half_width: float = 20.0
    ladder_eps0: float = 2.0 ** -3
    ladder_ratio: float = 0.5
    ladder_count: int = 8
    dist: str = "delta"
    freq: float = 3.0
    coeffs: tuple = ()
    table_path: str = ""
    mode: str = "beurling"
    box: tuple = (-10.0, 10.0)
    window_center: float = 0.0
    window_radius: float = 10.0
    wf_centers: tuple = (-2.0, 0.0, 2.0)
    wf_radius: float = 0.5
    out: str = "gfalg-out"
    expect: dict = field(default_factory=dict)

    def resolved(self) -> dict:
        d = asdict(self)
        for k in ("coeffs", "box", "wf_centers"):
            d[k] = list(d[k])
        # the output directory is plumbing, not a scientific input; keeping
        # it out of the resolved config makes reports path-independent
        d.pop("out")
        return d


def _parse_pair(text: str, n: int, label: str):
    parts = text.split(",")
    if len(parts) != n:
        raise ConfigError(f"--{label} needs {n} comma-separated values")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"--{label}: {exc}") from None
    for v in values:
        if not np.isfinite(v):
            raise ConfigError(f"--{label}: {v!r} is not a finite number")
    return values


def _whole(value: float, label: str) -> int:
    """The integer slot of a flag: N of --grid, COUNT of --ladder."""
    if not value.is_integer():
        raise ConfigError(f"--{label}: {value!r} is not a whole number")
    return int(value)


def _type_matches(value, default) -> bool:
    """Does a JSON config value fit the type of its ExperimentConfig
    default?  A float field takes any number, an int field an int, a tuple
    field a list of numbers; a bool is never a number."""
    if isinstance(default, tuple):
        return isinstance(value, list) and all(
            _type_matches(v, 0.0) for v in value)
    if isinstance(value, bool):
        return isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _check_shape(key: str, value: tuple):
    """Shape rules of the tuple config values beyond their type: ``box``
    is exactly two numbers lo < hi, ``wf_centers`` is not empty."""
    if key == "box" and not (len(value) == 2 and value[0] < value[1]):
        raise ConfigError(f"config: box={list(value)!r} must be two numbers "
                          "[lo, hi] with lo < hi")
    if key == "wf_centers" and not value:
        raise ConfigError("config: wf_centers must hold at least one centre")


#: range rules of the numeric config values, whether set in the config file
#: or by a flag; checked before any layer runs, so that the error names the
#: key instead of the layer's own parameter
_RANGES = (
    ("grid_n", lambda v: v >= 256 and not v & (v - 1),
     "a power of two >= 256"),
    ("grid_half_width", lambda v: v > 0, "> 0"),
    ("window_radius", lambda v: v > 0, "> 0"),
    ("wf_radius", lambda v: v > 0, "> 0"),
    ("sigma", lambda v: 1 < v < np.inf, "> 1 and finite"),
    ("ladder_eps0", lambda v: 0 < v <= 1, "in (0, 1]"),
    ("ladder_ratio", lambda v: 0 < v < 1, "in (0, 1)"),
    ("ladder_count", lambda v: v >= 6, ">= 6"),
)


def _check_ranges(cfg: ExperimentConfig):
    for key, ok, rule in _RANGES:
        value = getattr(cfg, key)
        if not ok(value):
            raise ConfigError(f"config: {key}={value!r} must be {rule}")


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config: top level must be a JSON object")
        unknown = set(data) - set(cfg.__dict__)
        if unknown:
            raise ConfigError(f"config: unknown keys {sorted(unknown)}")
        for k, v in data.items():
            if not _type_matches(v, getattr(cfg, k)):
                raise ConfigError(f"config: {k}={v!r} does not match the "
                                  f"type of its default {getattr(cfg, k)!r}")
            try:  # json.load accepts NaN and Infinity; reports may not
                json.dumps(v, allow_nan=False)
            except ValueError:
                raise ConfigError(f"config: {k}={v!r} holds a number that "
                                  "is not finite") from None
            if isinstance(v, list):
                v = tuple(v)
                _check_shape(k, v)
            setattr(cfg, k, v)
    if args.out:
        cfg.out = args.out
    if args.dist:
        cfg.dist = args.dist
    if args.mode:
        cfg.mode = args.mode
    if args.weight:
        cfg.weight = args.weight
    if args.sigma is not None:
        cfg.sigma = args.sigma
    if args.grid:
        n, half = _parse_pair(args.grid, 2, "grid")
        cfg.grid_n, cfg.grid_half_width = _whole(n, "grid"), half
    if args.ladder:
        e0, r, c = _parse_pair(args.ladder, 3, "ladder")
        cfg.ladder_eps0, cfg.ladder_ratio, cfg.ladder_count = (
            e0, r, _whole(c, "ladder"))
    if cfg.mode not in ("beurling", "roumieu"):
        raise ConfigError("mode must be beurling or roumieu")
    _check_ranges(cfg)
    return cfg


def parse_weight(spec: str):
    """'gevrey:S' -> WeightSequence; 'omega:log1p' / 'omega:pow:A' ->
    WeightFunction."""
    parts = spec.split(":")
    try:
        if parts[0] == "gevrey" and len(parts) == 2:
            return WeightSequence.gevrey(float(parts[1]))
        if parts[0] == "omega" and parts[1] == "log1p" and len(parts) == 2:
            return WeightFunction.log_one_plus_t()
        if parts[0] == "omega" and parts[1] == "pow" and len(parts) == 3:
            return WeightFunction.power(float(parts[2]))
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"weight {spec!r}: {exc}") from None
    raise ConfigError(
        f"weight {spec!r}: expected gevrey:S, omega:log1p or omega:pow:A")


_WEIGHT_KINDS = {WeightSequence: "a gevrey:S", WeightFunction: "an omega:*"}


def _checked_weight(cfg: ExperimentConfig, kind: type, ctx: str):
    """The configured weight, refused unless it is of ``kind``."""
    w = parse_weight(cfg.weight)
    if not isinstance(w, kind):
        raise ConfigError(f"{ctx} needs {_WEIGHT_KINDS[kind]} weight")
    return w


_ZERO_TABLE = {"xi": [-1.0, 0.0, 1.0], "re": [0.0, 0.0, 0.0],
               "im": [0.0, 0.0, 0.0]}


def build_distribution(cfg: ExperimentConfig) -> ModelDistribution:
    if cfg.dist == "zero":
        return ModelDistribution(kind="table", table=_ZERO_TABLE)
    if cfg.dist == "table":
        if not cfg.table_path:
            raise ConfigError("dist 'table' needs table_path in the config")
        return ModelDistribution.from_table_json(cfg.table_path)
    kwargs = {}
    if cfg.dist == "gaussian_times_sine":
        kwargs["freq"] = cfg.freq
    if cfg.dist == "polynomial":
        kwargs["coeffs"] = tuple(cfg.coeffs)
    try:
        return ModelDistribution(kind=cfg.dist, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _rig(cfg: ExperimentConfig):
    grid = GridSpec(1, cfg.grid_half_width, cfg.grid_n)
    ladder = EpsilonLadder(cfg.ladder_eps0, cfg.ladder_ratio,
                           cfg.ladder_count)
    moll = build_mollifier(cfg.sigma, grid)
    return grid, ladder, moll


def _embed(cfg: ExperimentConfig, ctx: str = ""):
    """The configured distribution and its net, which carries the mode and,
    for the command ``ctx``, the weight (gevrey:S) that classifiers read."""
    seq = _checked_weight(cfg, WeightSequence, ctx) if ctx else None
    grid, ladder, moll = _rig(cfg)
    dist = build_distribution(cfg)
    net = regularize(dist, moll, ladder, grid, mode=cfg.mode, weight=seq)
    return dist, net


# ---------------------------------------------------------------- commands

def cmd_weights_check(cfg: ExperimentConfig) -> tuple[dict, dict]:
    w = parse_weight(cfg.weight)
    t_grid = np.geomspace(1e-2, 1e6, 200)
    if isinstance(w, WeightSequence):
        rep = check_conditions(w)
        # the functional form is checked on a table deep enough for M(H*t);
        # the deeper table may need a larger H, so H is read from it again
        # until it is stable.  Without a finite H there is nothing to check.
        H = rep.m2_constants[1]
        m2_functional_ok = False
        while np.isfinite(H):
            deep = resolved_for(w, H * t_grid[-1])
            deep_h = m2_constant(deep)
            if deep_h == H:
                m2_functional_ok = check_assoc_m2(deep, t_grid, H)
                break
            H = deep_h
        m2_ok = bool(np.isfinite(H))
        report = {
            "weight": w.to_json(),
            "m1_ok": rep.m1_ok,
            "m2_ok": m2_ok,
            "m2_constants": {"A": rep.m2_constants[0], "H": H},
            "m2_functional_ok": m2_functional_ok,
            "m3prime_partial_sum": rep.m3prime_partial_sum,
            "m3prime_converges": rep.m3prime_converges,
        }
        verdict = {"ok": rep.m1_ok and m2_ok and rep.m3prime_converges}
    else:
        rep = omega_check(w, t_grid)
        report = {
            "weight": w.to_json(),
            "subadditive_ok": rep.subadditive_ok,
            "subadditivity_max_violation": rep.subadditivity_max_violation,
            "beta_integral": rep.beta_integral,
            "beta_converges": rep.beta_converges,
            "gamma_constants": list(rep.gamma_constants),
            "gamma_ok": rep.gamma_ok,
        }
        verdict = {"ok": rep.subadditive_ok and rep.beta_converges
                   and rep.gamma_ok}
    return {"conditions": report, "verdict": verdict}, {}


def cmd_mollifier_build(cfg: ExperimentConfig) -> tuple[dict, dict]:
    moll = _rig(cfg)[2]
    rep = verify_mollifier(moll)
    manifest = export_mollifier(moll, cfg.out)
    report = {"mollifier": rep.to_json(), "export": manifest,
              "verdict": {"ok": rep.ok}}
    return report, {}


def _ladder_csv(ladder: EpsilonLadder, columns: dict) -> str:
    """One row per rung: eps and each column's value there, to 12 digits."""
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(["eps", *columns])
    for row in zip(ladder.values, *columns.values()):
        wr.writerow([f"{float(v):.12g}" for v in row])
    return buf.getvalue()


def _frame_table(net) -> str:
    """sup |f_eps| and its L1 norm per rung, read on each rung's reading
    grid (``NetFunction.reading_grids``)."""
    sups, l1 = [], []
    for s, g in zip(net.samples, net.reading_grids):
        mag = np.abs(s)
        sups.append(float(np.max(mag)))
        l1.append(float(np.sum(mag)) * g.spacing ** g.dim)
    return _ladder_csv(net.ladder, {"sup": sups, "l1": l1})


def cmd_embed(cfg: ExperimentConfig) -> tuple[dict, dict]:
    dist, net = _embed(cfg, "embed")
    verdict = classify_net(net, cfg.box)
    report = {
        "distribution": {"kind": dist.kind},
        "ladder": net.ladder.to_json(),
        "frame_sups": [float(s) for s in net.sups],
        "oversample": net.oversample,
        "verdict": {"classification": verdict.classification},
    }
    return report, {"frames.csv": _frame_table(net)}


def cmd_classify(cfg: ExperimentConfig) -> tuple[dict, dict]:
    dist, net = _embed(cfg, "classify")
    verdict = classify_net(net, cfg.box)
    report = {
        "distribution": {"kind": dist.kind},
        "verdict": verdict.to_json(),
    }
    csvs = {"frames.csv": _frame_table(net),
            "nu.csv": _ladder_csv(net.ladder, {"nu": verdict.nu})}
    return report, csvs


def cmd_regularity(cfg: ExperimentConfig) -> tuple[dict, dict]:
    dist, net = _embed(cfg, "regularity")
    netw = window_net(net, cfg.window_center, cfg.window_radius)
    verdict = regularity_test(netw)
    report = {
        "distribution": {"kind": dist.kind},
        "window": {"center": cfg.window_center,
                   "radius": cfg.window_radius},
        "verdict": verdict.to_json(),
    }
    return report, {"frames.csv": _frame_table(netw)}


def cmd_wavefront(cfg: ExperimentConfig) -> tuple[dict, dict]:
    dist, net = _embed(cfg, "wavefront")
    rep = wavefront(net, cfg.wf_centers, cfg.wf_radius)
    report = {
        "distribution": {"kind": dist.kind},
        "wavefront": rep.to_json(),
        "verdict": {"flagged_centers": list(rep.flagged_centers())},
    }
    try:
        oracle = classical_wf_oracle(dist)
        report["verdict"]["matches_classical"] = wf_compare(oracle, rep)
    except ValueError:
        report["verdict"]["matches_classical"] = None
    return report, {"wf.csv": rep.to_csv()}


def cmd_impossibility_demo(cfg: ExperimentConfig) -> tuple[dict, dict]:
    _, h = _embed(replace(cfg, dist="heaviside"), "impossibility-demo")
    defect = combine(combine(h, h, "mul"), h, "sub")  # H^2 - H
    origin = GeneralizedPoint(h.ladder, np.zeros((h.ladder.count, 1)),
                              (-1.0, 1.0))
    vals = point_value(defect, origin)
    scale = float(defect.sups.max())
    verdict = classify_generalized_number(vals, defect.weight, defect.mode,
                                          reference_scale=scale)
    report = {
        "statement": "the pointwise square of the embedded step differs "
                     "from the step by a non-negligible net",
        "values_at_origin": [float(np.real(v)) for v in vals.values],
        "verdict": {"classification": verdict.classification,
                    "non_negligible": not verdict.negligible},
    }
    csvs = {"values.csv": _ladder_csv(h.ladder,
                                      {"value": np.real(vals.values)})}
    return report, csvs


def cmd_bb_classify(cfg: ExperimentConfig) -> tuple[dict, dict]:
    omega = _checked_weight(cfg, WeightFunction, "bb-classify")
    dist, net = _embed(cfg)
    netw = window_net(net, cfg.window_center, cfg.window_radius)
    verdict = classify_net_bb(netw, omega)
    report = {
        "mode": "bb",
        "weight_function": omega.to_json(),
        "distribution": {"kind": dist.kind},
        "verdict": verdict.to_json(),
    }
    csvs = {"fl_norms.csv": _ladder_csv(
        netw.ladder, {"log_fl1_lambda1": verdict.log_ladders[1.0]})}
    return report, csvs


def cmd_crosscheck(cfg: ExperimentConfig) -> tuple[dict, dict]:
    dist, net = _embed(cfg)
    netw = window_net(net, cfg.window_center, cfg.window_radius)
    rep = colombeau_crosscheck(netw)
    report = {
        "mode": "bb",
        "distribution": {"kind": dist.kind},
        "crosscheck": rep.to_json(),
        "verdict": {"agree": rep.agree,
                    "fitted_order": rep.fitted_order},
    }
    return report, {}


_DISPATCH = {
    "weights-check": cmd_weights_check,
    "mollifier-build": cmd_mollifier_build,
    "embed": cmd_embed,
    "classify": cmd_classify,
    "regularity": cmd_regularity,
    "wavefront": cmd_wavefront,
    "impossibility-demo": cmd_impossibility_demo,
    "bb-classify": cmd_bb_classify,
    "crosscheck": cmd_crosscheck,
}


# ----------------------------------------------------------------- reports

def _atomic_write(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_expectations(cfg: ExperimentConfig, report: dict) -> list:
    """Compare cfg.expect (dotted paths into the report) against results."""
    failures = []
    for path, expected in sorted(cfg.expect.items()):
        node = report
        try:
            for part in path.split("."):
                node = node[part]
        except (KeyError, TypeError):
            failures.append({"path": path, "expected": expected,
                             "actual": None, "reason": "missing"})
            continue
        if isinstance(expected, bool) or isinstance(node, bool):
            # a bool is never a number, as in load_config
            ok = type(node) is type(expected) and node == expected
        elif isinstance(expected, float) or isinstance(node, float):
            try:
                ok = bool(abs(float(node) - float(expected))
                          <= 1e-6 * (1.0 + abs(float(expected))))
            except (TypeError, ValueError):  # a number against a non-number
                ok = False
        else:
            ok = node == expected
        if not ok:
            failures.append({"path": path, "expected": expected,
                             "actual": node, "reason": "mismatch"})
    return failures


def emit_report(cfg: ExperimentConfig, command: str, report: dict,
                csvs: dict, failures: list,
                input_hashes: dict) -> None:
    os.makedirs(cfg.out, exist_ok=True)
    full = {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "command": command,
        "config": cfg.resolved(),
        "results": report,
        "expectation_failures": failures,
    }
    payload = json.dumps(full, sort_keys=True, indent=2, allow_nan=False)
    payload = payload.encode()
    _atomic_write(os.path.join(cfg.out, "report.json"), payload)
    outputs = {"report.json": _sha256(payload)}
    for name, text in sorted(csvs.items()):
        data = text.encode()
        _atomic_write(os.path.join(cfg.out, name), data)
        outputs[name] = _sha256(data)
    manifest = {
        "schema": REPORT_SCHEMA,
        "command": command,
        "config": cfg.resolved(),
        "inputs": input_hashes,
        "outputs": outputs,
    }
    _atomic_write(os.path.join(cfg.out, "MANIFEST.json"),
                  json.dumps(manifest, sort_keys=True, indent=2).encode())


def _sanitize(obj):
    """Plain JSON values for a report: numpy scalars and arrays become
    Python ones, and non-finite floats become strings, so reports stay
    strict JSON."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if np.isnan(f):
            return "nan"
        if np.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    return obj


# -------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gfalg",
        description="generalized-function algebra experiments")
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="output directory")
    p.add_argument("--dist", help="distribution kind (or 'zero')")
    p.add_argument("--mode", choices=("beurling", "roumieu"))
    p.add_argument("--weight",
                   help="gevrey:S | omega:log1p | omega:pow:A")
    p.add_argument("--sigma", type=float, help="mollifier Gevrey index")
    p.add_argument("--grid", help="N,L (points, half-width)")
    p.add_argument("--ladder", help="EPS0,RATIO,COUNT")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        input_hashes = {}
        if args.config:
            with open(args.config, "rb") as fh:
                input_hashes[os.path.basename(args.config)] = _sha256(
                    fh.read())
        if cfg.table_path:
            with open(cfg.table_path, "rb") as fh:
                input_hashes[os.path.basename(cfg.table_path)] = _sha256(
                    fh.read())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report, csvs = _DISPATCH[args.command](cfg)
        report = _sanitize(report)
        failures = check_expectations(cfg, report)
        emit_report(cfg, args.command, report, csvs, failures, input_hashes)
    except (GfalgError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}".replace("\n", " "),
              file=sys.stderr)
        return 2
    if failures:
        for f in failures:
            got = ("missing from the report" if f["reason"] == "missing"
                   else f"got {f['actual']!r}")
            print(f"expectation failed: {f['path']}: expected "
                  f"{f['expected']!r}, {got}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
