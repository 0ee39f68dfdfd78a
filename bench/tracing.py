"""Out-of-program tracing for the gfalg benchmark.

A :class:`Tracer` replaces the public functions of every gfalg layer with
timing wrappers.  It rebinds each function wherever a gfalg module (or an
extra module, such as the benchmark's workloads) holds a reference to it:
module globals, values of module-level dicts, and the methods named in
``_METHODS``.  ``numpy.fft.fft``/``ifft`` are wrapped too, so the tracer can
prove that every transform went through ``grids.forward``/``inverse``.

Each call records a span (name, start, end, parent).  Spans stay in memory;
the caller writes them out when the run ends.  Per-name call counts, self
times (duration minus the part covered by child spans) and the transforms
made under each span are aggregated per round, so that counts can be
compared exactly between rounds and between runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from workloads import ENTRY_COMMANDS, RIG_COMMANDS

LAYERS = ("weights", "grids", "mollifier", "distributions", "nets",
          "estimators", "microlocal", "bb", "cli")

#: (module, class, attribute) of methods traced in addition to the public
#: module-level functions.
_METHODS = (("mollifier", "PlateauProfile", "__call__"),
            ("weights", "WeightSequence", "gevrey"))

_FFT_SPANS = ("grids.forward", "grids.inverse")

COMMANDS = ENTRY_COMMANDS + RIG_COMMANDS


class Tracer:
    """Span recorder and per-round counters for one traced process."""

    def __init__(self):
        self.active = False
        self.originals = {}          # id(original) -> original
        self.layer_of = {}           # span name -> layer
        self.spans = []              # (id, name, start, end, parent id)
        self._stack = []             # open frames: [name, start, child, ffts, id, parent]
        self._next_id = 0
        self.fft_outside = 0         # numpy transforms not under a grids span
        self._reset_round()

    # ------------------------------------------------------------ recording

    def _reset_round(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.ffts_under = defaultdict(int)   # grids transforms inside a span
        self.counts = defaultdict(int)       # extra counters from hooks
        self.command_s = defaultdict(list)   # cli command -> main() durations

    def _open(self, name):
        parent = self._stack[-1][4] if self._stack else -1
        frame = [name, time.perf_counter(), 0.0, 0, self._next_id, parent]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        name = frame[0]
        duration = end - frame[1]
        if name in _FFT_SPANS:
            frame[3] += 1
        self.calls[name] += 1
        self.self_s[name] += duration - frame[2]
        self.ffts_under[name] += frame[3]
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent[3] += frame[3]
        self.spans.append((frame[4], name, frame[1], end, frame[5]))
        return duration

    def _wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._close(frame)
            if hook is not None:
                hook(tracer, args, kwargs, result, duration)
            return result

        self.originals[id(fn)] = fn
        return traced

    def _wrap_numpy_fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            if tracer.active:
                tracer.counts["numpy.fft_calls"] += 1
                tracer.counts["numpy.fft_bytes"] += a.nbytes + out.nbytes
                if not tracer._stack or tracer._stack[-1][0] not in _FFT_SPANS:
                    tracer.fft_outside += 1
            return out

        return counted

    # ----------------------------------------------------------- installing

    def install(self, extra_modules=()):
        """Wrap every layer's public functions and rebind all references."""
        modules = {layer: importlib.import_module(f"gfalg.{layer}")
                   for layer in LAYERS}
        replacements = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    self.layer_of[name] = layer
                    replacements[id(obj)] = self._wrap(name, obj,
                                                       _HOOKS.get(name))
        for layer, cls_name, attr in _METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = inspect.getattr_static(cls, attr)
            name = f"{layer}.{cls_name}.{attr}"
            self.layer_of[name] = layer
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(
                    self._wrap(name, raw.__func__, _HOOKS.get(name))))
            else:
                setattr(cls, attr, self._wrap(name, raw, _HOOKS.get(name)))
        net_cls = modules["nets"].NetFunction
        post_init = net_cls.__post_init__

        def counted_post_init(net):
            if self.active:
                self.counts["nets.created"] += 1
            post_init(net)

        net_cls.__post_init__ = counted_post_init

        targets = [m for name, m in list(sys.modules.items())
                   if name == "gfalg" or name.startswith("gfalg.")]
        targets += list(extra_modules)
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacements and obj is self.originals[id(obj)]:
                    setattr(mod, attr, replacements[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if (id(val) in replacements
                                and val is self.originals[id(val)]):
                            obj[key] = replacements[id(val)]
        for attr in ("fft", "ifft"):
            setattr(np.fft, attr, self._wrap_numpy_fft(getattr(np.fft, attr)))
        self._targets = targets

    def unwrapped_references(self) -> list:
        """Places in the traced modules that still hold an original
        function; empty when the installation missed nothing."""
        missed = []
        for mod in self._targets:
            for attr, obj in vars(mod).items():
                values = obj.values() if isinstance(obj, dict) else (obj,)
                for val in values:
                    if self.originals.get(id(val), self) is val:
                        missed.append(f"{mod.__name__}.{attr}")
        return missed

    # -------------------------------------------------------------- rounds

    def end_round(self) -> dict:
        """Counters and self times of the round just finished; resets them."""
        snap = {
            "calls": dict(self.calls),
            "ffts_under": dict(self.ffts_under),
            "counts": dict(self.counts),
            "self_s": dict(self.self_s),
            "command_s": {k: list(v) for k, v in self.command_s.items()},
        }
        self._reset_round()
        return snap


# ------------------------------------------------------------------- hooks
# Each hook sees the call's arguments and result after the span closed.

def _count_points(key, arg=0):
    def hook(tracer, args, kwargs, result, duration):
        tracer.counts[key] += int(np.size(args[arg]))
    return hook


def _grids_hook(tracer, args, kwargs, result, duration):
    tracer.counts["grids.points"] += int(result.size)


def _regularize_hook(tracer, args, kwargs, result, duration):
    n_frames = len(result.frames)
    tracer.counts["distributions.frames"] += n_frames
    tracer.counts["distributions.fine_points"] += n_frames * int(
        result.frames[0].size)
    tracer.counts["distributions.oversample_max"] = max(
        tracer.counts["distributions.oversample_max"], result.oversample)


def _inconclusive_hook(attr):
    def hook(tracer, args, kwargs, result, duration):
        if getattr(result, attr) == "inconclusive":
            tracer.counts["estimators.inconclusive"] += 1
    return hook


def _cones_hook(tracer, args, kwargs, result, duration):
    tracer.counts["microlocal.cones"] += len(result)


def _cli_main_hook(tracer, args, kwargs, result, duration):
    argv = args[0] if args else kwargs.get("argv")
    tracer.command_s[argv[0]].append(duration)


def _emit_hook(tracer, args, kwargs, result, duration):
    cfg, csvs = args[0], args[3]
    for name in ("report.json", "MANIFEST.json", *csvs):
        tracer.counts["cli.report_bytes"] += os.path.getsize(
            os.path.join(cfg.out, name))


def _profile_hook(tracer, args, kwargs, result, duration):
    tracer.counts["mollifier.profile_points"] += int(result.size)


_HOOKS = {
    "grids.forward": _grids_hook,
    "grids.inverse": _grids_hook,
    "mollifier.PlateauProfile.__call__": _profile_hook,
    "weights.assoc": _count_points("weights.assoc_points", 1),
    "distributions.regularize": _regularize_hook,
    "estimators.classify_net": _inconclusive_hook("classification"),
    "estimators.regularity_test": _inconclusive_hook("verdict"),
    "microlocal.sigma_g": _cones_hook,
    "cli.main": _cli_main_hook,
    "cli.emit_report": _emit_hook,
}


# ----------------------------------------------------------------- metrics

#: per-layer metrics: name -> unit.  Counts repeat exactly between rounds;
#: times are self times per round.
PER_LAYER_UNITS = {
    "grids.fft_calls": "count",
    "grids.fft_points": "count",
    "grids.fft_s": "s",
    "grids.fft_bytes_computed": "B",
    "grids.ffts_per_frame": "ffts/frame",
    "mollifier.profile_calls": "count",
    "mollifier.profile_points": "count",
    "mollifier.profile_s": "s",
    "mollifier.window_calls": "count",
    "mollifier.window_s": "s",
    "weights.assoc_calls": "count",
    "weights.assoc_points": "count",
    "weights.assoc_s": "s",
    "weights.assoc_inverse_calls": "count",
    "weights.assoc_inverse_s": "s",
    "weights.tables_built": "count",
    "distributions.regularize_calls": "count",
    "distributions.frames_built": "count",
    "distributions.fine_points": "count",
    "distributions.oversample_max": "factor",
    "distributions.regularize_s": "s",
    "nets.ring_ops": "count",
    "nets.derivative_calls": "count",
    "nets.window_calls": "count",
    "nets.point_value_calls": "count",
    "nets.nets_created": "count",
    "nets.s": "s",
    "estimators.classify_calls": "count",
    "estimators.seminorm_ladder_calls": "count",
    "estimators.regularity_calls": "count",
    "estimators.ffts_per_classify": "ffts/call",
    "estimators.inconclusive": "count",
    "estimators.s": "s",
    "microlocal.wavefront_calls": "count",
    "microlocal.cones_tested": "count",
    "microlocal.ffts_per_cone": "ffts/cone",
    "microlocal.s": "s",
    "bb.classify_calls": "count",
    "bb.norm_ladders": "count",
    "bb.crosscheck_calls": "count",
    "bb.ffts_per_classify": "ffts/call",
    "bb.s": "s",
    "cli.commands": "count",
    "cli.emit_s": "s",
    "cli.report_bytes": "B",
    **{f"cli.{c.replace('-', '_')}_s": "s" for c in COMMANDS},
}


def _ratio(num, den):
    return num / den if den else 0.0


def round_counts(snap: dict) -> dict:
    """The count metrics of one round (exact integers and their ratios)."""
    calls, under, counts = snap["calls"], snap["ffts_under"], snap["counts"]

    def c(name):
        return calls.get(name, 0)

    fft_calls = c("grids.forward") + c("grids.inverse")
    cones = counts.get("microlocal.cones", 0)
    return {
        "grids.fft_calls": fft_calls,
        "grids.fft_points": counts.get("grids.points", 0),
        "grids.fft_bytes_computed": counts.get("numpy.fft_bytes", 0),
        "grids.ffts_per_frame": _ratio(
            fft_calls, counts.get("distributions.frames", 0)),
        "mollifier.profile_calls": c("mollifier.PlateauProfile.__call__"),
        "mollifier.profile_points": counts.get("mollifier.profile_points", 0),
        "mollifier.window_calls": c("mollifier.plateau_window"),
        "weights.assoc_calls": c("weights.assoc"),
        "weights.assoc_points": counts.get("weights.assoc_points", 0),
        "weights.assoc_inverse_calls": c("weights.assoc_inverse"),
        "weights.tables_built": c("weights.WeightSequence.gevrey"),
        "distributions.regularize_calls": c("distributions.regularize"),
        "distributions.frames_built": counts.get("distributions.frames", 0),
        "distributions.fine_points": counts.get(
            "distributions.fine_points", 0),
        "distributions.oversample_max": counts.get(
            "distributions.oversample_max", 0),
        "nets.ring_ops": c("nets.combine") + c("nets.scale"),
        "nets.derivative_calls": (c("nets.spectral_derivative")
                                  + c("nets.apply_ultradiff")),
        "nets.window_calls": c("nets.window_net"),
        "nets.point_value_calls": c("nets.point_value"),
        "nets.nets_created": counts.get("nets.created", 0),
        "estimators.classify_calls": c("estimators.classify_net"),
        "estimators.seminorm_ladder_calls": c("estimators.seminorm_ladder"),
        "estimators.regularity_calls": c("estimators.regularity_test"),
        "estimators.ffts_per_classify": _ratio(
            under.get("estimators.classify_net", 0),
            c("estimators.classify_net")),
        "estimators.inconclusive": counts.get("estimators.inconclusive", 0),
        "microlocal.wavefront_calls": c("microlocal.wavefront"),
        "microlocal.cones_tested": cones,
        "microlocal.ffts_per_cone": _ratio(
            under.get("microlocal.sigma_g", 0), cones),
        "bb.classify_calls": c("bb.classify_net_bb"),
        "bb.norm_ladders": c("bb.omega_norm_ladder"),
        "bb.crosscheck_calls": c("bb.colombeau_crosscheck"),
        "bb.ffts_per_classify": _ratio(under.get("bb.classify_net_bb", 0),
                                       c("bb.classify_net_bb")),
        "cli.commands": c("cli.main"),
        "cli.report_bytes": counts.get("cli.report_bytes", 0),
    }


def round_times(snap: dict, layer_of: dict) -> dict:
    """The self-time metrics of one round, in seconds."""
    self_s = snap["self_s"]

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def layer(name):
        return sum(v for k, v in self_s.items() if layer_of.get(k) == name)

    return {
        "grids.fft_s": s("grids.forward", "grids.inverse"),
        "mollifier.profile_s": s("mollifier.PlateauProfile.__call__"),
        "mollifier.window_s": s("mollifier.plateau_window"),
        "weights.assoc_s": s("weights.assoc"),
        "weights.assoc_inverse_s": s("weights.assoc_inverse"),
        "distributions.regularize_s": s("distributions.regularize"),
        "nets.s": layer("nets"),
        "estimators.s": layer("estimators"),
        "microlocal.s": layer("microlocal"),
        "bb.s": layer("bb"),
        "cli.emit_s": s("cli.emit_report"),
    }


def per_layer_metrics(snaps: list, layer_of: dict) -> dict:
    """Per-layer metrics over the traced rounds: counts of the first round
    (the caller checks that every round repeats them) and the median over
    rounds of each self time; per-command CLI times are medians of the
    command's ``main`` durations over all rounds."""
    values = dict(round_counts(snaps[0]))
    per_round = [round_times(s, layer_of) for s in snaps]
    for key in per_round[0]:
        values[key] = statistics.median(r[key] for r in per_round)
    for command in COMMANDS:
        durations = [d for s in snaps for d in s["command_s"].get(command, ())]
        values[f"cli.{command.replace('-', '_')}_s"] = (
            statistics.median(durations) if durations else 0.0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}
