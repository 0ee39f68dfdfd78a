"""Generalized wave front sets: cone-restricted Fourier decay of windowed
net frames, and comparison against classical singularity oracles."""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError
from .estimators import _decay_tests
from .grids import GridSpec
from .nets import NetFunction, _window_center, _windowed, _windowed_frames

#: dual nodes with |xi| below this are excluded from cone sups: decay
#: statements are asymptotic and the core is dominated by window mass.
LOW_FREQUENCY_CUTOFF = 2.0

MIN_CONE_NODES = 8

#: the least side of a window's box, in window diameters.  The box's dual
#: nodes are 2 pi / side apart; with a side of 2.5 diameters the cone sups
#: missed the depth-6 delta' wave front at 0 on the reference rig.
BOX_DIAMETERS = 4


@dataclass(frozen=True)
class Cone:
    label: str
    direction: tuple  # unit vector
    half_angle: float  # radians; 1-D rays use pi/2 (a half-line)

    def contains(self, vectors, norms=None) -> np.ndarray:
        """Boolean mask: does each dual vector lie in the cone?  ``norms``,
        when given, holds the lengths ``np.hypot(*vectors)`` of 2-D
        vectors, so a caller testing many cones computes them once."""
        d = np.asarray(self.direction, dtype=float)
        if len(d) == 1:
            xi = np.asarray(vectors[0])
            return np.sign(xi) == np.sign(d[0])
        if norms is None:
            norms = np.hypot(vectors[0], vectors[1])
        with np.errstate(invalid="ignore", divide="ignore"):
            cos = (vectors[0] * d[0] + vectors[1] * d[1]) / norms
        cos = np.where(norms > 0, cos, -2.0)
        return cos >= np.cos(self.half_angle)


@dataclass(frozen=True)
class ConePartition:
    dim: int
    cones: tuple

    @staticmethod
    def rays_1d() -> "ConePartition":
        return ConePartition(dim=1, cones=(
            Cone("+", (1.0,), np.pi / 2),
            Cone("-", (-1.0,), np.pi / 2)))

    @staticmethod
    def sectors_2d(n_cones: int = 8) -> "ConePartition":
        """``n_cones`` equal sectors, each widened by a quarter of its
        width so that neighbours overlap."""
        if n_cones < 2:
            raise ValueError("need at least 2 cones")
        half = 1.25 * np.pi / n_cones
        cones = []
        for i in range(n_cones):
            th = 2.0 * np.pi * i / n_cones
            cones.append(Cone(f"sector{i}", (np.cos(th), np.sin(th)), half))
        return ConePartition(dim=2, cones=tuple(cones))

    @staticmethod
    def default(dim: int) -> "ConePartition":
        return ConePartition.rays_1d() if dim == 1 else ConePartition.sectors_2d()


@dataclass(frozen=True)
class ConeVerdict:
    cone: Cone
    verdict: str  # regular | singular
    witness: dict

    @property
    def label(self) -> str:
        return self.cone.label

    @property
    def direction(self) -> tuple:
        return self.cone.direction

    def to_json(self) -> dict:
        return {"label": self.label,
                "direction": [float(v) for v in self.direction],
                "verdict": self.verdict,
                "witness": {k: float(v) for k, v in self.witness.items()}}


def _fold(node_mask: np.ndarray, grid: GridSpec) -> np.ndarray:
    """A mask over the full dual grid folded onto the half spectrum: a node
    is kept when it or its mirror node (-k mod n on every axis) is."""
    n = grid.n
    full = node_mask.reshape(grid.shape)
    cols = -np.arange(n // 2 + 1) % n
    if grid.dim == 1:
        return full[: cols.size] | full[cols]
    rows = -np.arange(n) % n
    return (full[:, : cols.size] | full[np.ix_(rows, cols)]).ravel()


@functools.cache
def _cone_masks(cones: ConePartition, fine: GridSpec, half: bool) -> tuple:
    """One flat dual-node mask per cone, without the core |xi| <
    LOW_FREQUENCY_CUTOFF.  With ``half`` each mask is folded onto the half
    spectrum that real frames take (see :func:`_fold`).  The masks
    depend on the grid and the cones alone, so every window and net on the
    grid shares them: they are built once per process for each grid, in a
    table without bound, which a run's few grids (a 1-D wave front's
    per-rung boxes, the 2-D rig's grid) keep small and which every pass
    after the first reads alike.  A cone of fewer than MIN_CONE_NODES nodes
    of the full grid raises ResolutionError."""
    radius = fine.dual_radius()
    duals = fine.dual_points()
    high = radius >= LOW_FREQUENCY_CUTOFF
    masks = []
    for cone in cones.cones:
        mask = (cone.contains(duals, radius) & high).ravel()
        if int(mask.sum()) < MIN_CONE_NODES:
            raise ResolutionError(
                f"cone {cone.label} holds only {int(mask.sum())} dual "
                "nodes; refine the grid")
        if half:
            mask = _fold(mask, fine)
        mask.flags.writeable = False
        masks.append(mask)
    return tuple(masks)


def sigma_g(a: NetFunction, cones: ConePartition = None,
            mode: str = None) -> tuple:
    """Per-cone decay verdicts of a compactly supported (windowed) net: a
    cone is regular when the mode's (k, h) quantifier pattern bounds the
    cone-restricted sup of |fhat| e^{M(|xi|/h)}, M of the net's weight.
    Each rung is read on its reading grid, with the cone masks of that
    grid (:func:`_cone_masks`)."""
    mode = mode or a.mode
    if cones is None:
        cones = ConePartition.default(a.grid.dim)
    if cones.dim != a.grid.dim:
        raise ValueError("cone partition dimension mismatch")
    by_grid = {g: _cone_masks(cones, g, a.real)
               for g in dict.fromkeys(a.reading_grids)}
    masks = [{g: on_grid[i] for g, on_grid in by_grid.items()}
             for i in range(len(cones.cones))]
    out = []
    for cone, (verdict, witness, _) in zip(cones.cones,
                                            _decay_tests(a, masks, mode)):
        out.append(ConeVerdict(
            cone=cone, witness=witness,
            verdict="regular" if verdict == "regular" else "singular"))
    return tuple(out)


@dataclass(frozen=True)
class WaveFrontReport:
    centers: tuple
    radius: float
    mode: str
    entries: tuple  # ((center, ConeVerdict), ...)

    @property
    def singular_set(self) -> tuple:
        return tuple((c, v.direction) for c, v in self.entries
                     if v.verdict == "singular")

    def flagged_centers(self) -> tuple:
        return tuple(sorted({c for c, _ in self.singular_set}))

    def verdicts_at(self, center) -> tuple:
        return tuple(v for c, v in self.entries if c == center)

    def to_json(self) -> dict:
        return {
            "centers": [list(np.atleast_1d(c).astype(float))
                        for c in self.centers],
            "radius": self.radius,
            "mode": self.mode,
            "entries": [
                {"center": list(np.atleast_1d(c).astype(float)),
                 **v.to_json()}
                for c, v in self.entries],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        wr = csv.writer(buf, lineterminator="\n")
        wr.writerow(["center", "cone", "verdict"])
        for c, v in self.entries:
            wr.writerow([json.dumps(list(np.atleast_1d(c).astype(float))),
                         v.label, v.verdict])
        return buf.getvalue()


def _window_box(fine: GridSpec, center, radius: float) -> tuple:
    """The block of ``fine`` on which a window of ``radius`` at ``center``
    is transformed: per axis the smallest power-of-two number m >= 256 of
    nodes spanning at least BOX_DIAMETERS window diameters, or all n nodes
    if no smaller block does, placed around the centre and clamped inside
    the grid.  Its start is a multiple of m/256 nodes, 1/256 of its side:
    the boxes of one window on refinements of a grid, of one side, then
    hold the same interval.  Returns one slice per axis and the box's grid,
    which keeps the spacing dx.

    A windowed frame is exactly 0 beyond ``radius`` and the box holds that
    support, so the frame's transform on the box is its transform on
    ``fine`` at every (n/m)-th dual node, times a unimodular phase (the
    box's origin is shifted), up to the same Nyquist frequency pi/dx."""
    dx = fine.spacing
    m = 256
    while m < fine.n and m * dx < BOX_DIAMETERS * 2.0 * radius:
        m *= 2
    step = m // 256
    blocks = []
    for c in center:
        start = step * (round((c + fine.half_width) / (step * dx)) - 128)
        start = min(max(start, 0), fine.n - m)
        blocks.append(slice(start, start + m))
    return tuple(blocks), GridSpec(fine.dim, 0.5 * m * dx, m)


def wavefront(a: NetFunction, window_centers, window_radius: float,
              cones: ConePartition = None,
              mode: str = None) -> WaveFrontReport:
    """Window-and-test wave front estimate: for each center, localize the
    net with a plateau window and run :func:`sigma_g`'s per-cone decay test.

    Each window is built on its box (:func:`_window_box`).  A net with a
    reach (``NetFunction.reach``) is windowed per rung
    (:func:`nets._windowed`): the box is placed on the coarsest rung's
    reading grid, each rung reads the same interval of its own reading
    grid, and the boxed net's frames are bitwise the block of the
    fine-grid windowed frames.  Any other net is windowed on the box of
    its fine grid by the builder of :func:`nets.window_net`, noise-only
    rule included.  The decay test reads the boxes' spectra."""
    mode = mode or a.mode
    fine = a.fine_grid
    centers = [_window_center(a.grid, c, window_radius)
               for c in window_centers]
    if a.reach is None:
        # one box's frames at a time: a 2-D box may be the whole grid
        boxes = (_window_box(fine, c, window_radius) for c in centers)
        localized = (NetFunction(
            ladder=a.ladder, grid=box_grid, mode=a.mode, weight=a.weight,
            frames=_windowed_frames(a, c, window_radius, box))
            for c, (box, box_grid) in zip(centers, boxes))
    else:
        localized = _windowed(a, centers, window_radius, _window_box)
    keys = [float(c[0]) if a.grid.dim == 1 else tuple(map(float, c))
            for c in centers]
    entries = []
    for key, net in zip(keys, localized):
        entries.extend((key, v) for v in sigma_g(net, cones, mode))
    return WaveFrontReport(centers=tuple(keys), radius=window_radius,
                           mode=mode, entries=tuple(entries))


def wf_compare(oracle, report: WaveFrontReport) -> bool:
    """True iff the report's singular set matches the classical oracle up to
    window granularity: every oracle direction near a window must be flagged
    there, and every flagged cone must contain an oracle direction within
    one window radius."""
    for center in report.centers:
        expected = [np.asarray(d, dtype=float) for d in
                    oracle.singular_directions(center, report.radius)]
        for v in report.verdicts_at(center):
            covered = any(v.cone.contains(d) for d in expected)
            if covered != (v.verdict == "singular"):
                return False
    return True
