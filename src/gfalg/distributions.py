"""Catalog of model singular objects with exact spectral data, and their
regularization f * phi_eps into nets.

A net of a real 1-D kind is its band spectra f^ psi(eps_j |xi|), carried
on the half axis: each rung is read from its band on its reading grid,
the coarsest refinement of the base grid whose Nyquist frequency holds
ALIAS_MARGIN * 2/eps_j (:func:`rung_oversample`), and its frames on the
finest rung's grid are a view built one frame at a time when read (see
``nets``).

Spectral data use the convention fhat(xi) = int f(x) e^{+i x xi} dx, under
which delta -> 1, delta' -> -i*xi, exp(-x^2) -> sqrt(pi) exp(-xi^2/4) and
pv(1/x) -> i*pi*sgn(xi).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError
from .grids import GridSpec, forward, inverse
from .mollifier import MollifierNet, plateau_window
from .nets import (ALIAS_MARGIN, EpsilonLadder, NetFunction, _band_samples,
                   _LazyRungs, _holding)

MAX_OVERSAMPLE = 64
POLYNOMIAL_WINDOW_RADIUS = 5.0


@dataclass(frozen=True)
class ModelDistribution:
    """Catalog entry.  Kinds: delta, delta_prime, heaviside, pv_inverse,
    gaussian, gaussian_times_sine, polynomial, tensor2d, table."""

    kind: str
    dim: int = 1
    freq: float = 0.0
    coeffs: tuple = ()
    factors: tuple = ()
    table: dict = None

    _KINDS = ("delta", "delta_prime", "heaviside", "pv_inverse", "gaussian",
              "gaussian_times_sine", "polynomial", "tensor2d", "table")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "tensor2d":
            if self.dim != 2 or len(self.factors) != 2:
                raise ValueError("tensor2d needs dim=2 and two 1-D factors")
            for f in self.factors:
                if f.dim != 1:
                    raise ValueError("tensor2d factors must be 1-D")
        elif self.dim != 1:
            raise ValueError(f"kind {self.kind!r} is 1-D only")
        if self.kind == "gaussian_times_sine" and self.freq <= 0:
            raise ValueError("gaussian_times_sine needs freq > 0")
        if self.kind == "polynomial" and not self.coeffs:
            raise ValueError("polynomial needs coefficients")
        if self.kind == "table":
            t = self.table
            if (not isinstance(t, dict)
                    or not {"xi", "re", "im"} <= set(t)
                    or len(t["xi"]) != len(t["re"])
                    or len(t["xi"]) != len(t["im"])):
                raise ValueError(
                    'table kind needs {"xi": [...], "re": [...], "im": [...]}'
                    " of equal lengths")

    @classmethod
    def from_table_json(cls, path: str) -> "ModelDistribution":
        with open(path) as fh:
            return cls(kind="table", table=json.load(fh))


def spectral_data(m: ModelDistribution):
    """The function xi -> fhat(xi), for kinds with closed-form or tabulated
    transforms; ValueError for the others (heaviside, polynomial, tensor2d),
    which :func:`regularize` builds by kind."""
    if m.kind == "delta":
        return lambda xi: np.ones_like(np.asarray(xi, dtype=float))
    if m.kind == "delta_prime":
        # derivative of delta: (d/dx delta)^ = -i xi under e^{+i x xi}
        return lambda xi: -1j * np.asarray(xi, dtype=float)
    if m.kind == "gaussian":
        return lambda xi: np.sqrt(np.pi) * np.exp(-np.asarray(xi) ** 2 / 4.0)
    if m.kind == "pv_inverse":
        return lambda xi: 1j * np.pi * np.sign(np.asarray(xi, dtype=float))
    if m.kind == "gaussian_times_sine":
        a = m.freq

        def fhat(xi):
            xi = np.asarray(xi, dtype=float)
            return (np.sqrt(np.pi) / 2j) * (np.exp(-(xi + a) ** 2 / 4.0)
                                            - np.exp(-(xi - a) ** 2 / 4.0))
        return fhat
    if m.kind == "table":
        xi_t = np.asarray(m.table["xi"], dtype=float)
        re_t = np.asarray(m.table["re"], dtype=float)
        im_t = np.asarray(m.table["im"], dtype=float)
        order = np.argsort(xi_t)
        xi_t, re_t, im_t = xi_t[order], re_t[order], im_t[order]

        def fhat(xi):
            xi = np.asarray(xi, dtype=float)
            return (np.interp(xi, xi_t, re_t, left=0.0, right=0.0)
                    + 1j * np.interp(xi, xi_t, im_t, left=0.0, right=0.0))
        return fhat
    raise ValueError(
        f"kind {m.kind!r} has no closed-form or tabulated transform")


def rung_oversample(eps: float, grid: GridSpec) -> int:
    """Smallest power-of-two refinement m of the grid under whose Nyquist
    frequency m*pi/dx the scaled mollifier spectrum, which ends at 2/eps,
    fits with head-room: ALIAS_MARGIN * 2/eps <= m * pi/dx.  The search
    stops at 2 * MAX_OVERSAMPLE, which stands for "none up to the cap".
    It is the reading grid of such a rung (``NetFunction.reading_grids``)."""
    return _holding(grid, ALIAS_MARGIN * 2.0 / eps, 2 * MAX_OVERSAMPLE)


def required_oversample(ladder: EpsilonLadder, grid: GridSpec) -> int:
    """The refinement every rung fits under: the largest
    :func:`rung_oversample` along the ladder."""
    m = max(rung_oversample(float(eps), grid) for eps in ladder.values)
    if m > MAX_OVERSAMPLE:
        eps_min = ALIAS_MARGIN * 2.0 / (MAX_OVERSAMPLE * grid.dual_max)
        raise AliasingError(
            f"ladder reaches eps={ladder.eps_min:.3g}, below the smallest "
            f"value {eps_min:.3g} resolvable with oversampling capped at "
            f"{MAX_OVERSAMPLE}", eps_min_admissible=eps_min)
    return m


def _maybe_real(frame: np.ndarray) -> np.ndarray:
    tol = 1e-9 * (1.0 + float(np.max(np.abs(frame))))
    if float(np.max(np.abs(frame.imag))) <= tol:
        return np.ascontiguousarray(frame.real)
    return frame


def _spatial_samples(m: ModelDistribution, grid: GridSpec) -> np.ndarray:
    """Classical samples of a polynomial, windowed: the polynomial kind is
    regularized through the discrete transform of these samples."""
    q = np.polynomial.polynomial.polyval(grid.axis(), np.asarray(m.coeffs))
    return q * plateau_window(grid, 0.0, POLYNOMIAL_WINDOW_RADIUS)


def _rung_profiles(moll: MollifierNet, ladder: EpsilonLadder,
                   abs_xi: np.ndarray):
    """psi(eps_j |xi|) on the nodes ``abs_xi`` of a half axis, rung by rung.

    psi is evaluated once, at eps_min.  A rung with eps_j = 2^p eps_min
    exactly (every rung of a ladder of ratio 2^-p) reads it strided: node k
    of the half axis is 2 pi (k/(2L)) in floating point, so scaling k by
    2^p scales |xi_k| exactly, eps_j |xi_k| and eps_min |xi_(2^p k)| are the
    same double, and psi is a pure function of its argument.  The strided
    read covers the first ceil((n/2 + 1)/2^p) nodes; beyond them eps_j |xi|
    exceeds eps_min pi/dx >= 2 ALIAS_MARGIN = 4 > r_outer, where psi is 0,
    on the grid of :func:`required_oversample` that ``abs_xi`` must be on.
    Every other rung calls the profile.  The table lives for this call only.
    """
    values = ladder.values
    eps_min = values[-1]
    psi_min = moll.profile(eps_min * abs_xi)
    for eps in values[:-1]:
        stride = int(eps / eps_min)
        if stride & (stride - 1) or eps_min * stride != eps:
            yield moll.profile(eps * abs_xi)
            continue
        psi_eps = np.zeros(abs_xi.size)
        read = psi_min[::stride]
        psi_eps[: read.size] = read
        yield psi_eps
    yield psi_min


def regularize(m: ModelDistribution, moll: MollifierNet,
               ladder: EpsilonLadder, grid: GridSpec,
               mode: str = "beurling", weight=None) -> NetFunction:
    """The embedding on the catalog: frames are f * phi_eps, on an
    internally refined grid chosen so every psi(eps*xi) is alias-free.

    A real kind's net carries each rung's band spectrum f^ psi(eps_j |xi|)
    on the half axis (``NetFunction.spectra``) and transforms nothing here:
    its rungs are read on their own grids from the bands
    (``NetFunction.samples``), and its frames are a view that inverts a
    band on the fine grid when a frame is first read.  What depends only on
    the grid and the ladder is built once per call: psi at eps_min, which
    the other rungs of a ladder of ratio 2^-p read strided, bitwise their
    own evaluation (:func:`_rung_profiles`), and the heaviside kind's
    divisor.  The complex frames of a table evaluate psi on the full axis
    per rung."""
    if m.kind == "tensor2d":
        return _regularize_tensor(m, moll, ladder, grid, mode, weight)
    if grid.dim != 1:
        raise ValueError("non-tensor kinds are 1-D")
    over = required_oversample(ladder, grid)
    fine = grid.refine(over)
    # every kind but a table is real, and so is each of its frames (phi_eps
    # is real and even): those frames are built from the half axis
    half = m.kind != "table"
    xi = fine.half_dual_axis() if half else fine.dual_axis()
    abs_xi = np.abs(xi)

    fhat_vals = None
    if m.kind == "polynomial":
        fhat_vals = forward(_spatial_samples(m, fine), fine, half=half)
    elif m.kind != "heaviside":
        fhat_vals = spectral_data(m)(xi)

    if not half:
        return NetFunction(ladder=ladder, grid=grid, frames=tuple(
            _maybe_real(inverse(fhat_vals * moll.profile(eps * abs_xi), fine))
            for eps in ladder.values), mode=mode, weight=weight,
            oversample=over)
    # heaviside: antiderivatives A of phi_eps, -i xi A^ = psi_eps at xi != 0,
    # plus the ramp for its mean psi(0)/(2L), so that H(0) = 1/2
    ramp = m.kind == "heaviside"
    if ramp:
        divisor = -1j * xi
    bands = []
    for psi_eps in _rung_profiles(moll, ladder, abs_xi):
        # psi_eps is nonzero on a prefix of the half axis
        k = np.count_nonzero(psi_eps)
        bands.append(np.divide(psi_eps[:k], divisor[:k], where=xi[:k] != 0,
                               out=np.zeros(k, dtype=complex))
                     if ramp else fhat_vals[:k] * psi_eps[:k])
    net = NetFunction(ladder=ladder, grid=grid, mode=mode, weight=weight,
                      oversample=over, frames=_LazyRungs(
                          lambda j: _band_samples(bands[j], ramp, fine),
                          ladder.count, real=True))
    object.__setattr__(net, "spectra", (tuple(bands), ramp))
    object.__setattr__(net, "reach", tuple(
        ALIAS_MARGIN * moll.profile.r_outer / eps for eps in ladder.values))
    return net


def _regularize_tensor(m, moll, ladder, grid, mode, weight):
    """tensor2d frames: outer products of the factors' 1-D frames, stored on
    the base 2-D grid (pointwise-exact decimated samples; keeping small-eps
    2-D frames on a refined grid would be prohibitively large), where the
    bare alias rule 2/eps_min <= pi/dx holds, without ALIAS_MARGIN."""
    if grid.dim != 2:
        raise ValueError("tensor2d needs a 2-D grid")
    if ladder.eps_min * grid.dual_max < 2.0:
        raise AliasingError(
            f"tensor2d frames stay on the base grid, whose Nyquist frequency "
            f"{grid.dual_max:.6g} is below 2/eps at eps={ladder.eps_min:.6g}",
            eps_min_admissible=2.0 / grid.dual_max)
    axis_grid = GridSpec(1, grid.half_width, grid.n)
    nets = [regularize(f, moll, ladder, axis_grid, mode, weight)
            for f in m.factors]
    f1 = nets[0].base_frames()
    f2 = nets[1].base_frames()
    frames = tuple(np.outer(a, b) for a, b in zip(f1, f2))
    return NetFunction(ladder=ladder, grid=grid, frames=frames,
                       mode=mode, weight=weight, oversample=1)


@dataclass(frozen=True)
class WfOracle:
    """Classical wave front set of a catalog entry, queryable per window."""

    kind: str
    entries: tuple  # ((point, direction), ...) with 'line' markers for 2-D

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def singular_directions(self, center, radius: float) -> set:
        """Directions singular somewhere within ``radius`` of ``center``."""
        center = np.atleast_1d(np.asarray(center, dtype=float))
        out = set()
        for point, direction in self.entries:
            if point[0] == "line":
                # the set {x : x[axis] = value}, any other coordinate
                _, axis, value = point
                dist = abs(center[axis] - value)
            else:
                dist = float(np.linalg.norm(center - np.asarray(point)))
            if dist <= radius:
                out.add(direction)
        return out


def classical_wf_oracle(m: ModelDistribution) -> WfOracle:
    if m.kind in ("delta", "delta_prime", "pv_inverse", "heaviside"):
        entries = (((0.0,), (1.0,)), ((0.0,), (-1.0,)))
        return WfOracle(kind=m.kind, entries=entries)
    if m.kind in ("gaussian", "gaussian_times_sine", "polynomial"):
        return WfOracle(kind=m.kind, entries=())
    if m.kind == "tensor2d":
        f1, f2 = m.factors
        singular_1d = ("delta", "delta_prime", "pv_inverse", "heaviside")
        if f1.kind in singular_1d and f2.kind not in singular_1d:
            entries = ((("line", 0, 0.0), (1.0, 0.0)),
                       (("line", 0, 0.0), (-1.0, 0.0)))
            return WfOracle(kind=m.kind, entries=entries)
        if not (f1.kind in singular_1d or f2.kind in singular_1d):
            return WfOracle(kind=m.kind, entries=())
        raise ValueError(
            "oracle covers tensor2d only for singular-first-factor or "
            "smooth-smooth combinations")
    raise ValueError(f"no classical oracle for kind {m.kind!r}")
