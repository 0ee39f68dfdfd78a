"""Gevrey-class mollifiers with band-limited, plateau-shaped spectra.

The mollifier phi is defined through its Fourier transform psi: psi is
identically 1 on a ball, identically 0 outside a larger ball, and bridges
the two with a Gevrey bump of index sigma, so phi has super-polynomial
decay governed by the associated function of the Gevrey sequence of the
same index.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import AliasingError, ResolutionError
from .grids import GridSpec, forward, integrate, inverse
from .weights import WeightSequence, assoc, resolved_for

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(96)
_GL12_NODES, _GL12_WEIGHTS = np.polynomial.legendre.leggauss(12)

# Panel breakpoints on the distance y in [0, 1] from an end of the bump's
# support: 20 panels whose widths halve toward 0, then 8 of width 1/16
_BREAKS = np.concatenate([[0.0], 2.0 ** -np.arange(20.0, 0.0, -1.0),
                          0.5 + np.arange(1, 9) / 16.0])

#: Gevrey index of every plateau window; strictly below common weight
#: orders so the window itself never creates spurious cone growth.
WINDOW_SIGMA = 1.5

#: relative magnitude under which transform samples count as noise, not
#: data, in decay fits.  Set well above fft rounding noise: the spatial
#: windows used for localization carry heavy spectral tails of their own,
#: and keeping those tails down to rounding level lets an eps-independent
#: window artifact dominate the weighted sups and mask genuine growth.
#: It also ends a window's spectrum (:func:`window_reach`).
SPECTRAL_FLOOR = 1e-8


def _bump_from_end(sigma: float, y: np.ndarray) -> np.ndarray:
    """exp(-(1 - s^2)^(-1/(sigma-1))) at s = y - 1, as a function of the
    distance y in [0, 2] from the left end, computed in one fresh array.
    1 - s^2 is taken as y (2 - y), which keeps its relative accuracy at
    both ends; at y = 0 and y = 2 it is +0, whose negative power is +inf,
    and exp(-inf) = 0."""
    u = np.subtract(2.0, y)
    u *= y
    with np.errstate(divide="ignore"):
        np.power(u, -1.0 / (sigma - 1.0), out=u)
    np.negative(u, out=u)
    return np.exp(u, out=u)


def gevrey_bump(sigma: float, radius: float, coords: np.ndarray,
                spacing: float) -> np.ndarray:
    """Samples of the normalized Gevrey-``sigma`` bump supported on
    ``|u| <= radius``: c * exp(-(1 - (u/radius)^2)^(-1/(sigma-1))) inside,
    0 outside, with unit discrete mass on the given uniform coordinates."""
    if sigma <= 1.0:
        raise ValueError("bump requires sigma > 1")
    if radius < 4.0 * spacing:
        raise ResolutionError(
            f"bump radius {radius} is below 4 grid spacings ({4.0 * spacing})")
    y = np.asarray(coords, dtype=float) / radius + 1.0
    out = _bump_from_end(sigma, np.clip(y, 0.0, 2.0))
    mass = np.sum(out) * spacing
    if mass <= 0:
        raise ResolutionError("bump mass vanished; refine the grid")
    return out / mass


@dataclass(frozen=True)
class PlateauProfile:
    """Even profile equal to 1 on ``|u| <= r_inner`` and 0 on
    ``|u| >= r_outer``, obtained by convolving the indicator of
    ``|u| <= (r_inner + r_outer)/2`` with a Gevrey bump of radius
    ``(r_outer - r_inner)/2``.

    In the band, psi(r) is the share of the bump, centred at r, that lies
    inside the indicator.  Let y be the distance of r from the nearer of
    ``r_inner`` and ``r_outer``, in units of the bump radius rb, and C(y)
    the bump's mass over the first y of its support.  Then
    psi = C(y)/C(2) near ``r_outer`` and 1 - C(y)/C(2) near ``r_inner``;
    the bump is even, so y never exceeds 1, and the tail near ``r_outer``
    keeps its relative accuracy.  [0, 1] is cut into 28 panels: 20 whose
    widths halve toward 0, where the bump is flat to all orders, and 8 of
    width 1/16.  Construction stores C at every breakpoint, with 96
    Gauss-Legendre nodes per panel; a radius then costs one 12-node rule
    from the breakpoint below y.  Nothing is interpolated, so the profile
    keeps the smoothness class of the bump, and the plateau and support
    cutoff are exact.  Each distinct radius is evaluated once, by
    elementwise operations whose rounding depends only on that radius:
    psi is a pure function of r, and the value at a point never depends on
    the other points of the call.
    """

    sigma: float
    r_inner: float = 1.0
    r_outer: float = 2.0
    _cumulative: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if not 0 < self.r_inner < self.r_outer:
            raise ValueError("need 0 < r_inner < r_outer")
        if self.sigma <= 1.0:
            raise ValueError("profile requires sigma > 1")
        lo, hi = _BREAKS[:-1, None], _BREAKS[1:, None]
        half = 0.5 * (hi - lo)
        vals = _bump_from_end(self.sigma, lo + half * (_GL_NODES + 1.0))
        vals *= _GL_WEIGHTS
        panels = (half * vals).sum(axis=-1).tolist()
        cumulative = [math.fsum(panels[:p]) for p in range(_BREAKS.size)]
        object.__setattr__(self, "_cumulative", np.array(cumulative))

    def _band(self, radii: np.ndarray) -> np.ndarray:
        """psi at radii strictly inside the band."""
        rb = 0.5 * (self.r_outer - self.r_inner)
        outer = self.r_outer - radii
        inner = radii - self.r_inner
        y = np.minimum(outer, inner)
        y /= rb
        p = np.searchsorted(_BREAKS, y, side="right") - 1
        lo = _BREAKS[p]
        half = 0.5 * (y - lo)
        mass = np.zeros_like(y)
        for node, weight in zip(_GL12_NODES, _GL12_WEIGHTS):
            vals = _bump_from_end(self.sigma, half * (node + 1.0) + lo)
            vals *= weight
            mass += vals
        mass *= half
        mass += self._cumulative[p]
        # the bump is even: its total mass is twice that of its first half
        mass /= 2.0 * self._cumulative[-1]
        return np.where(outer <= inner, mass, 1.0 - mass)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        r = np.abs(np.asarray(u, dtype=float))
        out = np.where(r <= self.r_inner, 1.0, 0.0)
        band = (r > self.r_inner) & (r < self.r_outer)
        if band.any():
            radii, where = np.unique(r[band], return_inverse=True)
            out[band] = self._band(radii)[where]
        return out


@dataclass(frozen=True)
class MollifierNet:
    """A mollifier phi with spectrum psi on a grid, scalable in epsilon; its
    Gevrey index is its profile's ``sigma``."""

    grid: GridSpec
    profile: PlateauProfile
    psi: np.ndarray = field(repr=False, compare=False)
    phi: np.ndarray = field(repr=False, compare=False)


def build_mollifier(sigma: float, grid: GridSpec) -> MollifierNet:
    """Mollifier with spectrum equal to 1 on ``|xi| <= 1`` and 0 on
    ``|xi| >= 2``, Gevrey-``sigma`` in between."""
    if grid.dual_max < 4.0:
        raise ResolutionError(
            f"dual grid reaches only |xi| <= {grid.dual_max:.3g}; "
            "need at least 4 to resolve the spectral cutoff at 2")
    dual_spacing = 2.0 * np.pi / (grid.n * grid.spacing)
    if 1.0 < 4.0 * dual_spacing:
        raise ResolutionError(
            "dual spacing too coarse to resolve the transition band [1, 2]")
    profile = PlateauProfile(sigma, 1.0, 2.0)
    psi = profile(grid.dual_radius())
    # psi is real and even on the grid, so phi is real
    phi = inverse(psi[..., : grid.n // 2 + 1], grid)
    return MollifierNet(grid=grid, profile=profile, psi=psi, phi=phi)


def sample_phi_eps(net: MollifierNet, eps: float) -> np.ndarray:
    """Real samples of phi_eps(x) = eps^{-d} phi(x/eps) on the net's grid,
    computed spectrally as the inverse transform of psi(eps * xi)."""
    grid = net.grid
    eps_min = 2.0 / grid.dual_max
    if eps * grid.dual_max < 2.0:
        raise AliasingError(
            f"psi(eps*xi) has support beyond the Nyquist frequency "
            f"{grid.dual_max:.6g} at eps={eps:.6g}; minimal admissible "
            f"eps on this grid is {eps_min:.6g}",
            eps_min_admissible=eps_min)
    psi_eps = net.profile(eps * grid.dual_radius()[..., : grid.n // 2 + 1])
    return inverse(psi_eps, grid)


@dataclass(frozen=True)
class MollifierReport:
    """Measured invariants of a built mollifier."""

    sigma: float
    mass_defect: float
    plateau_deviation: float
    support_leakage: float
    evenness_defect: float
    moment_defects: tuple
    decay_constant: float
    decay_ok: bool

    @property
    def ok(self) -> bool:
        # Moment defects are informational only: beyond unit mass, no moment
        # conditions are part of the construction's contract, and a finite
        # window folds the slow sigma-dependent tails into high moments.
        return (self.mass_defect <= 1e-6
                and self.plateau_deviation <= 1e-6
                and self.support_leakage <= 1e-6
                and self.evenness_defect <= 1e-10
                and self.decay_ok)

    def to_json(self) -> dict:
        return {
            "sigma": self.sigma,
            "mass_defect": self.mass_defect,
            "plateau_deviation": self.plateau_deviation,
            "support_leakage": self.support_leakage,
            "evenness_defect": self.evenness_defect,
            "moment_defects": list(self.moment_defects),
            "decay_constant": self.decay_constant,
            "decay_ok": self.decay_ok,
            "ok": self.ok,
        }


def _evenness_defect(phi: np.ndarray) -> float:
    """Max |phi(x) - phi(-x)| over grid points with a mirror partner."""
    sl = tuple(slice(1, None) for _ in phi.shape)
    core = phi[sl]
    mirrored = np.flip(core, axis=tuple(range(phi.ndim)))
    return float(np.max(np.abs(core - mirrored)))


def verify_mollifier(net: MollifierNet) -> MollifierReport:
    """Check unit mass, vanishing moments of orders 1-3, spectral plateau and
    cutoff, evenness, and super-polynomial spatial decay of phi.

    The decay check fits the largest c > 0 such that
    log|phi(x)| <= C - N(|x|/c) on 1 <= |x| <= L, where N is the associated
    function of the Gevrey sequence of index sigma; samples below the fft
    noise floor are excluded from the fit.
    """
    grid = net.grid
    r = grid.dual_radius()
    psi = net.psi
    plateau_dev = float(np.max(np.abs(psi[r <= 1.0] - 1.0)))
    outside = r >= 2.0
    support_leak = float(np.max(np.abs(psi[outside]))) if outside.any() else 0.0
    mass_defect = abs(integrate(net.phi, grid) - 1.0)

    pts = grid.points()
    moment_defects = []
    for k in (1, 2, 3):
        for ax in range(grid.dim):
            moment_defects.append(abs(integrate(net.phi * pts[ax] ** k, grid)))

    phi = net.phi
    evenness = _evenness_defect(phi)

    radius = np.abs(pts[0]) if grid.dim == 1 else np.hypot(*pts)
    mag = np.abs(phi)
    floor = 1e-13 * float(np.max(mag))
    mask = (radius >= 1.0) & (mag > floor)
    decay_c, decay_ok = 0.0, False
    if mask.any():
        rr = radius[mask]
        logmag = np.log(mag[mask])
        cs = 2.0 ** (np.arange(12, -21, -1) / 4.0)
        seq = resolved_for(WeightSequence.gevrey(net.profile.sigma),
                           float(rr.max()) / float(cs[-1]))
        for c in cs:
            pen = assoc(seq, rr / c)
            resid = logmag + pen
            anchor = resid[np.argmin(rr)]
            if float(np.max(resid)) <= anchor + 1.0:
                decay_c, decay_ok = float(c), True
                break
    return MollifierReport(
        sigma=net.profile.sigma,
        mass_defect=float(mass_defect),
        plateau_deviation=plateau_dev,
        support_leakage=support_leak,
        evenness_defect=evenness,
        moment_defects=tuple(float(m) for m in moment_defects),
        decay_constant=decay_c,
        decay_ok=decay_ok,
    )


def plateau_window(grid: GridSpec, center, radius: float,
                   block: tuple = None) -> np.ndarray:
    """Smooth cutoff equal to 1 within ``radius/2`` of ``center`` and 0
    beyond ``radius``, Gevrey-WINDOW_SIGMA in between; used to localize
    nets before spectral operations.  With ``block``, one slice per axis,
    it is evaluated at that block of the grid's nodes only: bitwise the
    whole grid's window, read there."""
    if np.isscalar(center):
        center = (center,) * grid.dim
    if block is None:
        block = (slice(None),) * grid.dim
    profile = PlateauProfile(WINDOW_SIGMA, 0.5 * radius, radius)
    axis = grid.axis()
    if grid.dim == 1:
        dist = np.abs(axis[block[0]] - center[0])
    else:
        x, y = np.meshgrid(axis[block[0]], axis[block[1]], indexing="ij")
        dist = np.hypot(x - center[0], y - center[1])
    return profile(dist)


@functools.cache
def _unit_window_reach() -> float:
    """:func:`window_reach` at radius 1, read once per process on grids of
    half-width 2 (the window fills half of each), from 256 nodes up,
    doubled until the reading stops changing."""
    reach, n = None, 256
    while True:
        g = GridSpec(1, 2.0, n)
        mag = np.abs(forward(plateau_window(g, 0.0, 1.0), g, half=True))
        found = float(np.max(np.abs(g.half_dual_axis())[
            mag > SPECTRAL_FLOOR * mag.max()]))
        if found == reach:
            return reach
        reach, n = found, 2 * n


def window_reach(radius: float) -> float:
    """The spectral reach of the plateau window of ``radius``: the largest
    |xi| at which its spectrum exceeds SPECTRAL_FLOOR times its peak.  The
    window of radius r is the unit one at x/r, whose spectrum is read at
    r xi, so the reach is the unit window's over r (about 308 / r)."""
    return _unit_window_reach() / radius


def export_mollifier(net: MollifierNet, out_dir: str) -> dict:
    """Write phi and psi as little-endian float64 arrays plus a JSON
    manifest with shapes, grid parameters, and sha256 digests."""
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    for name, arr in (("phi", net.phi), ("psi", net.psi)):
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        path = os.path.join(out_dir, f"{name}.f64")
        with open(path, "wb") as fh:
            fh.write(raw)
        files[name] = {
            "file": f"{name}.f64",
            "dtype": "<f8",
            "shape": list(arr.shape),
            "sha256": hashlib.sha256(raw).hexdigest(),
        }
    manifest = {
        "sigma": net.profile.sigma,
        "grid": {"dim": net.grid.dim, "half_width": net.grid.half_width,
                 "n": net.grid.n},
        "dual_order": "fft",
        "arrays": files,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest
