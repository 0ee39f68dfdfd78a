"""Gevrey-class mollifiers with band-limited, plateau-shaped spectra.

The mollifier phi is defined through its Fourier transform psi: psi is
identically 1 on a ball, identically 0 outside a larger ball, and bridges
the two with a Gevrey bump of index sigma, so phi has super-polynomial
decay governed by the associated function of the Gevrey sequence of the
same index.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import AliasingError, ResolutionError
from .grids import GridSpec, integrate, inverse
from .weights import WeightSequence, assoc, resolved_for

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(96)

# 32768 rows x 96 nodes = 25 MB per block: freeing one lifts glibc's dynamic
# mmap and heap-trim thresholds above the 4 MB FFT temporaries of a depth-10
# ladder; with 16384 rows those temporaries page-fault about 2.7x as often
_BLOCK_ROWS = 32768


def _bump_unnormalized(sigma: float, radius: float, v: np.ndarray) -> np.ndarray:
    """exp(-(1 - u^2)^(-1/(sigma-1))) at u = v/radius, and 0 for |u| >= 1,
    computed in place in one array."""
    u = np.asarray(v, dtype=float) / radius
    np.square(u, out=u)
    np.subtract(1.0, u, out=u)
    # |u| >= 1: 1 - u^2 <= 0 becomes +0 (never -0, as x - x is +0), whose
    # negative power is +inf, and exp(-inf) = 0
    np.maximum(u, 0.0, out=u)
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
    out = _bump_unnormalized(sigma, radius, coords)
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

    The cumulative bump is evaluated on demand with Gauss-Legendre
    quadrature, so the profile keeps the smoothness class of the bump
    instead of the smoothness of an interpolation table, and the plateau
    and support cutoff are exact.  Each distinct radius is integrated once,
    in blocks of bounded size, with a reduction whose rounding depends only
    on that radius: the value at a point never depends on the other points
    of the call, nor on the BLAS library or its thread count.
    """

    sigma: float
    r_inner: float = 1.0
    r_outer: float = 2.0
    _norm: float = field(repr=False, compare=False, default=0.0)

    def __post_init__(self):
        if not 0 < self.r_inner < self.r_outer:
            raise ValueError("need 0 < r_inner < r_outer")
        if self.sigma <= 1.0:
            raise ValueError("profile requires sigma > 1")
        rb = 0.5 * (self.r_outer - self.r_inner)
        object.__setattr__(self, "_norm",
                           float(self._cumulative_raw(np.array([rb]))[0]))

    def _cumulative_raw(self, q: np.ndarray) -> np.ndarray:
        """int_{-rb}^{q} of the unnormalized bump, for each entry of the
        1-D array q."""
        rb = 0.5 * (self.r_outer - self.r_inner)
        half = 0.5 * (np.asarray(q, dtype=float) + rb)
        out = np.empty_like(half)
        for start in range(0, half.size, _BLOCK_ROWS):
            h = half[start:start + _BLOCK_ROWS]
            vals = _bump_unnormalized(self.sigma, rb,
                                      h[:, None] * (_GL_NODES + 1.0) - rb)
            vals *= _GL_WEIGHTS
            out[start:start + _BLOCK_ROWS] = h * vals.sum(axis=-1)
        return out

    def __call__(self, u: np.ndarray) -> np.ndarray:
        r = np.abs(np.asarray(u, dtype=float))
        out = np.where(r <= self.r_inner, 1.0, 0.0)
        band = (r > self.r_inner) & (r < self.r_outer)
        if band.any():
            # inside the band the upper limit r + c always reaches rb, so
            # only the lower cumulative, from r - c > -rb, is needed
            c = 0.5 * (self.r_inner + self.r_outer)
            radii, where = np.unique(r[band], return_inverse=True)
            lower = self._cumulative_raw(radii - c)
            out[band] = np.clip((self._norm - lower) / self._norm,
                                0.0, 1.0)[where]
        return out


@dataclass(frozen=True)
class MollifierNet:
    """A mollifier phi with spectrum psi on a grid, scalable in epsilon."""

    sigma: float
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
    phi = inverse(psi, grid)
    phi_imag = float(np.max(np.abs(phi.imag)))
    phi = phi.real.copy()
    if phi_imag > 1e-10 * max(1.0, float(np.max(np.abs(phi)))):
        raise ResolutionError("mollifier came out non-real; grid too coarse")
    return MollifierNet(sigma=sigma, grid=grid, profile=profile,
                        psi=psi, phi=phi)


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
    psi_eps = net.profile(eps * grid.dual_radius())
    return inverse(psi_eps, grid).real


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
        seq = resolved_for(WeightSequence.gevrey(net.sigma),
                           float(rr.max()) / float(cs[-1]))
        for c in cs:
            pen = assoc(seq, rr / c)
            resid = logmag + pen
            anchor = resid[np.argmin(rr)]
            if float(np.max(resid)) <= anchor + 1.0:
                decay_c, decay_ok = float(c), True
                break
    return MollifierReport(
        sigma=net.sigma,
        mass_defect=float(mass_defect),
        plateau_deviation=plateau_dev,
        support_leakage=support_leak,
        evenness_defect=evenness,
        moment_defects=tuple(float(m) for m in moment_defects),
        decay_constant=decay_c,
        decay_ok=decay_ok,
    )


def plateau_window(grid: GridSpec, center, radius: float,
                   sigma: float = 2.0) -> np.ndarray:
    """Smooth cutoff equal to 1 within ``radius/2`` of ``center`` and 0
    beyond ``radius``; used to localize nets before spectral operations."""
    if np.isscalar(center):
        center = (center,) * grid.dim
    profile = PlateauProfile(sigma, 0.5 * radius, radius)
    pts = grid.points()
    if grid.dim == 1:
        dist = np.abs(pts[0] - center[0])
    else:
        dist = np.hypot(pts[0] - center[0], pts[1] - center[1])
    return profile(dist)


def export_mollifier(net: MollifierNet, out_dir: str) -> dict:
    """Write phi and psi as little-endian float64 arrays plus a JSON
    manifest with shapes, grid parameters, and sha256 digests."""
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    for name, arr in (("phi", net.phi), ("psi", net.psi.real)):
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
        "sigma": net.sigma,
        "grid": {"dim": net.grid.dim, "half_width": net.grid.half_width,
                 "n": net.grid.n},
        "dual_order": "fft",
        "arrays": files,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest
