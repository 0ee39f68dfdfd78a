"""Epsilon-indexed nets of grid functions: the representatives of
generalized functions.

A :class:`NetFunction` holds one frame per rung of an epsilon ladder.
Frames are sampled on ``grid.refine(oversample)``, the fine grid, so that
spectra that widen like 1/eps stay below the Nyquist frequency;
``base_frames`` reads the same functions back on the caller's grid by
exact decimation.

A real 1-D ``regularize`` net, and a window of one, also reads each rung
on its own grid (``NetFunction.reading_grids``): the coarsest refinement
of ``grid`` whose Nyquist frequency holds the rung's reach
(``NetFunction.reach``), ALIAS_MARGIN * 2/eps_j plus the reach of each
window (``mollifier.window_reach``).  Its frames are then a view
(:class:`_LazyRungs`) that builds each frame on the fine grid on its first
read.  A net with a reach, a window included, is read on its reading
grids: its sups, the order-0 row of ``classify_net``, windows, wave-front
boxes, the CLI's frame tables, and the decay tests and the weight-function
mode's FL^1 norms, both over the nodes above one noise floor
(:func:`_kept_spectra`); any other net on its frames.  Ring operations,
point values, derivatives and ultradifferential operators read the view.
"""

from __future__ import annotations

import functools
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import GridMismatchError
from .grids import (_I_POWERS, GridSpec, _alternate, _band, _symbols,
                    forward, inverse)
from .mollifier import SPECTRAL_FLOOR, plateau_window, window_reach
from .weights import (WeightFunction, WeightSequence, assoc, assoc_inverse,
                      resolved_for)

#: |z| below this multiple of the ambient scale is treated as an exact zero
#: produced by floating point, not as data with a measurable decay rate.
MACHINE_FLOOR = 1e-12

#: a windowed frame whose sup falls to this fraction of its frame's sup
#: holds only round-off (see :func:`_windowed_frames`).
WINDOW_NOISE_REL = 1e-10

#: head-room factor above the bare aliasing bound eps*Nyquist >= 2 of a
#: regularized rung, whose spectrum ends at 2/eps (``NetFunction.reach``)
ALIAS_MARGIN = 2.0


def _holding(grid: GridSpec, reach: float, cap: int) -> int:
    """The smallest power-of-two refinement m of ``grid`` whose Nyquist
    frequency m*pi/dx is at least ``reach``, or ``cap`` when no smaller one
    is."""
    need = reach / grid.dual_max
    m = 1
    while m < need and m < cap:
        m *= 2
    return m


@dataclass(frozen=True)
class EpsilonLadder:
    """Geometric ladder eps_j = eps0 * ratio**j, j = 0..count-1."""

    eps0: float
    ratio: float
    count: int

    def __post_init__(self):
        if not 0.0 < self.eps0 <= 1.0:
            raise ValueError("eps0 must lie in (0, 1]")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must lie in (0, 1)")
        if self.count < 6:
            raise ValueError("ladder needs at least 6 rungs")

    @property
    def values(self) -> np.ndarray:
        return self.eps0 * self.ratio ** np.arange(self.count)

    @property
    def eps_min(self) -> float:
        return float(self.eps0 * self.ratio ** (self.count - 1))

    def to_json(self) -> dict:
        return {"eps0": self.eps0, "ratio": self.ratio, "count": self.count}

    @classmethod
    def from_json(cls, data: dict) -> "EpsilonLadder":
        return cls(data["eps0"], data["ratio"], data["count"])


class _LazyRungs(Sequence):
    """One array per rung, each built by ``build(j)`` on its first read and
    kept, read-only: a net's frames on its fine grid, which a net read only
    on its reading grids never builds, or a window's samples.  ``real``
    says whether they are real."""

    def __init__(self, build, count: int, real: bool):
        self._build, self._built, self.real = build, [None] * count, real

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return tuple(self[i] for i in range(len(self))[j])
        frame = self._built[j]
        if frame is None:
            frame = self._built[j] = self._build(range(len(self))[j])
            frame.setflags(write=False)
        return frame


def _band_samples(band: np.ndarray, ramp: bool, grid: GridSpec) -> np.ndarray:
    """Real samples on ``grid`` of the half-axis spectrum ``band``, 0 beyond
    it, plus the ramp j/n = 1/2 + x/(2L) with ``ramp``: a rung of a real
    1-D ``regularize`` net (:attr:`NetFunction.spectra`)."""
    nodes = grid.n // 2 + 1
    spec = np.zeros(nodes, dtype=complex)
    spec[: min(nodes, band.size)] = band[:nodes]
    out = inverse(spec, grid)
    if ramp:
        out += 0.5 + grid.axis() / (2.0 * grid.half_width)
    return out


@dataclass(frozen=True)
class NetFunction:
    """Per-epsilon frames on a (possibly internally refined) grid, each
    rung also read on its own grid (:attr:`reading_grids`)."""

    ladder: EpsilonLadder
    grid: GridSpec
    #: the frames on the fine grid: a tuple, or a :class:`_LazyRungs` that
    #: builds each one on its first read
    frames: tuple = field(repr=False, compare=False)
    mode: str = "beurling"
    weight: object = None
    oversample: int = 1
    #: (bands, ramp) of a real 1-D ``regularize`` net, which ``replace``
    #: never copies: per rung f^ psi(eps_j |xi|) on the half axis up to
    #: psi_j's support, and whether frames add the ramp j/n (:func:`_spectrum`)
    spectra: tuple = field(default=None, init=False, repr=False,
                           compare=False)
    #: per rung, the |xi| up to which its spectrum is read: ALIAS_MARGIN
    #: times the band's end r_outer/eps_j for a real 1-D ``regularize``
    #: net, plus ``mollifier.window_reach`` per window of one
    #: (:func:`_windowed`); None for every other net, which ``replace``
    #: gives
    reach: tuple = field(default=None, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        if self.mode not in ("beurling", "roumieu"):
            raise ValueError("mode must be 'beurling' or 'roumieu'")
        if self.oversample < 1 or self.oversample & (self.oversample - 1):
            raise ValueError("oversample must be a power of two")
        fine = self.fine_grid
        # a view builds its frames from data checked where it was made
        for fr in self.frames if isinstance(self.frames, tuple) else ():
            if fr.shape != fine.shape:
                raise GridMismatchError(
                    f"frame shape {fr.shape} does not match grid {fine.shape}")
            if not np.all(np.isfinite(fr)):
                raise ValueError("frames must be finite-valued")
        if len(self.frames) != self.ladder.count:
            raise GridMismatchError("one frame per ladder rung required")

    @property
    def fine_grid(self) -> GridSpec:
        return self.grid.refine(self.oversample)

    @cached_property
    def reading_grids(self) -> tuple:
        """Per rung, the grid it is read on: without a reach the fine grid,
        else the coarsest refinement of ``grid``, up to the fine grid, whose
        Nyquist frequency holds the rung's reach.  A window's box reads
        each rung on a block of that grid instead
        (``microlocal.wavefront``)."""
        if self.reach is None:
            return (self.fine_grid,) * self.ladder.count
        return tuple(self.grid.refine(_holding(self.grid, r, self.oversample))
                     for r in self.reach)

    @cached_property
    def samples(self) -> tuple:
        """Each rung's samples on its reading grid, made once per net on
        first use: the frames themselves without a reach, else inverted
        from the carried bands there (:func:`_band_samples`); a window
        stores its own (:func:`_windowed`)."""
        if self.spectra is None:
            return tuple(self.frames)
        bands, ramp = self.spectra
        return tuple(_band_samples(band, ramp, g)
                     for band, g in zip(bands, self.reading_grids))

    @cached_property
    def sups(self) -> np.ndarray:
        """max |f_eps| per rung, read once per net on first use, over the
        nodes of :func:`_stored`: a net with a reach, a window included, on
        each rung's reading grid, any other net on its frames."""
        sups = np.array([np.max(np.abs(_stored(self, j)))
                         for j in range(self.ladder.count)])
        sups.setflags(write=False)
        return sups

    @property
    def real(self) -> bool:
        """Are the frames real?  Their spectra are then Hermitian and are
        taken on the half spectrum (half axis in 1-D, half plane in 2-D)."""
        if isinstance(self.frames, _LazyRungs):
            return self.frames.real
        return not any(np.iscomplexobj(fr) for fr in self.frames)

    def base_frames(self) -> tuple:
        """Frames decimated to the base grid (exact: refinement keeps the
        base nodes)."""
        if self.oversample == 1:
            return self.frames
        step = (slice(None, None, self.oversample),) * self.grid.dim
        return tuple(fr[step] for fr in self.frames)

    def _compatible(self, other: "NetFunction"):
        if self.grid != other.grid or self.ladder != other.ladder:
            raise GridMismatchError("nets live on different grids or ladders")
        if self.oversample != other.oversample:
            raise GridMismatchError(
                "nets carry different internal refinements; rebuild with a "
                "common oversample")


def _stored(a: NetFunction, j: int) -> np.ndarray:
    """Rung j as the net stores it: its samples on its reading grid for a
    net with a reach, a window's included (which builds no frame), else its
    frame."""
    return a.samples[j] if a.reach is not None else a.frames[j]


def _samples(a: NetFunction, j: int, grid: GridSpec) -> np.ndarray:
    """Rung j's samples at the nodes of ``grid``, a refinement of the net's
    grid up to its fine grid: its samples on its reading grid, the carried
    band inverted on any other (:func:`_band_samples`), or else the frame,
    decimated."""
    if grid == a.reading_grids[j]:
        return a.samples[j]
    if a.spectra is not None:
        bands, ramp = a.spectra
        return _band_samples(bands[j], ramp, grid)
    step = a.fine_grid.n // grid.n
    return a.frames[j][(slice(None, None, step),) * grid.dim]


@dataclass(frozen=True)
class GeneralizedNumber:
    ladder: EpsilonLadder
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.ladder.count:
            raise ValueError("one value per ladder rung required")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")


@dataclass(frozen=True)
class GeneralizedPoint:
    """Per-epsilon evaluation points confined to one compact box."""

    ladder: EpsilonLadder
    points: np.ndarray
    box: tuple

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] != self.ladder.count:
            raise ValueError("one point per ladder rung required")
        lo, hi = self.box
        lo = np.broadcast_to(np.asarray(lo, dtype=float), pts.shape[1:])
        hi = np.broadcast_to(np.asarray(hi, dtype=float), pts.shape[1:])
        if np.any(pts < lo) or np.any(pts > hi):
            raise ValueError("points leave the declared compact box")


def constant_embed(f, ladder: EpsilonLadder, grid: GridSpec, weight=None,
                   oversample: int = 1) -> NetFunction:
    """Net with every frame equal to ``f``.

    ``f`` may be an array of samples on the base grid (oversample must then
    be 1) or a callable evaluated on the refined grid.
    """
    fine = grid.refine(oversample)
    if callable(f):
        samples = np.asarray(f(*fine.points()))
        if samples.shape != fine.shape:
            raise GridMismatchError("callable did not broadcast to the grid")
    else:
        samples = np.asarray(f)
        if oversample != 1:
            raise GridMismatchError(
                "sample input requires oversample=1; pass a callable to "
                "embed on a refined grid")
        if samples.shape != grid.shape:
            raise GridMismatchError(
                f"samples of shape {samples.shape} on grid {grid.shape}")
    samples = samples.copy()
    samples.setflags(write=False)
    return NetFunction(ladder=ladder, grid=grid,
                       frames=(samples,) * ladder.count,
                       weight=weight, oversample=oversample)


_OPS = {"add": np.add, "sub": np.subtract, "mul": np.multiply}


def combine(a: NetFunction, b: NetFunction, op: str) -> NetFunction:
    """Frame-wise pointwise ring operation (add | sub | mul)."""
    if op not in _OPS:
        raise ValueError(f"unknown op {op!r}")
    a._compatible(b)
    fn = _OPS[op]
    frames = tuple(fn(x, y) for x, y in zip(a.frames, b.frames))
    return replace(a, frames=frames)


def scale(a: NetFunction, c) -> NetFunction:
    frames = tuple(c * fr for fr in a.frames)
    return replace(a, frames=frames)


def _edge_mass(frame: np.ndarray) -> float:
    """Largest magnitude on the outermost layer of nodes."""
    vals = []
    for ax in range(frame.ndim):
        vals.append(np.max(np.abs(np.take(frame, 0, axis=ax))))
        vals.append(np.max(np.abs(np.take(frame, -1, axis=ax))))
    return float(max(vals))


def _warn_boundary_mass(eps: float, frame: np.ndarray, sup: float,
                        warn_label: str) -> None:
    """RuntimeWarning when a frame about to get a Fourier multiplier
    carries boundary mass above 1e-8 of its ``sup``: periodic wrap-around
    would pollute the result.  It names the line that called the public
    function, whose private helper calls this one."""
    if sup > 0 and _edge_mass(frame) > 1e-8 * sup:
        warnings.warn(
            f"{warn_label}: frame at eps={eps:.6g} carries boundary mass "
            f"above 1e-8 of its sup; periodic wrap-around will pollute "
            f"the result (window the net first)",
            RuntimeWarning, stacklevel=4)


def _spectrum(a: NetFunction, j: int, half: bool, grid=None) -> np.ndarray:
    """Frame j's spectrum (half with ``half``) at the dual nodes of ``grid``,
    by default the fine grid: the carried band zero-padded, plus the ramp's
    where frames add one, or else the frame's transform (:func:`_band`)."""
    fine = a.fine_grid
    grid = grid or fine
    if not (half and a.spectra):
        return _band(forward(a.frames[j], fine, half=half), fine, grid)
    bands, ramp = a.spectra
    nodes = grid.n // 2 + 1
    out = np.zeros(nodes, dtype=complex)
    if ramp:
        # the ramp j/n: sum_j (j/n) w^j = 1/(w - 1) = -(1 + i cot(pi k/n))/2
        # at w = e^(2 pi i k/n) != 1
        cot = 1.0 / np.tan(np.pi * np.arange(1, nodes) / fine.n)
        out.real[1:] = -0.5 * fine.spacing
        out.imag[1:] = -0.5 * fine.spacing * cot
        out[0] = 0.5 * fine.spacing * (fine.n - 1)
        _alternate(out)
    out[: min(nodes, bands[j].size)] += bands[j][:nodes]
    return out


def _rung_spectrum(a: NetFunction, j: int, half: bool) -> np.ndarray:
    """Rung j's spectrum (half with ``half``) on its reading grid: the
    carried band there (:func:`_spectrum`), or the transform of its
    samples; without a reach, the frame's on the fine grid."""
    read = a.reading_grids[j]
    if half and a.spectra:
        return _spectrum(a, j, half, read)
    return forward(a.samples[j], read, half=half)


def _kept_spectra(a: NetFunction, on_fine: bool) -> tuple:
    """Each rung's spectrum, read once, at the nodes above the fft noise
    floor of the ladder: the grid it is read on (the rung's reading grid,
    :func:`_rung_spectrum`, or with ``on_fine`` the fine grid,
    :func:`_spectrum`), and per rung the flat indices of the kept nodes and
    |fhat| there.  Real frames are read on the half spectrum."""
    half = a.real
    grids = [a.fine_grid if on_fine else g for g in a.reading_grids]
    # keep each frame's nodes above its own floor SPECTRAL_FLOOR * max|fhat_j|:
    # that floor is at most the ladder-wide one, so no node is lost, and no
    # full-size |fhat_j| outlives its transform
    kept, top = [], 0.0
    for j, g in enumerate(grids):
        fhat = (_rung_spectrum(a, j, half) if g == a.reading_grids[j]
                else _spectrum(a, j, half))
        mag = np.abs(fhat).ravel()
        fhat = None
        peak = float(mag.max())
        nodes = np.flatnonzero(mag > SPECTRAL_FLOOR * peak)
        kept.append((nodes, mag[nodes]))
        mag = None
        top = max(top, peak)
    # one floor for the whole ladder: frames windowed down to rounding noise
    # must not be re-normalized into fake decay data
    cut = SPECTRAL_FLOOR * top if top > 0 else np.inf
    for j, (nodes, mag) in enumerate(kept):
        above = mag > cut
        kept[j] = (nodes[above], mag[above])
    return grids, kept


def _apply_symbol(a: NetFunction, coeffs: dict,
                  warn_label: str) -> NetFunction:
    """Frame-wise sum_alpha c_alpha D^alpha, one multiplier on the fine grid,
    in complex frames unless the net is real and 1-D and no b_k = c_k (-i)^k
    has an imaginary part.  On a real 1-D net f^(k) = i^k D^k f is real, and
    the parts sum Re(b_k) f^(k) and sum Im(b_k) f^(k) take one half-axis
    inverse each if some b_k has one.  The boundary check reads the rung
    as stored, but a window's frame, so that a window builds no samples."""
    fine = a.fine_grid
    half = a.grid.dim == 1 and a.real
    terms = [(complex(c) * _I_POWERS[-alpha[0] % 4] if half else c, sym)
             for (alpha, c), sym in zip(coeffs.items(),
                                        _symbols(fine, coeffs, half))]
    symbol = ({"real": sum(b.real * sym for b, sym in terms if b.real),
               "imag": sum(b.imag * sym for b, sym in terms if b.imag)}
              if half else sum(b * sym for b, sym in terms))
    # a window's frames, which it keeps, are all built before the transforms
    window = a.reach is not None and a.spectra is None
    sups = [np.max(np.abs(fr)) for fr in a.frames] if window else a.sups
    frames = []
    for j, eps in enumerate(a.ladder.values):
        _warn_boundary_mass(eps, a.frames[j] if window else _stored(a, j),
                            sups[j], warn_label)
        fhat = _spectrum(a, j, half)
        if half:
            out = np.zeros(fine.n, dtype=complex if np.ndim(symbol["imag"])
                           else float)
            for part, sym in symbol.items():
                if np.ndim(sym):  # a part no b_k has is 0
                    setattr(out, part, inverse(fhat * sym, fine))
        frames.append(out if half else inverse(fhat * symbol, fine))
    return replace(a, frames=tuple(frames))


def spectral_derivative(a: NetFunction, alpha) -> NetFunction:
    """Frame-wise D^alpha with D = -i d/dx, computed as a Fourier
    multiplier on the refined grid."""
    if np.isscalar(alpha):
        if a.grid.dim != 1:
            raise ValueError("scalar alpha is ambiguous on a 2-D grid; "
                             "pass a multi-index")
        alpha = (alpha,)
    alpha = tuple(int(k) for k in alpha)
    if all(k == 0 for k in alpha):
        return a
    return _apply_symbol(a, {alpha: 1.0}, "spectral_derivative")


@dataclass(frozen=True)
class UltradiffOperator:
    """Truncation Sum_{|alpha| <= n_max} a_alpha D^alpha of an infinite-order
    operator whose coefficients obey |a_alpha| <= C L^|alpha| / M_|alpha|."""

    coeffs: dict
    seq: WeightSequence
    bound_c: float
    bound_l: float

    def __post_init__(self):
        coeffs = {}
        for alpha, val in self.coeffs.items():
            alpha = (int(alpha),) if np.isscalar(alpha) else tuple(
                int(k) for k in alpha)
            coeffs[alpha] = complex(val)
        object.__setattr__(self, "coeffs", coeffs)
        if self.n_max > 64:
            raise ValueError("operator order capped at 64")
        log_m = self.seq.log_m
        for alpha, val in coeffs.items():
            order = sum(alpha)
            if order >= len(log_m):
                raise ValueError(f"weight table too short for order {order}")
            bound = (np.log(self.bound_c) + order * np.log(self.bound_l)
                     - log_m[order])
            if val != 0 and np.log(abs(val)) > bound + 1e-9:
                raise ValueError(
                    f"coefficient a_{alpha} = {val} violates the growth "
                    f"bound C*L^|a|/M_|a| with (C, L) = "
                    f"({self.bound_c}, {self.bound_l})")

    @property
    def n_max(self) -> int:
        return max((sum(a) for a in self.coeffs), default=0)

    def symbol(self, grid: GridSpec) -> np.ndarray:
        """P(-xi): the Fourier multiplier of Sum a_alpha D^alpha."""
        sym = np.zeros(grid.shape, dtype=complex)
        for val, term in zip(self.coeffs.values(),
                             _symbols(grid, self.coeffs)):
            sym += val * term
        return sym


def apply_ultradiff(op: UltradiffOperator, a: NetFunction) -> NetFunction:
    """Apply the truncated operator spectrally as a single multiplier."""
    return _apply_symbol(a, op.coeffs, "apply_ultradiff")


def _window_center(grid: GridSpec, center, radius: float) -> np.ndarray:
    """The centre of a window of ``radius`` as an array, once it is checked
    to have one coordinate per axis (a plain number on a 1-D grid) and to
    keep the window inside the grid: |c| + radius <= L on every axis."""
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if c.shape != (grid.dim,):
        raise ValueError(f"window centre {center} needs one coordinate per "
                         f"axis of the {grid.dim}-D grid")
    if np.any(np.abs(c) + radius > grid.half_width):
        raise ValueError(f"window at {center} leaves the grid")
    return c


def _windowed_frames(a: NetFunction, center, radius: float,
                     block: tuple = None) -> tuple:
    """The frames of ``a`` times the plateau window of ``radius`` at
    ``center``, on ``block`` of the fine grid (the whole grid by default).
    A product whose sup is at most WINDOW_NOISE_REL of its frame's sup holds
    only round-off and is zeroed, so it cannot read as spectral growth."""
    c = _window_center(a.grid, center, radius)
    if block is None:
        block = (slice(None),) * a.grid.dim
    w = plateau_window(a.fine_grid, c, radius, block)
    frames = []
    for fr, sup in zip(a.frames, a.sups):
        lf = fr[block] * w
        if np.max(np.abs(lf)) <= WINDOW_NOISE_REL * sup:
            lf[...] = 0
        frames.append(lf)
    return tuple(frames)


def _windowed(a: NetFunction, centers, radius: float,
              place=None) -> list:
    """``a``, a net with a reach, times the plateau window of ``radius`` at
    each checked centre of ``centers``: one net per centre, built by
    :func:`_window`.  Rung j is read on the reading grid of its reach plus
    ``mollifier.window_reach(radius)``, where its samples
    (:func:`_samples`) are made once for all centres, on first use."""
    reach = tuple(r + window_reach(radius) for r in a.reach)
    grids = [a.grid.refine(_holding(a.grid, r, a.oversample)) for r in reach]
    rung = functools.cache(lambda j: _samples(a, j, grids[j]))
    return [_window(a, c, radius, place, reach, grids, rung) for c in centers]


def _window(a: NetFunction, c: np.ndarray, radius: float, place,
            reach: tuple, grids: list, rung) -> NetFunction:
    """``a`` times the plateau window of ``radius`` at ``c``, per rung and
    on first use.  Rung j's samples are ``rung(j)`` on ``grids[j]`` times
    the window there: the finest grid's window, decimated, which is bitwise
    its own.  Frame j is ``a.frames[j]`` times the window on the fine grid.
    Each is zeroed by the noise rule of :func:`_windowed_frames`, against
    the sup of what it was made from: ``a.sups`` for the samples,
    max |a.frames[j]| for the frames.

    With ``place`` (``microlocal._window_box``), the window keeps the block
    that ``place`` gives on the coarsest of ``grids`` and the same interval
    of every other grid.  The net then lives on the fine grid's block (its
    grid, oversample 1), and each rung is read on its grid's block."""
    fine = a.fine_grid
    coarse, top = (f(grids, key=lambda g: g.n) for f in (min, max))
    if place is None:
        start, size, grid, oversample = 0, coarse.n, a.grid, a.oversample
    else:
        (block,), _ = place(coarse, c, radius)
        start, size = block.start, block.stop - block.start
        m = size * (fine.n // coarse.n)
        grid, oversample = GridSpec(1, 0.5 * m * fine.spacing, m), 1

    def block_of(g: GridSpec) -> tuple:
        k = g.n // coarse.n
        return (slice(start * k, (start + size) * k),)

    window = functools.cache(
        lambda g: plateau_window(g, c, radius, block_of(g)))

    def noise_free(lf: np.ndarray, sup: float) -> np.ndarray:
        if np.max(np.abs(lf)) <= WINDOW_NOISE_REL * sup:
            lf[...] = 0
        return lf

    def sample(j: int) -> np.ndarray:
        g = grids[j]
        return noise_free(rung(j)[block_of(g)] * window(top)[:: top.n // g.n],
                          a.sups[j])

    def frame(j: int) -> np.ndarray:
        fr = a.frames[j]
        return noise_free(fr[block_of(fine)] * window(fine),
                          np.max(np.abs(fr)))

    net = NetFunction(ladder=a.ladder, grid=grid, mode=a.mode,
                      weight=a.weight, oversample=oversample,
                      frames=_LazyRungs(frame, a.ladder.count, a.real))
    reads = tuple(GridSpec(1, grid.half_width, size * (g.n // coarse.n))
                  for g in grids)
    for name, value in (("reach", reach), ("reading_grids", reads),
                        ("samples", _LazyRungs(sample, a.ladder.count,
                                               a.real))):
        object.__setattr__(net, name, value)
    return net


def window_net(a: NetFunction, center, radius: float) -> NetFunction:
    """Multiply every frame by a plateau window (1 within radius/2 of the
    center, 0 beyond radius), making the net edge-negligible before
    spectral operations (see :func:`_windowed_frames`).  A net with a reach
    is windowed per rung (:func:`_windowed`).  A window that leaves the
    grid is refused: the periodic seam would cut it."""
    if a.reach is None:
        return replace(a, frames=_windowed_frames(a, center, radius))
    (net,) = _windowed(a, [_window_center(a.grid, center, radius)], radius)
    return net


def point_value(a: NetFunction, x: GeneralizedPoint) -> GeneralizedNumber:
    """values[j] = frame_j(points[j]) by linear interpolation: one
    ``np.interp`` of a real or complex 1-D frame, bilinear in 2-D."""
    if x.ladder != a.ladder:
        raise GridMismatchError("point and net use different ladders")
    fine = a.fine_grid
    axis = fine.axis()
    pts = np.atleast_2d(np.asarray(x.points, dtype=float))
    if pts.shape[1] != a.grid.dim:
        raise ValueError("point dimension does not match the grid")
    lo, hi = axis[0], axis[-1]
    if np.any(pts < lo) or np.any(pts > hi):
        raise ValueError("generalized point leaves the grid")
    vals = []
    for j, fr in enumerate(a.frames):
        if a.grid.dim == 1:
            v = np.interp(pts[j, 0], axis, fr)
        else:
            v = _bilinear(fr, axis, pts[j])
        vals.append(v)
    return GeneralizedNumber(ladder=a.ladder, values=np.asarray(vals))


def _bilinear(fr: np.ndarray, axis: np.ndarray, pt: np.ndarray):
    dx = axis[1] - axis[0]
    i = np.clip(((pt - axis[0]) // dx).astype(int), 0, len(axis) - 2)
    t = (pt - axis[i]) / dx
    f00 = fr[i[0], i[1]]
    f10 = fr[i[0] + 1, i[1]]
    f01 = fr[i[0], i[1] + 1]
    f11 = fr[i[0] + 1, i[1] + 1]
    out = ((1 - t[0]) * (1 - t[1]) * f00 + t[0] * (1 - t[1]) * f10
           + (1 - t[0]) * t[1] * f01 + t[0] * t[1] * f11)
    return out


#: log-residual slack operationalizing "O(...)" along the ladder.
O_SLACK = 1.0


def _bounded_residual(r: np.ndarray) -> bool:
    """The O(1) rule on a sequence along the ladder (largest eps first):
    log-residuals in the regularity and cone tests and the Colombeau
    cross-check, rates kappa in moderation.  Its finite entries are bounded
    when none rises more than O_SLACK above the head value (the largest eps
    carrying data) and the tail is not on a rebound: a dip-then-grow
    sequence is unbounded in the limit even if it has not yet re-crossed
    its head value on the ladder.  With no finite entry there is nothing to
    bound."""
    rf = r[np.isfinite(r)]
    if rf.size == 0:
        return True
    return bool(np.max(rf) <= rf[0] + O_SLACK
                and rf[-1] <= np.min(rf) + O_SLACK)


def _tends_to_zero(trace: np.ndarray) -> bool:
    """Empirical 'tends to 0', read at the ends only: the final value is at
    most 0.5, and at most half the initial one or at most 0.05."""
    final = float(trace[-1])
    initial = float(trace[0])
    return final <= max(0.5 * initial, 0.05) and final <= 0.5


def _tends_to_infinity(trace: np.ndarray) -> bool:
    """``trace`` holds one value per ladder rung (at least 6), so both
    halves are non-empty."""
    half = len(trace) // 2
    head = float(np.min(trace[:half]))
    tail = float(np.min(trace[half:]))
    return tail >= max(2.0 * head, 1.0)


@dataclass(frozen=True)
class SequenceScale:
    """The scales e^{M(k/eps)} and the decay weights e^{M(|xi|/h)} of a
    weight sequence (Komatsu).

    The rate of |z_j| is kappa_j = eps_j * M^{-1}(log^+|z_j|), the k with
    |z_j| = e^{M(k/eps_j)}; nu_j does the same for decay.  Roumieu
    moderation asks some h for kappa -> 0.  Each read of M resolves the
    table for the largest argument it reads (see ``weights.resolved_for``);
    Gevrey tables share their prefix, so any deep enough table gives the
    same M(t).
    """

    seq: WeightSequence
    ladder: EpsilonLadder
    grade = "h"
    mode_prefix = ""
    roumieu_moderate = staticmethod(_tends_to_zero)

    def _rate(self, y: np.ndarray) -> np.ndarray:
        t = assoc_inverse(self.seq, y)
        # an inverse at or past the table's saturation is only an upper
        # bound; one table resolved up to it makes the second pass exact
        deep = resolved_for(self.seq, float(np.max(t)))
        if deep is not self.seq:
            t = assoc_inverse(deep, y)
        return self.ladder.values * t

    def kappa(self, log_abs: np.ndarray) -> np.ndarray:
        return self._rate(np.maximum(log_abs, 0.0))

    def nu(self, log_abs: np.ndarray) -> np.ndarray:
        return self._rate(np.maximum(-log_abs, 0.0))

    def growth(self, ks) -> dict:
        """M(k/eps_j) along the ladder for each k, keyed by k."""
        eps = self.ladder.values
        seq = resolved_for(self.seq, float(np.max(ks)) / float(eps.min()))
        return {float(k): assoc(seq, k / eps) for k in ks}

    def penalties(self, radii: np.ndarray, grades) -> list:
        """M(|xi|/h) at the dual radii ``radii``, one array per h of
        ``grades``."""
        grades = np.asarray(grades, dtype=float)
        seq = resolved_for(self.seq, float(np.max(radii, initial=0.0))
                           / float(grades.min()))
        return [assoc(seq, radii / h) for h in grades]


@dataclass(frozen=True)
class FunctionScale:
    """The scales e^{k*omega(1/eps)} of a weight function (Bonet, Meise &
    Melikhov).

    The rate is kappa_j = log^+|z_j| / omega(1/eps_j); the decay rate
    nu_j = -log|z_j| / omega(1/eps_j) is left unclipped, so growing nets
    report negative nu.  Roumieu moderation asks some lambda for kappa
    bounded or -> 0: the windowed delta keeps some lambda bounded but none
    tends to 0, and is moderate in both modes.
    """

    weight: WeightFunction
    ladder: EpsilonLadder
    grade = "lambda"
    mode_prefix = "bb-"

    def __post_init__(self):
        omega_inv = self.weight(1.0 / self.ladder.values)
        if np.any(omega_inv <= 0):
            raise ValueError("omega(1/eps) must be positive on the ladder")
        object.__setattr__(self, "_omega_inv", omega_inv)

    def kappa(self, log_abs: np.ndarray) -> np.ndarray:
        return np.maximum(log_abs, 0.0) / self._omega_inv

    def nu(self, log_abs: np.ndarray) -> np.ndarray:
        return -log_abs / self._omega_inv

    @staticmethod
    def roumieu_moderate(kappa: np.ndarray) -> bool:
        return _bounded_residual(kappa) or _tends_to_zero(kappa)


def censor_at_floor(mags: np.ndarray, reference_scale: float) -> tuple:
    """log of the magnitudes clamped at the machine floor
    MACHINE_FLOOR * (1 + |reference_scale|), and the mask of the censored
    entries at or below it."""
    floor = MACHINE_FLOOR * (1.0 + abs(reference_scale))
    return np.log(np.maximum(mags, floor)), mags <= floor


@dataclass(frozen=True)
class GrowthVerdict:
    """Growth classification of a net against a scale."""

    classification: str  # moderate | negligible | neither | inconclusive
    mode: str
    fitted: dict
    kappa: dict = field(repr=False)
    nu: np.ndarray = field(repr=False)
    #: the per-rung log statistics the verdict was read from, by grade
    log_ladders: dict = field(repr=False)

    @property
    def moderate(self) -> bool:
        return self.classification in ("moderate", "negligible")

    @property
    def negligible(self) -> bool:
        return self.classification == "negligible"

    def to_json(self) -> dict:
        return {
            "classification": self.classification,
            "mode": self.mode,
            "fitted": {str(k): float(v) for k, v in self.fitted.items()},
            "kappa": {str(g): [float(x) for x in tr]
                      for g, tr in self.kappa.items()},
            "nu": [float(x) for x in self.nu],
        }


def classify_growth(scale, log_ladders: dict, sups: np.ndarray,
                    reference_scale: float, mode: str) -> GrowthVerdict:
    """Moderate / negligible / neither / inconclusive verdict against a
    SequenceScale or FunctionScale.

    ``log_ladders`` maps each grade (h or lambda) to the per-rung log of
    the graded statistic; moderation reads it through the scale's rate
    kappa.  Negligibility is decided on the 0-th order ``sups`` alone (the
    null characterization licenses this) through the decay rate nu.
    Quantifier alternation is certified empirically from these traces (an
    estimator, not a proof).  Bounds read the O(1) rule
    :func:`_bounded_residual` on kappa; three readings are limits: kappa ->
    0 (Roumieu moderation of a sequence), nu -> infinity (Beurling
    negligibility) and nu >= 0.05 (Roumieu negligibility, on sups that
    fall: by more than O_SLACK past rung count // 2, or to the floor).  A
    net that is neither clearly grows ("neither") when, at the least grade,
    the second half's least kappa is more than O_SLACK above the first's.
    """
    if mode not in ("beurling", "roumieu"):
        raise ValueError("mode must be 'beurling' or 'roumieu'")
    kappas = {g: scale.kappa(logs) for g, logs in log_ladders.items()}
    fitted = {f"k_at_{scale.grade}={g:g}": float(np.max(k[len(k) // 2:]))
              for g, k in kappas.items()}
    log_sups, censored = censor_at_floor(sups, reference_scale)
    nu = scale.nu(log_sups)
    fitted["k_negligible"] = float(np.min(nu))
    # a censored rung is indistinguishable from zero and certifies any
    # decay rate; the clamped -log(floor) there must not mask genuine trends
    nu_eff = np.where(censored, np.inf, nu)
    if mode == "beurling":
        negligible = _tends_to_infinity(nu_eff)
        moderate = all(_bounded_residual(k) for k in kappas.values())
    else:
        # nu of a fixed nonzero sup falls like eps: the sups must fall too
        falls = log_sups[len(sups) // 2] - log_sups[-1] > O_SLACK
        negligible = bool(np.min(nu_eff) >= 0.05 and (censored[-1] or falls))
        moderate = any(scale.roumieu_moderate(k) for k in kappas.values())
    if negligible:
        classification = "negligible"
    elif moderate:
        classification = "moderate"
    else:
        kappa = kappas[min(kappas)]
        half = len(kappa) // 2
        clearly_growing = np.min(kappa[half:]) > np.max(kappa[:half]) + O_SLACK
        classification = "neither" if clearly_growing else "inconclusive"
    return GrowthVerdict(classification=classification,
                         mode=scale.mode_prefix + mode, fitted=fitted,
                         kappa=kappas, nu=nu, log_ladders=log_ladders)


def classify_generalized_number(z: GeneralizedNumber, seq: WeightSequence,
                                mode: str = "beurling",
                                reference_scale: float = 1.0
                                ) -> GrowthVerdict:
    """Moderate / negligible / neither / inconclusive verdict for a
    generalized number: the net classifier with |z| itself as the one
    graded statistic (grade h = 1) and as the sups of the null test."""
    mags = np.abs(z.values)
    with np.errstate(divide="ignore"):
        log_abs = np.log(mags)
    return classify_growth(SequenceScale(seq, z.ladder), {1.0: log_abs},
                           mags, reference_scale, mode)
