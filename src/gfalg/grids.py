"""Uniform periodic grids and the discrete Fourier transform pair.

The transform convention is fhat(xi) = int f(x) e^{+i x.xi} dx with inverse
f(x) = (2 pi)^{-d} int fhat(xi) e^{-i x.xi} dxi.  Dual nodes are kept in
numpy fft (unshifted) order.

The samples start at -L, so the pair carries the phase e^{-i L xi}
forward and e^{+i L xi} back; on every grid L xi_k = pi k, so both are
the exact sign (-1)^k.

The spectrum of real samples is Hermitian, fhat(-xi) = conj fhat(xi), so
the first n//2 + 1 nodes of its last axis (the half axis in 1-D, the half
plane in 2-D) determine it.  ``forward(..., half=True)`` chooses that
layout, through the real-to-complex transform at about half the work;
:func:`inverse` and :func:`_band` read it from the last axis' length.

Importing the module fixes the C heap's thresholds (``_set_heap_policy``),
so that transform-sized buffers are reused rather than mapped afresh.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

#: i^k for k mod 4, exact.
_I_POWERS = (1.0, 1j, -1.0, -1j)

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _set_heap_policy() -> bool:
    """Serve blocks below 32 MiB from the heap and keep up to 64 MiB of
    free heap top, where the C library has ``mallopt``; returns whether
    both settings took.

    A depth-10 ladder allocates and frees transform-sized buffers of 1-8 MB
    many times per operation.  By default glibc maps blocks above a
    dynamic threshold (128 KiB at start, raised to the largest mapped block
    freed so far) with mmap and returns a free heap top above twice that,
    so whether such a buffer is served by fresh, page-faulting memory
    depends on what the process freed before.  Fixed thresholds make the
    heap serve and keep them, and freed pages are reused."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20)
                and mallopt(_M_TRIM_THRESHOLD, 64 << 20))


_set_heap_policy()


@dataclass(frozen=True)
class GridSpec:
    """Symmetric grid x_j = -L + j*dx on [-L, L) with n points per axis."""

    dim: int
    half_width: float
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if self.n < 256 or self.n & (self.n - 1):
            raise ValueError("n must be a power of two >= 256")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def dual_max(self) -> float:
        """Nyquist limit pi/dx of the dual grid."""
        return np.pi / self.spacing

    def axis(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.n)

    def dual_axis(self) -> np.ndarray:
        """Dual nodes in fft order, covering |xi| <= pi/dx."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)

    def half_dual_axis(self) -> np.ndarray:
        """The first n//2 + 1 dual nodes in fft order: 0 and the positive
        nodes, then the Nyquist node -pi/dx."""
        return self.dual_axis()[: self.n // 2 + 1]

    def points(self):
        """Coordinate arrays: the axis itself (1-D) or a meshgrid pair (2-D)."""
        if self.dim == 1:
            return (self.axis(),)
        x = self.axis()
        return np.meshgrid(x, x, indexing="ij")

    def dual_points(self):
        if self.dim == 1:
            return (self.dual_axis(),)
        xi = self.dual_axis()
        return np.meshgrid(xi, xi, indexing="ij")

    def dual_radius(self) -> np.ndarray:
        """|xi| on the dual grid (fft order)."""
        if self.dim == 1:
            return np.abs(self.dual_axis())
        k1, k2 = self.dual_points()
        return np.hypot(k1, k2)

    def refine(self, factor: int) -> "GridSpec":
        if factor == 1:
            return self
        return GridSpec(self.dim, self.half_width, self.n * factor)

    @property
    def shape(self):
        return (self.n,) * self.dim

    def index_of(self, coord: float) -> int:
        """Nearest axis index of a coordinate."""
        j = round((coord + self.half_width) / self.spacing)
        if not 0 <= j < self.n:
            raise ValueError(f"coordinate {coord} outside the grid")
        return int(j)


def _alternate(a: np.ndarray) -> np.ndarray:
    """Negate ``a`` in place at the dual indices k in fft order whose sum
    k_1 + ... + k_d is odd, and return it: the phase (-1)^(k_1 + ... + k_d).
    The Nyquist index n/2 is even, and the last axis may be a half axis."""
    odd = (a[1::2],) if a.ndim == 1 else (a[1::2, ::2], a[::2, 1::2])
    for view in odd:
        np.negative(view, out=view)
    return a


def forward(f: np.ndarray, grid: GridSpec, half: bool = False) -> np.ndarray:
    """Samples of fhat on the dual grid (fft order), spectrally exact for
    band-limited periodic data.  With ``half=True`` the samples must be
    real, and fhat is returned on the half spectrum only: the first
    n//2 + 1 nodes of the last axis, shape (n,)*(dim - 1) + (n//2 + 1,)."""
    # the transform's output is fresh: scale and phase it in place
    if half:
        if np.iscomplexobj(f):
            raise ValueError("half spectra need real samples")
        # n^d * ifftn(f) = conj(fftn(f)) for real f; rfftn is the first half
        # of fftn along the last axis
        out = np.fft.rfftn(f)
        np.conjugate(out, out=out)
        out *= grid.spacing ** grid.dim
    else:
        out = np.fft.ifftn(f)
        out *= (grid.spacing * grid.n) ** grid.dim
    return _alternate(out)


def inverse(fhat: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Inverse of :func:`forward`, the layout read from the last axis: n
    nodes give complex samples, n//2 + 1 (a half spectrum) real ones, with
    the parts no Hermitian spectrum has (the imaginary parts at 0 and at
    the Nyquist node in 1-D) dropped; ValueError for any other shape."""
    half = np.shape(fhat) == grid.shape[:-1] + (grid.n // 2 + 1,)
    if not half and np.shape(fhat) != grid.shape:
        raise ValueError(f"no spectrum on {grid} has shape {np.shape(fhat)}")
    # the phase may not overwrite ``fhat``; the transform's output may
    out = _alternate(np.array(fhat, dtype=complex))
    if half:
        np.conjugate(out, out=out)
        out = np.fft.irfftn(out, s=grid.shape, axes=range(grid.dim))
        out /= grid.spacing ** grid.dim
        return out
    out = np.fft.fftn(out)
    out /= (grid.n * grid.spacing) ** grid.dim
    return out


def integrate(f: np.ndarray, grid: GridSpec) -> float | complex:
    """Periodic trapezoid rule (the plain Riemann sum on a periodic grid)."""
    val = np.sum(f) * grid.spacing**grid.dim
    return float(val.real) if np.isrealobj(f) else complex(val)


def _band(fhat: np.ndarray, fine: GridSpec, coarse: GridSpec) -> np.ndarray:
    """The nodes |k| <= n/2 of a spectrum on the fine grid, laid out on the
    coarse grid of n nodes per axis (both grids share the dual spacing
    pi/L).  The nodes +-n/2 fall on the coarse Nyquist node, where the
    derivative symbols of a cut grid are 0.  Of a half spectrum (n//2 + 1
    last-axis nodes) only the half axis is cut: a half plane is refused."""
    if coarse.n == fine.n:
        return fhat
    h = coarse.n // 2
    if fhat.shape[-1] == fine.n // 2 + 1:
        if fhat.ndim != 1:
            raise ValueError("a half plane cannot be cut to a coarser grid")
        return fhat[: h + 1]
    keep = np.r_[:h, fine.n - h:fine.n]
    return fhat[np.ix_(*(keep,) * fhat.ndim)]


def _symbols(grid: GridSpec, alphas, half: bool = False,
             cut: bool = False) -> list:
    """The Fourier symbols (-xi)^alpha of D^alpha = (-i d/dx)^alpha on
    ``grid``, under the convention fhat(xi) = int f e^{+i x xi} dx, one per
    multi-index of ``alphas``, built from the grid's own dual axis (its half
    axis with ``half``).

    The axis factors (-xi)^k are repeated products from ones, (-xi)^k =
    (-xi)^(k-1) * (-xi), shared by the call's multi-indices and within
    (k - 1) u of the exact power: ``**`` calls the C library's ``pow`` for
    every exponent but 0, 1 and 2, at about 100 times the cost of a
    product.  On a grid ``cut`` from a finer one, each differentiated
    axis' factor is 0 at that axis' Nyquist node, onto which the cut folds
    the two nodes +-pi/dx.  On the half axis the symbol is i^k (-xi)^k,
    that of the plain derivative f^(k) = i^k D^k f: Hermitian, so f^(k) is
    real, and |f^(k)| = |D^k f| (in 1-D: no half axis is a half plane)."""
    if half and grid.dim != 1:
        raise ValueError("half-axis symbols are 1-D only")
    alphas = list(alphas)
    for alpha in alphas:
        if len(alpha) != grid.dim or any(k < 0 for k in alpha):
            raise ValueError("alpha must be a non-negative multi-index of "
                             "the grid dimension")
    orders = {k for alpha in alphas for k in alpha}
    neg_xi = -(grid.half_dual_axis() if half else grid.dual_axis())
    powers, power = {}, np.ones_like(neg_xi)
    for k in range(max(orders, default=-1) + 1):
        if k:
            power = power * neg_xi
        if k in orders:
            powers[k] = power
    if cut:
        for k, power in powers.items():
            if k:
                power[grid.n // 2] = 0.0
    symbols = []
    for alpha in alphas:
        factors = [powers[k] for k in alpha]
        if half:
            factors[0] = _I_POWERS[alpha[0] % 4] * factors[0]
        symbols.append(factors[0] if grid.dim == 1
                       else np.multiply.outer(*factors))
    return symbols
