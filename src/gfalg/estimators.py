"""Growth classification of nets, the zero-order null test, the
Landau-Kolmogorov inequality check, and the Fourier-decay regularity test.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .distributions import rung_oversample
from .grids import GridSpec, _symbols, forward, inverse
from .mollifier import SPECTRAL_FLOOR
from .nets import (EpsilonLadder, GrowthVerdict, NetFunction, SequenceScale,
                   _bounded_residual, _rung_spectrum, _samples, _spectrum,
                   _stored, _warn_boundary_mass, classify_growth)
from .weights import WeightSequence

#: geometric search grid for the (k, h) quantifier patterns.
KH_GRID = 2.0 ** np.arange(-4, 5)

#: the "for all" legs are additionally certified one octave past the hard
#: end of the grid, so a witness cannot sit exactly on a boundary artifact.
FORALL_EXTENSION = 2.0 ** -5

#: the values a "for all" leg runs over: the grid and the extension.
PATTERN_GRID = np.array([FORALL_EXTENSION, *KH_GRID])


def _multi_indices(dim: int, order_max: int):
    if dim == 1:
        return [(k,) for k in range(order_max + 1)]
    return [(i, j) for i in range(order_max + 1)
            for j in range(order_max + 1 - i)]


@dataclass(frozen=True)
class SeminormLadder:
    """Per-epsilon values of the derivative-graded sup-norm
    max_{|a| <= alpha_max, x in K} |f^(a)(x)| / (h^|a| M_|a|)."""

    ladder: EpsilonLadder
    values: np.ndarray
    box: tuple
    h: float
    alpha_max: int


def _box_slices(grid: GridSpec, box):
    """The grid's nodes in the box, one slice per axis: the box is a product
    of intervals, so its nodes are a block of contiguous indices.  None when
    the box holds no node of the grid."""
    lo, hi = box
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (grid.dim,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (grid.dim,))
    x = grid.axis()
    block = []
    for ax in range(grid.dim):
        inside = np.flatnonzero((x >= lo[ax]) & (x <= hi[ax]))
        if inside.size == 0:
            return None
        block.append(slice(int(inside[0]), int(inside[-1]) + 1))
    return tuple(block)


def _radius_keys(grid: GridSpec, width: int, nodes: np.ndarray) -> np.ndarray:
    """An integer key of |xi| at the flat indices ``nodes`` of a spectrum
    whose last axis holds the first ``width`` dual nodes (n, or n//2 + 1 on
    the half spectrum).  |xi| depends only on each axis' |k| = min(k, n - k)
    in fft order, and in 2-D not on their order; the key is that unordered
    pair.  Keys run over 0 .. (n//2 + 1)^dim - 1, the last one at the
    Nyquist corner."""
    n = grid.n
    if grid.dim == 1:
        return np.minimum(nodes, n - nodes)
    rows, cols = np.divmod(nodes, width)
    rows = np.minimum(rows, n - rows)
    cols = np.minimum(cols, n - cols)
    return np.minimum(rows, cols) * (n // 2 + 1) + np.maximum(rows, cols)


def _key_radii(grid: GridSpec, keys: np.ndarray) -> np.ndarray:
    """|xi| of radius keys, bitwise as on the dual grid: |xi| of the nodes
    with these axis indices, through the same ``abs``/``hypot``."""
    m = grid.n // 2 + 1
    abs_xi = np.abs(grid.dual_axis()[:m])
    if grid.dim == 1:
        return abs_xi[keys]
    lo, hi = np.divmod(keys, m)
    return np.hypot(abs_xi[lo], abs_xi[hi])


def _box_refinement(a: NetFunction, box) -> int:
    """The least refinement of the net's grid that holds a node of the
    box."""
    m = 1
    while _box_slices(a.grid.refine(m), box) is None:
        m *= 2
    return m


def _rung_oversamples(a: NetFunction, box) -> list:
    """Per rung, the refinement m_j of the base grid on which the rung's
    derivatives are taken: the alias rule of :func:`rung_oversample` at
    eps_j, raised until the box holds a node of that grid, and capped at the
    net's oversample (its fine grid holds a node of the box)."""
    m_box = _box_refinement(a, box)
    return [min(max(rung_oversample(float(eps), a.grid), m_box), a.oversample)
            for eps in a.ladder.values]


def _derivative_sups(a: NetFunction, box, alpha_max: int,
                     warn_label: str) -> tuple:
    """The multi-indices |alpha| <= alpha_max and the table of
    sup_box |D^alpha f_eps|, one row per alpha and one column per rung.

    The order-0 row reads each rung where ``a.sups`` does
    (:func:`nets._stored`), on a grid refined until the box holds a node of
    it (:func:`nets._samples`): a net with carried bands on its reading
    grids, any other net on its frames.  The derivatives of rung j are
    taken on its own alias-free grid, the base grid refined m_j times (see
    :func:`_rung_oversamples`): the frame's spectrum at |k| <= n_j/2 is
    read once (:func:`nets._spectrum`), and each alpha != 0 costs one
    inverse of size n_j, whose sup is read at that grid's box nodes.
    Frames are processed one at a time, and m_j does not decrease along
    the ladder, so each rung grid's symbols (:func:`grids._symbols`) are
    built once, on that grid, and one grid's symbols are held at a time.
    """
    if alpha_max > 16:
        raise ValueError("alpha_max capped at 16")
    fine = a.fine_grid
    # the box's nodes on each grid the call reads, found once per grid
    box_on = functools.cache(lambda g: _box_slices(g, box))
    if box_on(fine) is None:
        raise ValueError("box contains no grid points")
    alphas = _multi_indices(a.grid.dim, alpha_max)
    # 2-D symbols are built on the full grid: 2-D frames keep the full
    # transforms here
    half = a.grid.dim == 1 and a.real
    sups = np.zeros((len(alphas), a.ladder.count))
    box_grid = a.grid.refine(_box_refinement(a, box))
    if alpha_max:
        rung_m = _rung_oversamples(a, box)
    coarse = None
    for j, eps in enumerate(a.ladder.values):
        # where a.sups reads the rung (nets._stored), refined for the box
        g = a.reading_grids[j] if a.spectra is not None else fine
        if g.n < box_grid.n:
            g = box_grid
        sups[0, j] = np.abs(_samples(a, j, g)[box_on(g)]).max()
        if not alpha_max:
            continue
        if coarse is None or coarse.n != a.grid.n * rung_m[j]:
            coarse = a.grid.refine(rung_m[j])
            symbols = _symbols(coarse, alphas[1:], half,
                               cut=coarse.n < fine.n)
            box_coarse = box_on(coarse)
        _warn_boundary_mass(eps, _stored(a, j), a.sups[j], warn_label)
        fhat = _spectrum(a, j, half, coarse)
        for i, sym in enumerate(symbols, start=1):
            deriv = inverse(fhat * sym, coarse)
            sups[i, j] = np.abs(deriv[box_coarse]).max()
    return alphas, sups


def _graded(alphas, sups: np.ndarray, h: float,
            seq: WeightSequence) -> np.ndarray:
    """max_alpha sup_box |D^alpha f_eps| / (h^|alpha| M_|alpha|) per rung."""
    values = np.zeros(sups.shape[1])
    for alpha, row in zip(alphas, sups):
        order = sum(alpha)
        denom = np.exp(order * np.log(h) + seq.log_m[order])
        values = np.maximum(values, row / denom)
    return values


def _require_sequence(a: NetFunction, seq=None) -> WeightSequence:
    seq = a.weight if seq is None else seq
    if not isinstance(seq, WeightSequence):
        raise ValueError("a weight sequence is required")
    return seq


def seminorm_ladder(a: NetFunction, box, h: float,
                    alpha_max: int) -> SeminormLadder:
    """Sup-norms over the box graded by the net's weight, one per rung."""
    seq = _require_sequence(a)
    alphas, sups = _derivative_sups(a, box, alpha_max, "seminorm_ladder")
    return SeminormLadder(ladder=a.ladder,
                          values=_graded(alphas, sups, h, seq),
                          box=tuple(box), h=h, alpha_max=alpha_max)


MODERATION_H_GRID = (4.0, 1.0, 0.25)
MODERATION_ALPHA_MAX = 4


def classify_net(a: NetFunction, box, mode: str = None,
                 seq: WeightSequence = None) -> GrowthVerdict:
    """Moderate / negligible / neither / inconclusive verdict for a net at
    the scales e^{M(k/eps)}.

    Moderation samples derivative-graded seminorms over the h grid;
    negligibility is decided on the 0-th order sup-norm alone (the null
    characterization licenses exactly this shortcut).  One table of
    derivative sups serves every h and, in its row 0, negligibility, so
    each frame is transformed once.
    """
    mode = mode or a.mode
    seq = _require_sequence(a, seq)
    alphas, sups = _derivative_sups(a, box, MODERATION_ALPHA_MAX,
                                    "classify_net")
    with np.errstate(divide="ignore"):
        log_ladders = {h: np.log(_graded(alphas, sups, h, seq))
                       for h in MODERATION_H_GRID}
    return classify_growth(SequenceScale(seq, a.ladder), log_ladders, sups[0],
                           float(a.sups.max()), mode)


@dataclass(frozen=True)
class LKReport:
    lhs: float
    rhs: float
    ratio: float
    holds: bool
    k: int
    n: int


def landau_kolmogorov_check(f: np.ndarray, grid: GridSpec, k: int,
                            n: int) -> LKReport:
    """Check sup_{|a|=k} ||f^(a)|| <= 2 pi d^k ||f||^{1-k/n} *
    (sup_{|a|=n} ||f^(a)||)^{k/n} with spectral derivative sups, taken on
    the half axis for real 1-D samples, as in :func:`_derivative_sups`."""
    if not 0 < k < n <= 8:
        raise ValueError("need 0 < k < n <= 8")
    f = np.asarray(f)
    if f.shape != grid.shape:
        raise ValueError("samples do not match the grid")
    d = grid.dim
    half = d == 1 and np.isrealobj(f)
    fhat = forward(f, grid, half=half)
    alphas = [alpha for alpha in _multi_indices(d, n) if sum(alpha) in (k, n)]
    sups = {k: 0.0, n: 0.0}
    for alpha, sym in zip(alphas, _symbols(grid, alphas, half)):
        deriv = inverse(fhat * sym, grid)
        sups[sum(alpha)] = max(sups[sum(alpha)], float(np.max(np.abs(deriv))))
    norm0 = float(np.max(np.abs(f)))
    lhs, sup_n = sups[k], sups[n]
    rhs = 2.0 * np.pi * d ** k * norm0 ** (1.0 - k / n) * sup_n ** (k / n)
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else np.inf)
    return LKReport(lhs=lhs, rhs=rhs, ratio=float(ratio),
                    holds=bool(lhs <= rhs * (1.0 + 1e-9)), k=k, n=n)


@dataclass(frozen=True)
class RegularityVerdict:
    verdict: str  # regular | not_regular
    mode: str
    witness: dict
    residual_table: dict = field(repr=False)

    @property
    def regular(self) -> bool:
        return self.verdict == "regular"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "mode": self.mode,
            "witness": {k: float(v) for k, v in self.witness.items()},
            "residuals": {k: [float(x) for x in v]
                          for k, v in self.residual_table.items()},
        }


def _kept_spectra(a: NetFunction, on_fine: bool) -> tuple:
    """Each rung's spectrum, read once, at the nodes above the fft noise
    floor of the ladder: the grid it is read on (the rung's reading grid,
    :func:`nets._rung_spectrum`, or with ``on_fine`` the fine grid,
    :func:`nets._spectrum`), and per rung the flat indices of the kept
    nodes and |fhat| there.  Real frames are read on the half spectrum."""
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
        peak = float(mag.max())
        nodes = np.flatnonzero(mag > SPECTRAL_FLOOR * peak)
        kept.append((nodes, mag[nodes]))
        top = max(top, peak)
    # one floor for the whole ladder: frames windowed down to rounding noise
    # must not be re-normalized into fake decay data
    cut = SPECTRAL_FLOOR * top if top > 0 else np.inf
    for j, (nodes, mag) in enumerate(kept):
        above = mag > cut
        kept[j] = (nodes[above], mag[above])
    return grids, kept


def _log_transform_sups(a: NetFunction, grades, scale: SequenceScale,
                        node_masks) -> list:
    """For each node mask (None admits every node), each rung j and each
    grade h: max over the mask's admissible dual nodes of
    log|fhat_j(xi)| + M(|xi|/h), at the nodes :func:`_kept_spectra` keeps
    (those below the fft noise floor carry rounding noise, not decay data).

    Each rung is read on its reading grid, or on the fine grid when a mask
    is one array, over the fine grid's spectrum; any other mask maps each
    reading grid to its mask there.  The penalties M(|xi|/h) come from the
    scale (:meth:`SequenceScale.penalties`), evaluated at the radii of kept
    nodes alone, once per distinct radius.  A mask is read at the nodes
    some rung on its grid keeps (the data nodes), and a mask that agrees
    there with an earlier one shares that mask's sups.  Returns the list of
    per-mask {h: sups} dicts.

    Real frames are read on the half spectrum, where |fhat| and
    M(|xi|/h) are even; a mask is given in the layout of the spectrum it
    reads, over the half spectrum for real frames (see
    ``microlocal._cone_masks``).  The reading grids of one net share their
    dual spacing, so a radius key names the same |xi| on each of them.
    """
    node_masks = list(node_masks)
    on_fine = any(isinstance(mask, np.ndarray) for mask in node_masks)
    grids, frames = _kept_spectra(a, on_fine)
    if on_fine:
        node_masks = [m if m is None else {grids[0]: m} for m in node_masks]
    half = a.real
    top_grid = max(grids, key=lambda g: g.n)
    n_keys = (top_grid.n // 2 + 1) ** top_grid.dim
    grades = np.asarray(grades, dtype=float)
    # the nodes some frame on each grid keeps (the data nodes) and their
    # radius keys; each frame's arrays are replaced in turn, to bound the
    # peak memory
    data = {g: np.zeros(g.n ** (g.dim - 1) * (g.n // 2 + 1 if half else g.n),
                        dtype=bool) for g in dict.fromkeys(grids)}
    used = np.zeros(n_keys, dtype=bool)
    for j, ((nodes, vals), g) in enumerate(zip(frames, grids)):
        keys = _radius_keys(g, g.n // 2 + 1 if half else g.n, nodes)
        data[g][nodes] = True
        used[keys] = True
        frames[j] = (nodes, np.log(vals), keys)
    # M(|xi|/h) depends on |xi| alone: evaluate it once per radius key in use
    penalties = scale.penalties(_key_radii(top_grid, np.flatnonzero(used)),
                                grades)
    # per frame and kept node: the index of its radius key among those in use
    rank = np.cumsum(used) - 1
    for j, (nodes, log_f, keys) in enumerate(frames):
        frames[j] = (nodes, log_f, rank[keys])
    del rank
    data = {g: np.flatnonzero(d) for g, d in data.items()}
    results, seen = [], []
    for node_mask in node_masks:
        inside = None
        if node_mask is not None:
            inside = np.concatenate([node_mask[g][d] for g, d in data.items()])
            shared = next((res for earlier, res in seen
                           if np.array_equal(earlier, inside)), None)
            if shared is not None:
                results.append(shared)
                continue
        sups = np.full((len(grades), a.ladder.count), -np.inf)
        for j, (nodes, log_f, pen_at) in enumerate(frames):
            if node_mask is not None:
                sel = node_mask[grids[j]][nodes]
                log_f, pen_at = log_f[sel], pen_at[sel]
            if log_f.size == 0:
                continue
            for i, pen in enumerate(penalties):
                sups[i, j] = np.max(log_f + pen[pen_at])
        results.append({float(h): row for h, row in zip(grades, sups)})
        if inside is not None:
            seen.append((inside, results[-1]))
    return results


def _pattern_search(sups_by_h, growth: dict, mode: str):
    """Search for the mode's quantifier pattern.

    Beurling: exists k such that for every h the residual sequence
    log-sup(h) - M(k/eps) is bounded (:func:`nets._bounded_residual`).
    Roumieu: exists h working for every k.  ``growth`` is the table
    {k: M(k/eps_j)} over PATTERN_GRID; the 'for all' leg includes one octave
    beyond the hard end of the grid.  KH_GRID is searched from its tight
    end: a pass returns the least k (Beurling) or h (Roumieu) and its
    residual table, a fail the table of KH_GRID's largest value.
    """
    if mode not in ("beurling", "roumieu"):
        raise ValueError("mode must be 'beurling' or 'roumieu'")
    # the witness searched for is k in Beurling mode and h in Roumieu mode;
    # the other one runs over the 'for all' leg
    witness = "k" if mode == "beurling" else "h"
    for found in KH_GRID:
        residuals = {}
        for every in PATTERN_GRID:
            h, k = (every, found) if witness == "k" else (found, every)
            residuals[f"h={h:g},k={k:g}"] = (sups_by_h[float(h)]
                                             - growth[float(k)])
        if all(_bounded_residual(r) for r in residuals.values()):
            return "regular", {witness: float(found)}, residuals
    return "not_regular", {f"{witness}_tried_max": float(found)}, residuals


def _decay_tests(a: NetFunction, node_masks, mode: str) -> list:
    """The mode's quantifier pattern (:func:`_pattern_search`) over
    PATTERN_GRID, run on the weighted transform sups of each node mask
    (:func:`_log_transform_sups`) at the scale of the net's weight
    sequence: one (verdict, witness, residuals) per mask."""
    scale = SequenceScale(_require_sequence(a), a.ladder)
    per_mask = _log_transform_sups(a, PATTERN_GRID, scale, node_masks)
    growth = scale.growth(PATTERN_GRID)
    return [_pattern_search(sups, growth, mode) for sups in per_mask]


def regularity_test(a: NetFunction, mode: str = None) -> RegularityVerdict:
    """Uniform Fourier-decay regularity of a compactly supported net:
    does |fhat_eps(xi)| e^{M(|xi|/h)}, M of the net's weight sequence, stay
    O(e^{M(k/eps)}) in the mode's quantifier pattern over the (k, h) grid?"""
    mode = mode or a.mode
    ((verdict, witness, residuals),) = _decay_tests(a, [None], mode)
    return RegularityVerdict(verdict=verdict, mode=mode, witness=witness,
                             residual_table=residuals)
