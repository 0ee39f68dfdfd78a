"""Weight-function mode: Fourier--Lebesgue norms with a submultiplicative
weight exp(lambda * omega(|xi|)), their equivalences, net classification at
the scales exp(k * omega(1/eps)), and the cross-check against classical
polynomial (Colombeau) scales for omega = log(1+t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, forward
from .nets import (FunctionScale, GrowthVerdict, NetFunction,
                   _bounded_residual, _edge_mass, _spectrum, censor_at_floor,
                   classify_growth)
from .weights import WeightFunction

#: lambda exponents sampled by the graded moderation test.
LAMBDA_GRID = (0.25, 1.0, 4.0)

#: polynomial decay orders tested by the Colombeau cross-check.
Q_GRID = tuple(range(1, 9))

#: exponent size beyond which norm values are reported only in log space
#: (exp would overflow float64 near 709).
LOG_SPACE_GUARD = 600.0

_EDGE_TOL = 1e-6


def _require_edge_negligible(f: np.ndarray, sup: float, label: str) -> None:
    """Refuse samples whose edge carries more than _EDGE_TOL of their sup."""
    if sup > 0 and _edge_mass(f) > _EDGE_TOL * sup:
        raise ValueError(
            f"{label}: samples are not edge-negligible; window them first "
            "(dual-grid quadrature assumes a compactly supported function)")


def _omega(w: WeightFunction, grid: GridSpec, half: bool) -> np.ndarray:
    """omega at ``grid.dual_radius()``, on the nodes a spectrum is read at:
    with ``half`` the first n//2 + 1 of the last axis."""
    radius = grid.dual_radius()
    return w(radius[..., : grid.n // 2 + 1] if half else radius)


def _log_spectrum(fhat: np.ndarray, grid: GridSpec,
                  omega: np.ndarray) -> tuple:
    """log|fhat| on the dual nodes where fhat != 0, omega(|xi|) there (from
    ``omega`` on the spectrum's nodes or on every dual node), and each
    node's count in a sum over the full spectrum: a half spectrum's columns
    1 .. n/2 - 1 (of n//2 + 1) count twice, for their mirror images."""
    width = fhat.shape[-1]
    count = np.full(width, 1.0 if width == grid.n else 2.0)
    count[[0, -1]] = 1.0
    count = np.broadcast_to(count, fhat.shape).ravel()
    mag = np.abs(fhat).ravel()
    pos = mag > 0
    return np.log(mag[pos]), omega[..., :width].ravel()[pos], count[pos]


def _sample_spectrum(f, grid: GridSpec, w: WeightFunction, label: str):
    """:func:`_log_spectrum` of edge-negligible samples, on the half
    spectrum if they are real."""
    f = np.asarray(f)
    _require_edge_negligible(f, float(np.max(np.abs(f))), label)
    half = np.isrealobj(f)
    return _log_spectrum(forward(f, grid, half=half), grid,
                         _omega(w, grid, half))


def _log_norm(spectrum: tuple, grid: GridSpec, lam: float, variant) -> float:
    """log of the weighted Fourier--Lebesgue norm of a :func:`_log_spectrum`;
    -inf for the zero function.  All accumulation happens in log space so
    that large lambda*omega exponents cannot overflow."""
    log_mag, omega, count = spectrum
    if log_mag.size == 0:
        return -np.inf
    log_terms = log_mag + lam * omega
    if variant == "inf":
        return float(np.max(log_terms))
    p = float(variant)
    # trapezoid on the periodic dual grid == uniform Riemann sum
    log_dxi = grid.dim * np.log(2.0 * np.pi / (grid.n * grid.spacing))
    scaled = p * log_terms
    top = float(np.max(scaled))
    total = top + np.log(np.sum(count * np.exp(scaled - top)))
    return float((total + log_dxi) / p)


def _linear(log_norm: float) -> float:
    """A log norm as a float: inf above LOG_SPACE_GUARD, else its exp
    (0.0 for the zero function's -inf)."""
    if log_norm > LOG_SPACE_GUARD:
        return float(np.inf)
    return float(np.exp(log_norm))


def fl_norm(f: np.ndarray, grid: GridSpec, w: WeightFunction, lam: float,
            variant="1") -> float:
    """Weighted Fourier--Lebesgue norm of edge-negligible samples:
    (integral of |fhat|^p exp(p*lam*omega(|xi|)))^(1/p) for p in {1, 2},
    or the weighted sup for variant "inf"."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if str(variant) not in ("1", "2", "inf"):
        raise ValueError('variant must be one of "1", "2", "inf"')
    spectrum = _sample_spectrum(f, grid, w, "fl_norm")
    return _linear(_log_norm(spectrum, grid, lam, str(variant)))


@dataclass(frozen=True)
class OmegaNormLadder:
    """Per-rung weighted FL1 norms of a net's frames, stored in log space
    (values may exceed float range in linear space)."""

    lam: float
    log_values: np.ndarray


def _fl1_ladders(a: NetFunction, w: WeightFunction, lams) -> dict:
    """{lambda: per-rung log FL1 norms}: each frame's spectrum is read once
    (:func:`nets._spectrum`), on the half spectrum for a real net, and
    omega(|xi|) is evaluated once for every lambda."""
    fine = a.fine_grid
    for fr, sup in zip(a.frames, a.sups):
        _require_edge_negligible(fr, sup, "omega_norm_ladder")
    half = a.real
    omega = _omega(w, fine, half)
    logs = {lam: np.empty(a.ladder.count) for lam in lams}
    for j in range(a.ladder.count):
        spectrum = _log_spectrum(_spectrum(a, j, half), fine, omega)
        for lam, values in logs.items():
            values[j] = _log_norm(spectrum, fine, lam, "1")
    return logs


def omega_norm_ladder(a: NetFunction, w: WeightFunction,
                      lam: float) -> OmegaNormLadder:
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return OmegaNormLadder(lam=float(lam),
                           log_values=_fl1_ladders(a, w, (lam,))[lam])


@dataclass(frozen=True)
class NormEquivalenceReport:
    lam: float
    lam_shift: float
    norm_inf: float
    norm_one: float
    norm_two: float
    norm_inf_shifted: float
    c_lower: float
    c_upper: float
    lower_holds: bool
    upper_holds: bool
    l2_holds: bool

    @property
    def holds(self) -> bool:
        return self.lower_holds and self.upper_holds

    def to_json(self) -> dict:
        return {k: (bool(v) if isinstance(v, (bool, np.bool_)) else float(v))
                for k, v in self.__dict__.items()} | {"holds": self.holds}


def norm_equivalence_check(f: np.ndarray, grid: GridSpec, w: WeightFunction,
                           lam: float) -> NormEquivalenceReport:
    """Numerical check of the sandwich
    C1*||f||_{FLinf,lam} <= ||f||_{FL1,lam} <= C2*||f||_{FLinf,lam+shift}
    with shift = (d+1)/b taken from the weight's lower-growth constants,
    plus the Cauchy--Schwarz side ||f||_{FL2}^2 <= ||f||_{FLinf}*||f||_{FL1}.
    C1 and C2 are the measured ratios."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    b = w.gamma_constants[1]
    if b <= 0:
        raise ValueError("weight needs a positive logarithmic lower-growth "
                         "constant b")
    shift = (grid.dim + 1) / b
    spectrum = _sample_spectrum(f, grid, w, "norm_equivalence_check")
    log_inf = _log_norm(spectrum, grid, lam, "inf")
    log_one = _log_norm(spectrum, grid, lam, "1")
    log_two = _log_norm(spectrum, grid, lam, "2")
    log_inf_sh = _log_norm(spectrum, grid, lam + shift, "inf")
    if log_one == -np.inf:  # zero function: 0 <= 0 <= 0
        return NormEquivalenceReport(
            lam=lam, lam_shift=shift, norm_inf=0.0, norm_one=0.0,
            norm_two=0.0, norm_inf_shifted=0.0, c_lower=0.0, c_upper=0.0,
            lower_holds=True, upper_holds=True, l2_holds=True)

    c_lower = np.exp(log_one - log_inf)
    c_upper = np.exp(log_one - log_inf_sh)
    l2_holds = bool(2.0 * log_two <= log_inf + log_one + 1e-9)
    return NormEquivalenceReport(
        lam=lam, lam_shift=float(shift), norm_inf=_linear(log_inf),
        norm_one=_linear(log_one), norm_two=_linear(log_two),
        norm_inf_shifted=_linear(log_inf_sh),
        c_lower=float(c_lower), c_upper=float(c_upper),
        lower_holds=bool(np.isfinite(c_lower) and c_lower > 0),
        upper_holds=bool(np.isfinite(c_upper) and c_upper > 0),
        l2_holds=l2_holds)


def classify_net_bb(a: NetFunction, w: WeightFunction,
                    mode: str = None) -> GrowthVerdict:
    """Moderate / negligible verdict at exp(k*omega(1/eps)) scales.

    Moderation grades the weighted FL1 norms over the lambda grid: the
    statistic kappa_j = log||f_eps||_lam / omega(1/eps_j) estimates the k
    in ||f_eps|| <= C exp(k*omega(1/eps)); Beurling asks every lambda to
    stay bounded, Roumieu asks some lambda to.  Negligibility is decided on
    the 0-th order sup norms via nu_j = (-log S_eps)/omega(1/eps_j), which
    the weight-function null characterization licenses."""
    return classify_growth(FunctionScale(w, a.ladder),
                           _fl1_ladders(a, w, LAMBDA_GRID), a.sups,
                           float(a.sups.max()), mode or a.mode)


@dataclass(frozen=True)
class CrosscheckReport:
    """Polynomial-scale re-reading of a log(1+t)-weighted verdict."""

    fitted_order: float
    poly_moderate: bool
    poly_negligible: bool
    negligible_per_q: dict
    omega_verdict: GrowthVerdict
    agree: bool

    def to_json(self) -> dict:
        return {
            "fitted_order": float(self.fitted_order),
            "poly_moderate": bool(self.poly_moderate),
            "poly_negligible": bool(self.poly_negligible),
            "negligible_per_q": {str(q): bool(v)
                                 for q, v in self.negligible_per_q.items()},
            "omega_verdict": self.omega_verdict.to_json(),
            "agree": bool(self.agree),
        }


def colombeau_crosscheck(a: NetFunction) -> CrosscheckReport:
    """For omega = log(1+t) the weighted scales coincide with the classical
    polynomial ones; this re-expresses the verdict in eps powers and flags
    any disagreement.  Moderate means sup <= C * eps^{-k} for some k
    (fitted from the log-log slope); negligible means sup <= C * eps^q for
    every q on the tested grid."""
    w = WeightFunction.log_one_plus_t()
    verdict = classify_net_bb(a, w, "beurling")

    log_sups, censored = censor_at_floor(a.sups, float(a.sups.max()))
    log_inv_eps = np.log(1.0 / a.ladder.values)

    # growth order: slope of log sup against log(1/eps) over the tail
    half = a.ladder.count // 2
    slope = float(np.polyfit(log_inv_eps[half:], log_sups[half:], 1)[0])
    poly_moderate = _bounded_residual(np.maximum(log_sups, 0.0)
                                      / np.maximum(log_inv_eps, 1e-12))
    # censored rungs are indistinguishable from zero and certify any decay
    log_eff = np.where(censored, -np.inf, log_sups)
    per_q = {}
    for q in Q_GRID:
        # sup <= C eps^q  <=>  log sup + q log(1/eps) bounded above
        per_q[q] = _bounded_residual(log_eff + q * log_inv_eps)
    poly_negligible = all(per_q.values())

    agree = (poly_moderate == verdict.moderate
             and poly_negligible == verdict.negligible)
    return CrosscheckReport(fitted_order=slope, poly_moderate=poly_moderate,
                            poly_negligible=poly_negligible,
                            negligible_per_q=per_q, omega_verdict=verdict,
                            agree=agree)
