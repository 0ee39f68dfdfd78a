"""Weight sequences and weight functions.

Log-convex weight sequences M_p are stored on a log scale (factorials are
never materialized), together with their associated function

    M(t) = max_p (p*log t - log M_p)

and its inverse.  Weight functions omega(t) cover the Fourier-Lebesgue
(Beurling-Bjorck) mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SaturationError

DEFAULT_P_MAX = 256

#: resolved_for gives a Gevrey-s table about 1.25 * t^(1/s) entries to
#: resolve t, and refuses a t with t^(1/s) above this
MAX_P_MAX = 1 << 22

# Largest log t that exp() keeps finite in float64.
_LOG_T_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class WeightSequence:
    """A positive weight sequence with M_0 = 1, kept as log M_p.

    ``kind`` is "gevrey" (log M_p = s*log p!) or "custom" (user table).
    """

    kind: str
    log_m: np.ndarray
    p_max: int
    s: float | None = None

    def __post_init__(self):
        lm = np.asarray(self.log_m, dtype=float)
        if lm.ndim != 1 or lm.shape[0] != self.p_max + 1:
            raise ValueError("log_m must have p_max + 1 entries")
        if abs(lm[0]) > 1e-12:
            raise ValueError("M_0 must be 1 (log_m[0] = 0)")
        object.__setattr__(self, "log_m", lm)
        object.__setattr__(self, "_inc", np.diff(lm))

    @staticmethod
    def gevrey(s: float, p_max: int = DEFAULT_P_MAX) -> "WeightSequence":
        if not 0 < s < math.inf:
            raise ValueError("gevrey order s must be positive and finite")
        # log p! by cumulative sums, no factorial evaluation
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, p_max + 1)))))
        return WeightSequence(kind="gevrey", log_m=s * log_fact, p_max=p_max, s=s)

    @staticmethod
    def custom(log_m) -> "WeightSequence":
        """The table log M_0 .. log M_p_max, with p_max = len(log_m) - 1."""
        lm = np.asarray(log_m, dtype=float)
        return WeightSequence(kind="custom", log_m=lm, p_max=lm.shape[0] - 1)

    @property
    def m1(self) -> float:
        """M_1, the right endpoint of the flat region of the associated function."""
        return float(math.exp(self.log_m[1]))

    @property
    def increments(self) -> np.ndarray:
        """log(M_p / M_{p-1}) for p = 1..p_max; non-decreasing under (M.1)."""
        return self._inc

    def is_log_convex(self) -> bool:
        return bool(np.all(np.diff(self._inc) >= -1e-10))

    @property
    def t_saturation(self) -> float:
        """Largest t at which assoc() is still resolved by this table (inf
        beyond float range)."""
        top = self._inc[-1]
        return float(math.exp(top)) if top <= _LOG_T_MAX else math.inf

    def to_json(self) -> dict:
        if self.kind == "gevrey":
            return {"kind": "gevrey", "s": self.s, "p_max": self.p_max}
        return {"kind": "custom", "log_m": [float(v) for v in self.log_m]}

    @staticmethod
    def from_json(obj: dict) -> "WeightSequence":
        if obj["kind"] == "gevrey":
            return WeightSequence.gevrey(float(obj["s"]), int(obj.get("p_max", DEFAULT_P_MAX)))
        if obj["kind"] == "custom":
            return WeightSequence.custom(obj["log_m"])
        raise ValueError(f"unknown weight sequence kind {obj['kind']!r}")


@dataclass(frozen=True)
class ConditionReport:
    m1_ok: bool
    m2_ok: bool
    m2_constants: tuple[float, float]  # (A, H)
    m3prime_partial_sum: float
    m3prime_converges: bool  # ratio-test heuristic, not a proof


def assoc(seq: WeightSequence, t, on_saturation: str = "raise"):
    """Associated function M(t) = max_p (p*log t - log M_p), t >= 0.

    Under (M.1) the maximizer is located by a searchsorted on the increment
    sequence; for non-log-convex custom tables a full scan is used.  Scalar
    in, scalar out; arrays are mapped elementwise.

    ``on_saturation``: "raise" (default) raises SaturationError when the
    maximizer hits p_max; "clip" returns the truncated maximum, which equals
    the brute-force max over p <= p_max.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0):
        raise ValueError("assoc requires t >= 0")
    out = np.zeros_like(t_arr)
    pos = t_arr > 0
    if np.any(pos):
        logt = np.log(t_arr[pos])
        if seq.is_log_convex():
            p_star = np.searchsorted(seq.increments, logt, side="right")
        else:
            vals = np.outer(logt, np.arange(seq.p_max + 1)) - seq.log_m[None, :]
            p_star = np.argmax(vals, axis=1)
        if on_saturation == "raise" and np.any(p_star >= seq.p_max):
            raise SaturationError(
                f"assoc maximizer hit p_max={seq.p_max}; raise p_max "
                f"(reliable up to t ~ {seq.t_saturation:.6g})",
                seq.t_saturation,
            )
        p_star = np.minimum(p_star, seq.p_max)
        out[pos] = np.maximum(p_star * logt - seq.log_m[p_star], 0.0)
    return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out.reshape(np.shape(t))


def assoc_inverse(seq: WeightSequence, y):
    """Least t with assoc(t) >= y, exactly: log t = min_p (y + log M_p)/p
    over 1 <= p <= p_max.

    Exact for any table, because M(t) >= y holds exactly when some p has
    p*log t - log M_p >= y.  y = 0 gives the right end of the flat region
    (M_1 for a log-convex table).  When the minimum falls on p = p_max, a
    deeper table may give a smaller t: the result is then an upper bound,
    at or past t_saturation for a log-convex table, and the caller passes
    it to resolved_for and inverts again on the deeper table.  Scalar in,
    scalar out; arrays are mapped elementwise.
    """
    y_arr = np.asarray(y, dtype=float).ravel()
    if np.any(y_arr < 0):
        raise ValueError("assoc_inverse requires y >= 0")
    p = np.arange(1, seq.p_max + 1)
    log_t = np.min((y_arr[:, None] + seq.log_m[None, 1:]) / p, axis=1)
    if np.any(log_t > _LOG_T_MAX):
        raise SaturationError(
            f"assoc_inverse target y={float(np.max(y_arr)):.6g} is beyond "
            "float range on this table; raise p_max", seq.t_saturation)
    t = np.exp(log_t)
    return t[0] if np.ndim(y) == 0 else t.reshape(np.shape(y))


def resolved_for(seq: WeightSequence, t_needed: float) -> WeightSequence:
    """A sequence whose table resolves assoc up to ``t_needed``.

    Gevrey tables are deepened as required, within MAX_P_MAX; custom tables
    cannot be extended.  Otherwise SaturationError is raised.
    """
    if seq.t_saturation >= t_needed:
        return seq
    fix = "supply a deeper table"
    if seq.kind == "gevrey":
        log_p = math.log(max(t_needed, 2.0)) / seq.s
        if log_p <= math.log(MAX_P_MAX):
            depth = int(math.exp(log_p) * 1.25) + 16
            return WeightSequence.gevrey(seq.s, depth)
        fix = f"that needs a Gevrey table deeper than {MAX_P_MAX}"
    raise SaturationError(
        f"{seq.kind} weight table saturates at t ~ {seq.t_saturation:.6g} "
        f"but t ~ {t_needed:.6g} is required; {fix}", seq.t_saturation)


def m2_constant(seq: WeightSequence) -> float:
    """The (M.2) constant H of a log-convex table, A pinned to 1 by the
    p=q=0 case (M_0 = 1): the smallest power of two up to 2^12 making the
    log-scale inequality hold for all p+q <= p_max, or inf.  Under (M.1)
    the split min_p (log M_p + log M_{r-p}) of each r is taken at
    p = r // 2, so H needs no search over p."""
    lm = seq.log_m
    # smallest admissible log H: max over r of (log M_r - min_p (log M_p + log M_{r-p}))/r
    r = np.arange(1, seq.p_max + 1)
    split_min = lm[r // 2] + lm[r - r // 2]
    log_h_req = max(0.0, float(np.max((lm[r] - split_min) / r)))
    h_grid = 2.0 ** np.arange(0, 13)
    ok = h_grid >= math.exp(min(log_h_req, _LOG_T_MAX)) * (1.0 - 1e-12)
    return float(h_grid[np.argmax(ok)]) if np.any(ok) else math.inf


def check_conditions(seq: WeightSequence) -> ConditionReport:
    """Certify (M.1), (M.2) (:func:`m2_constant`) and the (M.3)'
    ratio-test heuristic."""
    if seq.p_max < 64:
        raise ValueError("check_conditions requires p_max >= 64")
    m1_ok = seq.is_log_convex()
    if not m1_ok:
        return ConditionReport(
            m1_ok=False,
            m2_ok=False,
            m2_constants=(1.0, math.inf),
            m3prime_partial_sum=math.nan,
            m3prime_converges=False,
        )

    H = m2_constant(seq)
    ratios = np.exp(-seq.increments)  # M_{p-1}/M_p
    partial = float(np.sum(ratios))
    # heuristic: tail log-log slope of the ratios against p^{-(1+delta)}
    p = np.arange(1, seq.p_max + 1)
    tail = p >= seq.p_max // 2
    slope = np.polyfit(np.log(p[tail]), np.log(np.maximum(ratios[tail], 1e-300)), 1)[0]
    converges = bool(slope < -1.05)

    return ConditionReport(
        m1_ok=True,
        m2_ok=math.isfinite(H),
        m2_constants=(1.0, H),
        m3prime_partial_sum=partial,
        m3prime_converges=converges,
    )


def check_assoc_m2(seq: WeightSequence, t_grid, H: float | None = None) -> bool:
    """Functional (M.2) with A = 1: 2*M(t) <= M(H*t) on the grid, slack
    1e-6.  H defaults to the constant check_conditions finds for ``seq``."""
    if H is None:
        H = check_conditions(seq).m2_constants[1]
    t_grid = np.asarray(t_grid, dtype=float)
    lhs = 2.0 * assoc(seq, t_grid)
    rhs = assoc(seq, H * t_grid)
    return bool(np.all(lhs <= rhs + 1e-6))


def gevrey_pair(s: float):
    """Mollifier weight pair (M, N) = (gevrey(s), gevrey((1+s)/2)).

    Validates numerically that for l in {1, 1/2, 1/10} a finite C exists with
    2*M(t) <= N(l*t) + C on [0, 1e6]; the slower Gevrey order of N makes
    N(l*t) eventually dominate 2*M(t).
    """
    if s <= 1:
        raise ValueError("non-quasianalyticity requires gevrey order s > 1")
    t_max = 1e6
    s_n = 0.5 * (1.0 + s)
    m_seq = WeightSequence.gevrey(s)
    n_seq = WeightSequence.gevrey(s_n)
    m_val = resolved_for(m_seq, t_max)
    t = np.logspace(-2, math.log10(t_max), 160)
    two_m = 2.0 * assoc(m_val, t)
    top = t >= t_max / 100.0  # top two decades carry the asymptotics
    for l in (1.0, 0.5, 0.1):
        n_val = resolved_for(n_seq, l * t_max)
        n_of_lt = assoc(n_val, l * t)
        # a finite C exists iff N(l t) eventually dominates 2M(t); certify by
        # the tail log-log growth exponents (1/s_n > 1/s for a Gevrey pair)
        slope_m = np.polyfit(np.log(t[top]), np.log(np.maximum(two_m[top], 1e-12)), 1)[0]
        slope_n = np.polyfit(np.log(t[top]), np.log(np.maximum(n_of_lt[top], 1e-12)), 1)[0]
        if slope_n <= slope_m + 1e-3:
            raise ValueError(
                f"gevrey pair validation failed for s={s}, l={l}: "
                "N(lt) does not outgrow 2M(t) on the tail"
            )
    return m_seq, n_seq


# ---------------------------------------------------------------------------
# weight functions


@dataclass(frozen=True)
class WeightFunction:
    """Non-decreasing weight omega(t) with omega(0) = 0."""

    kind: str  # log_one_plus_t | power | custom
    a: float | None = None  # power exponent
    t_table: np.ndarray | None = None
    w_table: np.ndarray | None = None
    gamma_constants: tuple[float, float] = (0.0, 1.0)  # (a, b) in omega >= b*log(1+t)+a

    @staticmethod
    def log_one_plus_t() -> "WeightFunction":
        return WeightFunction(kind="log_one_plus_t", gamma_constants=(0.0, 1.0))

    @staticmethod
    def power(a: float) -> "WeightFunction":
        if not 0.0 < a <= 1.0:
            raise ValueError("power exponent must lie in (0, 1]")
        return WeightFunction(kind="power", a=a, gamma_constants=(0.0, a))

    @staticmethod
    def custom(t_table, w_table) -> "WeightFunction":
        t_tab = np.asarray(t_table, dtype=float)
        w_tab = np.asarray(w_table, dtype=float)
        if t_tab[0] != 0.0 or w_tab[0] != 0.0:
            raise ValueError("custom table must start at omega(0) = 0")
        if np.any(np.diff(w_tab) < 0) or np.any(np.diff(t_tab) <= 0):
            raise ValueError("custom table must be monotone")
        return WeightFunction(kind="custom", t_table=t_tab, w_table=w_tab)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "log_one_plus_t":
            return np.log1p(t)
        if self.kind == "power":
            return np.power(t, self.a)
        # linear interpolation, linear extrapolation of the last segment
        w = np.interp(t, self.t_table, self.w_table)
        last_slope = (self.w_table[-1] - self.w_table[-2]) / (self.t_table[-1] - self.t_table[-2])
        beyond = t > self.t_table[-1]
        w = np.where(beyond, self.w_table[-1] + last_slope * (t - self.t_table[-1]), w)
        return w

    def to_json(self) -> dict:
        if self.kind == "power":
            return {"kind": "power", "a": self.a}
        if self.kind == "custom":
            return {
                "kind": "custom",
                "t": [float(v) for v in self.t_table],
                "omega": [float(v) for v in self.w_table],
            }
        return {"kind": "log_one_plus_t"}

    @staticmethod
    def from_json(obj: dict) -> "WeightFunction":
        if obj["kind"] == "log_one_plus_t":
            return WeightFunction.log_one_plus_t()
        if obj["kind"] == "power":
            return WeightFunction.power(float(obj["a"]))
        if obj["kind"] == "custom":
            return WeightFunction.custom(obj["t"], obj["omega"])
        raise ValueError(f"unknown weight function kind {obj['kind']!r}")


@dataclass(frozen=True)
class OmegaReport:
    subadditive_ok: bool
    subadditivity_max_violation: float
    beta_integral: float
    beta_tail_estimate: float
    beta_converges: bool
    gamma_constants: tuple[float, float]  # fitted (a, b)
    gamma_ok: bool
    gamma0_ratio: float
    gamma0_ok: bool
    details: dict = field(default_factory=dict)


def omega_check(w: WeightFunction, t_grid) -> OmegaReport:
    """Report on conditions (alpha), (beta), (gamma), (gamma_0) for omega."""
    t_grid = np.asarray(t_grid, dtype=float)
    T = float(t_grid.max())
    if T < 1e4:
        raise ValueError("omega_check grid must reach T >= 1e4")

    # (alpha) subadditivity on a coarse pair grid
    sub = t_grid[:: max(1, len(t_grid) // 120)]
    s1 = sub[:, None]
    s2 = sub[None, :]
    viol = w(s1 + s2) - (w(s1) + w(s2))
    max_viol = float(np.max(viol))
    alpha_ok = max_viol <= 1e-9 * (1.0 + float(np.max(w(sub))))

    # (beta) quadrature of omega(t)/t^2 on [1, T] plus a tail estimate from
    # the local log-log slope at T
    tq = np.logspace(0.0, math.log10(T), 2000)
    integral = float(np.trapezoid(w(tq) / tq**2, tq))
    slope = (math.log(max(w(T), 1e-300)) - math.log(max(w(T / 2.0), 1e-300))) / math.log(2.0)
    if slope < 0.999:
        tail = float(w(T)) / ((1.0 - slope) * T)
        beta_converges = True
    else:
        tail = math.inf
        beta_converges = False

    # (gamma) fit: b = worst-case ratio on t >= 1, then a as the residual floor
    mask = t_grid >= 1.0
    b = float(np.min(w(t_grid[mask]) / np.log1p(t_grid[mask])))
    a = float(np.min(w(t_grid) - b * np.log1p(t_grid)))
    gamma_ok = b > 1e-9

    # (gamma_0): the ratio omega(T)/log(1+T) must diverge
    r_T = float(w(T) / math.log1p(T))
    r_half = float(w(T / 10.0) / math.log1p(T / 10.0))
    gamma0_ok = r_T > 1.5 * r_half and r_T > 2.0

    return OmegaReport(
        subadditive_ok=bool(alpha_ok),
        subadditivity_max_violation=max_viol,
        beta_integral=integral,
        beta_tail_estimate=tail,
        beta_converges=beta_converges,
        gamma_constants=(a, b),
        gamma_ok=gamma_ok,
        gamma0_ratio=r_T,
        gamma0_ok=bool(gamma0_ok),
        details={"beta_slope_at_T": slope, "gamma0_ratio_at_T_over_10": r_half},
    )
