"""An FFT-free oracle for the derivative ladders of regularized catalog nets.

A regularized net has the exact spectrum fhat(xi) psi(eps xi).  Where
(-xi)^alpha fhat(xi) keeps one phase on the band, sup |D^alpha f_eps| is
its value at x = 0, I(0) with
I(x) = (2 pi)^-1 int |xi|^alpha |fhat(xi)| psi(eps xi) cos(x xi) dxi,
and so is the sup over any box that holds 0.  This holds for delta and the
gaussian at even alpha and for delta' at odd alpha.  The integrals are
taken by Gauss-Legendre quadrature over |xi| <= 2/eps with the mollifier's
own profile, and no FFT.

The frames live on the periodic grid of period 2L, so by Poisson summation
their value at 0 is I(0) + 2 I(2L) + 2 I(4L) + ...  The image at 2L is kept
while eps >= 2^-5: delta's reads -5.3e-12 against I(0) = 3.8 at eps = 2^-3,
and below 2e-16 from eps = 2^-4 on, where D^alpha phi_eps(2L) =
eps^(-1-alpha) D^alpha phi(2L/eps) has fallen under the round-off of I(0);
the image at 4L is below round-off from the first rung.

pv(1/x) has the spectrum i pi sign(xi), whose symbol (-xi)^alpha keeps one
phase at odd alpha, and its images decay algebraically: for |x| >= 2L,
D^alpha(pv(1/x) * phi_eps) is D^alpha(1/x) = i^alpha alpha! / x^(alpha+1) up
to the Gevrey tail of phi_eps, so sum_{m != 0} I(2Lm) =
2 s_alpha alpha! zeta(alpha + 1) / (2L)^(alpha+1) with s_alpha =
(-1)^((alpha+1)/2).  The images at +-2L are taken by quadrature while
eps >= 2^-5, where phi_eps's tail still reaches 2L, and in closed form
below; those at |m| >= 2 in closed form on every rung.  Without them the
rung-0 gap at depth 8 is 2.8e-5 of I(0) at alpha = 1.

The tolerance is the componentwise error bound of the inverse FFT that
``_derivative_sups`` takes on rung j's grid of N_j nodes (Higham, Accuracy
and Stability of Numerical Algorithms, 2nd ed., section 24.1),
eta log2(N_j) (dxi / 2 pi) sum_k |xi_k|^alpha |fhat psi_j(xi_k)|, where
eta = mu + gamma_4 (sqrt 2 + mu) with twiddle error mu = u, plus the
(alpha + 2) u of the symbol's products and of fhat psi_j at each node, plus
the quadrature's own error, estimated by halving the panels.  No constant
is tuned.

heaviside is left out: its frames carry the ramp's seam at +-L.
"""

import warnings
from math import factorial

import numpy as np
import pytest

from gfalg.distributions import ModelDistribution, regularize, spectral_data
from gfalg.estimators import _derivative_sups, _rung_oversamples
from gfalg.nets import EpsilonLadder

U = 2.0 ** -53
ETA = U + 4 * U / (1 - 4 * U) * (np.sqrt(2) + U)
BOX = (-10.0, 10.0)
#: kind -> the orders alpha at which D^alpha f_eps peaks at x = 0
ROWS = {"delta": (0, 2, 4), "gaussian": (0, 2, 4), "delta_prime": (1, 3),
        "pv_inverse": (1, 3)}
#: zeta(alpha + 1) at the orders of pv(1/x)'s rows
ZETA = {2: np.pi ** 2 / 6, 4: np.pi ** 4 / 90}
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
PANELS = 512


#: the least eps whose periodic image at 2L the oracle adds
IMAGE_EPS = 2.0 ** -5


def _quadrature(integrand, top: float, panels: int) -> float:
    """int_0^top of ``integrand`` by ``panels`` equal panels of 24-node
    Gauss-Legendre."""
    edges = np.linspace(0.0, top, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = edges[:-1, None] + half * (GL_NODES + 1.0)
    return float(np.sum(half * GL_WEIGHTS * integrand(nodes)))


def _oracle(fhat, profile, eps: float, alpha: int, period: float,
            algebraic: bool = False) -> tuple:
    """I(0) + 2 I(period) (the image only while eps >= IMAGE_EPS), and the
    quadrature's error estimate: the change from half the panels.  Each
    panel spans at most 2 radians of cos(period xi).  With ``algebraic``
    the closed form of pv(1/x)'s images is added: those at |m| >= 2, and
    those at +-period too where the quadrature leaves them out."""
    top = profile.r_outer / eps
    near = eps >= IMAGE_EPS
    shifts = (0.0, period) if near else (0.0,)
    values = []
    for panels in (PANELS, PANELS // 2):
        total = 0.0
        for x in shifts:
            def integrand(xi):
                return (xi ** alpha * np.abs(fhat(xi)) * profile(eps * xi)
                        * np.cos(x * xi))

            n = max(panels, int(np.ceil(x * top / 2.0)) * panels // PANELS)
            total += (1.0 if x == 0 else 2.0) * _quadrature(integrand, top, n)
        values.append(total / np.pi)
    far = 0.0
    if algebraic:
        far = (2.0 * (-1) ** ((alpha + 1) // 2) * factorial(alpha)
               * (ZETA[alpha + 1] - (1.0 if near else 0.0))
               / period ** (alpha + 1))
    return values[0] + far, abs(values[0] - values[1])


@pytest.fixture(scope="module")
def ladders(grid, moll):
    """(kind, depth) -> (net, alphas, sups), built once per module."""
    built = {}

    def get(kind, depth):
        if (kind, depth) not in built:
            ladder = EpsilonLadder(2.0 ** -3, 0.5, depth)
            net = regularize(ModelDistribution(kind), moll, ladder, grid)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                alphas, sups = _derivative_sups(net, BOX, 4, "oracle")
            built[kind, depth] = net, alphas, sups
        return built[kind, depth]

    return get


@pytest.mark.parametrize("depth", (6, 7, 8, 9, 10))
@pytest.mark.parametrize("kind", sorted(ROWS))
def test_derivative_sups_match_the_quadrature(ladders, moll, kind, depth):
    net, alphas, sups = ladders(kind, depth)
    fhat = spectral_data(ModelDistribution(kind))
    xi = net.fine_grid.dual_axis()
    dxi_2pi = 1.0 / (2.0 * net.grid.half_width)
    rung_m = _rung_oversamples(net, BOX)
    for alpha in ROWS[kind]:
        row = sups[alphas.index((alpha,))]
        for j, eps in enumerate(net.ladder.values):
            exact, quad_err = _oracle(fhat, moll.profile, float(eps), alpha,
                                      2.0 * net.grid.half_width,
                                      kind == "pv_inverse")
            terms = (np.abs(xi) ** alpha * np.abs(fhat(xi))
                     * moll.profile(eps * xi))
            log_n = np.log2(net.grid.n * rung_m[j])
            tol = ((ETA * log_n + (alpha + 2) * U) * dxi_2pi * terms.sum()
                   + quad_err)
            assert abs(row[j] - exact) <= tol, (alpha, j, row[j], exact, tol)


def test_gaussian_fourth_derivative_reads_the_exact_twelve(ladders):
    # D^4 exp(-x^2) = 16 x^4 - 48 x^2 + 12 is 12 at 0; on the last rung of
    # depth 10 psi(eps xi) = 1 up to |xi| = 4096, far beyond the gaussian's
    # spectrum
    _, alphas, sups = ladders("gaussian", 10)
    assert sups[alphas.index((4,)), -1] == pytest.approx(12.0, rel=1e-12)
