"""Ladder tables built once per call: regularize evaluates psi once, at
eps_min, and reads the other rungs of a ladder of ratio 2^-p strided from
it, bitwise the per-rung evaluations.  The derivative symbols are built on
the grid they act on, with the powers (-xi)^k shared by the call's
multi-indices, and _derivative_sups builds them once per rung grid."""

import warnings

import numpy as np
import pytest

from gfalg import estimators
from gfalg.distributions import (ModelDistribution, _rung_profiles,
                                 regularize, required_oversample)
from gfalg.estimators import _derivative_sups, _rung_oversamples
from gfalg.grids import GridSpec, _symbols
from gfalg.mollifier import PlateauProfile
from gfalg.nets import (EpsilonLadder, UltradiffOperator, constant_embed,
                        scale)

#: i^k for k mod 4
I_POWERS = (1.0, 1j, -1.0, -1j)


def _power(xi, k):
    """(-xi)^k by the rule of _symbols: k products from ones."""
    power = np.ones_like(xi)
    for _ in range(k):
        power = power * -xi
    return power


def _grid_symbol(grid, alpha, half=False, cut=False):
    """The symbol of D^alpha built from the grid's own dual axis: each axis
    factor (-xi)^k (:func:`_power`), 0 at the Nyquist node of a
    differentiated axis of a cut grid, times i^k on the half axis; in 2-D
    their outer product."""
    xi = grid.half_dual_axis() if half else grid.dual_axis()
    factors = []
    for k in alpha:
        factor = _power(xi, k)
        if k and cut:
            factor[grid.n // 2] = 0.0
        factors.append(factor)
    if half:
        factors[0] = I_POWERS[alpha[0] % 4] * factors[0]
    return factors[0] if grid.dim == 1 else np.multiply.outer(*factors)


def _assert_bitwise(got, expected):
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def _rung_axis(ladder, grid):
    """|xi| on the half axis of the grid regularize builds the ladder on."""
    fine = grid.refine(required_oversample(ladder, grid))
    return np.abs(fine.half_dual_axis())


@pytest.fixture
def profile_calls(monkeypatch):
    """The number of PlateauProfile evaluations from here on."""
    calls = []
    evaluate = PlateauProfile.__call__

    def counted(self, u):
        calls.append(np.size(u))
        return evaluate(self, u)

    monkeypatch.setattr(PlateauProfile, "__call__", counted)
    return calls


class TestStridedProfile:
    @pytest.mark.parametrize("ladder", [
        *(EpsilonLadder(2.0 ** -3, 0.5, depth) for depth in range(6, 11)),
        EpsilonLadder(0.5, 0.25, 6),
    ], ids=[*(f"half-depth{d}" for d in range(6, 11)), "quarter"])
    def test_bitwise_the_per_rung_profile(self, grid, moll, ladder,
                                          profile_calls):
        abs_xi = _rung_axis(ladder, grid)
        psis = list(_rung_profiles(moll, ladder, abs_xi))
        assert len(profile_calls) == 1
        assert len(psis) == ladder.count
        # every node of the half axis, the Nyquist node -pi/dx included
        for eps, psi in zip(ladder.values, psis):
            expected = moll.profile(eps * abs_xi)
            assert psi.dtype == expected.dtype
            assert psi.tobytes() == expected.tobytes()

    def test_other_ratios_call_the_profile_per_rung(self, grid, moll,
                                                    profile_calls):
        ladder = EpsilonLadder(2.0 ** -3, 0.6, 6)
        abs_xi = _rung_axis(ladder, grid)
        psis = list(_rung_profiles(moll, ladder, abs_xi))
        assert len(profile_calls) == ladder.count
        for eps, psi in zip(ladder.values, psis):
            assert psi.tobytes() == moll.profile(eps * abs_xi).tobytes()


class TestSymbolsOnTheirGrid:
    def test_bitwise_the_per_grid_symbols(self, grid):
        # every rung grid of a depth-10 ladder, the uncut smaller half
        # grids included: their Nyquist node holds -pi/dx
        ladder = EpsilonLadder(2.0 ** -3, 0.5, 10)
        alphas = [(k,) for k in range(1, 5)]
        assert required_oversample(ladder, grid) == 64
        for half in (True, False):
            for m in (1, 2, 4, 8, 16, 32, 64):
                coarse = grid.refine(m)
                for cut in (True, False):
                    for alpha, sym in zip(alphas, _symbols(coarse, alphas,
                                                           half, cut)):
                        _assert_bitwise(
                            sym, _grid_symbol(coarse, alpha, half, cut))

    @pytest.mark.parametrize("cut", (True, False))
    def test_2d_bitwise_the_per_grid_symbols(self, cut):
        # the mixed indices (0, k) and (k, 0) included: only a
        # differentiated axis is cut
        base = GridSpec(2, 5.0, 256)
        alphas = [(i, j) for i in range(5) for j in range(5 - i)]
        for m in (1, 2, 4):
            coarse = base.refine(m)
            for alpha, sym in zip(alphas, _symbols(coarse, alphas, cut=cut)):
                _assert_bitwise(sym, _grid_symbol(coarse, alpha, cut=cut))

    @pytest.mark.parametrize("dim", (1, 2))
    def test_bitwise_the_meshgrid_product(self, dim):
        # the symbol spectral_derivative used to build: 1 times one factor
        # (-xi)^k per differentiated axis, on the grid's dual points
        g = GridSpec(dim, 5.0, 256)
        alphas = [(k,) for k in range(5)] if dim == 1 else \
            [(i, j) for i in range(5) for j in range(5 - i)]
        for alpha, sym in zip(alphas, _symbols(g, alphas)):
            expected = np.ones(g.shape)
            for k, xi in zip(alpha, g.dual_points()):
                if k:
                    expected = expected * _power(xi, k)
            _assert_bitwise(sym, expected)

    @pytest.mark.parametrize("dim", (1, 2))
    def test_ultradiff_symbol_bitwise_the_monomial_sum(self, seq, dim):
        g = GridSpec(dim, 5.0, 512)
        if dim == 1:
            coeffs = {(0,): 1.0, (1,): 0.3 - 0.1j, (2,): 0.05, (3,): 0.002j,
                      (4,): 1e-4}
        else:
            coeffs = {(0, 0): 1.0, (1, 0): 0.3 - 0.1j, (0, 2): 0.05,
                      (1, 1): 0.05, (2, 1): 0.002j}
        xi = g.dual_axis()
        expected = np.zeros(g.shape, dtype=complex)
        for alpha, val in coeffs.items():
            factors = [_power(xi, k) for k in alpha]
            expected += val * (factors[0] if dim == 1
                               else np.multiply.outer(*factors))
        op = UltradiffOperator(coeffs, seq, bound_c=1.0, bound_l=1.0)
        _assert_bitwise(op.symbol(g), expected)

    def test_rejects_a_multi_index_of_the_wrong_dimension(self):
        with pytest.raises(ValueError):
            _symbols(GridSpec(2, 5.0, 256), [(1,)])
        with pytest.raises(ValueError):
            _symbols(GridSpec(1, 5.0, 256), [(-1,)])


class TestPowersByProducts:
    @pytest.mark.parametrize("g,half", ((GridSpec(1, 20.0, 4096 * 64), True),
                                        (GridSpec(2, 5.0, 1024), False)))
    def test_within_k_u_of_pow(self, g, half):
        # each product rounds once: k - 1 roundings, against pow's one.
        # The factor i^k of the half axis is exact, and in 2-D the symbol of
        # (k, 0) is the outer product with ones, whose column 0 is the power
        u = np.finfo(float).eps / 2
        xi = g.half_dual_axis() if half else g.dual_axis()
        alphas = [(k,) + (0,) * (g.dim - 1) for k in range(17)]
        for (k, *_), sym in zip(alphas, _symbols(g, alphas, half)):
            power = sym if g.dim == 1 else sym[:, 0]
            exact = (I_POWERS[k % 4] if half else 1.0) * (-xi) ** k
            assert np.all(np.abs(power - exact) <= k * u * np.abs(exact)), k
            # up to the square the products are bitwise pow's
            if k <= 2:
                _assert_bitwise(power, exact)


class TestOneTablePerCall:
    def test_regularize_evaluates_psi_once(self, grid, ladder, moll,
                                           profile_calls):
        for kind in ("delta", "heaviside", "gaussian"):
            profile_calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                regularize(ModelDistribution(kind), moll, ladder, grid)
            assert len(profile_calls) == 1, kind

    def test_full_axis_table_calls_the_profile_per_rung(self, grid, ladder,
                                                        moll, profile_calls):
        table = {"xi": [-4.0, 0.0, 4.0], "re": [0.0, 1.0, 0.0],
                 "im": [0.0, 0.0, 0.0]}
        regularize(ModelDistribution("table", table=table), moll, ladder,
                   grid)
        assert len(profile_calls) == ladder.count

    def test_derivative_symbols_per_rung_grid(self, catalog, seq,
                                              monkeypatch):
        # real 1-D nets read the half axis; complex 1-D and 2-D nets the
        # full one, and on a 2-D net the coarse rungs cut 1024^2 nodes to
        # 256^2 and 512^2
        delta = catalog("delta")
        gauss2d = constant_embed(lambda x, y: np.exp(-x ** 2 - y ** 2),
                                 EpsilonLadder(0.25, 0.5, 6),
                                 GridSpec(2, 5.0, 256), weight=seq,
                                 oversample=4)
        builds = []
        build = estimators._symbols

        def recorded(g, alphas, half=False, cut=False):
            builds.append((g.n, half, cut))
            return build(g, alphas, half, cut)

        monkeypatch.setattr(estimators, "_symbols", recorded)
        for net, box, half in ((delta, (-10.0, 10.0), True),
                               (scale(delta, 1j), (-10.0, 10.0), False),
                               (gauss2d, (-2.0, 2.0), False)):
            builds.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                _derivative_sups(net, box, 4, "test")
            # once per rung grid, finest first
            sizes = sorted({net.grid.n * m
                            for m in _rung_oversamples(net, box)},
                           reverse=True)
            assert len(sizes) > 1
            assert builds == [(n, half, n < net.fine_grid.n) for n in sizes]
