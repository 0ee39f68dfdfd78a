"""Ladder tables built once per call: regularize evaluates psi once, at
eps_min, and reads the other rungs of a ladder of ratio 2^-p strided from
it; the powers (-xi)^k are built once per call, on the largest grid, and
every grid's derivative symbols are read from them.  Both reads are
bitwise those of the per-grid builds."""

import warnings

import numpy as np
import pytest

from gfalg import estimators
from gfalg.distributions import (ModelDistribution, _rung_profiles,
                                 regularize, required_oversample)
from gfalg.estimators import _derivative_sups, _rung_oversamples
from gfalg.grids import GridSpec, _axis_powers, _symbol
from gfalg.mollifier import PlateauProfile
from gfalg.nets import (EpsilonLadder, UltradiffOperator, constant_embed,
                        scale)

#: i^k for k mod 4
I_POWERS = (1.0, 1j, -1.0, -1j)


def _power(xi, k):
    """(-xi)^k by the rule of _axis_powers: k products from ones."""
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


class TestSymbolsFromOnePowersTable:
    def test_bitwise_the_per_grid_symbols(self, grid):
        ladder = EpsilonLadder(2.0 ** -3, 0.5, 10)
        alphas = [(k,) for k in range(1, 5)]
        top = grid.refine(required_oversample(ladder, grid))
        for half in (True, False):
            powers = _axis_powers(top, alphas, half)
            for m in (1, 2, 4, 8, 16, 32, 64):
                coarse = grid.refine(m)
                # the half axis of a smaller grid is read cut only: the
                # prefix holds +pi/dx at its Nyquist node
                uncut = coarse.n == top.n or not half
                for cut in (True, False) if uncut else (True,):
                    for alpha in alphas:
                        _assert_bitwise(
                            _symbol(powers, top, coarse, alpha, half, cut),
                            _grid_symbol(coarse, alpha, half, cut))

    @pytest.mark.parametrize("cut", (True, False))
    def test_2d_bitwise_the_per_grid_symbols(self, cut):
        # the mixed indices (0, k) and (k, 0) included: only a
        # differentiated axis is cut
        base = GridSpec(2, 5.0, 256)
        alphas = [(i, j) for i in range(5) for j in range(5 - i)]
        top = base.refine(4)
        powers = _axis_powers(top, alphas)
        for m in (1, 2, 4):
            coarse = base.refine(m)
            for alpha in alphas:
                _assert_bitwise(_symbol(powers, top, coarse, alpha, cut=cut),
                                _grid_symbol(coarse, alpha, cut=cut))

    @pytest.mark.parametrize("dim", (1, 2))
    def test_bitwise_the_meshgrid_product(self, dim):
        # the symbol spectral_derivative used to build: 1 times one factor
        # (-xi)^k per differentiated axis, on the grid's dual points
        g = GridSpec(dim, 5.0, 256)
        alphas = [(k,) for k in range(5)] if dim == 1 else \
            [(i, j) for i in range(5) for j in range(5 - i)]
        powers = _axis_powers(g, alphas)
        for alpha in alphas:
            expected = np.ones(g.shape)
            for k, xi in zip(alpha, g.dual_points()):
                if k:
                    expected = expected * _power(xi, k)
            _assert_bitwise(_symbol(powers, g, g, alpha), expected)

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
            _axis_powers(GridSpec(2, 5.0, 256), [(1,)])
        with pytest.raises(ValueError):
            _axis_powers(GridSpec(1, 5.0, 256), [(-1,)])


class TestPowersByProducts:
    @pytest.mark.parametrize("g,half", ((GridSpec(1, 20.0, 4096 * 64), True),
                                        (GridSpec(2, 5.0, 1024), False)))
    def test_within_k_u_of_pow(self, g, half):
        # each product rounds once: k - 1 roundings, against pow's one
        u = np.finfo(float).eps / 2
        xi = g.half_dual_axis() if half else g.dual_axis()
        alphas = [(k,) * g.dim for k in range(17)]
        powers = _axis_powers(g, alphas, half)
        assert sorted(powers) == list(range(17))
        for k, power in powers.items():
            exact = (-xi) ** k
            assert np.all(np.abs(power - exact) <= k * u * np.abs(exact)), k
        # up to the square the products are bitwise pow's
        for k in (0, 1, 2):
            _assert_bitwise(powers[k], (-xi) ** k)


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

    def test_derivative_powers_for_one_grid(self, catalog, seq,
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
        build = estimators._axis_powers

        def recorded(g, alphas, half=False):
            builds.append((g.n, half))
            return build(g, alphas, half)

        monkeypatch.setattr(estimators, "_axis_powers", recorded)
        for net, box, half in ((delta, (-10.0, 10.0), True),
                               (scale(delta, 1j), (-10.0, 10.0), False),
                               (gauss2d, (-2.0, 2.0), False)):
            builds.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                _derivative_sups(net, box, 4, "test")
            top = net.grid.n * max(_rung_oversamples(net, box))
            assert builds == [(top, half)]
