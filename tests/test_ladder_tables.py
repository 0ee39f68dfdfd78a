"""Ladder tables built once per call: regularize evaluates psi once, at
eps_min, and reads the other rungs of a ladder of ratio 2^-p strided from
it; _derivative_sups builds the powers (-xi)^k once, on the largest rung
grid, and reads each rung grid's symbols as their prefix.  Both reads are
bitwise those of the per-rung builds."""

import warnings

import numpy as np
import pytest

from gfalg import estimators
from gfalg.distributions import (ModelDistribution, _rung_profiles,
                                 regularize, required_oversample)
from gfalg.estimators import (_axis_powers, _derivative_sups,
                              _derivative_symbols, _prefix_symbols,
                              _rung_oversamples)
from gfalg.mollifier import PlateauProfile
from gfalg.nets import EpsilonLadder


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


class TestPrefixSymbols:
    def test_bitwise_the_per_grid_symbols(self, grid):
        ladder = EpsilonLadder(2.0 ** -3, 0.5, 10)
        alphas = [(k,) for k in range(1, 5)]
        top = grid.refine(required_oversample(ladder, grid))
        powers = _axis_powers(top, 4)
        for m in (1, 2, 4, 8, 16, 32, 64):
            coarse = grid.refine(m)
            cuts = (True, False) if coarse.n == top.n else (True,)
            for cut in cuts:
                read = _prefix_symbols(powers, alphas, coarse.n, cut)
                built = _derivative_symbols(coarse, alphas, half=True,
                                            cut=cut)
                for r, b in zip(read, built):
                    assert r.dtype == b.dtype
                    assert r.tobytes() == b.tobytes()


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

    def test_derivative_powers_for_one_grid(self, catalog, monkeypatch):
        net = catalog("delta")
        box = (-10.0, 10.0)
        grids = []

        def recording(name):
            fn = getattr(estimators, name)

            def recorded(g, *args, **kwargs):
                grids.append((name, g.n))
                return fn(g, *args, **kwargs)
            return recorded

        for name in ("_axis_powers", "_derivative_symbols"):
            monkeypatch.setattr(estimators, name, recording(name))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _derivative_sups(net, box, 4, "test")
        top = net.grid.n * max(_rung_oversamples(net, box))
        assert grids == [("_axis_powers", top)]
