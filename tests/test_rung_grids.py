"""Per-rung derivative grids: classify_net takes rung j's derivatives on the
base grid refined m_j times, the alias rule at eps_j, instead of on the
finest rung's grid."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gfalg import estimators
from gfalg.distributions import (ModelDistribution, regularize,
                                 required_oversample, rung_oversample)
from gfalg.estimators import (MODERATION_ALPHA_MAX, _derivative_sups,
                              _rung_oversamples, classify_net)
from gfalg.grids import GridSpec, _symbols, forward, inverse
from gfalg.nets import EpsilonLadder, _stored, constant_embed, window_net

#: tracemalloc peak of classify_net(delta at depth 10, (-10, 10)) before the
#: derivatives were taken per rung, all on the oversample-64 grid (bytes,
#: NumPy 2 on Linux x86-64)
FINE_GRID_PEAK = 19_142_580


@pytest.fixture(scope="module")
def deep_ladder():
    """The reference rig's ladder at depth 10: eps down to 2^-12, which
    needs oversample 64."""
    return EpsilonLadder(2.0 ** -3, 0.5, 10)


@pytest.fixture(scope="module")
def deep(grid, deep_ladder, seq, moll):
    nets = {}

    def get(kind):
        if kind not in nets:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                nets[kind] = regularize(ModelDistribution(kind), moll,
                                        deep_ladder, grid, weight=seq)
        return nets[kind]
    return get


class TestRungOversamples:
    def test_reference_rig(self, grid, ladder):
        # 2/eps_j with head-room 2 under m * pi/dx, pi/dx = 321.7
        assert [rung_oversample(eps, grid) for eps in ladder.values] == \
            [1, 1, 1, 1, 2, 4, 8, 16]

    @pytest.mark.parametrize("count", (6, 7, 8, 9, 10))
    def test_required_oversample_is_the_largest_rung_rule(self, grid,
                                                          count):
        lad = EpsilonLadder(2.0 ** -3, 0.5, count)
        assert required_oversample(lad, grid) == max(
            rung_oversample(eps, grid) for eps in lad.values)

    def test_last_rung_takes_the_fine_grid(self, catalog):
        net = catalog("delta")
        assert _rung_oversamples(net, (-10.0, 10.0)) == \
            [1, 1, 1, 1, 2, 4, 8, 16]

    def test_capped_at_the_net_oversample(self, catalog):
        net = catalog("delta")
        base = replace(net, frames=net.base_frames(), oversample=1)
        assert _rung_oversamples(base, (-10.0, 10.0)) == [1] * 8

    def test_raised_until_the_box_holds_a_node(self, catalog):
        # base nodes sit at multiples of 40/4096 = 0.0098: none lies in the
        # box, while the grid refined 4 times has one at 0.0024
        net = catalog("delta")
        assert _rung_oversamples(net, (0.001, 0.004)) == \
            [4, 4, 4, 4, 4, 4, 8, 16]


class TestNyquistSymbol:
    @pytest.mark.parametrize("half", (True, False))
    @pytest.mark.parametrize("cut", (True, False))
    def test_zero_at_the_nyquist_node_of_a_cut_grid(self, half, cut):
        g = GridSpec(1, 20.0, 256)
        alphas = [(k,) for k in range(1, 5)]
        symbols = _symbols(g, alphas, half, cut)
        xi = g.half_dual_axis() if half else g.dual_axis()
        for (k,), sym in zip(alphas, symbols):
            expected = (1j ** k if half else 1.0) * (-xi) ** k
            if cut:
                expected[g.n // 2] = 0.0
            np.testing.assert_allclose(sym, expected, rtol=1e-15, atol=0)

    def test_2d_zero_only_on_a_differentiated_axis(self):
        g = GridSpec(2, 5.0, 256)
        h = g.n // 2
        for alpha in ((1, 0), (0, 1)):
            (sym,) = _symbols(g, [alpha], cut=True)
            xi = g.dual_axis()
            # the differentiated axis is 0 at its Nyquist node, the other
            # axis' Nyquist node keeps its value
            assert np.all(np.take(sym, h, axis=alpha.index(1)) == 0)
            np.testing.assert_array_equal(
                np.take(sym, h, axis=alpha.index(0)), -xi * (xi != xi[h]))

    def test_2d_tensor_frames_keep_their_nyquist_row(self, moll, seq):
        # tensor frames live on the base grid, their only grid: no rung's
        # grid is cut, and the Nyquist row keeps its data
        g2 = GridSpec(2, 2.5, 256)
        m = ModelDistribution("tensor2d", dim=2,
                              factors=(ModelDistribution("delta"),
                                       ModelDistribution("gaussian")))
        with np.errstate(all="ignore"):
            net = regularize(m, moll, EpsilonLadder(0.5, 0.5, 6), g2,
                             weight=seq)
        box = (-1.0, 1.0)
        assert _rung_oversamples(net, box) == [1] * 6
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, sups = _derivative_sups(net, box, 1, "t")
        for j, fr in enumerate(net.frames):
            d1 = inverse(forward(fr, g2) * -g2.dual_points()[0], g2)
            inside = [(x >= -1.0) & (x <= 1.0) for x in g2.points()]
            assert sups[2, j] == np.max(np.abs(d1)[inside[0] & inside[1]])


class TestCutGrid2D:
    def test_gaussian_gradient_on_cut_grids(self, seq):
        # a refined 2-D net: the coarse rungs cut its 1024^2 spectrum to
        # 256^2 and 512^2 nodes per axis pair
        g2 = GridSpec(2, 5.0, 256)
        lad = EpsilonLadder(0.25, 0.5, 6)
        net = constant_embed(lambda x, y: np.exp(-x ** 2 - y ** 2), lad, g2,
                             weight=seq, oversample=4)
        box = (-2.0, 2.0)
        assert _rung_oversamples(net, box) == [1, 1, 1, 2, 4, 4]
        _, sups = _derivative_sups(net, box, 1, "t")
        # sup |d/dx exp(-x^2 - y^2)| = sqrt(2/e), sampled at spacing <= 0.04
        np.testing.assert_allclose(sups[1:], np.sqrt(2 / np.e), rtol=1e-3)
        assert sups[1, 0] == sups[1, 2]


class TestExactness:
    def test_gaussian_fourth_derivative(self, deep, deep_ladder):
        # f_eps = exp(-x^2) * phi_eps: beyond the plateau |xi| <= 1/eps the
        # gaussian's spectrum is below 2e-7 of its peak, so sup |f_eps''''|
        # is |f''''(0)| = 12 within 1e-5.  Round-off amplified by xi^4 up
        # to the grid's Nyquist frequency adds the rest: 8e-4 at m_j = 8,
        # 0.024 at 16, 0.86 at 32 and 23 at 64, the grid every rung was
        # read on before (35.06 on each)
        net = deep("gaussian")
        assert net.oversample == 64
        alphas, sups = _derivative_sups(net, (-10.0, 10.0), 4, "t")
        assert alphas[4] == (4,)
        coarse = [j for j, m in enumerate(_rung_oversamples(
            net, (-10.0, 10.0))) if m <= net.oversample // 8]
        assert coarse == list(range(7))
        np.testing.assert_allclose(sups[4, coarse], 12.0, rtol=1e-3)

    @pytest.mark.parametrize("mode", ("beurling", "roumieu"))
    def test_delta_negligible_off_its_support(self, deep, seq, mode):
        # on (2, 10) the delta net is the mollifier's tail, which the last
        # rungs take below 1e-16 of the peak; transform round-off above the
        # machine floor there would read "moderate"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            verdict = classify_net(deep("delta"), (2.0, 10.0), mode, seq)
        assert verdict.classification == "negligible"

    def test_order_zero_reads_the_stored_frames(self, deep):
        # a window stores each rung as its samples on its reading grid
        net = window_net(deep("heaviside"), 0.0, 10.0)
        box = (-3.0, 5.0)
        _, sups = _derivative_sups(net, box, 2, "t")
        for j, g in enumerate(net.reading_grids):
            stored = _stored(net, j)
            assert stored.shape == g.shape
            x = g.axis()
            inside = (x >= box[0]) & (x <= box[1])
            assert sups[0, j] == np.max(np.abs(stored)[inside])
            assert net.sups[j] == np.max(np.abs(stored))


class TestCost:
    @pytest.fixture
    def inverse_sizes(self, transform_counts, monkeypatch):
        sizes = []
        counted = estimators.inverse

        def recorded(fhat, g, **kwargs):
            sizes.append((np.size(fhat), g.n))
            return counted(fhat, g, **kwargs)

        monkeypatch.setattr(estimators, "inverse", recorded)
        return sizes

    def test_one_forward_and_four_inverses_per_rung(self, deep,
                                                    transform_counts,
                                                    inverse_sizes):
        net = window_net(deep("delta"), 0.0, 10.0)
        classify_net(net, (-10.0, 10.0))
        rungs = net.ladder.count
        assert transform_counts == {"forward": rungs,
                                    "inverse": rungs * MODERATION_ALPHA_MAX}
        # finest rung first
        expected = []
        for m in (64, 32, 16, 8, 4, 2, 1, 1, 1, 1):
            n = net.grid.n * m
            expected += [(n // 2 + 1, n)] * MODERATION_ALPHA_MAX
        assert inverse_sizes == expected

    def test_peak_memory_below_the_fine_grid_path(self, deep):
        net = deep("delta")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            classify_net(net, (-10.0, 10.0))  # first-call allocations stay out
            tracemalloc.start()
            try:
                classify_net(net, (-10.0, 10.0))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= FINE_GRID_PEAK
