"""Net functions: algebra operations, derivatives, evaluation, and
classification of generalized numbers."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfalg.errors import GridMismatchError, SaturationError
from gfalg.estimators import KH_GRID, PATTERN_GRID, regularity_test
from gfalg.nets import (O_SLACK, WINDOW_NOISE_REL, EpsilonLadder,
                        GeneralizedNumber, GeneralizedPoint, NetFunction,
                        SequenceScale, UltradiffOperator, apply_ultradiff,
                        classify_generalized_number, classify_growth, combine,
                        constant_embed, point_value, scale,
                        spectral_derivative, window_net)
from gfalg.weights import WeightSequence, assoc, assoc_inverse, resolved_for
from gfalg.grids import GridSpec


@pytest.fixture(scope="module")
def small_rig():
    grid = GridSpec(1, 10.0, 1024)
    ladder = EpsilonLadder(2.0 ** -3, 0.5, 8)
    seq = WeightSequence.gevrey(2.0)
    return grid, ladder, seq


def embed_callable(f, rig):
    grid, ladder, seq = rig
    return constant_embed(f, ladder, grid, weight=seq)


class TestLadder:
    def test_values_geometric(self):
        lad = EpsilonLadder(0.125, 0.5, 8)
        assert np.allclose(lad.values, 0.125 * 0.5 ** np.arange(8))
        assert lad.eps_min == pytest.approx(2.0 ** -10)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            EpsilonLadder(0.125, 0.5, 4)

    def test_json_roundtrip(self):
        lad = EpsilonLadder(0.25, 0.5, 6)
        assert EpsilonLadder.from_json(lad.to_json()) == lad


class TestRingAxioms:
    """The frames form a commutative ring under pointwise operations."""

    def _three(self, rig):
        a = embed_callable(lambda x: np.sin(x), rig)
        b = embed_callable(lambda x: np.exp(-x ** 2), rig)
        c = embed_callable(lambda x: x / (1 + x ** 2), rig)
        return a, b, c

    def test_add_commutes(self, small_rig):
        a, b, _ = self._three(small_rig)
        lhs = combine(a, b, "add")
        rhs = combine(b, a, "add")
        assert all(np.array_equal(x, y)
                   for x, y in zip(lhs.frames, rhs.frames))

    def test_mul_commutes(self, small_rig):
        a, b, _ = self._three(small_rig)
        lhs = combine(a, b, "mul")
        rhs = combine(b, a, "mul")
        assert all(np.array_equal(x, y)
                   for x, y in zip(lhs.frames, rhs.frames))

    def test_mul_associative(self, small_rig):
        a, b, c = self._three(small_rig)
        lhs = combine(combine(a, b, "mul"), c, "mul")
        rhs = combine(a, combine(b, c, "mul"), "mul")
        assert all(np.allclose(x, y, atol=1e-15)
                   for x, y in zip(lhs.frames, rhs.frames))

    def test_distributive(self, small_rig):
        a, b, c = self._three(small_rig)
        lhs = combine(a, combine(b, c, "add"), "mul")
        rhs = combine(combine(a, b, "mul"), combine(a, c, "mul"), "add")
        assert all(np.allclose(x, y, atol=1e-14)
                   for x, y in zip(lhs.frames, rhs.frames))

    def test_sub_is_additive_inverse(self, small_rig):
        a, _, _ = self._three(small_rig)
        z = combine(a, a, "sub")
        assert all(np.all(fr == 0) for fr in z.frames)

    def test_scale_linear(self, small_rig):
        a, b, _ = self._three(small_rig)
        lhs = scale(combine(a, b, "add"), 2.5)
        rhs = combine(scale(a, 2.5), scale(b, 2.5), "add")
        assert all(np.allclose(x, y) for x, y in zip(lhs.frames, rhs.frames))

    @given(c=st.floats(min_value=-10, max_value=10, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_scale_matches_pointwise(self, small_rig, c):
        a = embed_callable(lambda x: np.cos(x), small_rig)
        s = scale(a, c)
        assert np.allclose(s.frames[0], c * a.frames[0])

    def test_mismatched_grids_rejected(self, small_rig):
        grid, ladder, seq = small_rig
        a = embed_callable(lambda x: x, small_rig)
        other = constant_embed(lambda x: x, ladder, GridSpec(1, 10.0, 512),
                               weight=seq)
        with pytest.raises(GridMismatchError):
            combine(a, other, "add")


class TestDerivatives:
    def test_gaussian_first_derivative(self, small_rig):
        grid, _, _ = small_rig
        a = embed_callable(lambda x: np.exp(-x ** 2), small_rig)
        d = spectral_derivative(a, 1)
        x = grid.axis()
        # D = -i d/dx, so D f = -i * (-2x e^{-x^2})
        oracle = -1j * (-2.0 * x) * np.exp(-x ** 2)
        assert np.max(np.abs(d.frames[0] - oracle)) < 1e-12

    def test_second_derivative_is_real_negative_laplacian(self, small_rig):
        grid, _, _ = small_rig
        a = embed_callable(lambda x: np.exp(-x ** 2), small_rig)
        d2 = spectral_derivative(a, 2)
        x = grid.axis()
        # D^2 = -d^2/dx^2
        oracle = -(4 * x ** 2 - 2) * np.exp(-x ** 2)
        assert np.max(np.abs(d2.frames[0] - oracle)) < 1e-11

    def test_derivative_linear(self, small_rig):
        a = embed_callable(lambda x: np.exp(-x ** 2), small_rig)
        b = embed_callable(lambda x: np.exp(-(x - 1) ** 2), small_rig)
        lhs = spectral_derivative(combine(a, b, "add"), 1)
        rhs = combine(spectral_derivative(a, 1), spectral_derivative(b, 1),
                      "add")
        assert all(np.allclose(x, y, atol=1e-12)
                   for x, y in zip(lhs.frames, rhs.frames))

    def test_leibniz_rule(self, small_rig):
        grid, _, _ = small_rig
        a = embed_callable(lambda x: np.exp(-x ** 2), small_rig)
        b = embed_callable(lambda x: np.exp(-0.5 * (x - 1) ** 2), small_rig)
        lhs = spectral_derivative(combine(a, b, "mul"), 1)
        rhs = combine(combine(spectral_derivative(a, 1), b, "mul"),
                      combine(a, spectral_derivative(b, 1), "mul"), "add")
        assert all(np.max(np.abs(x - y)) < 1e-10
                   for x, y in zip(lhs.frames, rhs.frames))


class TestUltradiffOperator:
    def test_coefficient_bound_enforced(self, small_rig):
        _, _, seq = small_rig
        with pytest.raises(ValueError):
            UltradiffOperator({(4,): 100.0}, seq, bound_c=1.0, bound_l=1.0)

    def test_admissible_coefficients_accepted(self, small_rig):
        _, _, seq = small_rig
        coeffs = {(k,): np.exp(-seq.log_m[k]) for k in range(5)}
        op = UltradiffOperator(coeffs, seq, bound_c=1.0, bound_l=1.0)
        assert op.n_max == 4

    def test_matches_manual_symbol_sum(self, small_rig):
        grid, _, seq = small_rig
        a = embed_callable(lambda x: np.exp(-x ** 2), small_rig)
        coeffs = {(0,): 1.0, (2,): np.exp(-seq.log_m[2])}
        op = UltradiffOperator(coeffs, seq, bound_c=1.0, bound_l=1.0)
        got = apply_ultradiff(op, a)
        manual = combine(a, scale(spectral_derivative(a, 2),
                                  np.exp(-seq.log_m[2])), "add")
        assert all(np.max(np.abs(x - y)) < 1e-11
                   for x, y in zip(got.frames, manual.frames))

    def test_symbol_1d_equals_term_by_term_sum(self, small_rig):
        grid, _, seq = small_rig
        coeffs = {(0,): 1.0, (1,): 0.3 - 0.1j, (2,): 0.05, (3,): 0.002j,
                  (4,): 1e-4}
        op = UltradiffOperator(coeffs, seq, bound_c=1.0, bound_l=1.0)
        xi = grid.dual_axis()
        expected = np.zeros(grid.n, dtype=complex)
        for (k,), val in coeffs.items():
            term = np.full(grid.n, val, dtype=complex)
            if k:
                # (-xi)^k by the rule of _symbols: products from ones
                power = np.ones_like(xi)
                for _ in range(k):
                    power = power * -xi
                term = term * power
            expected += term
        got = op.symbol(grid)
        assert got.tobytes() == expected.tobytes()

    def test_symbol_2d_within_rounding_of_the_monomial_sum(self, small_rig):
        _, _, seq = small_rig
        grid = GridSpec(2, 5.0, 1024)
        coeffs = {(0, 0): 1.0, (1, 0): 0.3 - 0.1j, (1, 1): 0.05,
                  (2, 1): 0.002j}
        op = UltradiffOperator(coeffs, seq, bound_c=1.0, bound_l=1.0)
        x1, x2 = grid.dual_points()
        # the coefficient first, then one factor per axis
        expected = np.zeros(grid.shape, dtype=complex)
        for (i, j), val in coeffs.items():
            term = np.full(grid.shape, val, dtype=complex)
            for k, xi in ((i, x1), (j, x2)):
                if k:
                    term = term * (-xi) ** k
            expected += term
        magnitude = sum(abs(val) * np.abs(x1) ** i * np.abs(x2) ** j
                        for (i, j), val in coeffs.items())
        u = np.finfo(float).eps
        assert np.all(np.abs(op.symbol(grid) - expected)
                      <= 4 * u * magnitude)

    def test_order_cap(self, small_rig):
        _, _, seq = small_rig
        deep = WeightSequence.gevrey(2.0, 256)
        with pytest.raises(ValueError):
            UltradiffOperator({(65,): 1e-300}, deep, bound_c=1.0,
                              bound_l=1.0)


class TestPointValues:
    def test_fixed_point_linear_interp(self, small_rig):
        grid, ladder, _ = small_rig
        a = embed_callable(lambda x: np.sin(x), small_rig)
        pts = np.full((ladder.count, 1), 0.7)
        vals = point_value(a, GeneralizedPoint(ladder, pts, (0.0, 1.0)))
        assert np.allclose(vals.values, np.sin(0.7), atol=1e-5)

    def test_moving_point(self, small_rig):
        grid, ladder, _ = small_rig
        a = embed_callable(lambda x: x ** 2, small_rig)
        pts = ladder.values.reshape(-1, 1)  # x_j = eps_j
        vals = point_value(a, GeneralizedPoint(ladder, pts, (0.0, 1.0)))
        assert np.allclose(vals.values, ladder.values ** 2, atol=1e-4)

    def test_one_interp_reads_real_and_complex_frames(self, catalog):
        # a complex frame reads within one ulp of its rung's sup of
        # interpolating its parts apart (the two round the slope apart), a
        # real frame bitwise, at nodes and the last node included.  With
        # D = -i d/dx, H + DH = H - i phi has two nonzero parts.
        real = window_net(catalog("heaviside"), 0.0, 10.0)
        cplx = combine(real, spectral_derivative(real, 1), "add")
        assert real.real
        assert all(np.any(fr.real) and np.any(fr.imag) for fr in cplx.frames)
        ladder = real.ladder
        axis = real.fine_grid.axis()
        rng = np.random.default_rng(24)
        point_sets = [rng.uniform(axis[0], axis[-1], ladder.count)
                      for _ in range(200)]
        point_sets += [axis[rng.integers(0, axis.size, ladder.count)],
                       np.full(ladder.count, axis[0]),
                       np.full(ladder.count, axis[-1])]
        for xs in point_sets:
            x = GeneralizedPoint(ladder, xs[:, None], (axis[0], axis[-1]))
            expect = [np.interp(p, axis, fr)
                      for p, fr in zip(xs, real.frames)]
            assert np.array_equal(point_value(real, x).values, expect)
            got = point_value(cplx, x).values
            for part in (np.real, np.imag):
                expect = [np.interp(p, axis, part(fr))
                          for p, fr in zip(xs, cplx.frames)]
                assert np.all(np.abs(part(got) - expect)
                              <= np.spacing(cplx.sups))

    def test_point_outside_box_rejected(self, small_rig):
        _, ladder, _ = small_rig
        with pytest.raises(ValueError):
            GeneralizedPoint(ladder, np.full((ladder.count, 1), 3.0),
                             (0.0, 1.0))

    def test_2d_bilinear_interpolation(self, small_rig):
        # bilinear interpolation reproduces a bilinear function exactly, up
        # to round-off, at any point of the grid, its last nodes included
        _, ladder, seq = small_rig
        grid = GridSpec(2, 5.0, 256)

        def f(x, y):
            return 1.5 - 0.5 * x + 2.0 * y + 0.25 * x * y

        a = constant_embed(f, ladder, grid, weight=seq)
        axis = grid.axis()
        rng = np.random.default_rng(5)
        pts = rng.uniform(axis[0], axis[-1], size=(ladder.count, 2))
        pts[0] = axis[-1]
        pts[1] = (axis[0], axis[-1])
        box = (axis[0], axis[-1])
        vals = point_value(a, GeneralizedPoint(ladder, pts, box))
        u = np.finfo(float).eps / 2
        tol = 32 * u * float(np.max(np.abs(a.frames[0])))
        np.testing.assert_allclose(vals.values, f(pts[:, 0], pts[:, 1]),
                                   rtol=0, atol=tol)
        # past the last node, though inside the declared box
        past = pts.copy()
        past[2, 1] = 0.5 * (axis[-1] + grid.half_width)
        with pytest.raises(ValueError, match="leaves the grid"):
            point_value(a, GeneralizedPoint(ladder, past,
                                            (axis[0], grid.half_width)))


class TestNumberClassification:
    def _number(self, ladder, fn):
        return GeneralizedNumber(ladder, np.array(
            [fn(e) for e in ladder.values], dtype=complex))

    def test_bounded_is_moderate_not_negligible(self, small_rig):
        _, ladder, seq = small_rig
        v = classify_generalized_number(self._number(ladder, lambda e: 3.0),
                                        seq)
        assert v.classification == "moderate"

    def test_scale_growth_moderate(self, small_rig):
        _, ladder, seq = small_rig
        grow = lambda e: np.exp(assoc(seq, 1.0 / e, on_saturation="clip"))
        v = classify_generalized_number(self._number(ladder, grow), seq)
        assert v.moderate and not v.negligible
        assert v.fitted["k_at_h=1"] == pytest.approx(1.0, rel=0.2)

    def test_scale_decay_negligible_roumieu_only(self, small_rig):
        # exp(-M(1/eps)) sits exactly on the k=1 decay scale: enough for
        # the some-k (Roumieu) test, not for the every-k (Beurling) one
        _, ladder, seq = small_rig
        dec = lambda e: np.exp(-assoc(seq, 1.0 / e, on_saturation="clip"))
        v = classify_generalized_number(self._number(ladder, dec), seq,
                                        "roumieu")
        assert v.negligible
        v = classify_generalized_number(self._number(ladder, dec), seq,
                                        "beurling")
        assert v.moderate and not v.negligible

    def test_exponential_decay_negligible_both_modes(self, small_rig):
        # exp(-1/eps) falls below exp(-M(k/eps)) for every k (gevrey scales
        # grow like sqrt(k/eps) in the exponent)
        _, ladder, seq = small_rig
        dec = lambda e: np.exp(-1.0 / e)
        for mode in ("beurling", "roumieu"):
            v = classify_generalized_number(self._number(ladder, dec), seq,
                                            mode)
            assert v.negligible

    def test_power_decay_not_negligible(self, small_rig):
        # 1/eps^2 decay is too slow for sequence-scale negligibility
        _, ladder, seq = small_rig
        v = classify_generalized_number(self._number(ladder, lambda e: e**2),
                                        seq, "beurling")
        assert v.moderate and not v.negligible

    def test_fast_stretched_growth_neither(self, small_rig):
        _, ladder, seq = small_rig
        wild = lambda e: np.exp((1.0 / e) ** 0.75)
        v = classify_generalized_number(self._number(ladder, wild), seq)
        assert not v.negligible and not v.moderate

    @pytest.mark.parametrize("mode", ("beurling", "roumieu"))
    def test_undecidable_growth_reads_inconclusive(self, ladder, seq, mode):
        # |z_j| = e^{M(k_j/eps_j)} with k_j jumping between 0 and 1 or 8:
        # neither bounded by one scale nor clearly growing
        ks = (0, 1, 0, 1, 0, 8, 0, 8)
        z = GeneralizedNumber(ladder, np.exp(np.array(
            [assoc(seq, k / e, on_saturation="clip")
             for k, e in zip(ks, ladder.values)])))
        growth = classify_growth(SequenceScale(seq, ladder),
                                 {1.0: np.log(np.abs(z.values))},
                                 np.abs(z.values), 1.0, mode)
        assert growth.classification == "inconclusive"
        v = classify_generalized_number(z, seq, mode)
        assert v.classification == "inconclusive"
        assert not v.moderate and not v.negligible

    def test_roumieu_negligible_needs_falling_sups(self, seq):
        # a fixed nonzero value has nu ~ eps: min nu = 0.0721 >= 0.05 on
        # six rungs, but the sups do not fall, so it is not negligible (the
        # order-0 sup of gaussian_times_sine on (2, 10) at depth 6)
        z = GeneralizedNumber(EpsilonLadder(2.0 ** -3, 0.5, 6),
                              np.full(6, 0.004976))
        v = classify_generalized_number(z, seq, "roumieu")
        assert v.fitted["k_negligible"] == pytest.approx(0.0721, abs=1e-4)
        assert v.classification == "moderate"
        assert classify_generalized_number(
            z, seq, "beurling").classification == "moderate"

    def test_zero_is_negligible(self, small_rig):
        _, ladder, seq = small_rig
        v = classify_generalized_number(self._number(ladder, lambda e: 0.0),
                                        seq)
        assert v.negligible

    def test_beyond_table_deepens_once(self, small_rig, monkeypatch):
        # log|z| = 600 lies past a 64-entry Gevrey-2 table: its inverse
        # there is an upper bound, and one deeper table makes it exact
        _, ladder, _ = small_rig
        shallow = WeightSequence.gevrey(2.0, 64)
        exact = assoc_inverse(resolved_for(shallow, 1e8), 600.0)
        z = GeneralizedNumber(ladder, np.full(ladder.count, np.exp(600.0)))
        built = []
        gevrey = WeightSequence.gevrey

        def counted(s, p_max=256):
            built.append(p_max)
            return gevrey(s, p_max)

        monkeypatch.setattr(WeightSequence, "gevrey", staticmethod(counted))
        v = classify_generalized_number(z, shallow)
        assert len(built) == 1
        assert v.classification == "moderate"
        assert np.allclose(v.kappa[1.0], ladder.values * exact, rtol=1e-12)
        with pytest.raises(SaturationError):
            classify_generalized_number(
                z, WeightSequence.custom(shallow.log_m))

    def test_nonfinite_rejected(self, small_rig):
        _, ladder, _ = small_rig
        with pytest.raises(ValueError):
            GeneralizedNumber(ladder, np.array(
                [np.inf] * ladder.count, dtype=complex))


class _RateScale:
    """A scale whose rate kappa is the log statistic itself, so a test sets
    kappa exactly; its Roumieu moderation is the weight sequence's
    (kappa -> 0)."""

    grade = "h"
    mode_prefix = ""
    roumieu_moderate = staticmethod(SequenceScale.roumieu_moderate)

    def kappa(self, log_abs):
        return np.asarray(log_abs, dtype=float)

    def nu(self, log_abs):
        return -np.asarray(log_abs, dtype=float)


class TestOneBoundedRule:
    """Moderation and "clearly growing" read the O(1) rule of the
    regularity test on an 8-rung kappa trace: a rise of more than O_SLACK
    is unbounded, and clear growth is the second half's least kappa more
    than O_SLACK above the first half's largest."""

    def _classify(self, trace, mode):
        # unit sups: nu = 0 on every rung, so nothing is negligible
        return classify_growth(_RateScale(), {1.0: np.array(trace)},
                               np.ones(len(trace)), 1.0, mode).classification

    @pytest.mark.parametrize("tail,expected", (
        # 3.6 <= 1.5 * 2.5 read "moderate" under a relative rule
        (3.6, "neither"),
        (2.5 + O_SLACK, "moderate")))
    def test_beurling(self, tail, expected):
        assert self._classify([2.5] * 4 + [tail] * 4, "beurling") == expected

    @pytest.mark.parametrize("tail,expected", (
        # 11.5 < 1.2 * 10 read "inconclusive" under a relative rule
        (11.5, "neither"),
        (10.0 + O_SLACK, "inconclusive")))
    def test_roumieu(self, tail, expected):
        assert self._classify([10.0] * 4 + [tail] * 4, "roumieu") == expected


class TestWindowing:
    def test_window_preserves_core_and_kills_edge(self, small_rig):
        grid, _, _ = small_rig
        a = embed_callable(lambda x: np.ones_like(x), small_rig)
        w = window_net(a, 0.0, 5.0)
        x = grid.axis()
        assert np.all(w.frames[0][np.abs(x) <= 2.5] == 1.0)
        assert np.all(w.frames[0][np.abs(x) >= 5.0] == 0.0)

    def test_noise_only_product_is_zeroed(self, small_rig):
        # each frame is 1 at x = 8, beyond the window, and a on |x| <= 1,
        # where the window is exactly 1: the product's sup is a against
        # the frame's sup 1, zeroed at or below WINDOW_NOISE_REL
        grid, ladder, seq = small_rig
        x = grid.axis()
        above = np.nextafter(WINDOW_NOISE_REL, 1.0)
        levels = (0.5 * WINDOW_NOISE_REL, WINDOW_NOISE_REL, above,
                  2.0 * WINDOW_NOISE_REL, 1e-3, 1.0, WINDOW_NOISE_REL, above)
        frames = []
        for a in levels:
            fr = np.where(np.abs(x) <= 1.0, a, 0.0)
            fr[grid.index_of(8.0)] = 1.0
            frames.append(fr)
        net = NetFunction(ladder=ladder, grid=grid, frames=tuple(frames),
                          weight=seq)
        plateau = np.abs(x) <= 1.0
        for a, fr, lf in zip(levels, frames,
                             window_net(net, 0.0, 2.0).frames):
            if a <= WINDOW_NOISE_REL:
                assert not lf.any()
            else:
                assert np.max(np.abs(lf)) == a
                assert np.array_equal(lf[plateau], fr[plateau])


class TestSequenceScaleReads:
    """``growth`` and ``penalties`` read M on one table each, resolved for
    the largest argument they read.  Gevrey tables share their prefix, so
    on the reference rig the reads are bitwise M on the tables resolved for
    KH_max / eps_min and for the Nyquist corner over the least h."""

    @pytest.mark.parametrize("p_max", (64, 256))
    def test_growth_bitwise_on_the_kh_max_table(self, ladder, p_max):
        seq = WeightSequence.gevrey(2.0, p_max)
        table = resolved_for(seq, float(KH_GRID.max()) / ladder.eps_min)
        assert (table is not seq) == (p_max == 64)  # 16 / eps_min = 16384
        got = SequenceScale(seq, ladder).growth(PATTERN_GRID)
        assert list(got) == [float(k) for k in PATTERN_GRID]
        for k in PATTERN_GRID:
            np.testing.assert_array_equal(got[float(k)],
                                          assoc(table, k / ladder.values))

    @pytest.mark.parametrize("p_max", (64, 256))
    def test_penalties_bitwise_on_the_nyquist_table(self, catalog, ladder,
                                                    p_max):
        seq = WeightSequence.gevrey(2.0, p_max)
        fine = catalog("delta").fine_grid
        radii = np.abs(fine.dual_axis()[: fine.n // 2 + 1])
        table = resolved_for(seq, float(radii.max())
                             / float(PATTERN_GRID.min()))
        assert table is not seq
        scale = SequenceScale(seq, ladder)
        # every radius of the half axis, and the radii up to 100 alone,
        # which resolve on a shallower table
        for read in (radii, radii[radii <= 100.0]):
            got = scale.penalties(read, PATTERN_GRID)
            assert len(got) == len(PATTERN_GRID)
            for h, pen in zip(PATTERN_GRID, got):
                np.testing.assert_array_equal(pen, assoc(table, read / h))

    def test_custom_table_raises_exactly_past_saturation(self, ladder):
        custom = WeightSequence.custom(WeightSequence.gevrey(2.0, 64).log_m)
        scale = SequenceScale(custom, ladder)
        # the largest radius M(|xi|/h) resolves at the least h
        edge = custom.t_saturation * float(PATTERN_GRID.min())
        scale.penalties(np.array([0.0, 1.0, 0.999 * edge]), PATTERN_GRID)
        with pytest.raises(SaturationError):
            scale.penalties(np.array([0.0, 1.0, 1.001 * edge]),
                            PATTERN_GRID)
        # no radius read, nothing to resolve
        assert all(p.size == 0 for p in scale.penalties(np.zeros(0),
                                                        PATTERN_GRID))

    def test_regularity_reads_a_custom_table_up_to_its_radii(self, catalog,
                                                              seq):
        # 200 Gevrey-2 entries saturate at t = 40000: past 16 / eps_min and
        # the gaussian's largest kept radius over h = 1/32 (about 271), short
        # of the fine grid's Nyquist corner over 1/32 (about 1.6e5), and of
        # the delta's largest kept radius over 1/32 (about 6.3e4)
        custom = WeightSequence.custom(WeightSequence.gevrey(2.0, 200).log_m)
        for mode in ("beurling", "roumieu"):
            net = window_net(catalog("gaussian"), 0.0, 10.0)
            got = regularity_test(replace(net, weight=custom), mode)
            want = regularity_test(net, mode)
            assert net.weight is seq
            assert (got.verdict, got.witness) == (want.verdict, want.witness)
            assert got.verdict == "regular"
        with pytest.raises(SaturationError):
            regularity_test(replace(window_net(catalog("delta"), 0.0, 10.0),
                                    weight=custom), "beurling")
