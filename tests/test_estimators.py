"""Growth estimators: seminorm ladders, moderation/negligibility verdicts,
derivative interpolation inequality, and uniform regularity."""

from dataclasses import replace

import numpy as np
import pytest

from gfalg.estimators import (KH_GRID, MODERATION_ALPHA_MAX,
                              MODERATION_H_GRID, PATTERN_GRID,
                              _pattern_search, classify_net,
                              landau_kolmogorov_check, regularity_test,
                              seminorm_ladder)
from gfalg.microlocal import sigma_g, wavefront
from gfalg.nets import (O_SLACK, NetFunction, SequenceScale,
                        _bounded_residual, classify_growth, combine,
                        window_net)
from gfalg.weights import WeightFunction, WeightSequence


class TestSeminormLadder:
    def test_zero_order_is_boxed_sup(self, catalog):
        net = catalog("gaussian")
        sl = seminorm_ladder(net, (-5.0, 5.0), 1.0, 0)
        for j, fr in enumerate(net.frames):
            x = np.abs(net.fine_grid.axis())
            assert sl.values[j] == pytest.approx(
                float(np.max(np.abs(fr[x <= 5.0]))))

    def test_delta_sups_grow_along_ladder(self, catalog):
        sl = seminorm_ladder(catalog("delta"), (-5.0, 5.0), 1.0, 0)
        assert np.all(np.diff(sl.values) > 0)

    def test_larger_h_never_increases_value(self, catalog):
        net = catalog("gaussian")
        lo = seminorm_ladder(net, (-5.0, 5.0), 0.5, 3)
        hi = seminorm_ladder(net, (-5.0, 5.0), 2.0, 3)
        assert np.all(hi.values <= lo.values + 1e-12)

    def test_alpha_cap(self, catalog):
        with pytest.raises(ValueError):
            seminorm_ladder(catalog("gaussian"), (-5.0, 5.0), 1.0, 17)

    def test_weight_required(self, catalog, ladder, grid):
        net = catalog("gaussian")
        bare = NetFunction(ladder=ladder, grid=grid,
                           frames=net.frames, oversample=net.oversample)
        with pytest.raises(ValueError):
            seminorm_ladder(bare, (-5.0, 5.0), 1.0, 2)


class TestClassification:
    def test_gaussian_moderate_both_modes(self, catalog):
        net = catalog("gaussian")
        for mode in ("beurling", "roumieu"):
            v = classify_net(net, (-5.0, 5.0), mode=mode)
            assert v.moderate and not v.negligible

    def test_delta_moderate_both_modes(self, catalog):
        net = catalog("delta")
        for mode in ("beurling", "roumieu"):
            with pytest.warns(RuntimeWarning, match="boundary mass"):
                v = classify_net(net, (-5.0, 5.0), mode=mode)
            assert v.classification == "moderate"

    def test_delta_tail_negligible_roumieu(self, catalog):
        # away from the singular support the frames fall below every
        # exp(-M(k/eps)) threshold the some-k test demands
        with pytest.warns(RuntimeWarning, match="boundary mass"):
            v = classify_net(catalog("delta"), (2.0, 10.0), mode="roumieu")
        assert v.negligible

    def test_difference_with_self_negligible(self, catalog):
        net = catalog("gaussian")
        z = combine(net, net, "sub")
        for mode in ("beurling", "roumieu"):
            assert classify_net(z, (-5.0, 5.0), mode=mode).negligible

    def test_wild_growth_is_neither(self, catalog, ladder, grid, seq):
        base = catalog("gaussian")
        blow = np.exp((1.0 / ladder.values) ** 0.75)
        frames = tuple(c * fr for c, fr in zip(blow, base.frames))
        wild = NetFunction(ladder=ladder, grid=grid, frames=frames,
                           weight=seq, oversample=base.oversample)
        v = classify_net(wild, (-5.0, 5.0), mode="beurling")
        assert not v.moderate and not v.negligible

    def test_missing_weight_rejected(self, catalog, ladder, grid):
        net = catalog("gaussian")
        bare = NetFunction(ladder=ladder, grid=grid, frames=net.frames,
                           oversample=net.oversample)
        with pytest.raises(ValueError):
            classify_net(bare, (-5.0, 5.0), mode="beurling")

    def test_verdict_json_serializes(self, catalog):
        import json
        v = classify_net(catalog("gaussian"), (-5.0, 5.0))
        json.dumps(v.to_json())


class TestOneDerivativeTable:
    """classify_net reads every h from one table of derivative sups."""

    def test_each_frame_transformed_once(self, catalog, transform_counts):
        net = window_net(catalog("delta"), 0.0, 10.0)
        classify_net(net, (-10.0, 10.0))
        # 1-D: one forward per frame, one inverse per order 1..alpha_max
        rungs = net.ladder.count
        assert transform_counts == {"forward": rungs,
                                    "inverse": rungs * MODERATION_ALPHA_MAX}

    def test_zero_order_ladder_transforms_nothing(self, catalog,
                                                  transform_counts):
        seminorm_ladder(catalog("delta"), (-5.0, 5.0), 1.0, 0)
        assert transform_counts == {"forward": 0, "inverse": 0}

    @pytest.mark.parametrize("kind,box", [("delta", (-10.0, 10.0)),
                                          ("heaviside", (-5.0, 5.0)),
                                          ("delta", (2.0, 10.0))])
    @pytest.mark.parametrize("mode", ("beurling", "roumieu"))
    def test_matches_per_h_seminorm_ladders(self, catalog, seq, kind, box,
                                            mode):
        net = window_net(catalog(kind), 0.0, 10.0)
        with np.errstate(divide="ignore"):
            logs = {h: np.log(seminorm_ladder(
                        net, box, h, MODERATION_ALPHA_MAX).values)
                    for h in MODERATION_H_GRID}
        sups = seminorm_ladder(net, box, 1.0, 0).values
        top = max(float(np.max(np.abs(fr))) for fr in net.frames)
        expected = classify_growth(SequenceScale(seq, net.ladder), logs, sups,
                                   top, mode)
        got = classify_net(net, box, mode=mode, seq=seq)
        assert got.classification == expected.classification
        assert got.fitted == expected.fitted
        for h in MODERATION_H_GRID:
            np.testing.assert_array_equal(got.kappa[h], expected.kappa[h])
        np.testing.assert_array_equal(got.nu, expected.nu)

    def test_unwindowed_delta_warns_of_boundary_mass(self, catalog):
        with pytest.warns(RuntimeWarning, match="boundary mass"):
            classify_net(catalog("delta"), (-5.0, 5.0))

    def test_seminorm_ladder_warns_of_boundary_mass(self, catalog):
        with pytest.warns(RuntimeWarning, match="seminorm_ladder"):
            seminorm_ladder(catalog("delta"), (-5.0, 5.0), 1.0, 2)


class TestDerivativeInterpolation:
    def test_gaussian_first_against_second(self, grid):
        x = grid.axis()
        rep = landau_kolmogorov_check(np.exp(-x ** 2), grid, 1, 2)
        # closed forms: sup|f'| = sqrt(2/e), sup|f| = 1, sup|f''| = 2
        # (the grid straddles the continuum maximizer x = 1/sqrt(2))
        assert rep.lhs == pytest.approx(np.sqrt(2.0 / np.e), abs=1e-4)
        assert rep.rhs == pytest.approx(2.0 * np.pi * np.sqrt(2.0),
                                        abs=1e-6)
        assert rep.holds and rep.ratio < 1.0

    def test_oscillatory_function_holds(self, grid):
        x = grid.axis()
        rep = landau_kolmogorov_check(np.exp(-x ** 2) * np.sin(5.0 * x),
                                      grid, 2, 4)
        assert rep.holds

    def test_invalid_orders_rejected(self, grid):
        x = grid.axis()
        with pytest.raises(ValueError):
            landau_kolmogorov_check(np.exp(-x ** 2), grid, 2, 2)
        with pytest.raises(ValueError):
            landau_kolmogorov_check(np.exp(-x ** 2), grid, 1, 9)


class TestRegularity:
    SMOOTH = ("gaussian",)
    SINGULAR = ("delta", "delta_prime", "heaviside", "pv_inverse")

    def test_smooth_kinds_regular(self, catalog):
        assert regularity_test(catalog("gaussian"),
                               mode="beurling").regular
        assert regularity_test(
            catalog("gaussian_times_sine", freq=3.0),
            mode="beurling").regular

    @pytest.mark.parametrize("kind", SINGULAR)
    def test_singular_kinds_not_regular(self, catalog, kind):
        net = window_net(catalog(kind), 0.0, 10.0)
        v = regularity_test(net, mode="beurling")
        assert v.verdict == "not_regular"

    def test_roumieu_smooth_regular(self, catalog):
        assert regularity_test(catalog("gaussian"), mode="roumieu").regular

    def test_roumieu_delta_not_regular(self, catalog):
        net = window_net(catalog("delta"), 0.0, 10.0)
        assert regularity_test(net, mode="roumieu").verdict == "not_regular"

    def test_bad_mode_rejected(self, catalog):
        with pytest.raises(ValueError):
            regularity_test(catalog("gaussian"), mode="borel")

    @pytest.mark.parametrize("weight", (None, WeightFunction.power(0.5)))
    def test_decay_tests_need_the_nets_weight_sequence(self, catalog,
                                                        weight):
        # the decay scale is the net's own weight: a net without a weight
        # sequence is refused by every reader of the decay path
        net = replace(window_net(catalog("gaussian"), 0.0, 10.0),
                      weight=weight)
        for run in (lambda: regularity_test(net),
                    lambda: sigma_g(net),
                    lambda: wavefront(net, (0.0,), 0.5)):
            with pytest.raises(ValueError,
                               match="a weight sequence is required"):
                run()

    @pytest.mark.parametrize("mode", ("beurling", "roumieu"))
    def test_zero_net_regular(self, catalog, mode):
        # no spectral node carries data, so no radius is read and there is
        # nothing to bound
        net = combine(catalog("gaussian"), catalog("gaussian"), "sub")
        v = regularity_test(net, mode=mode)
        assert v.verdict == "regular"


class TestPatternSearchWitness:
    """The witness is searched from the tight end of KH_GRID: the least k
    (Beurling) or h (Roumieu) that passes, with its residual table."""

    def test_beurling_witness_is_the_least_k(self, ladder, seq):
        growth = SequenceScale(seq, ladder).growth(PATTERN_GRID)
        sups = {float(h): growth[1.0] for h in PATTERN_GRID}
        verdict, witness, table = _pattern_search(sups, growth, "beurling")
        assert (verdict, witness) == ("regular", {"k": 1.0})
        assert list(table) == [f"h={h:g},k=1" for h in PATTERN_GRID]
        for r in table.values():
            np.testing.assert_array_equal(r, 0.0)

    def test_roumieu_witness_is_the_least_h(self, ladder, seq):
        growth = SequenceScale(seq, ladder).growth(PATTERN_GRID)
        m1 = growth[1.0]
        sups = {float(h): m1 if h < 1 else -m1 for h in PATTERN_GRID}
        verdict, witness, table = _pattern_search(sups, growth, "roumieu")
        assert (verdict, witness) == ("regular", {"h": 1.0})
        assert list(table) == [f"h=1,k={k:g}" for k in PATTERN_GRID]
        for k in PATTERN_GRID:
            np.testing.assert_array_equal(table[f"h=1,k={k:g}"],
                                          -m1 - growth[float(k)])

    def test_fail_reports_the_loose_end(self, ladder, seq):
        scale = SequenceScale(seq, ladder)
        growth = scale.growth(PATTERN_GRID)
        # M(32/eps) outgrows M(k/eps) for every k of the grid
        beyond = scale.growth([32.0])[32.0]
        sups = {float(h): beyond for h in PATTERN_GRID}
        verdict, witness, table = _pattern_search(sups, growth, "beurling")
        top = float(KH_GRID.max())
        assert (verdict, witness) == ("not_regular", {"k_tried_max": top})
        assert list(table) == [f"h={h:g},k={top:g}" for h in PATTERN_GRID]

    def test_regular_catalog_witness_is_tight(self, catalog):
        # the gaussian passes at the grid's tightest end in both modes
        net = window_net(catalog("gaussian"), 0.0, 10.0)
        for mode, grade in (("beurling", "k"), ("roumieu", "h")):
            v = regularity_test(net, mode=mode)
            assert v.witness == {grade: float(KH_GRID.min())}
            assert len(v.residual_table) == len(PATTERN_GRID)


class TestBoundedResidual:
    """The one O(1) rule on log-residuals, shared by the regularity and cone
    tests and the Colombeau cross-check."""

    @pytest.mark.parametrize("r", [[], [-np.inf, -np.inf], [np.nan, np.inf]])
    def test_no_finite_entry_is_bounded(self, r):
        assert _bounded_residual(np.array(r, dtype=float))

    def test_rise_of_exactly_the_slack_is_bounded(self):
        assert _bounded_residual(np.array([2.5, 3.0, 2.5 + O_SLACK]))

    def test_any_rise_above_the_slack_is_not(self):
        above = np.nextafter(2.5 + O_SLACK, np.inf)
        assert not _bounded_residual(np.array([2.5, 3.0, above]))

    def test_dip_then_grow_tail_is_not_bounded(self):
        # never above the head, but the tail climbs back from its dip
        assert not _bounded_residual(np.array([0.0, -5.0, -4.5, -3.9]))

    def test_head_is_the_first_finite_entry(self):
        assert _bounded_residual(np.array([-np.inf, 0.0, 0.5, O_SLACK]))
        assert not _bounded_residual(np.array([-np.inf, 0.0, 0.5, 1.5]))
