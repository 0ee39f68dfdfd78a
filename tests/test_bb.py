"""Weight-function mode: weighted Fourier--Lebesgue norms, the norm
sandwich, growth classification at exp(k*omega(1/eps)) scales, and the
polynomial cross-check for omega = log(1+t)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfalg.bb import (LAMBDA_GRID, classify_net_bb, colombeau_crosscheck,
                      fl_norm, norm_equivalence_check, omega_norm_ladder)
from gfalg.nets import (FunctionScale, _stored, classify_growth, combine,
                        constant_embed, scale, window_net)
from gfalg.weights import WeightFunction

W_LOG = WeightFunction.log_one_plus_t()
W_SQRT = WeightFunction.power(0.5)


class TestFlNorm:
    def test_gaussian_weighted_sup_oracle(self, grid):
        # continuum value: sup_xi sqrt(pi) e^{-xi^2/4} (1+xi)
        # = sqrt(pi) * 2 e^{-1/4} at xi = 1; the dual grid (spacing
        # pi/20) straddles the maximizer
        x = grid.axis()
        got = fl_norm(np.exp(-x ** 2), grid, W_LOG, 1.0, variant="inf")
        oracle = np.sqrt(np.pi) * 2.0 * np.exp(-0.25)
        assert got == pytest.approx(oracle, rel=5e-3)

    def test_small_lambda_limit_is_plain_l1_of_transform(self, grid):
        # lam -> 0: integral of |fhat| = 2*pi*|f(0)| for the gaussian
        x = grid.axis()
        got = fl_norm(np.exp(-x ** 2), grid, W_LOG, 1e-9, variant="1")
        assert got == pytest.approx(2.0 * np.pi, rel=1e-6)

    def test_zero_function_has_zero_norm(self, grid):
        assert fl_norm(np.zeros(grid.n), grid, W_LOG, 1.0) == 0.0

    def test_variants_ordered_for_probability_like_mass(self, grid):
        x = grid.axis()
        f = np.exp(-x ** 2)
        n_inf = fl_norm(f, grid, W_LOG, 1.0, variant="inf")
        n_two = fl_norm(f, grid, W_LOG, 1.0, variant="2")
        n_one = fl_norm(f, grid, W_LOG, 1.0, variant="1")
        assert n_two ** 2 <= n_inf * n_one * (1 + 1e-9)

    @given(lam=st.floats(min_value=0.1, max_value=4.0))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_lambda(self, grid, lam):
        x = grid.axis()
        f = np.exp(-x ** 2)
        assert fl_norm(f, grid, W_LOG, lam) <= fl_norm(
            f, grid, W_LOG, lam + 0.5) + 1e-9

    def test_strong_weight_does_not_overflow(self, grid):
        x = grid.axis()
        got = fl_norm(np.exp(-x ** 2), grid, W_SQRT, 4.0, variant="1")
        assert np.isfinite(got) and got > 0

    def test_edge_mass_rejected(self, grid):
        with pytest.raises(ValueError):
            fl_norm(np.ones(grid.n), grid, W_LOG, 1.0)

    def test_bad_lambda_and_variant_rejected(self, grid):
        x = grid.axis()
        f = np.exp(-x ** 2)
        with pytest.raises(ValueError):
            fl_norm(f, grid, W_LOG, 0.0)
        with pytest.raises(ValueError):
            fl_norm(f, grid, W_LOG, 1.0, variant="3")


class TestNormSandwich:
    def test_gaussian_sandwich_holds(self, grid):
        x = grid.axis()
        rep = norm_equivalence_check(np.exp(-x ** 2), grid, W_LOG, 1.0)
        assert rep.lower_holds and rep.upper_holds
        assert rep.lam_shift == pytest.approx(2.0)  # (d+1)/b with b = 1

    def test_oscillatory_sandwich_holds(self, grid):
        x = grid.axis()
        f = np.exp(-x ** 2) * np.cos(7.0 * x)
        rep = norm_equivalence_check(f, grid, W_LOG, 0.5)
        assert rep.lower_holds and rep.upper_holds

    def test_zero_function_trivially_holds(self, grid):
        rep = norm_equivalence_check(np.zeros(grid.n), grid, W_LOG, 1.0)
        assert rep.lower_holds and rep.upper_holds

    def test_json(self, grid):
        import json
        x = grid.axis()
        rep = norm_equivalence_check(np.exp(-x ** 2), grid, W_LOG, 1.0)
        json.dumps(rep.to_json())


class TestLadder:
    def test_delta_norms_grow(self, catalog):
        net = window_net(catalog("delta"), 0.0, 10.0)
        lad = omega_norm_ladder(net, W_LOG, 1.0)
        assert lad.log_values[-1] > lad.log_values[0]

    def test_gaussian_norms_stable(self, catalog):
        net = window_net(catalog("gaussian"), 0.0, 10.0)
        lad = omega_norm_ladder(net, W_LOG, 1.0)
        assert np.max(lad.log_values) - np.min(lad.log_values) < 0.5


class TestClassifyBB:
    def test_delta_moderate_both_modes(self, catalog):
        net = window_net(catalog("delta"), 0.0, 10.0)
        for mode in ("beurling", "roumieu"):
            v = classify_net_bb(net, W_LOG, mode)
            assert v.classification == "moderate"

    def test_delta_decay_rate_unclipped(self, catalog):
        # growing sups read as a negative decay rate, not a clipped zero
        v = classify_net_bb(window_net(catalog("delta"), 0.0, 10.0), W_LOG)
        assert np.all(v.nu < 0)

    def test_gaussian_moderate(self, catalog):
        net = window_net(catalog("gaussian"), 0.0, 10.0)
        v = classify_net_bb(net, W_LOG, "beurling")
        assert v.moderate and not v.negligible

    def test_difference_with_self_negligible(self, catalog):
        net = window_net(catalog("gaussian"), 0.0, 10.0)
        z = combine(net, net, "sub")
        for w in (W_LOG, W_SQRT):
            for mode in ("beurling", "roumieu"):
                assert classify_net_bb(z, w, mode).negligible

    def test_constant_net_order_zero(self, catalog, ladder, grid, seq):
        net = window_net(
            constant_embed(lambda x: np.exp(-x ** 2), ladder, grid,
                           weight=seq), 0.0, 10.0)
        v = classify_net_bb(net, W_LOG, "beurling")
        assert v.moderate
        # eps-independent frames: zero decay exponent, and the graded
        # growth statistic shrinks toward 0 along the ladder
        assert v.fitted["k_negligible"] == pytest.approx(0.0, abs=0.05)
        trace = np.asarray(v.kappa[0.25])
        assert trace[-1] < trace[0]

    def test_bad_mode_rejected(self, catalog):
        with pytest.raises(ValueError):
            classify_net_bb(window_net(catalog("gaussian"), 0.0, 10.0),
                            W_LOG, "borel")


class TestCrosscheck:
    def test_delta_order_one(self, catalog):
        rep = colombeau_crosscheck(window_net(catalog("delta"), 0.0, 10.0))
        assert rep.poly_moderate and not rep.poly_negligible
        assert rep.fitted_order == pytest.approx(1.0, abs=0.2)
        assert rep.agree

    def test_catalog_agreement(self, catalog):
        for kind in ("delta", "delta_prime", "heaviside", "pv_inverse",
                     "gaussian"):
            rep = colombeau_crosscheck(window_net(catalog(kind), 0.0, 10.0))
            assert rep.agree, kind
            assert rep.poly_moderate

    def test_zero_net_negligible(self, catalog):
        net = window_net(catalog("gaussian"), 0.0, 10.0)
        z = combine(net, net, "sub")
        rep = colombeau_crosscheck(z)
        assert rep.poly_negligible and rep.agree

    def test_scaling_homomorphism(self, catalog):
        # norms of c*f scale by |c|; the verdict is scale-invariant
        net = window_net(catalog("delta"), 0.0, 10.0)
        rep1 = colombeau_crosscheck(net)
        rep2 = colombeau_crosscheck(scale(net, 100.0))
        assert rep1.poly_moderate == rep2.poly_moderate
        assert rep1.fitted_order == pytest.approx(rep2.fitted_order,
                                                  abs=0.05)


class TestOneSpectrumPerFrame:
    """classify_net_bb reads every lambda from one spectrum per frame."""

    @pytest.fixture
    def forward_calls(self, monkeypatch):
        # samples are transformed in bb, net frames by the reader in nets
        from gfalg import bb, nets
        calls = []
        real = bb.forward

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(bb, "forward", counted)
        monkeypatch.setattr(nets, "forward", counted)
        return calls

    def test_classify_transforms_each_frame_once(self, catalog,
                                                 forward_calls):
        net = window_net(catalog("delta"), 0.0, 10.0)
        classify_net_bb(net, W_LOG, "beurling")
        assert len(forward_calls) == net.ladder.count

    def test_norm_sandwich_transforms_once(self, grid, forward_calls):
        x = grid.axis()
        norm_equivalence_check(np.exp(-x ** 2), grid, W_LOG, 1.0)
        assert len(forward_calls) == 1

    @pytest.mark.parametrize("kind", ("delta", "heaviside", "gaussian"))
    @pytest.mark.parametrize("mode", ("beurling", "roumieu"))
    def test_matches_per_lambda_ladders(self, catalog, kind, mode):
        net = window_net(catalog(kind), 0.0, 10.0)
        logs = {lam: omega_norm_ladder(net, W_SQRT, lam).log_values
                for lam in LAMBDA_GRID}
        sups = np.array([float(np.max(np.abs(_stored(net, j))))
                         for j in range(net.ladder.count)])
        expected = classify_growth(FunctionScale(W_SQRT, net.ladder), logs,
                                   sups, float(np.max(sups)), mode)
        got = classify_net_bb(net, W_SQRT, mode)
        assert got.classification == expected.classification
        assert got.mode == expected.mode
        assert got.fitted == expected.fitted
        assert list(got.kappa) == list(expected.kappa)
        for lam in LAMBDA_GRID:
            np.testing.assert_array_equal(got.kappa[lam], expected.kappa[lam])
        np.testing.assert_array_equal(got.nu, expected.nu)


class TestVerdictLadders:
    @pytest.mark.parametrize("kind", ("delta", "heaviside", "gaussian"))
    def test_log_ladders_match_per_lambda_ladders(self, catalog, kind):
        net = window_net(catalog(kind), 0.0, 10.0)
        v = classify_net_bb(net, W_LOG, "beurling")
        assert list(v.log_ladders) == list(LAMBDA_GRID)
        for lam in LAMBDA_GRID:
            ref = omega_norm_ladder(net, W_LOG, lam).log_values
            np.testing.assert_array_equal(v.log_ladders[lam], ref)

    def test_log_ladders_stay_out_of_the_report(self, catalog):
        v = classify_net_bb(window_net(catalog("delta"), 0.0, 10.0), W_LOG)
        assert "log_ladders" not in v.to_json()
        assert "log_ladders" not in repr(v)
