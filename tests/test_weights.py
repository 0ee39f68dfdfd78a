"""Weight sequences, associated functions, and weight functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfalg.errors import SaturationError
from gfalg.nets import EpsilonLadder, constant_embed
from gfalg.weights import (WeightFunction, WeightSequence, assoc,
                           assoc_inverse, check_assoc_m2, check_conditions,
                           gevrey_pair, omega_check, resolved_for)


def brute_force_assoc(seq: WeightSequence, t: float, p_max: int) -> float:
    log_t = math.log(t)
    return max(p * log_t - seq.log_m[p] for p in range(p_max + 1))


class TestAssociatedFunction:
    def test_gevrey1_frozen_oracle(self):
        # independently derived: max_p (p*log 10 - log p!) at p = 10
        seq = WeightSequence.gevrey(1.0)
        assert assoc(seq, 10.0) == pytest.approx(7.921438356864941,
                                                 abs=1e-12)

    def test_matches_brute_force_log_grid(self):
        seq = WeightSequence.gevrey(2.0, 200)
        for t in np.geomspace(1e-2, 1e6, 100):
            expected = brute_force_assoc(seq, float(t), 200)
            got = assoc(seq, float(t), on_saturation="clip")
            assert got == pytest.approx(expected, abs=1e-12 * (1 + abs(expected)))

    def test_zero_on_small_t(self):
        seq = WeightSequence.gevrey(2.0)
        assert assoc(seq, 0.0) == 0.0
        assert assoc(seq, seq.m1 * 0.5) == 0.0

    def test_monotone_nondecreasing(self):
        seq = resolved_for(WeightSequence.gevrey(1.5), 1.1e4)
        t = np.geomspace(1e-3, 1e4, 400)
        vals = assoc(seq, t)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_vectorized_matches_scalar(self):
        seq = WeightSequence.gevrey(2.0)
        t = np.geomspace(0.1, 1e4, 37)
        vec = assoc(seq, t)
        for ti, vi in zip(t, vec):
            assert assoc(seq, float(ti)) == vi

    def test_saturation_raises_with_context(self):
        seq = WeightSequence.gevrey(2.0, 64)
        with pytest.raises(SaturationError) as exc:
            assoc(seq, 1e9)
        assert exc.value.t_max_reliable > 0

    def test_saturation_clip_equals_truncated_max(self):
        seq = WeightSequence.gevrey(2.0, 64)
        t = 1e9
        got = assoc(seq, t, on_saturation="clip")
        assert got == pytest.approx(brute_force_assoc(seq, t, 64), rel=1e-12)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            assoc(WeightSequence.gevrey(2.0), -1.0)


class TestAssocInverse:
    @pytest.mark.parametrize("y", [0.5, 3.0, 17.0, 80.0])
    def test_roundtrip(self, y):
        seq = WeightSequence.gevrey(2.0)
        t = assoc_inverse(seq, y)
        assert assoc(seq, t) == pytest.approx(y, abs=1e-8 * (1 + y))

    def test_flat_region_returns_m1(self):
        seq = WeightSequence.gevrey(2.0)
        assert assoc_inverse(seq, 0.0) == pytest.approx(seq.m1)

    def test_beyond_saturation_raises(self):
        seq = WeightSequence.gevrey(2.0, 64)
        with pytest.raises(SaturationError):
            assoc_inverse(seq, 1e6)

    @given(s=st.floats(min_value=1.05, max_value=3.0),
           frac=st.floats(min_value=1e-6, max_value=0.999))
    @settings(max_examples=40, deadline=None)
    def test_exact_least_preimage_property(self, s, frac):
        seq = WeightSequence.gevrey(s)
        y = frac * assoc(seq, seq.t_saturation, on_saturation="clip")
        t = assoc_inverse(seq, y)
        assert assoc(seq, t) == pytest.approx(y, abs=1e-12 * (1 + y))
        assert assoc(seq, t * (1 - 1e-8)) < y

    def test_array_matches_elementwise(self):
        seq = WeightSequence.gevrey(1.5)
        y = np.array([[0.0, 0.5], [7.0, 120.0]])
        got = assoc_inverse(seq, y)
        assert got.shape == y.shape
        for yi, ti in zip(y.ravel(), got.ravel()):
            assert assoc_inverse(seq, float(yi)) == ti

    @pytest.mark.parametrize("y", [0.3, 1.0, 3.0, 5.0])
    def test_non_log_convex_matches_scan(self, y):
        log_m = np.array([0.0, 0.0, 2.0, 2.5, 5.0, 5.2, 8.0, 8.1] + [
            8.1 + 2 * k for k in range(1, 60)])
        seq = WeightSequence.custom(log_m)
        t_grid = np.geomspace(1.0, 10.0, 20001)
        p = np.arange(len(log_m))
        scan = np.max(np.outer(np.log(t_grid), p) - log_m, axis=1)
        first = int(np.argmax(scan >= y))
        t = assoc_inverse(seq, y)
        assert first > 0
        assert t_grid[first - 1] < t <= t_grid[first] * (1 + 1e-12)


class TestConditions:
    def test_gevrey2_certificate(self):
        rep = check_conditions(WeightSequence.gevrey(2.0, 256))
        assert rep.m1_ok
        assert rep.m2_ok
        assert rep.m2_constants == (1.0, 4.0)
        assert rep.m3prime_converges

    def test_functional_m2_form(self):
        seq = resolved_for(WeightSequence.gevrey(2.0), 4.1e6)
        assert check_assoc_m2(seq, np.geomspace(1e-2, 1e6, 200))

    def test_gevrey1_is_quasianalytic(self):
        rep = check_conditions(WeightSequence.gevrey(1.0, 256))
        assert not rep.m3prime_converges

    def test_non_log_convex_custom_flagged(self):
        log_m = [0.0, 0.0, 2.0, 2.5, 5.0, 5.2, 8.0, 8.1] + [
            8.1 + 2 * k for k in range(1, 60)]
        seq = WeightSequence.custom(log_m)
        assert not seq.is_log_convex()
        assert not check_conditions(seq).m1_ok

    def test_resolved_for_deepens_gevrey(self):
        seq = WeightSequence.gevrey(2.0, 64)
        deep = resolved_for(seq, 1e7)
        assert deep.t_saturation >= 1e7
        assert assoc(deep, 1e6) > 0

    def test_resolved_for_custom_raises(self):
        seq = WeightSequence.custom(WeightSequence.gevrey(2.0, 64).log_m)
        with pytest.raises(SaturationError):
            resolved_for(seq, 1e9)


class TestGevreyPair:
    def test_pair_for_sigma_1_5(self):
        m_seq, n_seq = gevrey_pair(1.5)
        assert m_seq.s == 1.5
        assert n_seq.s == pytest.approx(1.25)

    def test_rejects_quasianalytic_order(self):
        with pytest.raises(ValueError):
            gevrey_pair(1.0)


class TestSequenceBasics:
    def test_m0_is_one(self):
        assert WeightSequence.gevrey(2.0).log_m[0] == 0.0

    def test_json_roundtrip(self):
        seq = WeightSequence.gevrey(1.5, 128)
        back = WeightSequence.from_json(seq.to_json())
        assert np.allclose(back.log_m, seq.log_m)
        cus = WeightSequence.custom(seq.log_m)
        back = WeightSequence.from_json(cus.to_json())
        assert np.allclose(back.log_m, cus.log_m)

    def test_depth_is_the_table_length(self):
        table = WeightSequence.gevrey(2.0, 40).log_m[:17]
        assert WeightSequence.custom(table).p_max == len(table) - 1 == 16
        assert WeightSequence.custom(list(table)).p_max == 16
        assert WeightSequence.gevrey(1.5, 128).p_max == 128
        assert WeightSequence.gevrey(1.5, 128).to_json() == {
            "kind": "gevrey", "s": 1.5, "p_max": 128}

    @pytest.mark.parametrize("log_m", [0.0, [[0.0, 1.0]], [[0.0], [1.0]]])
    def test_table_must_be_one_dimensional(self, log_m):
        with pytest.raises(ValueError, match="1-D"):
            WeightSequence.custom(log_m)
        with pytest.raises(ValueError, match="1-D"):
            WeightSequence(kind="custom", log_m=log_m)

    def test_equal_sequences_compare_and_hash_alike(self):
        a, b = WeightSequence.gevrey(2.0), WeightSequence.gevrey(2.0)
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b) and len({a, b}) == 1
        # kind, s and the table each tell sequences apart
        assert a != WeightSequence.gevrey(2.0, 128)
        assert a != WeightSequence.gevrey(1.5)
        assert a != WeightSequence.custom(a.log_m)
        assert WeightSequence.custom(a.log_m) == WeightSequence.custom(
            list(a.log_m))
        assert a != "gevrey:2"

    def test_nets_with_equal_weights_compare(self, grid):
        ladder = EpsilonLadder(2.0 ** -3, 0.5, 6)
        nets = [constant_embed(np.ones(grid.n), ladder, grid,
                               weight=WeightSequence.gevrey(2.0))
                for _ in range(2)]
        assert nets[0] == nets[1]
        assert nets[0] != constant_embed(np.ones(grid.n), ladder, grid,
                                         weight=WeightSequence.gevrey(1.5))

    @given(s=st.floats(min_value=1.05, max_value=3.0))
    @settings(max_examples=25, deadline=None)
    def test_gevrey_log_convex(self, s):
        assert WeightSequence.gevrey(s, 64).is_log_convex()

    @given(s=st.floats(min_value=1.05, max_value=3.0),
           t=st.floats(min_value=1e-2, max_value=1e3))
    @settings(max_examples=40, deadline=None)
    def test_assoc_equals_brute_force_property(self, s, t):
        seq = WeightSequence.gevrey(s, 128)
        got = assoc(seq, t, on_saturation="clip")
        assert got == pytest.approx(brute_force_assoc(seq, t, 128),
                                    abs=1e-10 * (1 + abs(got)))


class TestWeightFunctions:
    def test_log1p_passes_all_conditions(self):
        rep = omega_check(WeightFunction.log_one_plus_t(),
                          np.geomspace(1e-2, 1e6, 300))
        assert rep.subadditive_ok
        assert rep.beta_converges
        assert rep.gamma_ok
        assert not rep.gamma0_ok  # log(1+t)/log(1+t) cannot diverge

    def test_power_half_passes_with_gamma0(self):
        rep = omega_check(WeightFunction.power(0.5),
                          np.geomspace(1e-2, 1e6, 300))
        assert rep.subadditive_ok
        assert rep.beta_converges
        assert rep.gamma0_ok

    def test_power_one_beta_diverges(self):
        rep = omega_check(WeightFunction.power(1.0),
                          np.geomspace(1e-2, 1e6, 300))
        assert not rep.beta_converges

    def test_custom_table_interpolates_and_extrapolates(self):
        t = np.array([0.0, 1.0, 10.0, 100.0])
        w = WeightFunction.custom(t, np.log1p(t))
        assert w(5.5) == pytest.approx(np.interp(5.5, t, np.log1p(t)))
        assert w(200.0) > w(100.0)

    def test_custom_table_must_be_monotone(self):
        with pytest.raises(ValueError):
            WeightFunction.custom([0.0, 1.0, 2.0], [0.0, 2.0, 1.0])

    def test_json_roundtrip(self):
        for w in (WeightFunction.log_one_plus_t(), WeightFunction.power(0.5),
                  WeightFunction.custom([0.0, 1.0], [0.0, 1.0])):
            back = WeightFunction.from_json(w.to_json())
            assert back(3.7) == pytest.approx(w(3.7))


def quadratic_m2_constant(seq: WeightSequence) -> float:
    """The (M.2) constant H by its definition: the smallest power of two
    at or above exp max_r (log M_r - min_p (log M_p + log M_{r-p})) / r,
    searching every split p of every r."""
    lm = seq.log_m
    log_h_req = 0.0
    for r in range(1, seq.p_max + 1):
        p = np.arange(0, r + 1)
        split_min = np.min(lm[p] + lm[r - p])
        log_h_req = max(log_h_req, (lm[r] - split_min) / r)
    h_grid = 2.0 ** np.arange(0, 13)
    ok = h_grid >= math.exp(log_h_req) * (1.0 - 1e-12)
    return float(h_grid[np.argmax(ok)]) if np.any(ok) else math.inf


class TestM2ClosedForm:
    @pytest.mark.parametrize("p_max", [64, 256, 1024])
    @pytest.mark.parametrize("s", [*np.linspace(1.01, 3.0, 12), 4.0, 6.0,
                                   12.5])
    def test_matches_the_quadratic_search(self, s, p_max):
        seq = WeightSequence.gevrey(float(s), p_max)
        rep = check_conditions(seq)
        H = quadratic_m2_constant(seq)
        assert rep.m2_constants == (1.0, H)
        assert rep.m2_ok == math.isfinite(H)

    def test_deep_table_is_fast(self):
        # the quadratic search took seconds at this depth
        import time
        seq = resolved_for(WeightSequence.gevrey(1.5), 4e6)
        assert seq.p_max > 30000
        start = time.perf_counter()
        assert check_conditions(seq).m2_constants == (1.0, 4.0)
        assert time.perf_counter() - start < 1.0


class TestTableLimits:
    def test_saturation_beyond_float_range_is_infinite(self):
        assert WeightSequence.gevrey(200.0).t_saturation == math.inf
        assert WeightSequence.gevrey(2.0, 64).t_saturation == pytest.approx(
            64.0 ** 2)

    @pytest.mark.parametrize("s", [math.nan, math.inf, 0.0, -1.0])
    def test_gevrey_order_must_be_finite_and_positive(self, s):
        with pytest.raises(ValueError):
            WeightSequence.gevrey(s)

    def test_deepening_is_capped(self):
        # a Gevrey-1/2 table resolved up to 1e6 would hold ~1e12 entries
        with pytest.raises(SaturationError):
            resolved_for(WeightSequence.gevrey(0.5), 1e6)

    def test_functional_m2_at_a_given_h(self):
        seq = resolved_for(WeightSequence.gevrey(2.5), 8e6)
        t = np.geomspace(1e-2, 1e6, 200)
        assert check_assoc_m2(seq, t, 8.0)
        assert not check_assoc_m2(seq, t, 2.0)
