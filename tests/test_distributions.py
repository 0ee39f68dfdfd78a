"""Model catalog: spectral data, regularized frames, and classical
wave-front oracles."""

import json

import numpy as np
import pytest
from scipy.integrate import quad

from gfalg.distributions import (ModelDistribution, classical_wf_oracle,
                                 regularize, required_oversample,
                                 spectral_data)
from gfalg.errors import AliasingError
from gfalg.grids import GridSpec, integrate
from gfalg.mollifier import plateau_window
from gfalg.nets import EpsilonLadder, combine, spectral_derivative, window_net


class TestSpectralOracles:
    """Closed-form transforms checked against numerical quadrature under
    the convention fhat(xi) = int f(x) e^{+i x xi} dx."""

    def test_gaussian_quadrature(self):
        fhat = spectral_data(ModelDistribution("gaussian"))
        for xi in (0.0, 1.0, 2.5):
            re, _ = quad(lambda x: np.exp(-x ** 2) * np.cos(xi * x),
                         -np.inf, np.inf)
            assert fhat(xi) == pytest.approx(re, abs=1e-10)

    def test_gaussian_at_zero_is_sqrt_pi(self):
        fhat = spectral_data(ModelDistribution("gaussian"))
        assert fhat(0.0) == pytest.approx(np.sqrt(np.pi), abs=1e-14)

    def test_pv_inverse_quadrature(self):
        # principal value of int sin(xi x)/x dx = pi sgn(xi); the transform
        # is purely imaginary, +i*pi*sgn(xi)
        fhat = spectral_data(ModelDistribution("pv_inverse"))
        for xi in (-2.0, 1.0, 3.0):
            # truncate where cos(xi*b) = 0 so the oscillatory tail error
            # drops to O(1/b^2)
            b = (200.0 * np.pi + np.pi / 2.0) / abs(xi)
            im, _ = quad(lambda x: np.sin(xi * x) / x, 0.0, b, limit=800)
            assert fhat(xi).imag == pytest.approx(2.0 * im, abs=1e-4)
            assert fhat(xi).real == 0.0

    def test_delta_is_one(self):
        fhat = spectral_data(ModelDistribution("delta"))
        assert np.all(fhat(np.linspace(-10, 10, 11)) == 1.0)

    def test_delta_prime_is_minus_i_xi(self):
        fhat = spectral_data(ModelDistribution("delta_prime"))
        xi = np.linspace(-5, 5, 11)
        assert np.allclose(fhat(xi), -1j * xi)

    def test_gaussian_times_sine_quadrature(self):
        m = ModelDistribution("gaussian_times_sine", freq=3.0)
        fhat = spectral_data(m)
        for xi in (0.0, 3.0, -3.0, 1.7):
            f = lambda x: np.exp(-x ** 2) * np.sin(3.0 * x)
            re, _ = quad(lambda x: f(x) * np.cos(xi * x), -np.inf, np.inf)
            im, _ = quad(lambda x: f(x) * np.sin(xi * x), -np.inf, np.inf)
            assert fhat(xi) == pytest.approx(re + 1j * im, abs=1e-10)

    def test_table_interpolates_and_clips(self):
        m = ModelDistribution("table", table={
            "xi": [-1.0, 0.0, 1.0], "re": [0.0, 2.0, 0.0],
            "im": [0.0, 1.0, 0.0]})
        fhat = spectral_data(m)
        assert fhat(0.5) == pytest.approx(1.0 + 0.5j)
        assert fhat(5.0) == 0.0


class TestCatalogValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ModelDistribution("mystery")

    def test_gaussian_times_sine_needs_freq(self):
        with pytest.raises(ValueError):
            ModelDistribution("gaussian_times_sine")

    def test_polynomial_needs_coeffs(self):
        with pytest.raises(ValueError):
            ModelDistribution("polynomial")

    def test_tensor2d_needs_two_factors(self):
        with pytest.raises(ValueError):
            ModelDistribution("tensor2d", dim=2, factors=(
                ModelDistribution("delta"),))

    def test_table_shape_checked(self):
        with pytest.raises(ValueError):
            ModelDistribution("table", table={"xi": [0, 1], "re": [0],
                                              "im": [0, 1]})

    def test_table_from_json(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"xi": [-1, 0, 1], "re": [0, 1, 0],
                                 "im": [0, 0, 0]}))
        m = ModelDistribution.from_table_json(str(p))
        assert m.kind == "table"


class TestOversampling:
    def test_default_rig_factor(self, grid, ladder):
        assert required_oversample(ladder, grid) == 16

    def test_unreachable_ladder_raises_with_bound(self, grid):
        deep = EpsilonLadder(2.0 ** -8, 0.5, 12)
        with pytest.raises(AliasingError) as exc:
            required_oversample(deep, grid)
        assert exc.value.eps_min_admissible > 0


class TestRegularizedFrames:
    def test_delta_frames_have_unit_mass(self, catalog, grid):
        net = catalog("delta")
        fine = net.fine_grid
        for fr in net.frames:
            assert integrate(fr, fine) == pytest.approx(1.0, abs=1e-8)

    def test_delta_peak_grows_like_inverse_eps(self, catalog, ladder):
        net = catalog("delta")
        peaks = np.array([np.max(np.abs(fr)) for fr in net.frames])
        ratios = peaks[1:] / peaks[:-1]
        assert np.allclose(ratios, 2.0, rtol=1e-6)

    def test_delta_concentrates_at_origin(self, catalog):
        net = catalog("delta")
        x = np.abs(net.fine_grid.axis())
        fr = net.frames[-1]
        assert np.max(np.abs(fr[x > 0.5])) < 1e-3 * np.max(np.abs(fr))

    def test_heaviside_half_at_origin(self, catalog):
        net = catalog("heaviside")
        fine = net.fine_grid
        i0 = fine.index_of(0.0)
        for fr in net.frames:
            assert fr[i0] == pytest.approx(0.5, abs=1e-9)

    def test_heaviside_levels_away_from_jump(self, catalog):
        net = catalog("heaviside")
        x = net.fine_grid.axis()
        fr = net.frames[-1]
        # away from the jump (and from the periodization seam) the frame
        # is an exact step: 1 on the right, 0 on the left
        sel_pos = (x > 1.0) & (x < 10.0)
        sel_neg = (x < -1.0) & (x > -10.0)
        assert np.max(np.abs(fr[sel_pos] - 1.0)) < 1e-6
        assert np.max(np.abs(fr[sel_neg])) < 1e-6

    def test_gaussian_frames_converge_to_gaussian(self, catalog):
        net = catalog("gaussian")
        x = net.fine_grid.axis()
        err = [np.max(np.abs(fr - np.exp(-x ** 2))) for fr in net.frames]
        assert err[-1] < 1e-10
        assert err[-1] <= err[0]

    def test_gaussian_frames_are_real(self, catalog):
        net = catalog("gaussian")
        assert all(np.isrealobj(fr) for fr in net.frames)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_delta_prime_is_derivative_of_delta(self, catalog):
        d = catalog("delta")
        dp = catalog("delta_prime")
        # d/dx = i * D under D = -i d/dx
        got = spectral_derivative(d, 1)
        for fr_dp, fr_d in zip(dp.frames, got.frames):
            scale = np.max(np.abs(fr_dp))
            assert np.max(np.abs(fr_dp - 1j * fr_d)) <= 1e-9 * scale

    def test_derivative_of_heaviside_matches_delta_interior(self, catalog,
                                                            grid):
        h = catalog("heaviside")
        d = catalog("delta")
        # window first (the periodization seam at +-L would otherwise leak
        # Gibbs oscillation everywhere), then apply d/dx = i * D
        dwh = spectral_derivative(window_net(h, 0.0, 10.0), 1)
        x = np.abs(dwh.fine_grid.axis())
        sel = x <= 4.0  # inside the window plateau
        for j, (fr, fd) in enumerate(zip(dwh.frames, d.frames)):
            resid = np.max(np.abs(1j * fr[sel] - fd[sel]))
            assert resid < 1e-5 * np.max(np.abs(fd)), (j, resid)

    def test_polynomial_matches_windowed_values(self, catalog):
        net = catalog("polynomial", coeffs=(1.0, 0.0, 2.0))
        fine = net.fine_grid
        x = fine.axis()
        target = (1.0 + 2.0 * x ** 2) * plateau_window(fine, 0.0, 5.0)
        sel = np.abs(x) <= 2.0
        assert np.max(np.abs(net.frames[-1][sel] - target[sel])) < 1e-8

    def test_linearity_of_regularization(self, moll, ladder, grid, seq):
        a = regularize(ModelDistribution("gaussian"), moll, ladder, grid,
                       weight=seq)
        b = regularize(ModelDistribution("gaussian_times_sine", freq=3.0),
                       moll, ladder, grid, weight=seq)
        s = combine(a, b, "add")
        fine = s.fine_grid
        x = fine.axis()
        target = np.exp(-x ** 2) * (1.0 + np.sin(3.0 * x))
        assert np.max(np.abs(s.frames[-1] - target)) < 1e-9

    def test_mode_and_weight_carried(self, moll, ladder, grid, seq):
        net = regularize(ModelDistribution("gaussian"), moll, ladder, grid,
                         mode="roumieu", weight=seq)
        assert net.mode == "roumieu"
        assert net.weight is seq


class TestTensor2D:
    def test_outer_product_frames(self, moll, seq):
        g2 = GridSpec(2, 10.0, 512)
        lad = EpsilonLadder(1.0, 0.5, 6)
        m = ModelDistribution(
            "tensor2d", dim=2,
            factors=(ModelDistribution("delta"),
                     ModelDistribution("gaussian")))
        net = regularize(m, moll, lad, g2)
        g1 = GridSpec(1, 10.0, 512)
        d1 = regularize(ModelDistribution("delta"), moll, lad, g1)
        a1 = regularize(ModelDistribution("gaussian"), moll, lad, g1)
        for fr, fd, fa in zip(net.frames, d1.base_frames(),
                              a1.base_frames()):
            assert np.allclose(fr, np.outer(fd, fa))

    def test_ladder_past_the_base_nyquist_raises(self, moll):
        # tensor frames stay on the base grid: 2/eps_min = 256 passes
        # pi/dx = 160.8, and the ladder 0.5 * 2^-j (128) fits
        g2 = GridSpec(2, 2.5, 256)
        m = ModelDistribution(
            "tensor2d", dim=2,
            factors=(ModelDistribution("delta"),
                     ModelDistribution("gaussian")))
        with pytest.raises(AliasingError) as err:
            regularize(m, moll, EpsilonLadder(0.25, 0.5, 6), g2)
        assert err.value.eps_min_admissible == 2.0 / g2.dual_max
        net = regularize(m, moll, EpsilonLadder(0.5, 0.5, 6), g2)
        assert net.oversample == 1

    def test_tensor_needs_2d_grid(self, moll, grid):
        lad = EpsilonLadder(2.0 ** -3, 0.5, 6)
        m = ModelDistribution(
            "tensor2d", dim=2,
            factors=(ModelDistribution("delta"),
                     ModelDistribution("gaussian")))
        with pytest.raises(ValueError):
            regularize(m, moll, lad, grid)


class TestClassicalOracle:
    def test_singular_kinds_carry_origin_both_directions(self):
        for kind in ("delta", "delta_prime", "heaviside", "pv_inverse"):
            o = classical_wf_oracle(ModelDistribution(kind))
            assert o.singular_directions((0.0,), 0.5) == {(1.0,), (-1.0,)}
            assert o.singular_directions((3.0,), 0.5) == set()

    def test_smooth_kinds_empty(self):
        for m in (ModelDistribution("gaussian"),
                  ModelDistribution("gaussian_times_sine", freq=3.0),
                  ModelDistribution("polynomial", coeffs=(1.0,))):
            assert classical_wf_oracle(m).is_empty

    def test_tensor_line_oracle(self):
        m = ModelDistribution(
            "tensor2d", dim=2,
            factors=(ModelDistribution("delta"),
                     ModelDistribution("gaussian")))
        o = classical_wf_oracle(m)
        # singular along the line x = 0, conormal directions only
        assert o.singular_directions((0.0, 7.0), 0.5) == {(1.0, 0.0),
                                                          (-1.0, 0.0)}
        assert o.singular_directions((2.0, 0.0), 0.5) == set()


class TestKindDispatch:
    @pytest.mark.parametrize("m", [
        ModelDistribution("heaviside"),
        ModelDistribution("polynomial", coeffs=(1.0, 0.0, 2.0))])
    def test_no_closed_form_is_a_value_error(self, m):
        with pytest.raises(ValueError, match="closed-form"):
            spectral_data(m)
