"""Regularized nets carry their band spectra, and every real 1-D frame's
spectrum is read on the half axis.

* A ``regularize`` net of a real 1-D kind keeps f^ psi(eps_j |xi|) per rung
  (``NetFunction.spectra``); ``nets._spectrum`` reads it in place of a
  transform.  The band must be the transform of the frame it was inverted
  into, within the FFT error bound, and no derived net may carry it.
* ``_apply_symbol`` and ``bb`` read real 1-D frames on the half axis; they
  must agree with the full-spectrum path within the FFT error bound.
* The half-axis symbol builder refuses 2-D grids, whose half spectrum is a
  half plane.

Error bounds follow Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., section 24.1: each transform output is off by at most
eta log2(N) times the sum of the magnitudes that enter it.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from gfalg import bb, estimators, nets
from gfalg.bb import (_log_norm, _log_spectrum, classify_net_bb,
                      colombeau_crosscheck, fl_norm)
from gfalg.distributions import ModelDistribution, regularize
from gfalg.estimators import classify_net
from gfalg.grids import GridSpec, _symbols, forward, inverse
from gfalg.nets import (EpsilonLadder, UltradiffOperator, _apply_symbol,
                        _spectrum, apply_ultradiff, combine, constant_embed,
                        scale, spectral_derivative, window_net)
from gfalg.weights import WeightFunction

U = 2.0 ** -53
ETA = U + 4 * U / (1 - 4 * U) * (np.sqrt(2) + U)

REAL_1D = {"delta": {}, "delta_prime": {}, "heaviside": {},
           "pv_inverse": {}, "gaussian": {},
           "gaussian_times_sine": {"freq": 3.0},
           "polynomial": {"coeffs": (1.0, 0.0, -0.5)}}

COEFFS = {"real": {(0,): 1.0, (1,): -0.4, (2,): 0.05, (3,): 0.01,
                   (4,): 1e-3},
          "complex": {(0,): 1.0, (1,): 0.3 - 0.1j, (2,): 0.05,
                      (3,): 0.002j, (4,): 1e-4}}


def as_complex(net):
    """The same frames as complex samples: the full-spectrum path."""
    return replace(net, frames=tuple(fr.astype(complex) for fr in net.frames))


def ramp(grid):
    """The ramp j/n = 1/2 + x/(2L) that heaviside frames add."""
    return 0.5 + grid.axis() / (2.0 * grid.half_width)


def full_l1(half_spectrum):
    """sum |fhat| over the full axis, from a 1-D half spectrum."""
    mag = np.abs(half_spectrum)
    return 2.0 * mag.sum() - mag[0] - mag[-1]


@pytest.fixture
def quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


class TestCarriedBands:
    @pytest.mark.parametrize("depth", (6, 10))
    @pytest.mark.parametrize("kind", sorted(REAL_1D))
    def test_band_is_the_frames_transform(self, grid, moll, kind, depth):
        ladder = EpsilonLadder(2.0 ** -3, 0.5, depth)
        net = regularize(ModelDistribution(kind, **REAL_1D[kind]), moll,
                         ladder, grid)
        bands, has_ramp = net.spectra
        assert has_ramp == (kind == "heaviside")
        fine = net.fine_grid
        width = fine.n // 2 + 1
        ramp_hat = (forward(ramp(fine), fine, half=True) if has_ramp
                    else np.zeros(width))
        for j, (fr, band) in enumerate(zip(net.frames, bands)):
            # a copy, and no longer than psi_j's support
            assert band.base is None and band.size < width
            transform = forward(fr, fine, half=True)
            fhat = transform - ramp_hat
            bound = (ETA * np.log2(fine.n)
                     * (full_l1(band) + full_l1(ramp_hat)))
            assert np.max(np.abs(fhat[: band.size] - band)) <= bound, j
            assert np.max(np.abs(fhat[band.size:])) <= bound, j
            # the reader returns the band, the ramp and the zeros beyond
            read = _spectrum(net, j, True)
            assert np.max(np.abs(read - transform)) <= bound, j

    @pytest.mark.parametrize("depth", (8, 10))
    def test_ramp_closed_form(self, grid, moll, depth):
        # fine grids of 65 536 and 262 144 nodes
        ladder = EpsilonLadder(2.0 ** -3, 0.5, depth)
        net = regularize(ModelDistribution("heaviside"), moll, ladder, grid)
        fine = net.fine_grid
        r = ramp(fine)
        ramp_hat = _spectrum(net, 0, True)
        ramp_hat[: net.spectra[0][0].size] -= net.spectra[0][0]
        # the forward's bound: its input sums to sum |ramp| dx
        bound = ETA * np.log2(fine.n) * np.sum(r) * fine.spacing
        exact = forward(r, fine, half=True)
        assert np.max(np.abs(ramp_hat - exact)) <= bound

    def test_reader_on_a_rung_grid_is_the_band_of_the_fine_one(self, catalog):
        net = catalog("heaviside")
        coarse = net.grid.refine(2)
        for j in range(net.ladder.count):
            np.testing.assert_array_equal(
                _spectrum(net, j, True, coarse),
                _spectrum(net, j, True)[: coarse.n // 2 + 1])

    def test_tensor_table_and_2d_nets_carry_nothing(self, moll, seq):
        g2 = GridSpec(2, 2.5, 256)
        ladder = EpsilonLadder(0.5, 0.5, 6)
        tensor = ModelDistribution(
            "tensor2d", dim=2, factors=(ModelDistribution("delta"),
                                        ModelDistribution("gaussian")))
        with np.errstate(all="ignore"):
            assert regularize(tensor, moll, ladder, g2).spectra is None
        table = ModelDistribution("table", table={
            "xi": [-4.0, 0.0, 4.0], "re": [0.0, 1.0, 0.0],
            "im": [0.0, 0.0, 0.5]})
        g1 = GridSpec(1, 20.0, 4096)
        assert regularize(table, moll, ladder, g1).spectra is None


class TestDerivedNetsCarryNothing:
    def test_every_derived_net(self, catalog, grid, ladder, seq, quiet):
        net = catalog("gaussian")
        assert net.spectra is not None
        op = UltradiffOperator(COEFFS["complex"], seq, 1.0, 1.0)
        derived = {
            "window_net": window_net(net, 0.0, 10.0),
            "combine": combine(net, net, "add"),
            "scale": scale(net, 2.0),
            "spectral_derivative": spectral_derivative(net, 1),
            "apply_ultradiff": apply_ultradiff(op, net),
            "constant_embed": constant_embed(np.ones(grid.n), ladder, grid),
            "replace": replace(net, frames=net.frames),
        }
        for name, d in derived.items():
            assert d.spectra is None, name

    def test_the_field_is_not_an_init_argument(self, catalog):
        with pytest.raises(ValueError):
            replace(catalog("delta"), spectra=None)


def _operator_bound(net, coeffs):
    """Per rung: twice the FFT bound of one path fhat -> P fhat -> inverse
    (forward error e_F per node, carried into the inverse), plus the
    symbol's (n_max + 2) u per node."""
    fine = net.fine_grid
    xi = fine.dual_axis()
    p_abs = sum(abs(c) * np.abs(xi) ** alpha[0] for alpha, c in coeffs.items())
    log_n = np.log2(fine.n)
    n_max = max(alpha[0] for alpha in coeffs)
    bounds = []
    for fr in net.frames:
        mag = np.abs(forward(fr, fine))
        e_f = ETA * log_n * np.sum(np.abs(fr)) * fine.spacing
        per_path = np.sum(p_abs * (ETA * log_n * (mag + e_f) + e_f
                                   + (n_max + 2) * U * mag))
        bounds.append(2.0 * per_path / (2.0 * fine.half_width))
    return bounds


class TestHalfAxisOperators:
    @pytest.mark.parametrize("kind,windowed", (("delta", True),
                                               ("heaviside", True),
                                               ("gaussian", False),
                                               ("delta_prime", False)))
    @pytest.mark.parametrize("which", sorted(COEFFS))
    def test_half_path_matches_the_full_path(self, catalog, kind, windowed,
                                             which, quiet):
        net = catalog(kind)
        if windowed:
            net = window_net(net, 0.0, 10.0)
        coeffs = COEFFS[which]
        half = _apply_symbol(net, coeffs, "test")
        full = _apply_symbol(as_complex(net), coeffs, "test")
        for j, (h, f, bound) in enumerate(zip(half.frames, full.frames,
                                              _operator_bound(net, coeffs))):
            assert h.dtype == complex
            assert np.max(np.abs(h - f)) <= bound, j

    @pytest.mark.parametrize("k", (1, 2, 3, 4))
    def test_derivative_is_one_multiplier(self, catalog, k, quiet):
        net = window_net(catalog("delta"), 0.0, 10.0)
        d = spectral_derivative(net, k)
        full = spectral_derivative(as_complex(net), k)
        for h, f, bound in zip(d.frames, full.frames,
                               _operator_bound(net, {(k,): 1.0})):
            assert np.max(np.abs(h - f)) <= bound
            # D^k f = (-i)^k f^(k): real for even k, imaginary for odd k
            assert not np.any(h.imag if k % 2 == 0 else h.real)


def _half_axis_part(net, coeffs, part):
    """Per rung, sum part(b_k) f^(k) with b_k = c_k (-i)^k, from one
    half-axis inverse of the net's half spectrum."""
    fine = net.fine_grid
    symbol = sum(getattr(complex(c) * (-1j) ** alpha[0], part) * sym
                 for (alpha, c), sym in zip(coeffs.items(),
                                            _symbols(fine, coeffs, True)))
    return [inverse(_spectrum(net, j, True) * symbol, fine)
            for j in range(net.ladder.count)]


class TestRealOperatorsStayReal:
    """A real operator of a real 1-D net, one no b_k = c_k (-i)^k of which
    has an imaginary part, gives real frames: the real part of the complex
    frames it gave before, bitwise.  Odd orders stay imaginary."""

    @pytest.mark.parametrize("k", (2, 4))
    def test_even_derivatives_are_real_nets(self, catalog, k, quiet):
        net = window_net(catalog("delta"), 0.0, 10.0)
        d = spectral_derivative(net, k)
        assert d.real
        for fr, expected in zip(d.frames,
                                _half_axis_part(net, {(k,): 1.0}, "real")):
            assert fr.dtype == float
            assert fr.tobytes() == expected.tobytes()

    def test_even_operator_is_a_real_net(self, catalog, seq, quiet):
        net = window_net(catalog("delta"), 0.0, 10.0)
        op = UltradiffOperator({0: 1.0, 2: 0.05, 4: 1e-3}, seq, 1.0, 1.0)
        d = apply_ultradiff(op, net)
        assert d.real
        for fr, expected in zip(d.frames,
                                _half_axis_part(net, op.coeffs, "real")):
            assert fr.dtype == float
            assert fr.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", (1, 3))
    def test_odd_derivatives_stay_imaginary(self, catalog, k, quiet):
        net = window_net(catalog("delta"), 0.0, 10.0)
        d = spectral_derivative(net, k)
        assert not d.real
        for fr, expected in zip(d.frames,
                                _half_axis_part(net, {(k,): 1.0}, "imag")):
            assert fr.dtype == complex
            assert not np.any(fr.real)
            assert fr.imag.tobytes() == expected.tobytes()


class TestHalfSpectrumNorms:
    W = {"log1p": WeightFunction.log_one_plus_t(),
         "sqrt": WeightFunction.power(0.5)}

    @staticmethod
    def _bound(f, grid, w, lam, p, norm):
        """|log ||.||_half - log ||.||_full| from the two forwards' node
        errors e_F, weighted like the norm, plus log-sum-exp round-off."""
        fhat = np.abs(forward(f, grid)).ravel()
        e_f = ETA * np.log2(grid.n ** grid.dim) * np.sum(np.abs(f)) \
            * grid.spacing ** grid.dim
        weights = np.exp(lam * w(grid.dual_radius().ravel()))
        dxi = (2.0 * np.pi / (grid.n * grid.spacing)) ** grid.dim
        if p == "inf":
            delta = 2.0 * e_f * weights.max()
        else:
            q = float(p)
            delta = (np.sum((2.0 * e_f * weights) ** q) * dxi) ** (1.0 / q)
        return delta / norm + (np.log2(fhat.size) + 4) * U

    @pytest.mark.parametrize("p", ("1", "2", "inf"))
    @pytest.mark.parametrize("wname", ("log1p", "sqrt"))
    def test_1d(self, grid, p, wname):
        w = self.W[wname]
        x = grid.axis()
        f = np.exp(-x ** 2) * np.cos(3 * x)
        omega = w(grid.dual_radius())
        for lam in (0.25, 1.0, 4.0):
            half = _log_norm(_log_spectrum(forward(f, grid, half=True), grid,
                                           omega), grid, lam, p)
            full = _log_norm(_log_spectrum(forward(f, grid), grid, omega),
                             grid, lam, p)
            assert np.log(fl_norm(f, grid, w, lam, p)) == pytest.approx(
                half, rel=0, abs=1e-12)
            bound = self._bound(f, grid, w, lam, p, np.exp(full))
            assert abs(half - full) <= bound, lam

    @pytest.mark.parametrize("p", ("1", "2", "inf"))
    def test_2d_half_plane(self, p):
        g2 = GridSpec(2, 5.0, 256)
        x1, x2 = g2.points()
        f = np.exp(-x1 ** 2 - 2 * x2 ** 2) * np.cos(2 * x1 + x2)
        w = self.W["log1p"]
        omega = w(g2.dual_radius())
        half = _log_norm(_log_spectrum(forward(f, g2, half=True), g2, omega),
                         g2, 1.0, p)
        # fl_norm reads the half plane; the full spectrum is written out
        assert np.log(fl_norm(f, g2, w, 1.0, p)) == pytest.approx(
            half, rel=0, abs=1e-12)
        full = _log_norm(_log_spectrum(forward(f, g2), g2, omega), g2, 1.0, p)
        assert abs(half - full) <= self._bound(f, g2, w, 1.0, p,
                                               np.exp(full))


class TestTransformCounts:
    """A regularized net's spectra are read, not transformed, and real 1-D
    frames take no full complex transform."""

    @pytest.fixture
    def forward_calls(self, monkeypatch):
        calls = []
        for module in (nets, estimators, bb):
            real = module.forward

            def counted(f, *args, real=real, **kwargs):
                calls.append(np.shape(f))
                return real(f, *args, **kwargs)

            monkeypatch.setattr(module, "forward", counted)
        return calls

    @pytest.fixture
    def full_transforms(self, monkeypatch):
        calls = []
        for name in ("fftn", "ifftn"):
            real = getattr(np.fft, name)

            def counted(*args, real=real, name=name, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        return calls

    @pytest.mark.parametrize("kind", ("delta", "heaviside", "gaussian"))
    def test_classify_net_transforms_no_frame(self, catalog, kind,
                                              forward_calls, quiet):
        classify_net(catalog(kind), (-10.0, 10.0))
        assert forward_calls == []

    def test_real_1d_paths_take_no_full_transform(self, catalog, seq,
                                                  full_transforms, quiet):
        net = catalog("gaussian")
        windowed = window_net(catalog("delta"), 0.0, 10.0)
        w = WeightFunction.log_one_plus_t()
        classify_net_bb(windowed, w, "beurling")
        colombeau_crosscheck(windowed)
        for a in (net, windowed):
            spectral_derivative(a, 3)
            apply_ultradiff(UltradiffOperator(COEFFS["complex"], seq,
                                              1.0, 1.0), a)
        assert full_transforms == []

    @pytest.mark.parametrize("k", (2, 4))
    def test_even_derivatives_are_read_on_the_half_axis(
            self, catalog, k, full_transforms, quiet):
        d = spectral_derivative(window_net(catalog("delta"), 0.0, 10.0), k)
        classify_net(d, (-10.0, 10.0))
        assert full_transforms == []

    def test_real_input_takes_no_full_transform_in_any_dimension(
            self, grid, ladder, full_transforms):
        """The weighted Fourier--Lebesgue norms, the FL1 ladders and the
        Landau--Kolmogorov check read real samples on the half spectrum;
        only the 2-D derivative symbols keep the full grid."""
        w = WeightFunction.log_one_plus_t()
        g2 = GridSpec(2, 5.0, 256)

        def bump(*xs):
            return np.exp(-sum((i + 1) * x ** 2 for i, x in enumerate(xs)))

        for g in (grid, g2):
            f = bump(*g.points())
            for p in ("1", "2", "inf"):
                fl_norm(f, g, w, 1.0, p)
            bb.norm_equivalence_check(f, g, w, 1.0)
            classify_net_bb(constant_embed(bump, ladder, g), w, "roumieu")
        x = grid.axis()
        estimators.landau_kolmogorov_check(np.exp(-x ** 2), grid, 1, 2)
        estimators.landau_kolmogorov_check(
            np.exp(-x ** 2) * np.sin(5.0 * x), grid, 2, 4)
        assert full_transforms == []


class TestHalfAxisBuildersAre1D:
    @pytest.mark.parametrize("alpha", [(1, 0), (1, 1)])
    def test_symbols_refuse_a_2d_half_axis(self, alpha):
        with pytest.raises(ValueError):
            _symbols(GridSpec(2, 5.0, 256), [alpha], half=True)
