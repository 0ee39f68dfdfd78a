"""The half-spectrum path: real-to-complex transforms of real 1-D frames
against the complex transforms they replace (2-D grids: test_half_plane)."""

from dataclasses import replace

import numpy as np
import pytest

from gfalg import distributions, estimators, nets
from gfalg.distributions import ModelDistribution, regularize
from gfalg.estimators import (MODERATION_ALPHA_MAX, PATTERN_GRID,
                              SPECTRAL_FLOOR, _derivative_sups,
                              _log_transform_sups, classify_net,
                              regularity_test)
from gfalg.grids import GridSpec, forward, inverse
from gfalg.microlocal import (LOW_FREQUENCY_CUTOFF, ConePartition, _fold,
                              sigma_g)
from gfalg.nets import EpsilonLadder, SequenceScale, window_net

U = np.finfo(float).eps / 2  # unit round-off

#: windowed nets of the reference rig: (kind, center, radius)
WINDOWED = [("delta", 0.0, 10.0), ("delta", 0.0, 0.5), ("delta", 2.0, 0.5),
            ("delta_prime", 0.0, 0.5), ("heaviside", 0.0, 0.5),
            ("pv_inverse", 0.0, 0.5), ("gaussian", 0.0, 10.0)]


def as_complex(net):
    """The same net with complex frames, which take the full transforms."""
    return replace(net, frames=tuple(fr.astype(complex) for fr in net.frames))


def windowed(catalog, kind, center, radius):
    return window_net(catalog(kind), center, radius)


class TestHalfTransforms:
    @pytest.mark.parametrize("n", (4096, 65536))
    def test_forward_is_the_first_half_of_the_full_spectrum(self, n):
        g = GridSpec(1, 20.0, n)
        x = g.axis()
        rng = np.random.default_rng(n)
        for f in (rng.standard_normal(n), np.exp(-x ** 2) * np.sin(3 * x)):
            half = forward(f, g, half=True)
            assert half.shape == (n // 2 + 1,)
            # the standard FFT error bound, per node
            tol = 4 * U * np.log2(n) * np.sum(np.abs(f)) * g.spacing
            assert np.max(np.abs(half - forward(f, g)[: n // 2 + 1])) <= tol

    @pytest.mark.parametrize("n", (4096, 65536))
    def test_inverse_is_the_real_part_of_the_full_inverse(self, n):
        g = GridSpec(1, 20.0, n)
        rng = np.random.default_rng(n + 1)
        half = forward(rng.standard_normal(n), g, half=True)
        # the exact Hermitian extension of the half axis
        full = np.concatenate([half, np.conj(half[1:-1][::-1])])
        out = inverse(half, g)
        assert out.dtype == float and out.shape == (n,)
        # the same bound on the inverse side: sum |ghat| dxi / (2 pi)
        tol = 4 * U * np.log2(n) * np.sum(np.abs(full)) / (n * g.spacing)
        assert np.max(np.abs(out - inverse(full, g).real)) <= tol

    def test_roundtrip_identity(self):
        g = GridSpec(1, 20.0, 2048)
        f = np.random.default_rng(7).standard_normal(2048)
        back = inverse(forward(f, g, half=True), g)
        assert np.max(np.abs(back - f)) < 1e-12

    def test_last_node_is_the_nyquist_node(self):
        g = GridSpec(1, 20.0, 256)
        xi = g.half_dual_axis()
        assert xi.shape == (129,)
        assert xi[-1] == -g.dual_max
        assert np.all(np.diff(np.abs(xi)) > 0)

    def test_complex_or_2d_input_rejected(self):
        # complex input, on a 1-D or a 2-D grid; real 2-D input takes the
        # half plane (test_half_plane)
        g1 = GridSpec(1, 5.0, 256)
        g2 = GridSpec(2, 5.0, 256)
        with pytest.raises(ValueError, match="real samples"):
            forward(np.ones(256, dtype=complex), g1, half=True)
        with pytest.raises(ValueError, match="real samples"):
            forward(np.ones((256, 256), dtype=complex), g2, half=True)


class TestRegularizeOnTheHalfAxis:
    @pytest.mark.parametrize("kind", ("delta", "delta_prime", "pv_inverse",
                                      "gaussian"))
    def test_real_kinds_match_the_full_transforms(self, catalog, moll, kind):
        net = catalog(kind)
        fine = net.fine_grid
        xi = fine.dual_axis()
        fhat = distributions.spectral_data(ModelDistribution(kind))(xi)
        for eps, fr in zip(net.ladder.values, net.frames):
            assert fr.dtype == float
            full = inverse(fhat * moll.profile(eps * np.abs(xi)), fine)
            np.testing.assert_allclose(fr, full.real, rtol=0,
                                       atol=1e-12 * np.max(np.abs(fr)))

    def test_table_frames_keep_the_full_transforms(self, grid, ladder, seq,
                                                   moll, monkeypatch):
        sizes = []
        real_inverse = distributions.inverse

        def recorded(fhat, g, **kwargs):
            sizes.append(np.size(fhat))
            return real_inverse(fhat, g, **kwargs)

        monkeypatch.setattr(distributions, "inverse", recorded)
        xi = np.linspace(-50.0, 50.0, 101)
        table = {"xi": list(xi), "re": list(np.exp(-xi ** 2 / 4)),
                 "im": list(0.1 * np.exp(-(xi - 1) ** 2))}
        net = regularize(ModelDistribution("table", table=table), moll,
                         ladder, grid, weight=seq)
        assert sizes == [net.fine_grid.n] * ladder.count
        assert all(np.iscomplexobj(fr) for fr in net.frames)


class TestEstimatorsMatchTheFullPath:
    """The half path gives the full path's verdicts and witnesses; sups
    agree within the round-off that separates two FFT implementations."""

    @pytest.mark.parametrize("kind,center,radius", WINDOWED)
    def test_derivative_sups(self, catalog, kind, center, radius):
        net = windowed(catalog, kind, center, radius)
        box = (-10.0, 10.0)
        alphas, half = _derivative_sups(net, box, MODERATION_ALPHA_MAX, "t")
        _, full = _derivative_sups(as_complex(net), box,
                                   MODERATION_ALPHA_MAX, "t")
        fine = net.fine_grid
        xi = fine.dual_axis()
        dxi = 2 * np.pi / (fine.n * fine.spacing)
        l1 = max(float(np.sum(np.abs(fr))) for fr in net.frames) * fine.spacing
        spectra = [np.abs(forward(fr, fine)) for fr in net.frames]
        for (k,), a, b in zip(alphas, half, full):
            # the inverse's own bound, u log2(N) sum |xi^k fhat| dxi / 2 pi,
            # plus a node's forward round-off u log2(N) ||f||_1 amplified by
            # |xi|^k up to Nyquist: each path carries its own realization
            weight = max(float(np.sum(np.abs(xi) ** k * sp)) for sp in spectra)
            tol = 4 * U * np.log2(fine.n) * (weight * dxi / (2 * np.pi)
                                             + l1 * fine.dual_max ** k)
            np.testing.assert_allclose(a, b, rtol=0, atol=tol)

    @pytest.mark.parametrize("kind,center,radius", WINDOWED)
    def test_log_transform_sups(self, catalog, seq, kind, center, radius):
        net = windowed(catalog, kind, center, radius)
        xi = net.fine_grid.dual_axis()
        masks = [None] + [(np.sign(xi) == s) & (np.abs(xi)
                                                >= LOW_FREQUENCY_CUTOFF)
                          for s in (1.0, -1.0)]
        fine = net.fine_grid
        scale = SequenceScale(seq, net.ladder)
        # the real net's spectrum is the half axis: its masks are folded
        half = _log_transform_sups(net, PATTERN_GRID, scale,
                                   [None] + [_fold(m, fine)
                                             for m in masks[1:]])
        full = _log_transform_sups(as_complex(net), PATTERN_GRID, scale,
                                   masks)
        l1 = max(float(np.sum(np.abs(fr))) for fr in net.frames) * fine.spacing
        top = max(float(np.max(np.abs(forward(fr, fine, half=True))))
                  for fr in net.frames)
        # a kept node is at least SPECTRAL_FLOOR * top: its log moves by at
        # most the node's round-off relative to that
        tol = 4 * U * np.log2(fine.n) * l1 / (SPECTRAL_FLOOR * top)
        for a, b in zip(half, full):
            assert a.keys() == b.keys()
            for h in a:
                np.testing.assert_array_equal(np.isfinite(a[h]),
                                              np.isfinite(b[h]))
                fin = np.isfinite(a[h])
                np.testing.assert_allclose(a[h][fin], b[h][fin], rtol=0,
                                           atol=tol)

    @pytest.mark.parametrize("kind,center,radius", WINDOWED)
    @pytest.mark.parametrize("mode", ("beurling", "roumieu"))
    def test_classify_net(self, catalog, kind, center, radius, mode):
        net = windowed(catalog, kind, center, radius)
        a = classify_net(net, (-10.0, 10.0), mode=mode)
        b = classify_net(as_complex(net), (-10.0, 10.0), mode=mode)
        assert a.classification == b.classification
        assert a.fitted.keys() == b.fitted.keys()
        # the rates are logs of the sups above over log-scale growth; the
        # round-off-bound fourth-order gaussian sups differ by 3e-3
        # relative, which moves a rate by about 1e-5
        for key in a.fitted:
            assert a.fitted[key] == pytest.approx(b.fitted[key], rel=1e-4,
                                                  abs=1e-6)

    @pytest.mark.parametrize("kind,center,radius", WINDOWED)
    @pytest.mark.parametrize("mode", ("beurling", "roumieu"))
    def test_regularity_and_cones(self, catalog, kind, center, radius, mode):
        net = windowed(catalog, kind, center, radius)
        a, b = regularity_test(net, mode), regularity_test(as_complex(net),
                                                           mode)
        assert (a.verdict, a.witness) == (b.verdict, b.witness)
        assert sigma_g(net, mode=mode) == sigma_g(as_complex(net), mode=mode)


class TestFullSpectraKept:
    @pytest.fixture
    def spectrum_sizes(self, monkeypatch):
        sizes = []
        real_forward = estimators.forward

        def recorded(f, g, **kwargs):
            out = real_forward(f, g, **kwargs)
            sizes.append(out.shape)
            return out

        # frames are transformed by the spectrum reader nets._spectrum
        monkeypatch.setattr(estimators, "forward", recorded)
        monkeypatch.setattr(nets, "forward", recorded)
        return sizes

    def test_real_1d_net_takes_the_half_axis(self, catalog, spectrum_sizes):
        # one half-axis spectrum per rung, each on the rung's reading grid
        net = windowed(catalog, "delta", 0.0, 0.5)
        sigma_g(net, mode="beurling")
        assert spectrum_sizes == [(g.n // 2 + 1,) for g in net.reading_grids]

    def test_complex_net_takes_the_full_axis(self, catalog, spectrum_sizes):
        net = as_complex(windowed(catalog, "delta", 0.0, 0.5))
        sigma_g(net, mode="beurling")
        classify_net(net, (-1.0, 1.0))
        n = net.fine_grid.n
        assert spectrum_sizes == [(n,)] * (2 * net.ladder.count)

    @pytest.fixture
    def net_2d(self, moll, seq):
        g2 = GridSpec(2, 2.5, 256)
        lad = EpsilonLadder(0.5, 0.5, 6)
        m = ModelDistribution(
            "tensor2d", dim=2,
            factors=(ModelDistribution("delta"),
                     ModelDistribution("gaussian")))
        with np.errstate(all="ignore"):
            net = regularize(m, moll, lad, g2, weight=seq)
        return window_net(net, (0.0, 0.0), 1.0)

    def test_real_2d_net_takes_the_half_plane(self, net_2d, spectrum_sizes):
        assert all(fr.dtype == float for fr in net_2d.frames)
        sigma_g(net_2d, ConePartition.sectors_2d(4), mode="beurling")
        assert spectrum_sizes == [(256, 129)] * net_2d.ladder.count

    def test_2d_net_takes_the_full_grid(self, net_2d, spectrum_sizes):
        # a 2-D net with complex frames
        sigma_g(as_complex(net_2d), ConePartition.sectors_2d(4),
                mode="beurling")
        assert spectrum_sizes == [(256, 256)] * net_2d.ladder.count
