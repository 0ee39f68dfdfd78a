"""Periodic grids, the discrete Fourier pair and the heap policy."""

import ctypes
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfalg
from gfalg.grids import (GridSpec, _alternate, _band, forward, integrate,
                         inverse)


class TestGridSpec:
    def test_spacing_and_dual(self):
        g = GridSpec(1, 20.0, 4096)
        assert g.spacing == pytest.approx(40.0 / 4096)
        assert g.dual_max == pytest.approx(np.pi / g.spacing)

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            GridSpec(1, 20.0, 4095)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            GridSpec(1, 20.0, 128)

    def test_refine_keeps_base_nodes(self):
        g = GridSpec(1, 20.0, 512)
        f = g.refine(4)
        assert np.allclose(f.axis()[::4], g.axis())

    def test_axis_symmetric_about_zero(self):
        g = GridSpec(1, 10.0, 256)
        x = g.axis()
        assert x[0] == pytest.approx(-10.0)
        assert 0.0 in x

    def test_index_of(self):
        g = GridSpec(1, 10.0, 256)
        assert g.axis()[g.index_of(0.0)] == pytest.approx(0.0)


class TestTransformOracles:
    def test_gaussian_transform_closed_form(self):
        g = GridSpec(1, 20.0, 4096)
        x = g.axis()
        fhat = forward(np.exp(-x ** 2), g)
        xi = g.dual_axis()
        oracle = np.sqrt(np.pi) * np.exp(-xi ** 2 / 4.0)
        assert np.max(np.abs(fhat - oracle)) < 1e-13

    def test_shifted_gaussian_phase(self):
        # f(x - a) picks up e^{+i a xi} under fhat(xi) = int f e^{+ix xi}
        g = GridSpec(1, 20.0, 4096)
        x = g.axis()
        a = 1.25
        fhat = forward(np.exp(-(x - a) ** 2), g)
        xi = g.dual_axis()
        oracle = np.sqrt(np.pi) * np.exp(-xi ** 2 / 4.0) * np.exp(1j * a * xi)
        assert np.max(np.abs(fhat - oracle)) < 1e-12

    def test_roundtrip_identity(self):
        g = GridSpec(1, 20.0, 2048)
        rng = np.random.default_rng(7)
        f = rng.standard_normal(2048)
        assert np.max(np.abs(inverse(forward(f, g), g) - f)) < 1e-12

    def test_2d_separable_gaussian(self):
        g = GridSpec(2, 10.0, 256)
        xx, yy = g.points()
        fhat = forward(np.exp(-(xx ** 2 + yy ** 2)), g)
        kx, ky = g.dual_points()
        oracle = np.pi * np.exp(-(kx ** 2 + ky ** 2) / 4.0)
        assert np.max(np.abs(fhat - oracle)) < 1e-12

    def test_integrate_matches_mass(self):
        g = GridSpec(1, 20.0, 2048)
        x = g.axis()
        assert integrate(np.exp(-x ** 2), g) == pytest.approx(
            np.sqrt(np.pi), abs=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, seed):
        g = GridSpec(1, 5.0, 256)
        f = np.random.default_rng(seed).standard_normal(256)
        assert np.max(np.abs(inverse(forward(f, g), g) - f)) < 1e-11

    def test_parseval(self):
        g = GridSpec(1, 20.0, 2048)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(2048)
        lhs = integrate(np.abs(f) ** 2, g)
        fhat = forward(f, g)
        dxi = 2 * np.pi / (g.n * g.spacing)
        rhs = np.sum(np.abs(fhat) ** 2) * dxi / (2 * np.pi)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestExactPhase:
    """L xi_k = pi k on every grid, so the phase of the pair is the exact
    sign (-1)^k: the unit sample at x = 0 transforms to the constant dx^d
    and back, within 4 ulp."""

    @pytest.mark.parametrize("half", (False, True))
    @pytest.mark.parametrize("dim, n", [(1, 4096), (1, 4096 * 16),
                                        (1, 4096 * 64), (2, 1024)])
    def test_unit_sample_at_the_origin(self, dim, n, half):
        g = GridSpec(dim, 20.0, n)
        delta = np.zeros(g.shape)
        delta[(g.index_of(0.0),) * dim] = 1.0
        fhat = forward(delta, g, half=half)
        dx = g.spacing ** dim
        assert np.max(np.abs(fhat - dx)) <= 4 * np.spacing(dx)
        back = inverse(fhat, g)
        assert np.max(np.abs(back - delta)) <= 4 * np.spacing(1.0)


class TestOneTransformCall:
    """The full-grid pair is one n-D transform with the phase applied once:
    in 1-D bitwise the per-axis formula, in 2-D within the FFT error bound
    of it."""

    @staticmethod
    def _per_axis(f, g, forward_side):
        # e^{-+i L xi_k} = (-1)^k exactly, since L xi_k = pi k
        sign = np.where(np.arange(g.n) % 2, -1.0, 1.0)
        out = np.asarray(f, dtype=complex)
        for ax in range(g.dim):
            shape = [1] * g.dim
            shape[ax] = g.n
            if forward_side:
                out = np.fft.ifft(out, axis=ax)
                out *= g.spacing * g.n
                out *= sign.reshape(shape)
            else:
                out = np.fft.fft(out * sign.reshape(shape), axis=ax)
                out /= g.n * g.spacing
        return out

    @pytest.mark.parametrize("n", [4096, 65536])
    def test_1d_bitwise_the_per_axis_formula(self, n):
        g = GridSpec(1, 20.0, n)
        rng = np.random.default_rng(n)
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.array_equal(forward(f, g), self._per_axis(f, g, True))
        assert np.array_equal(inverse(f, g), self._per_axis(f, g, False))
        real = f.real.copy()
        assert np.array_equal(forward(real, g), self._per_axis(real, g, True))

    @pytest.mark.parametrize("n", [256, 1024])
    def test_2d_within_the_fft_error_bound(self, n):
        g = GridSpec(2, 20.0, n)
        rng = np.random.default_rng(n)
        f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u = np.finfo(float).eps / 2
        # 4 u log2(n^2) times the l1 mass of the input, on either side
        mass = 4 * u * np.log2(n * n) * np.sum(np.abs(f))
        dxi = 2 * np.pi / (n * g.spacing)
        fwd_bound = mass * g.spacing ** 2
        inv_bound = mass * (dxi / (2 * np.pi)) ** 2
        assert np.max(np.abs(forward(f, g) - self._per_axis(f, g, True))) \
            <= fwd_bound
        assert np.max(np.abs(inverse(f, g) - self._per_axis(f, g, False))) \
            <= inv_bound


class TestLayoutFromShape:
    """``inverse`` reads the layout from the length of the last axis: n//2
    + 1 nodes are a half spectrum (real samples), n nodes a full one
    (complex samples), and any other shape is refused."""

    @staticmethod
    def _flagged(fhat, g, half):
        # the pair's inverse with the layout given, not read
        out = _alternate(np.array(fhat, dtype=complex))
        if half:
            np.conjugate(out, out=out)
            out = np.fft.irfftn(out, s=g.shape, axes=range(g.dim))
            out /= g.spacing ** g.dim
            return out
        out = np.fft.fftn(out)
        out /= (g.n * g.spacing) ** g.dim
        return out

    @pytest.mark.parametrize("dim, n", [(1, 256), (1, 4096), (2, 256)])
    def test_bitwise_the_flagged_inverse(self, dim, n):
        g = GridSpec(dim, 5.0, n)
        rng = np.random.default_rng(n + dim)
        f = rng.standard_normal(g.shape)
        for fhat, half in ((forward(f, g, half=True), True),
                           (forward(f + 1j * rng.standard_normal(g.shape),
                                    g), False)):
            got, expected = inverse(fhat, g), self._flagged(fhat, g, half)
            assert got.dtype == (float if half else complex)
            assert got.shape == g.shape
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(128,), (257,), (129, 2), (256, 1)])
    def test_1d_refuses_other_lengths(self, shape):
        g = GridSpec(1, 5.0, 256)
        with pytest.raises(ValueError, match="no spectrum on"):
            inverse(np.ones(shape, dtype=complex), g)

    @pytest.mark.parametrize("shape", [(256, 128), (256, 257), (128, 129),
                                       (255, 256), (129, 129), (256,),
                                       (129,)])
    def test_2d_refuses_other_shapes(self, shape):
        g = GridSpec(2, 5.0, 256)
        with pytest.raises(ValueError, match="no spectrum on"):
            inverse(np.ones(shape, dtype=complex), g)


class TestBandCut:
    """``_band`` cuts a half spectrum on its half axis, which in 2-D is the
    last axis: a half plane is refused rather than cut along its rows."""

    def test_half_axis_is_its_prefix(self):
        fine, coarse = GridSpec(1, 5.0, 512), GridSpec(1, 5.0, 256)
        fhat = forward(np.random.default_rng(1).standard_normal(512), fine,
                       half=True)
        assert np.array_equal(_band(fhat, fine, coarse), fhat[:129])

    def test_half_plane_is_refused(self):
        fine, coarse = GridSpec(2, 5.0, 512), GridSpec(2, 5.0, 256)
        fhat = forward(np.random.default_rng(2).standard_normal(fine.shape),
                       fine, half=True)
        with pytest.raises(ValueError, match="half plane"):
            _band(fhat, fine, coarse)
        # on its own grid a half plane passes through, as every 2-D window
        # of the decay sups does
        assert _band(fhat, fine, fine) is fhat


_TWO_PIPELINES = """
import resource, warnings
from gfalg.distributions import ModelDistribution, regularize
from gfalg.estimators import classify_net, regularity_test
from gfalg.grids import GridSpec
from gfalg.mollifier import build_mollifier
from gfalg.nets import EpsilonLadder, window_net
from gfalg.weights import WeightSequence

grid = GridSpec(1, 20.0, 4096)
moll = build_mollifier(1.5, grid)
warnings.simplefilter("ignore", RuntimeWarning)


def pipeline():
    net = regularize(ModelDistribution("delta"), moll,
                     EpsilonLadder(2.0 ** -3, 0.5, 8), grid,
                     weight=WeightSequence.gevrey(2.0))
    classify_net(net, (-10.0, 10.0))
    regularity_test(window_net(net, 0.0, 10.0))


pipeline()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
pipeline()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts Linux minor page faults")
def test_heap_policy_reuses_transform_buffers():
    # a fresh interpreter, so that no earlier test's frees have moved
    # glibc's dynamic thresholds: with the heap serving transform-sized
    # buffers, a second depth-8 pipeline reuses the pages the first one
    # faulted in; mapped afresh, they fault again (about 2000 per run)
    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("the C library has no mallopt")
    src = os.path.dirname(os.path.dirname(gfalg.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", _TWO_PIPELINES], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=300)
    assert int(run.stdout) < 64
