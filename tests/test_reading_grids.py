"""Each rung of a real 1-D ``regularize`` net is read on its own grid: the
coarsest refinement of the base grid whose Nyquist frequency holds the
rung's reach, ALIAS_MARGIN * 2/eps_j, plus the plateau window's reach
(``mollifier.window_reach``) per window.  The frames on the finest rung's
grid are a view, built one frame at a time when read.

* On every reading grid, the decay tests keep the dual nodes above the
  ladder-wide noise floor that the fine grid keeps, with magnitudes within
  the FFT error bound; without the window's reach they do not.
* A ``regularize`` net builds no frame until one is read, and each frame
  it builds is bitwise the inverse of its band on the fine grid.
* One wave front builds each distinct box grid's cone masks once.

Error bounds follow Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., section 24.1: each transform output is off by at most
eta log2(N) times the sum of the magnitudes that enter it.
"""

import functools
import warnings

import numpy as np
import pytest

from gfalg import microlocal, nets
from gfalg.distributions import (ModelDistribution, _rung_profiles,
                                 regularize, rung_oversample, spectral_data)
from gfalg.estimators import _kept_spectra
from gfalg.grids import GridSpec, inverse
from gfalg.mollifier import window_reach
from gfalg.nets import ALIAS_MARGIN, EpsilonLadder, window_net

U = 2.0 ** -53
ETA = U + 4 * U / (1 - 4 * U) * (np.sqrt(2) + U)

KINDS = ("delta", "delta_prime", "heaviside", "pv_inverse", "gaussian",
         "gaussian_times_sine")


def entry(kind):
    if kind == "gaussian_times_sine":
        return ModelDistribution(kind, freq=3.0)
    return ModelDistribution(kind)


@pytest.fixture(scope="module")
def nets_at(grid, moll, seq):
    """(kind, depth) -> the reference rig's net, built once per module."""
    built = {}

    def get(kind, depth):
        if (kind, depth) not in built:
            ladder = EpsilonLadder(2.0 ** -3, 0.5, depth)
            built[kind, depth] = regularize(entry(kind), moll, ladder, grid,
                                            weight=seq)
        return built[kind, depth]
    return get


def full_l1(values):
    """sum |v| over the full axis, from values on a 1-D half axis."""
    mag = np.abs(values)
    return 2.0 * mag.sum() - mag[0] - mag[-1]


class TestReachRule:
    def test_window_reach_scales_as_one_over_the_radius(self):
        # the largest |xi| where the window's spectrum is above 1e-8 of its
        # peak: about 616 at radius 0.5 and 31 at radius 10
        assert window_reach(0.5) == pytest.approx(616.0, abs=1.0)
        assert window_reach(10.0) == pytest.approx(31.0, abs=0.5)
        assert window_reach(0.5) == pytest.approx(20.0 * window_reach(10.0),
                                                  rel=1e-15)

    @pytest.mark.parametrize("depth", (6, 10))
    def test_a_nets_rungs_take_the_alias_rule(self, nets_at, depth):
        net = nets_at("delta", depth)
        assert [g.n // net.grid.n for g in net.reading_grids] == [
            rung_oversample(eps, net.grid) for eps in net.ladder.values]

    @pytest.mark.parametrize("radius", (0.5, 10.0))
    def test_a_window_adds_its_reach(self, nets_at, radius):
        net = nets_at("delta", 10)
        netw = window_net(net, 0.0, radius)
        for g, eps in zip(netw.reading_grids, net.ladder.values):
            need = ALIAS_MARGIN * 2.0 / eps + window_reach(radius)
            m = g.n // net.grid.n
            assert m * net.grid.dual_max >= need or g == net.fine_grid
            assert m == 1 or m // 2 * net.grid.dual_max < need


def assert_same_kept_nodes(net, netw):
    """The window ``netw`` of ``net`` keeps on each rung's reading grid the
    fine grid's nodes above the floor, with log-magnitudes within the FFT
    error bound of both transforms, each carrying the inverse's error on
    the band its samples were made from."""
    grids, read = _kept_spectra(netw, on_fine=False)
    _, fine = _kept_spectra(netw, on_fine=True)
    fine_grid = netw.fine_grid
    for j, ((nodes, mag), (f_nodes, f_mag), g) in enumerate(
            zip(read, fine, grids)):
        # a half-axis node k is the same |xi| = pi k / L on every grid
        np.testing.assert_array_equal(nodes, f_nodes, err_msg=str(j))
        band = full_l1(net.spectra[0][j])
        l1 = [np.sum(np.abs(x)) * gr.spacing for x, gr in (
            (netw.samples[j], g), (netw.frames[j], fine_grid))]
        bound = ETA * (np.log2(g.n) * (l1[0] + band)
                       + np.log2(fine_grid.n) * (l1[1] + band))
        assert np.all(np.abs(np.log(mag) - np.log(f_mag))
                      <= bound / f_mag), j


class TestReadingGridsKeepTheFineNodes:
    """The reach rule's invariant, checked against the fine grid's view."""

    @pytest.mark.parametrize("depth", (6, 8, 10))
    @pytest.mark.parametrize("radius", (0.5, 10.0))
    @pytest.mark.parametrize("kind", KINDS)
    def test_windowed_catalog(self, nets_at, kind, depth, radius):
        net = nets_at(kind, depth)
        netw = window_net(net, 0.0, radius)
        assert_same_kept_nodes(net, netw)

    @pytest.mark.parametrize("depth", (6, 8))
    @pytest.mark.parametrize("kind", KINDS)
    def test_without_the_window_reach_the_nodes_differ(
            self, nets_at, monkeypatch, kind, depth):
        # the control: a radius-0.5 window read on the bare rung grids
        # loses kept nodes or moves them past the bound
        net = nets_at(kind, depth)
        monkeypatch.setattr(nets, "window_reach", lambda radius: 0.0)
        netw = window_net(net, 0.0, 0.5)
        assert netw.reading_grids == net.reading_grids
        with pytest.raises(AssertionError):
            assert_same_kept_nodes(net, netw)


class TestLazyFrames:
    @pytest.fixture
    def inverses(self, monkeypatch):
        """The sizes of the inverses made through nets from here on."""
        sizes = []
        counted = nets.inverse

        def recorded(fhat, g):
            sizes.append(g.n)
            return counted(fhat, g)

        monkeypatch.setattr(nets, "inverse", recorded)
        return sizes

    def test_regularize_builds_no_frame(self, grid, moll, inverses):
        net = regularize(ModelDistribution("delta"), moll,
                         EpsilonLadder(2.0 ** -3, 0.5, 10), grid)
        assert net.oversample == 64
        assert inverses == []
        assert len(net.frames) == 10 and net.real
        assert inverses == []
        # reading one frame builds that frame alone, on the fine grid, once
        assert net.frames[3].shape == net.fine_grid.shape
        assert inverses == [net.fine_grid.n]
        assert net.frames[3] is net.frames[3] and net.frames[-7] is \
            net.frames[3]
        assert inverses == [net.fine_grid.n]

    def test_frames_are_read_only(self, nets_at):
        frame = nets_at("gaussian", 6).frames[0]
        with pytest.raises(ValueError):
            frame[0] = 1.0

    def test_reading_grids_build_no_frame(self, grid, moll, seq, inverses):
        net = regularize(ModelDistribution("heaviside"), moll,
                         EpsilonLadder(2.0 ** -3, 0.5, 10), grid,
                         weight=seq)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            net.sups
            microlocal.wavefront(net, (-2.0, 0.0, 2.0), 0.5)
        # the last rung alone is read on the fine grid, once
        assert inverses.count(net.fine_grid.n) == 1
        assert net.reading_grids[-1] == net.fine_grid
        assert all(fr is None for fr in net.frames._built)

    def test_traced_cost_is_one_fine_inverse(self, grid, moll, inverses):
        # the benchmark's tracing hook reads len(frames) and frames[0].size
        net = regularize(ModelDistribution("pv_inverse"), moll,
                         EpsilonLadder(2.0 ** -3, 0.5, 10), grid)
        assert len(net.frames) * net.frames[0].size == 10 * 4096 * 64
        assert inverses == [net.fine_grid.n]

    @pytest.mark.parametrize("depth", (6, 10))
    @pytest.mark.parametrize("kind", KINDS)
    def test_view_is_bitwise_the_inverse_of_each_band(self, grid, moll,
                                                      nets_at, kind, depth):
        # the frames regularize built before its frames were a view: psi at
        # every node of the fine half axis times the spectrum, inverted
        net = nets_at(kind, depth)
        fine = net.fine_grid
        xi = fine.half_dual_axis()
        for j, psi in enumerate(_rung_profiles(moll, net.ladder,
                                               np.abs(xi))):
            if kind == "heaviside":
                spec = np.divide(psi, -1j * xi, where=xi != 0,
                                 out=np.zeros(xi.size, dtype=complex))
                expected = inverse(spec, fine)
                expected += 0.5 + fine.axis() / (2.0 * fine.half_width)
            else:
                expected = inverse(spectral_data(entry(kind))(xi) * psi, fine)
            assert net.frames[j].tobytes() == expected.tobytes(), j


class TestConeMasksPerBoxGrid:
    def test_one_wavefront_builds_each_box_grids_masks_once(self, nets_at,
                                                            monkeypatch):
        built = []
        build = microlocal._cone_masks.__wrapped__

        @functools.cache
        def recorded(cones, g, half):
            built.append(g.n)
            return build(cones, g, half)

        monkeypatch.setattr(microlocal, "_cone_masks", recorded)
        net = nets_at("delta", 10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            microlocal.wavefront(net, (-2.0, 0.0, 2.0), 0.5)
        # the per-rung boxes of 512 base-grid spacings on the reading grids
        boxes = sorted({512 * (g.n // net.grid.n)
                        for g in window_net(net, 0.0, 0.5).reading_grids})
        assert sorted(built) == boxes and len(boxes) > 4
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            microlocal.wavefront(net, (-2.0, 0.0, 2.0), 0.5)
        assert sorted(built) == boxes
