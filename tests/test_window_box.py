"""Wave-front windows on their own box: wavefront multiplies each window
into a power-of-two block of the fine grid, at least BOX_DIAMETERS window
diameters wide, and reads the cone sups from the block's spectrum.  The
windowed frame is 0 outside the block, so that spectrum is the fine grid's
at every (n/m)-th dual node, up to a unimodular phase."""

import warnings

import numpy as np
import pytest

from gfalg import microlocal
from gfalg.distributions import ModelDistribution, regularize
from gfalg.grids import GridSpec, forward
from gfalg.microlocal import BOX_DIAMETERS, _window_box, wavefront
from gfalg.mollifier import plateau_window
from gfalg.nets import WINDOW_NOISE_REL, EpsilonLadder, window_net

CENTERS = (-2.0, 0.0, 2.0)
RADIUS = 0.5


@pytest.fixture(scope="module")
def depth_net(grid, seq, moll):
    """kind, depth -> the reference rig's net at that ladder depth."""
    nets = {}

    def get(kind, depth):
        if (kind, depth) not in nets:
            ladder = EpsilonLadder(2.0 ** -3, 0.5, depth)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                nets[kind, depth] = regularize(ModelDistribution(kind), moll,
                                               ladder, grid, weight=seq)
        return nets[kind, depth]
    return get


@pytest.fixture
def boxed(monkeypatch):
    """The windowed nets wavefront hands to sigma_g from here on."""
    nets = []
    original = microlocal.sigma_g

    def recorded(a, *args, **kwargs):
        nets.append(a)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(microlocal, "sigma_g", recorded)
    return nets


def _fine_windowed(net, center, radius):
    """The window multiplied into each frame on the whole fine grid, each
    frame zeroed when it falls to the noise floor of its parent frame."""
    frames = []
    for lf, fr in zip(window_net(net, center, radius).frames, net.frames):
        if np.max(np.abs(lf)) <= WINDOW_NOISE_REL * np.max(np.abs(fr)):
            lf = np.zeros_like(lf)
        frames.append(lf)
    return frames


class TestBoxSize:
    @pytest.mark.parametrize("oversample", (1, 8, 64))
    def test_reference_rig_box(self, grid, oversample):
        # 4 diameters of a radius-0.5 window are 409.6 nodes of the base
        # grid's spacing: the box is 512 of them, 1/8 of the grid
        fine = grid.refine(oversample)
        (block,), box = _window_box(fine, (0.0,), RADIUS)
        m = 512 * oversample
        assert box == GridSpec(1, 0.5 * m * fine.spacing, m)
        assert box.spacing == fine.spacing
        assert block.stop - block.start == m
        assert m * fine.spacing >= BOX_DIAMETERS * 2 * RADIUS
        assert m // 2 * fine.spacing < BOX_DIAMETERS * 2 * RADIUS

    def test_whole_grid_when_no_block_qualifies(self):
        fine = GridSpec(2, 5.0, 1024)
        blocks, box = _window_box(fine, (3.0, 0.0), 1.0)
        assert blocks == (slice(0, 1024),) * 2
        assert box == fine

    @pytest.mark.parametrize("center", (19.5, -19.5))
    def test_edge_window_clamped_box_holds_its_support(self, grid, center):
        for oversample in (1, 16):
            fine = grid.refine(oversample)
            (block,), box = _window_box(fine, (center,), RADIUS)
            assert block.stop - block.start == box.n
            assert 0 <= block.start and block.stop <= fine.n
            assert (block.stop == fine.n) if center > 0 else \
                (block.start == 0)
            w = plateau_window(fine, center, RADIUS)
            assert w[block].max() == 1.0
            assert not w[:block.start].any() and not w[block.stop:].any()

    def test_edge_window_reads_the_clamped_box(self, catalog, boxed):
        net = catalog("delta")
        rep = wavefront(net, (19.5,), RADIUS, mode="beurling")
        assert rep.flagged_centers() == ()
        (local,) = boxed
        (block,), box = _window_box(net.fine_grid, (19.5,), RADIUS)
        assert local.grid == box and local.oversample == 1
        for lf, ff in zip(local.frames, _fine_windowed(net, 19.5, RADIUS)):
            assert lf.tobytes() == ff[block].tobytes()


class TestBoxSpectra:
    @pytest.mark.parametrize("depth", (6, 10))
    def test_magnitudes_match_the_fine_grid_at_shared_nodes(self, depth_net,
                                                            boxed, depth):
        net = depth_net("delta", depth)
        fine = net.fine_grid
        wavefront(net, CENTERS, RADIUS, mode="beurling")
        u = np.finfo(float).eps / 2
        for center, local in zip(CENTERS, boxed):
            (block,), box = _window_box(fine, (center,), RADIUS)
            assert local.grid == box
            step = fine.n // box.n
            for lf, ff in zip(local.frames,
                              _fine_windowed(net, center, RADIUS)):
                # the box holds the whole windowed frame, bitwise
                assert lf.tobytes() == ff[block].tobytes()
                assert not ff[:block.start].any()
                assert not ff[block.stop:].any()
                on_box = np.abs(forward(lf, box, half=True))
                on_fine = np.abs(forward(ff, fine, half=True))[::step]
                bound = (u * np.log2(fine.n) * np.sum(np.abs(ff))
                         * fine.spacing)
                assert np.all(np.abs(on_box - on_fine) <= bound)

    def test_2d_whole_grid_box_reproduces_the_window(self, moll, seq,
                                                     boxed):
        g2 = GridSpec(2, 5.0, 256)
        m = ModelDistribution("tensor2d", dim=2, factors=(
            ModelDistribution("delta"), ModelDistribution("gaussian")))
        with np.errstate(all="ignore"):
            net = regularize(m, moll, EpsilonLadder(1.0, 0.5, 6), g2,
                             weight=seq)
        centers = ((0.0, 0.0), (2.0, -1.0))
        wavefront(net, centers, 1.0, mode="beurling")
        for center, local in zip(centers, boxed):
            assert local.grid == net.fine_grid
            assert any(lf.any() for lf in local.frames)
            for lf, ff in zip(local.frames,
                              _fine_windowed(net, center, 1.0)):
                assert lf.tobytes() == ff.tobytes()

    def test_2d_box_is_a_block_of_the_window(self, moll, seq, boxed):
        # a box clamped at the x edge, on the step's plateau
        g2 = GridSpec(2, 10.0, 512)
        m = ModelDistribution("tensor2d", dim=2, factors=(
            ModelDistribution("heaviside"), ModelDistribution("gaussian")))
        with np.errstate(all="ignore"):
            net = regularize(m, moll, EpsilonLadder(1.0, 0.5, 6), g2,
                             weight=seq)
        center = (9.0, 0.0)
        wavefront(net, (center,), 1.0, mode="beurling")
        (local,) = boxed
        blocks, box = _window_box(net.fine_grid, center, 1.0)
        assert local.grid == box and box.n < net.fine_grid.n
        assert blocks[0].stop == net.fine_grid.n
        assert all(lf.any() for lf in local.frames)
        for lf, ff in zip(local.frames, _fine_windowed(net, center, 1.0)):
            assert lf.tobytes() == ff[blocks].tobytes()
            outside = ff.copy()
            outside[blocks] = 0
            assert not outside.any()


class TestDualDensity:
    def test_depth6_delta_prime_flags_the_origin(self, depth_net):
        # the box's dual nodes are 1/BOX_DIAMETERS window bandwidths apart;
        # a 2.5-diameter box misses this wave front
        net = depth_net("delta_prime", 6)
        rep = wavefront(net, CENTERS, RADIUS, mode="beurling")
        assert rep.flagged_centers() == (0.0,)


class TestWindowNoiseFloor:
    @pytest.mark.parametrize("depth", (8, 10))
    @pytest.mark.parametrize("mode", ("beurling", "roumieu"))
    def test_delta_prime_windows_off_its_support_flag_nothing(
            self, depth_net, depth, mode):
        # off the support {0} a windowed delta' frame holds only the
        # transform round-off of its parent frame; zeroed at
        # WINDOW_NOISE_REL, it cannot read as spectral growth (read as
        # data, it flags some of these centres in both modes)
        net = depth_net("delta_prime", depth)
        rep = wavefront(net, (-15.0, 1.0, 10.0, 15.0), RADIUS, mode=mode)
        assert rep.flagged_centers() == ()
