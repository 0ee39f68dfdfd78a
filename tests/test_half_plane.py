"""The half-spectrum path on 2-D grids: real-to-complex transforms of real
2-D frames, cone masks folded onto the half plane, and the sups and
wave-front verdicts they give against the full complex path."""

from dataclasses import replace

import numpy as np
import pytest

from gfalg.distributions import ModelDistribution, regularize
from gfalg.errors import ResolutionError
from gfalg.estimators import PATTERN_GRID, _log_transform_sups
from gfalg.grids import GridSpec, forward, inverse
from gfalg.microlocal import (LOW_FREQUENCY_CUTOFF, MIN_CONE_NODES, Cone,
                              ConePartition, _cone_masks, _fold, sigma_g,
                              wavefront)
from gfalg.mollifier import SPECTRAL_FLOOR
from gfalg.nets import EpsilonLadder, SequenceScale, window_net
from gfalg.weights import assoc, resolved_for

U = np.finfo(float).eps / 2  # unit round-off

#: the 2-D conormal rig: grid, ladder, windows and cones
RIG_GRID = GridSpec(2, 5.0, 1024)
RIG_LADDER = EpsilonLadder(0.25, 0.5, 6)
RIG_CENTERS = ((0.0, 0.0), (3.0, 0.0))
RIG_RADIUS = 1.0
RIG_CONES = ConePartition.sectors_2d(8)

#: tensor entries (first factor, second factor): both conormal rig entries
#: and delta' x gaussian
TENSORS = (("delta", "gaussian"), ("gaussian", "gaussian"),
           ("delta_prime", "gaussian"))


def as_complex(net):
    """The same net with complex frames, which take the full transforms."""
    return replace(net, frames=tuple(fr.astype(complex) for fr in net.frames))


def full_grid_mask(cone, g):
    """The cone's mask over the full dual grid, without the core."""
    radius = g.dual_radius()
    return (cone.contains(g.dual_points(), radius)
            & (radius >= LOW_FREQUENCY_CUTOFF))


def fold(full, n):
    """Node (k1, k2) of the half plane is kept when it or its mirror
    ((-k1) mod n, (-k2) mod n) is."""
    rows = -np.arange(n) % n
    cols = -np.arange(n // 2 + 1) % n
    return full[:, : n // 2 + 1] | full[np.ix_(rows, cols)]


def reference_sups(net, h_values, seq, masks):
    """The half-spectrum sups written out over every node: a full-size
    |fhat_j| per rung, a penalty at every node of the half spectrum, and a
    mask over the full grid folded onto it."""
    fine = net.fine_grid
    n, m = fine.n, fine.n // 2 + 1
    xi = fine.dual_axis()
    if fine.dim == 1:
        radii = np.abs(xi[:m])
    else:
        radii = np.hypot(*np.meshgrid(xi, xi[:m], indexing="ij")).ravel()
    h_values = np.asarray(h_values, dtype=float)
    seq = resolved_for(seq, float(radii.max()) / float(h_values.min()))
    penalties = [assoc(seq, radii / h) for h in h_values]
    mags = [np.abs(forward(fr, fine, half=True)).ravel() for fr in net.frames]
    top = max(float(mg.max()) for mg in mags)
    cut = SPECTRAL_FLOOR * top if top > 0 else np.inf
    out = []
    for mask in masks:
        if mask is not None:
            if fine.dim == 1:
                mask = mask[:m] | mask[-np.arange(m) % n]
            else:
                mask = fold(mask.reshape(n, n), n).ravel()
        sups = np.full((len(h_values), net.ladder.count), -np.inf)
        for j, mag in enumerate(mags):
            keep = mag > cut
            if mask is not None:
                keep &= mask
            nodes = np.flatnonzero(keep)
            if nodes.size:
                log_f = np.log(mag[nodes])
                for i, pen in enumerate(penalties):
                    sups[i, j] = np.max(log_f + pen[nodes])
        out.append({float(h): row for h, row in zip(h_values, sups)})
    return out, seq


def assert_sups_equal(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.keys() == b.keys()
        for h in a:
            np.testing.assert_array_equal(a[h], b[h])


@pytest.fixture(scope="module")
def rig_nets(moll, seq):
    """(factors) -> the regularized tensor net on the conormal rig."""
    nets = {}
    for factors in TENSORS:
        m = ModelDistribution("tensor2d", dim=2, factors=tuple(
            ModelDistribution(kind) for kind in factors))
        with np.errstate(all="ignore"):
            nets[factors] = regularize(m, moll, RIG_LADDER, RIG_GRID,
                                       weight=seq)
    return nets


class TestHalfPlaneTransforms:
    @pytest.mark.parametrize("n", (256, 1024))
    def test_forward_is_the_first_half_of_the_full_spectrum(self, n):
        g = GridSpec(2, 5.0, n)
        x1, x2 = g.points()
        rng = np.random.default_rng(n)
        for f in (rng.standard_normal((n, n)),
                  np.exp(-x1 ** 2 - 2 * x2 ** 2) * np.sin(3 * x1 + x2)):
            half = forward(f, g, half=True)
            assert half.shape == (n, n // 2 + 1)
            # the standard FFT error bound over n^2 points, per node
            tol = 4 * U * np.log2(n * n) * np.sum(np.abs(f)) * g.spacing ** 2
            full = forward(f, g)
            assert np.max(np.abs(half - full[:, : n // 2 + 1])) <= tol

    def test_inverse_is_the_real_part_of_the_full_inverse(self):
        g = GridSpec(2, 5.0, 256)
        full = forward(np.random.default_rng(3).standard_normal((256, 256)),
                       g)
        out = inverse(full[:, :129], g)
        assert out.dtype == float and out.shape == (256, 256)
        tol = (4 * U * np.log2(256 * 256) * np.sum(np.abs(full))
               / (256 * g.spacing) ** 2)
        assert np.max(np.abs(out - inverse(full, g).real)) <= tol

    def test_roundtrip_identity(self):
        g = GridSpec(2, 5.0, 256)
        f = np.random.default_rng(7).standard_normal((256, 256))
        back = inverse(forward(f, g, half=True), g)
        assert back.dtype == float
        assert np.max(np.abs(back - f)) < 1e-12


class TestHalfPlaneMasks:
    @pytest.mark.parametrize("n_cones", (4, 8, 16))
    def test_masks_are_the_fold_of_the_full_grid_masks(self, n_cones):
        g = GridSpec(2, 5.0, 256)
        part = ConePartition.sectors_2d(n_cones)
        half = _cone_masks(part, g, True)
        full = _cone_masks(part, g, False)
        for cone, h, f in zip(part.cones, half, full):
            expected = full_grid_mask(cone, g)
            np.testing.assert_array_equal(f, expected.ravel())
            np.testing.assert_array_equal(h.reshape(256, 129),
                                          fold(expected, 256))
        # the Nyquist row and column hold cone nodes
        planes = [h.reshape(256, 129) for h in half]
        assert any(p[128].any() for p in planes)
        assert any(p[:, 128].any() for p in planes)

    def test_antipodal_sectors_differ_on_the_nyquist_lines_alone(self):
        half = _cone_masks(ConePartition.sectors_2d(8), RIG_GRID, True)
        inner = np.ones((1024, 513), dtype=bool)
        inner[512] = inner[:, 512] = False
        for i in range(4):
            a, b = (half[k].reshape(1024, 513) for k in (i, i + 4))
            np.testing.assert_array_equal(a[inner], b[inner])
            assert not np.array_equal(a, b)

    def test_antipodal_sectors_share_their_sups(self, rig_nets, seq):
        net = window_net(rig_nets[("delta", "gaussian")], (0.0, 0.0),
                         RIG_RADIUS)
        masks = _cone_masks(RIG_CONES, RIG_GRID, True)
        scale = SequenceScale(seq, net.ladder)
        sups = _log_transform_sups(net, PATTERN_GRID, scale, masks)
        # no node on the Nyquist lines carries data here
        for i in range(4):
            assert sups[i] is sups[i + 4]
            assert sups[i] is not sups[(i + 1) % 4]
        # a mask read by itself gives the sups it shares
        for i in range(8):
            alone = _log_transform_sups(net, PATTERN_GRID, scale,
                                        [masks[i]])
            assert_sups_equal(alone, [sups[i]])

    def test_cone_size_counted_on_the_full_grid(self):
        g = GridSpec(2, 5.0, 256)
        counts = []
        for th in np.linspace(0.05, 2 * np.pi, 24, endpoint=False):
            for width in (2e-4, 1e-3, 4e-3):
                cone = Cone("thin", (np.cos(th), np.sin(th)), width)
                expected = full_grid_mask(cone, g)
                full = int(expected.sum())
                counts.append((full, int(expected[:, :129].sum())))
                part = ConePartition(dim=2, cones=(cone,))
                for half in (True, False):
                    if full < MIN_CONE_NODES:
                        with pytest.raises(ResolutionError,
                                           match=f"holds only {full} dual"):
                            _cone_masks(part, g, half)
                    else:
                        _cone_masks(part, g, half)
        # both outcomes occur, and some cones pass only because the nodes
        # outside the half plane are counted
        assert any(full < MIN_CONE_NODES for full, _ in counts)
        assert any(own < MIN_CONE_NODES <= full for full, own in counts)

    def test_thin_cone_rejected_by_sigma_g(self, rig_nets):
        net = window_net(rig_nets[("delta", "gaussian")], (0.0, 0.0),
                         RIG_RADIUS)
        thin = Cone("thin", (np.cos(5.0), np.sin(5.0)), 1e-6)
        part = ConePartition(dim=2, cones=(thin,))
        for a in (net, as_complex(net)):
            with pytest.raises(ResolutionError, match="refine the grid"):
                sigma_g(a, part, mode="beurling")


#: the (centre, sector) pairs each rig entry flags, by mode.  The classical
#: wave front of a first factor singular at 0 is the conormal pair, sectors
#: 0 and 4 at (0, 0).  delta' x gaussian in Beurling mode flags all 8
#: sectors there, so ``wf_compare`` is False: a known fault, pinned as the
#: verdict the code gives, so that any move of it is seen.
CONORMAL = [((0.0, 0.0), "sector0"), ((0.0, 0.0), "sector4")]
RIG_FLAGS = {
    (("delta", "gaussian"), "beurling"): CONORMAL,
    (("delta", "gaussian"), "roumieu"): CONORMAL,
    (("gaussian", "gaussian"), "beurling"): [],
    (("gaussian", "gaussian"), "roumieu"): [],
    (("delta_prime", "gaussian"), "beurling"): [
        ((0.0, 0.0), f"sector{i}") for i in range(8)],
    (("delta_prime", "gaussian"), "roumieu"): CONORMAL,
}


@pytest.fixture(scope="module")
def rig_fronts(rig_nets):
    """(factors, mode) -> the wave front of the rig entry on the half
    plane."""
    return {(factors, mode): wavefront(rig_nets[factors], RIG_CENTERS,
                                       RIG_RADIUS, RIG_CONES, mode)
            for factors, mode in RIG_FLAGS}


class TestSigmaGMatchesTheFullPath:
    @pytest.mark.parametrize("factors", TENSORS)
    @pytest.mark.parametrize("mode", ("beurling", "roumieu"))
    def test_verdicts_and_witnesses(self, rig_nets, rig_fronts, factors,
                                    mode):
        net = rig_nets[factors]
        assert all(fr.dtype == float for fr in net.frames)
        half = rig_fronts[factors, mode]
        full = wavefront(as_complex(net), RIG_CENTERS, RIG_RADIUS,
                         RIG_CONES, mode)
        assert half.entries == full.entries

    @pytest.mark.parametrize("factors", TENSORS)
    @pytest.mark.parametrize("mode", ("beurling", "roumieu"))
    def test_flagged_sectors_are_pinned(self, rig_fronts, factors, mode):
        rep = rig_fronts[factors, mode]
        flagged = sorted((c, v.label) for c, v in rep.entries
                         if v.verdict == "singular")
        assert flagged == RIG_FLAGS[factors, mode]

    @pytest.mark.parametrize("factors", TENSORS)
    def test_raw_sups(self, rig_nets, seq, factors):
        net = window_net(rig_nets[factors], (0.0, 0.0), RIG_RADIUS)
        fine = net.fine_grid
        scale = SequenceScale(seq, net.ladder)
        half = _log_transform_sups(
            net, PATTERN_GRID, scale, _cone_masks(RIG_CONES, fine, True))
        full = _log_transform_sups(
            as_complex(net), PATTERN_GRID, scale,
            _cone_masks(RIG_CONES, fine, False))
        l1 = max(float(np.sum(np.abs(fr))) for fr in net.frames) * \
            fine.spacing ** 2
        top = max(float(np.max(np.abs(forward(fr, fine, half=True))))
                  for fr in net.frames)
        # a kept node is at least SPECTRAL_FLOOR * top: its log moves by at
        # most the node's round-off relative to that
        tol = 4 * U * np.log2(fine.n ** 2) * l1 / (SPECTRAL_FLOOR * top)
        for a, b in zip(half, full):
            assert a.keys() == b.keys()
            for h in a:
                np.testing.assert_array_equal(np.isfinite(a[h]),
                                              np.isfinite(b[h]))
                fin = np.isfinite(a[h])
                np.testing.assert_allclose(a[h][fin], b[h][fin], rtol=0,
                                           atol=tol)


class TestCompactedSupsAreBitwiseTheAllNodeSups:
    """Keeping only the nodes above the floor, and evaluating the
    penalties at their radii alone, leaves the sups bitwise unchanged."""

    @pytest.fixture(scope="class")
    def deep_nets(self, grid, seq, moll):
        ladder = EpsilonLadder(2.0 ** -3, 0.5, 10)
        nets = {}
        for kind in ("delta", "heaviside", "gaussian"):
            with np.errstate(all="ignore"):
                nets[kind] = regularize(ModelDistribution(kind), moll,
                                        ladder, grid, weight=seq)
        return nets

    @staticmethod
    def masks_1d(fine):
        xi = fine.dual_axis()
        rays = [(np.sign(xi) == s) & (np.abs(xi) >= LOW_FREQUENCY_CUTOFF)
                for s in (1.0, -1.0)]
        return [None, *rays]

    @pytest.mark.parametrize("depth", (8, 10))
    @pytest.mark.parametrize("kind,center,radius", [
        ("delta", 0.0, 0.5), ("heaviside", 0.0, 0.5), ("gaussian", 0.0, 10.0)])
    def test_1d_windowed_nets(self, catalog, deep_nets, seq, depth, kind,
                              center, radius):
        base = catalog(kind) if depth == 8 else deep_nets[kind]
        assert base.ladder.count == depth
        net = window_net(base, center, radius)
        masks = self.masks_1d(net.fine_grid)
        folded = [None] + [_fold(m, net.fine_grid) for m in masks[1:]]
        got = _log_transform_sups(net, PATTERN_GRID,
                                  SequenceScale(seq, net.ladder), folded)
        expected, _ = reference_sups(net, PATTERN_GRID, seq, masks)
        assert_sups_equal(got, expected)

    @pytest.mark.parametrize("factors", TENSORS)
    def test_2d_windowed_nets(self, moll, seq, factors):
        g = GridSpec(2, 2.5, 256)
        m = ModelDistribution("tensor2d", dim=2, factors=tuple(
            ModelDistribution(kind) for kind in factors))
        with np.errstate(all="ignore"):
            net = regularize(m, moll, EpsilonLadder(0.5, 0.5, 6), g,
                             weight=seq)
        net = window_net(net, (0.0, 0.0), 1.0)
        part = ConePartition.sectors_2d(8)
        full_masks = [full_grid_mask(c, g).ravel() for c in part.cones]
        expected, _ = reference_sups(net, PATTERN_GRID, seq,
                                     [None, *full_masks])
        # masks over the full grid folded onto the half plane, and the
        # half-plane cone masks
        scale = SequenceScale(seq, net.ladder)
        for masks in ([_fold(m, g) for m in full_masks],
                      _cone_masks(part, g, True)):
            got = _log_transform_sups(net, PATTERN_GRID, scale,
                                      [None, *masks])
            assert_sups_equal(got, expected)
