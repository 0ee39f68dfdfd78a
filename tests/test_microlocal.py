"""Directional singularity detection: cone partitions, per-cone decay
verdicts, and windowed wave-front reports against classical oracles."""

import csv
import io
import json

import numpy as np
import pytest

from gfalg.distributions import (ModelDistribution, classical_wf_oracle,
                                 regularize)
from gfalg.errors import ResolutionError
from gfalg.grids import GridSpec
from gfalg.microlocal import (Cone, ConePartition, ConeVerdict,
                              WaveFrontReport, sigma_g, wavefront, wf_compare)
from gfalg.nets import (EpsilonLadder, UltradiffOperator, apply_ultradiff,
                        combine, constant_embed, window_net)

CENTERS = (-2.0, 0.0, 2.0)
RADIUS = 0.5
SINGULAR_KINDS = ("delta", "delta_prime", "heaviside", "pv_inverse")


class TestCones:
    def test_1d_rays_cover_halflines(self):
        part = ConePartition.rays_1d()
        xi = np.linspace(-3, 3, 7)
        plus, minus = part.cones
        assert np.array_equal(plus.contains((xi,)), xi > 0)
        assert np.array_equal(minus.contains((xi,)), xi < 0)

    def test_2d_sectors_cover_circle(self):
        part = ConePartition.sectors_2d(8)
        th = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        pts = (np.cos(th), np.sin(th))
        hits = sum(c.contains(pts).astype(int) for c in part.cones)
        assert np.all(hits >= 1)  # overlap: every direction in some cone

    def test_known_norms_give_the_same_masks(self):
        grid = GridSpec(2, 2.5, 256)
        duals = grid.dual_points()
        norms = grid.dual_radius()
        for cone in ConePartition.sectors_2d(8).cones:
            assert np.array_equal(cone.contains(duals, norms),
                                  cone.contains(duals))

    def test_sector_count_validated(self):
        with pytest.raises(ValueError):
            ConePartition.sectors_2d(1)

    def test_default_matches_dim(self):
        assert ConePartition.default(1).dim == 1
        assert ConePartition.default(2).dim == 2


class TestSigmaG:
    def test_windowed_gaussian_all_cones_regular(self, catalog):
        net = window_net(catalog("gaussian"), 0.0, 10.0)
        for v in sigma_g(net, mode="beurling"):
            assert v.verdict == "regular"

    def test_windowed_delta_both_rays_singular(self, catalog):
        net = window_net(catalog("delta"), 0.0, 10.0)
        for v in sigma_g(net, mode="beurling"):
            assert v.verdict == "singular"

    def test_too_coarse_cone_partition_rejected(self, moll, seq):
        # a sliver cone pointing between grid directions captures almost
        # no dual nodes on a coarse 2-D grid
        g2 = GridSpec(2, 10.0, 256)
        lad2 = EpsilonLadder(0.5, 0.75, 6)
        m2 = ModelDistribution(
            "tensor2d", dim=2,
            factors=(ModelDistribution("gaussian"),
                     ModelDistribution("gaussian")))
        net2 = window_net(regularize(m2, moll, lad2, g2, weight=seq),
                          (0.0, 0.0), 5.0)
        sliver = ConePartition(dim=2, cones=(
            Cone("thin", (np.cos(0.123), np.sin(0.123)), 1e-5),
            Cone("rest", (-1.0, 0.0), np.pi),))
        with pytest.raises(ResolutionError):
            sigma_g(net2, sliver, mode="beurling")


class TestWaveFront1D:
    @pytest.mark.parametrize("kind", SINGULAR_KINDS)
    def test_singular_kind_matches_oracle(self, catalog, kind):
        net = catalog(kind)
        rep = wavefront(net, CENTERS, RADIUS, mode="beurling")
        assert wf_compare(classical_wf_oracle(ModelDistribution(kind)), rep)
        assert rep.flagged_centers() == (0.0,)

    def test_gaussian_empty_wavefront(self, catalog):
        rep = wavefront(catalog("gaussian"), CENTERS, RADIUS,
                        mode="beurling")
        assert rep.singular_set == ()
        assert wf_compare(
            classical_wf_oracle(ModelDistribution("gaussian")), rep)

    @pytest.mark.parametrize("kind", ("delta", "heaviside"))
    def test_roumieu_mode_agrees(self, catalog, kind):
        rep = wavefront(catalog(kind), CENTERS, RADIUS, mode="roumieu")
        assert wf_compare(classical_wf_oracle(ModelDistribution(kind)), rep)

    def test_window_shrinking_keeps_detection(self, catalog):
        # the flagged set at the singular center is stable as the window
        # tightens around it
        net = catalog("delta")
        for radius in (2.0, 1.0, 0.5):
            rep = wavefront(net, (0.0,), radius, mode="beurling")
            assert rep.flagged_centers() == (0.0,)

    def test_offset_window_catching_origin_flags(self, catalog):
        # a window whose plateau still covers the origin must flag it
        rep = wavefront(catalog("delta"), (0.3,), 1.0, mode="beurling")
        assert rep.flagged_centers() == (0.3,)

    def test_window_leaving_grid_rejected(self, catalog):
        with pytest.raises(ValueError):
            wavefront(catalog("delta"), (19.0,), 2.0, mode="beurling")

    @pytest.mark.parametrize("center", (15.0, -15.0, (15.0,)))
    def test_window_net_shares_the_check(self, catalog, center):
        # |c| + r = 25 passes the half-width 20: the window would be cut at
        # the periodic seam, so window_net refuses it as wavefront does
        with pytest.raises(ValueError,
                           match=r"window at .* leaves the grid"):
            window_net(catalog("gaussian"), center, 10.0)
        with pytest.raises(ValueError,
                           match=r"window at .* leaves the grid"):
            wavefront(catalog("gaussian"), (center,), 10.0)


class TestWindowCentre:
    @pytest.mark.parametrize("center", ((0.0, 5.0), ()))
    def test_1d_centre_needs_one_coordinate(self, catalog, center):
        # unchecked, window_net would drop the second coordinate and
        # wavefront would stop in numpy's IndexError
        message = r"needs one coordinate per axis of the 1-D grid"
        with pytest.raises(ValueError, match=message):
            window_net(catalog("delta"), center, 1.0)
        with pytest.raises(ValueError, match=message):
            wavefront(catalog("delta"), [center], 0.5)

    @pytest.mark.parametrize("center", (0.0, (0.0,), (0.0, 0.0, 0.0)))
    def test_2d_centre_needs_two_coordinates(self, seq, center):
        g2 = GridSpec(2, 5.0, 256)
        net = constant_embed(lambda x, y: np.exp(-x ** 2 - y ** 2),
                             EpsilonLadder(0.5, 0.5, 6), g2, weight=seq)
        message = r"needs one coordinate per axis of the 2-D grid"
        with pytest.raises(ValueError, match=message):
            window_net(net, center, 1.0)
        with pytest.raises(ValueError, match=message):
            wavefront(net, [center], 1.0)


class TestStability:
    def test_derivative_preserves_wavefront(self, catalog, seq):
        # applying a derivative-type operator cannot enlarge the estimated
        # singular support of the delta net
        net = catalog("delta")
        coeffs = {(0,): 1.0, (2,): np.exp(-seq.log_m[2])}
        op = UltradiffOperator(coeffs, seq, bound_c=1.0, bound_l=1.0)
        with pytest.warns(RuntimeWarning, match="boundary mass"):
            pnet = apply_ultradiff(op, net)
        rep = wavefront(pnet, CENTERS, RADIUS, mode="beurling")
        assert rep.flagged_centers() == (0.0,)

    def test_smooth_multiplier_preserves_wavefront(self, catalog, grid,
                                                   ladder, seq):
        net = catalog("delta")
        bump = constant_embed(lambda x: np.exp(-x ** 2) + 0.5, ladder, grid,
                              weight=seq, oversample=net.oversample)
        prod = combine(net, bump, "mul")
        rep = wavefront(prod, CENTERS, RADIUS, mode="beurling")
        assert rep.flagged_centers() == (0.0,)

    def test_vanishing_multiplier_does_not_erase_singularity(self, catalog,
                                                             grid, ladder,
                                                             seq):
        # classically x * delta = 0, but in the algebra the product keeps a
        # nonzero moderate net concentrated at the origin; the directional
        # test still flags it (the algebra separates the product from 0)
        net = catalog("delta")
        xfun = constant_embed(lambda x: x, ladder, grid, weight=seq,
                              oversample=net.oversample)
        prod = combine(net, xfun, "mul")
        rep = wavefront(prod, CENTERS, RADIUS, mode="beurling")
        assert rep.flagged_centers() == (0.0,)


@pytest.fixture(scope="module")
def line_net(moll, seq):
    # the dual range must clear the spatial window's own spectral tail
    # above the noise floor; half-width 5 at n=1024 gives |xi| <= 643
    g2 = GridSpec(2, 5.0, 1024)
    lad = EpsilonLadder(0.25, 0.5, 6)
    m = ModelDistribution(
        "tensor2d", dim=2,
        factors=(ModelDistribution("delta"),
                 ModelDistribution("gaussian")))
    with np.errstate(all="ignore"):
        return m, regularize(m, moll, lad, g2, weight=seq)


class TestWaveFront2D:
    def test_conormal_of_line_detected(self, line_net):
        m, net = line_net
        rep = wavefront(net, ((0.0, 0.0), (3.0, 0.0)), 1.0,
                        cones=ConePartition.sectors_2d(8), mode="beurling")
        assert wf_compare(classical_wf_oracle(m), rep)
        flagged = rep.flagged_centers()
        assert (0.0, 0.0) in flagged and (3.0, 0.0) not in flagged
        dirs = [np.asarray(d, dtype=float) for _, d in rep.singular_set]
        assert any(np.allclose(d, (1.0, 0.0)) for d in dirs)
        assert any(np.allclose(d, (-1.0, 0.0)) for d in dirs)


@pytest.fixture(scope="module")
def line_patch(moll, seq):
    # the line delta(x) gaussian(y) windowed at the origin, on a grid with
    # the dual range of line_net at a quarter of its nodes
    g2 = GridSpec(2, 2.5, 512)
    lad = EpsilonLadder(0.25, 0.5, 6)
    m = ModelDistribution(
        "tensor2d", dim=2,
        factors=(ModelDistribution("delta"),
                 ModelDistribution("gaussian")))
    with np.errstate(all="ignore"):
        net = regularize(m, moll, lad, g2, weight=seq)
    return window_net(net, (0.0, 0.0), 1.0)


class TestOneSpectrumPerWindow:
    """sigma_g transforms each frame once, whatever the number of cones."""

    def test_one_forward_per_frame_for_eight_sectors(self, line_patch,
                                                     transform_counts):
        sigma_g(line_patch, ConePartition.sectors_2d(8), mode="beurling")
        assert transform_counts == {"forward": line_patch.ladder.count,
                                    "inverse": 0}

    @pytest.mark.parametrize("mode", ("beurling", "roumieu"))
    def test_sectors_match_single_cone_runs(self, line_patch, mode):
        part = ConePartition.sectors_2d(8)
        together = sigma_g(line_patch, part, mode=mode)
        alone = tuple(
            sigma_g(line_patch, ConePartition(dim=2, cones=(c,)), mode=mode)[0]
            for c in part.cones)
        assert together == alone
        assert {v.verdict for v in together} == {"regular", "singular"}

    def test_thin_cone_after_a_wide_one_rejected(self, line_patch):
        part = ConePartition(dim=2, cones=(
            Cone("wide", (1.0, 0.0), np.pi / 2),
            Cone("thin", (np.cos(0.123), np.sin(0.123)), 1e-5)))
        with pytest.raises(ResolutionError, match="cone thin"):
            sigma_g(line_patch, part, mode="beurling")


class TestReports:
    def test_json_and_csv_roundtrip(self, catalog, tmp_path):
        rep = wavefront(catalog("delta"), CENTERS, RADIUS, mode="beurling")
        blob = rep.to_json()
        json.dumps(blob)
        assert blob["radius"] == RADIUS
        rows = list(csv.DictReader(io.StringIO(rep.to_csv())))
        assert len(rows) == len(rep.entries)
        assert {"center", "cone", "verdict"} <= set(rows[0])


class TestModeChecked:
    @pytest.mark.parametrize("mode", ["bogus", "Beurling"])
    def test_wavefront_rejects_unknown_mode(self, catalog, mode):
        with pytest.raises(ValueError):
            wavefront(catalog("gaussian"), (0.0,), RADIUS, mode=mode)

    def test_sigma_g_rejects_unknown_mode(self, catalog):
        net = window_net(catalog("delta"), 0.0, 10.0)
        with pytest.raises(ValueError):
            sigma_g(net, mode="bogus")


class TestConeVerdictKeepsItsCone:
    """A verdict reads label and direction off its cone, and wf_compare asks
    the cone itself whether it holds an oracle direction."""

    @staticmethod
    def _report(cones, singular, center=(0.0, 0.0)):
        entries = tuple((center, ConeVerdict(
            cone=c, verdict="singular" if i in singular else "regular",
            witness={})) for i, c in enumerate(cones))
        return WaveFrontReport(centers=(center,), radius=0.5,
                               mode="beurling", entries=entries)

    def test_label_direction_and_json_are_the_cones(self):
        cone = ConePartition.sectors_2d(8).cones[3]
        v = ConeVerdict(cone=cone, verdict="singular", witness={"k": 2})
        assert (v.label, v.direction) == (cone.label, cone.direction)
        assert v.to_json() == {
            "label": cone.label, "direction": list(cone.direction),
            "verdict": "singular", "witness": {"k": 2.0}}

    @pytest.mark.parametrize("singular,matches", [
        ({0, 4}, True),         # exactly the cones holding (+-1, 0)
        ({0}, False),           # (-1, 0) missed
        ({0, 1, 4}, False),     # sector1 holds no oracle direction
        (set(), False)])
    def test_line_oracle_against_sectors(self, singular, matches):
        delta_x_gauss = ModelDistribution("tensor2d", dim=2, factors=(
            ModelDistribution("delta"), ModelDistribution("gaussian")))
        oracle = classical_wf_oracle(delta_x_gauss)
        report = self._report(ConePartition.sectors_2d(8).cones, singular)
        assert wf_compare(oracle, report) is matches

    def test_1d_rays(self):
        oracle = classical_wf_oracle(ModelDistribution("delta"))
        rays = ConePartition.rays_1d().cones
        assert wf_compare(oracle, self._report(rays, {0, 1}, 0.0))
        assert not wf_compare(oracle, self._report(rays, {1}, 0.0))
        assert not wf_compare(oracle, self._report(rays, {0, 1}, 2.0))
