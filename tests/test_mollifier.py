"""Mollifier construction: plateau spectrum, unit mass, decay, scaling."""

import json
import os
import tracemalloc

import numpy as np
import pytest

from gfalg.errors import AliasingError, ResolutionError
from gfalg.grids import GridSpec, forward, integrate
from gfalg.mollifier import (PlateauProfile, build_mollifier, export_mollifier,
                             gevrey_bump, plateau_window, sample_phi_eps,
                             verify_mollifier)


class TestBump:
    def test_unit_discrete_mass(self, grid):
        b = gevrey_bump(2.0, 1.0, grid.axis(), grid.spacing)
        assert np.sum(b) * grid.spacing == pytest.approx(1.0, abs=1e-12)

    def test_supported_in_radius(self, grid):
        b = gevrey_bump(2.0, 1.0, grid.axis(), grid.spacing)
        assert np.all(b[np.abs(grid.axis()) >= 1.0] == 0.0)

    def test_under_resolved_radius_rejected(self, grid):
        with pytest.raises(ResolutionError):
            gevrey_bump(2.0, 2.0 * grid.spacing, grid.axis(), grid.spacing)


class TestProfile:
    def test_exact_plateau_and_support(self):
        p = PlateauProfile(1.5, 1.0, 2.0)
        u = np.array([0.0, 0.5, 1.0])
        assert np.all(p(u) == 1.0)
        assert np.all(p(np.array([2.0, 3.0, 10.0])) == 0.0)

    def test_monotone_on_transition(self):
        p = PlateauProfile(1.5, 1.0, 2.0)
        u = np.linspace(1.0, 2.0, 200)
        assert np.all(np.diff(p(u)) <= 1e-12)

    def test_range(self):
        p = PlateauProfile(2.0, 1.0, 2.0)
        v = p(np.linspace(0, 3, 500))
        assert np.all((0.0 <= v) & (v <= 1.0))


def _two_branch_profile(p, u):
    """The profile as first written: the upper minus the lower cumulative
    of the bump, each behind its own branch, by matrix-vector quadrature."""
    nodes, weights = np.polynomial.legendre.leggauss(96)
    rb = 0.5 * (p.r_outer - p.r_inner)
    c = 0.5 * (p.r_inner + p.r_outer)

    def cumulative(q):
        half = 0.5 * (q + rb)
        v = (half[:, None] * (nodes + 1.0) - rb) / rb
        vals = np.zeros_like(v)
        inside = np.abs(v) < 1.0
        vals[inside] = np.exp(
            -(1.0 - v[inside] ** 2) ** (-1.0 / (p.sigma - 1.0)))
        return half * (vals @ weights)

    norm = cumulative(np.array([rb]))[0]
    r = np.abs(u)
    upper = np.where(r + c >= rb, norm, cumulative(np.minimum(r + c, rb)))
    lower = np.where(r - c <= -rb, 0.0, cumulative(np.maximum(r - c, -rb)))
    out = np.clip((upper - lower) / norm, 0.0, 1.0)
    out[r <= p.r_inner] = 1.0
    out[r >= p.r_outer] = 0.0
    return out


class TestProfileEvaluation:
    """psi is a pure function of |u|, evaluated once per distinct radius."""

    PROFILES = [PlateauProfile(s, lo, hi) for s in (1.5, 2.0, 3.0)
                for lo, hi in ((1.0, 2.0), (0.25, 3.0))]

    @pytest.mark.parametrize("p", PROFILES[:2])
    def test_pure_under_permutation_and_duplicates(self, p):
        u = np.random.default_rng(7).uniform(-1.2 * p.r_outer,
                                             1.2 * p.r_outer, 3000)
        values = p(u)
        alone = np.array([p(u[i:i + 1])[0] for i in range(u.size)])
        assert np.array_equal(values, alone)
        perm = np.random.default_rng(8).permutation(u.size)
        assert np.array_equal(p(u[perm]), values[perm])
        doubled = np.concatenate([u, -u[::3], u[:500]])
        assert np.array_equal(
            p(doubled), np.concatenate([values, values[::3], values[:500]]))

    def test_pure_across_blocks(self):
        # more distinct band radii than one quadrature block holds
        p = PlateauProfile(1.5, 1.0, 2.0)
        u = np.random.default_rng(9).uniform(1.0, 2.0, 70001)
        pieces = np.concatenate([p(u[i:i + 997])
                                 for i in range(0, u.size, 997)])
        assert np.array_equal(p(u), pieces)

    @pytest.mark.parametrize("p", PROFILES)
    def test_matches_the_two_branch_formula(self, p):
        u = np.linspace(0.0, 1.1 * p.r_outer, 4001)
        assert np.max(np.abs(p(u) - _two_branch_profile(p, u))) <= 1e-15

    @pytest.mark.parametrize("p", PROFILES)
    def test_exact_plateau_and_cutoff(self, p):
        assert np.all(p(np.linspace(-p.r_inner, p.r_inner, 101)) == 1.0)
        beyond = np.concatenate([np.linspace(p.r_outer, 4 * p.r_outer, 101),
                                 -np.linspace(p.r_outer, 4 * p.r_outer, 101)])
        assert np.all(p(beyond) == 0.0)

    @pytest.mark.parametrize("p", PROFILES)
    def test_non_increasing_across_the_band(self, p):
        # near r_outer, psi = (norm - lower) / norm cancels to a few ulps
        # of 1, so a rise below that is round-off, not shape
        v = p(np.linspace(p.r_inner, p.r_outer, 2001))
        assert np.all(np.diff(v) <= 4 * np.finfo(float).eps)

    def test_window_transient_stays_bounded(self):
        # a depth-10 rung's refined grid: 262144 points, 65536 of them in
        # the band; one (65536 x 96) quadrature array over the whole band
        # would take 50 MB, and its temporaries several times that
        fine = GridSpec(1, 20.0, 4096).refine(64)
        tracemalloc.start()
        try:
            plateau_window(fine, 0.0, 10.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100e6


class TestContract:
    def test_report_passes_all_gates(self, moll):
        rep = verify_mollifier(moll)
        assert rep.mass_defect <= 1e-6
        assert rep.plateau_deviation <= 1e-6
        assert rep.support_leakage <= 1e-6
        assert rep.evenness_defect <= 1e-10
        assert rep.decay_ok and rep.decay_constant > 0
        assert rep.ok

    def test_spectrum_is_one_on_core(self, moll, grid):
        r = grid.dual_radius()
        assert np.max(np.abs(moll.psi[r <= 1.0] - 1.0)) <= 1e-12

    def test_spectrum_vanishes_off_support(self, moll, grid):
        r = grid.dual_radius()
        assert np.max(np.abs(moll.psi[r >= 2.0])) <= 1e-12

    def test_phi_matches_its_spectrum(self, moll, grid):
        assert np.max(np.abs(forward(moll.phi, grid) - moll.psi)) < 1e-10

    def test_unit_mass(self, moll, grid):
        assert integrate(moll.phi, grid) == pytest.approx(1.0, abs=1e-10)

    def test_tail_decays_superpolynomially_at_order_two(self, moll, grid):
        # the observable trend on this window: |phi| * R^2 decreasing
        x = np.abs(grid.axis())
        radii = [3.0, 6.0, 10.0, 13.0]
        tails = [float(np.max(np.abs(moll.phi[x >= r]))) * r ** 2
                 for r in radii]
        assert all(a > b for a, b in zip(tails, tails[1:]))

    def test_grid_too_coarse_rejected(self):
        with pytest.raises(ResolutionError):
            build_mollifier(1.5, GridSpec(1, 2.0, 256))


class TestScaling:
    def test_eps_one_reproduces_phi(self, moll):
        assert np.array_equal(sample_phi_eps(moll, 1.0), moll.phi)

    def test_aliasing_guard(self, moll, grid):
        bad = 1.9 / grid.dual_max
        with pytest.raises(AliasingError) as exc:
            sample_phi_eps(moll, bad)
        assert exc.value.eps_min_admissible == pytest.approx(
            2.0 / grid.dual_max)

    def test_scaled_mass_is_one(self, moll, grid):
        for eps in (0.5, 0.25, 0.125):
            phi_eps = sample_phi_eps(moll, eps)
            assert integrate(phi_eps, grid) == pytest.approx(1.0, abs=1e-9)

    def test_scaling_consistency_at_origin(self, moll, grid):
        # eps * phi_eps(0) == phi(0) up to the periodization fold-in
        i0 = grid.index_of(0.0)
        phi0 = moll.phi[i0]
        for eps in (0.5, 0.25, 0.125):
            phi_eps = sample_phi_eps(moll, eps)
            assert eps * phi_eps[i0] == pytest.approx(phi0, rel=1e-4)

    def test_scaling_consistency_off_origin(self, moll, grid):
        # phi_eps(x) == phi(x/eps)/eps at grid-aligned points
        eps = 0.5
        phi_eps = sample_phi_eps(moll, eps)
        x = 2.5  # grid-exact, as is x/eps
        i = grid.index_of(x)
        j = grid.index_of(x / eps)
        assert phi_eps[i] == pytest.approx(moll.phi[j] / eps, rel=1e-2)


class TestWindow:
    def test_plateau_and_support(self, grid):
        w = plateau_window(grid, 0.0, 4.0)
        x = np.abs(grid.axis())
        assert np.all(w[x <= 2.0] == 1.0)
        assert np.all(w[x >= 4.0] == 0.0)

    def test_off_center(self, grid):
        w = plateau_window(grid, 3.0, 2.0)
        x = grid.axis()
        assert np.all(w[np.abs(x - 3.0) <= 1.0] == 1.0)
        assert np.all(w[np.abs(x - 3.0) >= 2.0] == 0.0)

    def test_2d(self):
        g = GridSpec(2, 10.0, 256)
        w = plateau_window(g, (0.0, 0.0), 4.0)
        xx, yy = g.points()
        r = np.hypot(xx, yy)
        assert np.all(w[r <= 2.0] == 1.0)
        assert np.all(w[r >= 4.0] == 0.0)


class TestExport:
    def test_manifest_hashes_and_roundtrip(self, moll, tmp_path):
        manifest = export_mollifier(moll, str(tmp_path))
        with open(tmp_path / "manifest.json") as fh:
            on_disk = json.load(fh)
        assert on_disk == manifest
        raw = (tmp_path / "phi.f64").read_bytes()
        arr = np.frombuffer(raw, dtype="<f8")
        assert np.array_equal(arr, moll.phi)
        import hashlib
        assert (hashlib.sha256(raw).hexdigest()
                == manifest["arrays"]["phi"]["sha256"])
