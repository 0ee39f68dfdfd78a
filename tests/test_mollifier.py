"""Mollifier construction: plateau spectrum, unit mass, decay, scaling."""

import json
import math
import os
import tracemalloc
from fractions import Fraction

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


_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(96)


def _bump(sigma, y):
    """The unit Gevrey bump at distance y from the left end of its
    support [0, 2]."""
    return np.exp(-(y * (2.0 - y)) ** (-1.0 / (sigma - 1.0)))


def _mass(sigma, z):
    """The bump's mass over [0, z], 0 <= z <= 1, to within an ulp: 96
    Gauss-Legendre nodes on each of the panels [z/2^(k+1), z/2^k] down to
    where the bump underflows, every term added with math.fsum."""
    lowest = 0.5 * 745.0 ** (1.0 - sigma)   # the bump is 0 below it
    if z <= lowest:
        return 0.0
    edges = z * 2.0 ** -np.arange(np.log2(z / lowest) + 2.0)
    lo, hi = edges[1:, None], edges[:-1, None]
    half = 0.5 * (hi - lo)
    terms = half * _WEIGHTS * _bump(sigma, lo + half * (_NODES + 1.0))
    return math.fsum(terms.ravel().tolist())


def _two_branch_profile(p, u):
    """The exact profile, by two branches: the bump's mass from the nearer
    end of its support, psi = mass(y)/mass(2) with y = (r_outer - r)/rb
    for y <= 1 and psi = 1 - mass(2 - y)/mass(2) beyond.  y is taken in
    exact arithmetic, and its rounding to a double is added back as a
    first-order term."""
    rb = (Fraction(p.r_outer) - Fraction(p.r_inner)) / 2
    norm = 2.0 * _mass(p.sigma, 1.0)
    out = []
    for r in np.abs(np.asarray(u, dtype=float)):
        y = (Fraction(p.r_outer) - Fraction(float(r))) / rb
        if y >= 2:
            out.append(1.0)
            continue
        if y <= 0:
            out.append(0.0)
            continue
        near = y if y <= 1 else 2 - y
        z = float(near)
        rounding = float(near - Fraction(z))
        mass = math.fsum([_mass(p.sigma, z),
                          float(_bump(p.sigma, z)) * rounding])
        out.append(mass / norm if y <= 1 else 1.0 - mass / norm)
    return np.array(out)


class TestProfileEvaluation:
    """psi is a pure function of |u|, evaluated once per distinct radius."""

    PROFILES = [PlateauProfile(s, lo, hi) for s in (1.5, 2.0, 3.0, 5.0)
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
        # many distinct band radii, in one call and in pieces
        p = PlateauProfile(1.5, 1.0, 2.0)
        u = np.random.default_rng(9).uniform(1.0, 2.0, 70001)
        pieces = np.concatenate([p(u[i:i + 997])
                                 for i in range(0, u.size, 997)])
        assert np.array_equal(p(u), pieces)

    @pytest.mark.parametrize("p", PROFILES)
    def test_matches_the_two_branch_formula(self, p):
        u = np.linspace(0.0, 1.1 * p.r_outer, 4001)
        assert np.max(np.abs(p(u) - _two_branch_profile(p, u))) <= 4.5e-16

    @pytest.mark.parametrize("p", PROFILES)
    def test_tail_keeps_its_relative_accuracy(self, p):
        # radii approaching r_outer to within 2^-40 of the bump radius
        rb = 0.5 * (p.r_outer - p.r_inner)
        near_edge = p.r_outer - rb * 2.0 ** -np.arange(1.0, 40.1, 0.25)
        u = np.concatenate([np.linspace(p.r_inner, p.r_outer, 401), near_edge])
        exact = _two_branch_profile(p, u)
        tail = exact >= 1e-30
        rel = np.abs(p(u)[tail] - exact[tail]) / exact[tail]
        assert np.max(rel) <= 1e-10

    @pytest.mark.parametrize("p", PROFILES)
    def test_exact_plateau_and_cutoff(self, p):
        assert np.all(p(np.linspace(-p.r_inner, p.r_inner, 101)) == 1.0)
        beyond = np.concatenate([np.linspace(p.r_outer, 4 * p.r_outer, 101),
                                 -np.linspace(p.r_outer, 4 * p.r_outer, 101)])
        assert np.all(p(beyond) == 0.0)

    @pytest.mark.parametrize("p", PROFILES)
    def test_non_increasing_across_the_band(self, p):
        v = p(np.linspace(p.r_inner, p.r_outer, 2001))
        assert np.all(np.diff(v) <= 0)

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
        assert peak < 32e6


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
