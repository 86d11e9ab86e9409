"""Tests for the open disk billiard.

Geometric oracles come first: a finite-difference Jacobian of the bounce
map cross-checks the analytic monodromy, and the two-disk system has a
closed-form stability exponent.  The per-bounce flight-length loop, its
finite-differenced Hessian and the per-word Newton solve built on them
are kept here as oracles for the vectorised analytic Hessian and for
the one-solve-per-necklace cylinder tables.

Frozen analytic constants (two disks of radius 1, centers 6 apart):
    bounce orbit flight time     t = 8 per period (two flights of 4)
    expansion per period      logJ = 2*log(5 + sqrt(24))
                                   = 4.584863339122355
Equilateral three-disk system, centers 6 apart, radius 1:
    triangle orbit flight        6 - sqrt(3) = 4.267949192431123 each
    triangle orbit expansion     7.397032649059277 (cross-checked below
                                 against the finite-difference Jacobian)
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from openmaps import disk_billiard
from openmaps.disk_billiard import (
    BoundaryCoord,
    DiskConfig,
    OrbitSegment,
    _cycle_orbits,
    _cyclic_words,
    _flight_pairs,
    _initial_angles,
    _necklaces,
    _point,
    _total_length_grad,
    billiard_step,
    cylinder_table,
    escape_rate_mc,
    orbit_for_word,
    orbit_to_csv_row,
    periodic_points,
    stability,
    trapped_box_dimension,
)
from openmaps.errors import GrazingHit, ShadowedPath, TooFewSurvivors
from openmaps.symbolic_pressure import bowen_dimension, classical_decay_rate

LOGJ_TWO_DISK = 4.584863339122355
FLIGHT_TRIANGLE = 4.267949192431123
LOGJ_TRIANGLE = 7.397032649059277

TWO_DISK = DiskConfig(centers=((0.0, 0.0), (6.0, 0.0)), radii=(1.0, 1.0))
TRI = DiskConfig(
    centers=((0.0, 0.0), (6.0, 0.0), (3.0, 3.0 * math.sqrt(3.0))),
    radii=(1.0, 1.0, 1.0),
)


def bounce_jacobian(config, coord, n_steps, h=1e-7):
    """Finite-difference Jacobian of the n-fold bounce map in (y, eta).

    Independent oracle for the analytic monodromy: central differences
    on the boundary-coordinate return map itself.  Arclength differences
    are wrapped to the nearest representative so the seam at angle zero
    cannot leak a circumference into the derivative.
    """

    def step_n(y, eta):
        c = BoundaryCoord(coord.disk, y, eta)
        for _ in range(n_steps):
            c = billiard_step(config, c)
        return c

    J = np.zeros((2, 2))
    for col, (dy, de) in enumerate([(h, 0.0), (0.0, h)]):
        plus = step_n(coord.y + dy, coord.eta + de)
        minus = step_n(coord.y - dy, coord.eta - de)
        assert plus.disk == minus.disk
        arc = 2 * math.pi * config.radii[plus.disk]
        dy_out = (plus.y - minus.y + arc / 2) % arc - arc / 2
        J[:, col] = np.array([dy_out, plus.eta - minus.eta]) / (2 * h)
    return J


def loop_length_grad(config, word, phis, closed):
    """(lengths, gradient) of the flight length, one flight at a time."""
    n = len(word)
    pts = [_point(config, word[k], phis[k]) for k in range(n)]
    grad = np.zeros(n)
    lengths = []
    for k0, k1 in _flight_pairs(n, closed):
        seg = pts[k1] - pts[k0]
        ell = float(np.linalg.norm(seg))
        u = seg / ell
        for k, sign in ((k0, -1.0), (k1, +1.0)):
            r = config.radii[word[k]]
            tau = np.array([-math.sin(phis[k]), math.cos(phis[k])]) * r
            grad[k] += sign * float(u @ tau)
        lengths.append(ell)
    return np.array(lengths), grad


def fd_hessian(config, word, phis, closed, step=1e-6):
    """Central differences of `loop_length_grad`, symmetrized."""
    n = len(word)
    hess = np.zeros((n, n))
    for k in range(n):
        up = phis.copy()
        up[k] += step
        dn = phis.copy()
        dn[k] -= step
        _, gu = loop_length_grad(config, word, up, closed)
        _, gd = loop_length_grad(config, word, dn, closed)
        hess[:, k] = (gu - gd) / (2 * step)
    return 0.5 * (hess + hess.T)


def newton_fd_oracle(config, word):
    """(logJ, t) of a closed word by damped Newton on the FD Hessian."""
    n = len(word)
    phis = _initial_angles(config, word, True)
    _, grad = loop_length_grad(config, word, phis, True)
    mu = 1e-8
    for _ in range(120):
        if np.max(np.abs(grad)) <= 1e-12:
            break
        hess = fd_hessian(config, word, phis, True)
        while True:
            trial = phis + np.linalg.solve(hess + mu * np.eye(n), -grad)
            _, gt = loop_length_grad(config, word, trial, True)
            if np.max(np.abs(gt)) < np.max(np.abs(grad)) or mu > 1e6:
                phis, grad = trial, gt
                mu = max(mu / 10, 1e-12)
                break
            mu *= 10
    assert np.max(np.abs(grad)) <= 1e-12
    lengths, _ = loop_length_grad(config, word, np.mod(phis, 2 * math.pi), True)
    seg = OrbitSegment(word, tuple(np.mod(phis, 2 * math.pi)), tuple(lengths),
                       math.nan, float(lengths.sum()), 0.0, True, True)
    return stability(config, seg), seg.t_total


def random_word(rng, n, closed):
    """Uniform admissible three-disk word (cyclically admissible if closed)."""
    while True:
        word = [int(rng.integers(3))]
        for _ in range(n - 1):
            word.append(int((word[-1] + rng.integers(1, 3)) % 3))
        if not closed or word[0] != word[-1]:
            return tuple(word)


def angle_gap(a, b):
    d = np.abs(np.asarray(a) - np.asarray(b)) % (2 * math.pi)
    return float(np.max(np.minimum(d, 2 * math.pi - d)))


@pytest.fixture(scope="module")
def tri_tables():
    """Three-disk cylinder tables at depths 4-8, shared across tests."""
    return [cylinder_table(TRI, n) for n in range(4, 9)]


class TestBounceMap:
    def test_axial_shot_hits_opposite_disk(self):
        # fire from the inner point of disk 0 straight at disk 1
        c = billiard_step(TWO_DISK, BoundaryCoord(0, 0.0, 0.0))
        assert c.disk == 1
        assert c.eta == pytest.approx(0.0, abs=1e-12)
        # lands on the inner point of disk 1, i.e. boundary angle pi
        assert math.cos(c.y) == pytest.approx(-1.0, abs=1e-12)

    def test_reflection_law(self):
        # incoming and outgoing rays make equal angles with the normal:
        # eta is preserved across the bounce by construction, so check
        # the positions instead: the chord from start to landing point
        # must make the same angle with the landing normal as the
        # outgoing ray of the landing coordinate.
        start = BoundaryCoord(0, 0.05, 0.1)
        c = billiard_step(TRI, start)
        assert c is not None
        p0 = np.array(TRI.centers[0]) + np.array([math.cos(0.05), math.sin(0.05)])
        p1 = np.array(TRI.centers[c.disk]) + np.array(
            [math.cos(c.y), math.sin(c.y)]
        )
        chord = (p1 - p0) / np.linalg.norm(p1 - p0)
        nu = np.array([math.cos(c.y), math.sin(c.y)])
        tau = np.array([-nu[1], nu[0]])
        # incidence and exit cosines against the surface normal agree
        assert abs(chord @ nu) == pytest.approx(
            math.sqrt(1 - c.eta**2), abs=1e-9
        )
        # tangential momentum flips sign going in vs out
        assert chord @ tau == pytest.approx(c.eta, abs=1e-9)

    def test_escaping_ray_returns_none(self):
        # fire straight away from the cluster
        assert billiard_step(TWO_DISK, BoundaryCoord(0, math.pi, 0.0)) is None

    def test_grazing_shot_rejected(self):
        # impact parameter 1 - 5e-13 on the far disk: the ray lands with
        # |eta| inside the grazing band
        eta0 = (1.0 - 5e-13) / 5.0
        with pytest.raises(GrazingHit):
            billiard_step(TWO_DISK, BoundaryCoord(0, 0.0, eta0))

    @given(
        y=st.floats(-math.pi, math.pi),
        eta=st.floats(-0.999, 0.999),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounce_escapes_or_keeps_eta_in_range(self, y, eta):
        # most random rays escape; the landed ones stay in the co-ball
        try:
            c = billiard_step(TRI, BoundaryCoord(0, y, eta))
        except GrazingHit:
            return
        assert c is None or -1.0 < c.eta < 1.0


class TestClosedOrbits:
    def test_two_disk_orbit_exact(self):
        seg = orbit_for_word(TWO_DISK, (0, 1), closed=True)
        assert seg.converged
        assert seg.t_total == pytest.approx(8.0, abs=1e-10)
        assert seg.logJ == pytest.approx(LOGJ_TWO_DISK, abs=1e-10)
        assert seg.residual < 1e-10

    def test_triangle_orbit_flights(self):
        seg = orbit_for_word(TRI, (0, 1, 2), closed=True)
        for ell in seg.lengths:
            assert ell == pytest.approx(FLIGHT_TRIANGLE, abs=1e-9)
        assert seg.logJ == pytest.approx(LOGJ_TRIANGLE, abs=1e-9)

    def test_monodromy_against_fd_jacobian_two_disk(self):
        # oracle: differentiate the actual return map at the fixed point
        seg = orbit_for_word(TWO_DISK, (0, 1), closed=True)
        coord = BoundaryCoord(0, seg.angles[0] % (2 * math.pi), 0.0)
        J = bounce_jacobian(TWO_DISK, coord, 2)
        eigs = np.linalg.eigvals(J)
        assert np.linalg.det(J) == pytest.approx(1.0, abs=1e-6)
        assert math.log(np.abs(eigs).max()) == pytest.approx(
            seg.logJ, rel=1e-5
        )

    def test_monodromy_against_fd_jacobian_triangle(self):
        seg = orbit_for_word(TRI, (0, 1, 2), closed=True)
        y0 = seg.angles[0] % (2 * math.pi)
        # eta of the periodic orbit at the first bounce
        p0 = np.array(TRI.centers[0]) + np.array(
            [math.cos(seg.angles[0]), math.sin(seg.angles[0])]
        )
        p1 = np.array(TRI.centers[1]) + np.array(
            [math.cos(seg.angles[1]), math.sin(seg.angles[1])]
        )
        out = (p1 - p0) / np.linalg.norm(p1 - p0)
        nu = np.array([math.cos(seg.angles[0]), math.sin(seg.angles[0])])
        tau = np.array([-nu[1], nu[0]])
        coord = BoundaryCoord(0, y0, float(out @ tau))
        J = bounce_jacobian(TRI, coord, 3)
        eigs = np.linalg.eigvals(J)
        # FD truncation is amplified by the e^logJ ~ 1600 expansion, so
        # the symplectic check is looser here than for the two-disk orbit
        assert np.linalg.det(J) == pytest.approx(1.0, abs=1e-3)
        assert math.log(np.abs(eigs).max()) == pytest.approx(
            seg.logJ, rel=1e-4
        )

    def test_word_rotation_symmetry(self):
        a = orbit_for_word(TRI, (0, 1, 2, 1), closed=True)
        b = orbit_for_word(TRI, (1, 2, 1, 0), closed=True)
        assert a.logJ == pytest.approx(b.logJ, abs=1e-9)
        assert a.t_total == pytest.approx(b.t_total, abs=1e-9)

    def test_disk_relabel_symmetry(self):
        # the equilateral table is invariant under rotating disk labels
        a = orbit_for_word(TRI, (0, 1, 0, 2), closed=True)
        b = orbit_for_word(TRI, (1, 2, 1, 0), closed=True)
        assert a.logJ == pytest.approx(b.logJ, abs=1e-9)
        assert a.t_total == pytest.approx(b.t_total, abs=1e-9)

    def test_open_orbit_has_no_stability(self):
        seg = orbit_for_word(TRI, (0, 1, 2), closed=False)
        assert math.isnan(seg.logJ)
        assert not seg.closed

    @given(st.lists(st.integers(0, 2), min_size=2, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_random_words_converge_and_expand(self, word):
        assume(all(word[i] != word[i + 1] for i in range(len(word) - 1)))
        assume(word[0] != word[-1])
        try:
            seg = orbit_for_word(TRI, tuple(word), closed=True)
        except ShadowedPath:
            assume(False)
        assert seg.converged
        assert seg.residual < 1e-9
        assert seg.logJ > 0.0
        # every flight crosses the gap between disk hulls at least once
        assert seg.t_total > 4.0 * (len(word) - 1)


class TestFlightLengthDerivatives:
    @pytest.mark.parametrize("closed", [True, False])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_gradient_matches_loop(self, n, closed):
        rng = np.random.default_rng(100 * n + closed)
        word = random_word(rng, n, closed)
        phis = _initial_angles(TRI, word, closed) + rng.uniform(-0.2, 0.2, n)
        lengths, grad, _ = _total_length_grad(TRI, word, phis, closed)
        ref_lengths, ref_grad = loop_length_grad(TRI, word, phis, closed)
        assert np.max(np.abs(lengths - ref_lengths)) <= 1e-13 * ref_lengths.max()
        assert np.max(np.abs(grad - ref_grad)) <= 1e-13 * np.max(np.abs(ref_grad))

    @pytest.mark.parametrize("closed", [True, False])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_analytic_hessian_matches_finite_differences(self, n, closed):
        rng = np.random.default_rng(200 * n + closed)
        word = random_word(rng, n, closed)
        phis = _initial_angles(TRI, word, closed) + rng.uniform(-0.2, 0.2, n)
        _, _, hess = _total_length_grad(TRI, word, phis, closed)
        ref = fd_hessian(TRI, word, phis, closed)
        assert np.max(np.abs(hess - ref)) <= 1e-6 * np.max(np.abs(ref))
        # (cyclic) tridiagonal: bounces couple only through shared flights
        k = np.arange(n)
        gap = np.abs(k[:, None] - k[None, :])
        band = (gap <= 1) | (closed & (gap == n - 1))
        assert np.all(hess[~band] == 0.0)
        assert np.array_equal(hess, hess.T)

    def test_unequal_radii_hessian(self):
        config = DiskConfig(centers=((0.0, 0.0), (7.0, 0.5), (3.0, 6.0)),
                            radii=(1.0, 1.5, 0.7))
        rng = np.random.default_rng(7)
        for closed in (True, False):
            word = random_word(rng, 7, closed)
            phis = _initial_angles(config, word, closed) + rng.uniform(-0.2, 0.2, 7)
            _, _, hess = _total_length_grad(config, word, phis, closed)
            ref = fd_hessian(config, word, phis, closed)
            assert np.max(np.abs(hess - ref)) <= 1e-6 * np.max(np.abs(ref))


class TestCylinderTables:
    def test_depth_two_table(self):
        table = cylinder_table(TRI, 2)
        assert len(table.entries) == 6  # 3 unordered pairs, 2 rotations
        for w, (logj, t) in table.entries.items():
            assert logj == pytest.approx(LOGJ_TWO_DISK, abs=1e-9)
            assert t == pytest.approx(8.0, abs=1e-9)

    def test_cyclic_word_counts(self):
        # words admissible cyclically: tr(A^n) = 2^n + 2(-1)^n
        for n in range(2, 9):
            assert len(_cyclic_words(3, n)) == 2**n + 2 * (-1) ** n

    def test_necklace_representatives_cover_all_words(self):
        words = set(_cyclic_words(3, 4))
        neck = _necklaces(3, 4)
        regen = {w[i:] + w[:i] for w in neck for i in range(4)}
        assert regen == words

    def test_table_words_match_depth(self):
        table = cylinder_table(TRI, 4)
        assert all(len(w) == 4 for w in table.entries)
        assert len(table.entries) == 2**4 + 2

    @pytest.mark.parametrize("n", range(2, 7))
    def test_necklace_fill_matches_per_word_newton(self, n):
        table = cylinder_table(TRI, n)
        assert list(table.entries) == _cyclic_words(3, n)
        for w, (logj, t) in table.entries.items():
            ref_logj, ref_t = newton_fd_oracle(TRI, w)
            assert abs(logj - ref_logj) <= 1e-13 * ref_logj
            assert abs(t - ref_t) <= 1e-13 * ref_t

    def test_repeated_words_get_their_distinct_rotations(self):
        table = cylinder_table(TRI, 6)
        twice = [w for w in table.entries if w[:3] == w[3:]]
        thrice = [w for w in table.entries if w[:2] == w[2:4] == w[4:]]
        # 012012-type: 2 necklaces x 3 rotations; 010101-type: 3 x 2
        assert len(twice) == 6 and len(thrice) == 6
        for w in twice + thrice:
            ref_logj, ref_t = newton_fd_oracle(TRI, w)
            assert table.entries[w][0] == pytest.approx(ref_logj, rel=1e-13)
            assert table.entries[w][1] == pytest.approx(ref_t, rel=1e-13)

    def test_one_newton_solve_per_necklace(self, monkeypatch):
        solved = []
        real = disk_billiard.orbit_for_word

        def counting(config, word, closed=True):
            solved.append(tuple(word))
            return real(config, word, closed)

        monkeypatch.setattr(disk_billiard, "orbit_for_word", counting)
        for n in range(4, 9):
            solved.clear()
            table = cylinder_table(TRI, n)
            assert solved == _necklaces(3, n)
            assert len(table.entries) == len(_cyclic_words(3, n))

    @pytest.mark.parametrize("n", [4, 6])
    def test_rotated_orbits_match_direct_solves(self, n):
        for w, seg in _cycle_orbits(TRI, n).items():
            direct = orbit_for_word(TRI, w, closed=True)
            assert seg.word == w
            assert angle_gap(seg.angles, direct.angles) <= 1e-13
            assert np.allclose(seg.lengths, direct.lengths, rtol=1e-13, atol=0)
            assert seg.logJ == pytest.approx(direct.logJ, rel=1e-13)

    def test_shadowed_words_are_dropped_per_word(self, monkeypatch, caplog):
        real = disk_billiard.orbit_for_word

        def shadow_repeats(config, word, closed=True):
            if word == (0, 1, 0, 1):
                raise ShadowedPath("test")
            return real(config, word, closed)

        monkeypatch.setattr(disk_billiard, "orbit_for_word", shadow_repeats)
        with caplog.at_level("WARNING", logger="openmaps.disk_billiard"):
            table = cylinder_table(TRI, 4)
        assert (0, 1, 0, 1) not in table.entries
        assert (1, 0, 1, 0) not in table.entries
        assert len(table.entries) == len(_cyclic_words(3, 4)) - 2
        assert "dropped 2 shadowed words" in caplog.text

    def test_depth_one_rejected(self):
        with pytest.raises(ValueError):
            cylinder_table(TRI, 1)


class TestEscapeRate:
    def test_two_disk_rate_matches_orbit_expansion(self):
        # the trapped set is one orbit; its expansion rate per unit time
        # is the escape rate
        seg = orbit_for_word(TWO_DISK, (0, 1), closed=True)
        expect = seg.logJ / seg.t_total
        rate, err = escape_rate_mc(TWO_DISK, 10**6, rng_seed=3)
        assert rate == pytest.approx(expect, rel=0.05)
        assert 0 < err < 0.1 * rate

    def test_three_disk_rate_matches_pressure_root(self, tri_tables):
        gamma = classical_decay_rate(tri_tables)
        rate, err = escape_rate_mc(TRI, 10**6, rng_seed=11)
        assert rate == pytest.approx(gamma, rel=0.05)
        assert 0 < err < 0.1 * rate

    def test_scaling_covariance(self):
        # doubling every length halves rates; matched seeds make the
        # comparison exact because the sampled geometry just rescales
        big = DiskConfig(
            centers=tuple((2 * x, 2 * y) for x, y in TRI.centers),
            radii=(2.0, 2.0, 2.0),
        )
        r1, _ = escape_rate_mc(TRI, 10**5, rng_seed=5)
        r2, _ = escape_rate_mc(big, 10**5, rng_seed=5)
        assert r2 == pytest.approx(r1 / 2.0, rel=1e-9)

    def test_reproducible_given_seed(self):
        a = escape_rate_mc(TRI, 10**5, rng_seed=7)
        b = escape_rate_mc(TRI, 10**5, rng_seed=7)
        assert a == b

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            escape_rate_mc(TWO_DISK, 100)

    def test_too_few_survivors_when_capped(self):
        with pytest.raises(TooFewSurvivors):
            escape_rate_mc(TWO_DISK, 10**5, max_bounces=1, rng_seed=0)


class TestTrappedSetGeometry:
    def test_periodic_points_pool(self):
        pts = periodic_points(TRI, range(2, 7))
        assert len(pts) > 100
        assert np.all(np.abs(pts[:, 1]) < 1.0)

    def test_box_dimension_close_to_bowen_root(self, tri_tables):
        d_h = bowen_dimension(tri_tables)
        box = trapped_box_dimension(TRI)
        assert abs(box - d_h) < 0.05

    def test_box_dimension_needs_points(self):
        with pytest.raises(ValueError):
            trapped_box_dimension(TWO_DISK)


class TestConfigValidation:
    def test_overlapping_disks_rejected(self):
        with pytest.raises(ValueError):
            DiskConfig(centers=((0.0, 0.0), (1.5, 0.0)), radii=(1.0, 1.0))

    def test_eclipsed_configuration_rejected(self):
        # middle disk shadows the line of sight between the outer two
        with pytest.raises(ValueError):
            DiskConfig(
                centers=((0.0, 0.0), (5.0, 0.2), (10.0, 0.0)),
                radii=(1.0, 1.0, 1.0),
            )

    def test_boundary_coord_range(self):
        with pytest.raises(ValueError):
            BoundaryCoord(0, 0.0, 1.0)


class TestSerialization:
    def test_orbit_csv_row(self):
        seg = orbit_for_word(TRI, (0, 1, 2), closed=True)
        row = orbit_to_csv_row(seg)
        cells = row.split(",")
        assert cells[0] == "012"
        assert len(cells) == 1 + 3 + 3 + 2
        assert float(cells[-1]) == pytest.approx(seg.t_total)
        assert float(cells[-2]) == pytest.approx(seg.logJ)
