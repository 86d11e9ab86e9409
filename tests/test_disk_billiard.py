"""Tests for the open disk billiard.

Geometric oracles come first.  The scalar bounce map (`billiard_step`
on a `BoundaryCoord`) lives here, not in the package: the production
bounce map is the vectorized ray walk of `escape_rate_mc`, and this one
only serves the finite-difference Jacobian that cross-checks the
analytic monodromy.  The two-disk system has a closed-form stability
exponent, and the per-bounce monodromy product checks every orbit's
logJ.  The per-bounce flight-length loop, its finite-differenced
Hessian and the per-word Newton solve built on them are kept here as
oracles for the vectorised analytic Hessian and for the
one-solve-per-necklace cylinder tables.  The per-word damped Newton
with its per-word start angles, flight clearance assertion and
monodromy loop, the per-necklace periodic-point loop and the
gather/scatter Monte-Carlo loop with its whole-sample draws are kept as
oracles for the batched solver and the chunked, threaded escape loop
with its per-chunk draws.  The tuple word builder, the per-word
least-rotation search and the set-of-cells box count are kept as
oracles for their array forms, and a dense grid search for the
closed-form hull clearance and the table's least clearance.  The
one-word solve `orbit_for_word` and its `OrbitSegment` record are test
helpers over the batched solver.

Frozen analytic constants (two disks of radius 1, centers 6 apart):
    bounce orbit flight time     t = 8 per period (two flights of 4)
    expansion per period      logJ = 2*log(5 + sqrt(24))
                                   = 4.584863339122355
Equilateral three-disk system, centers 6 apart, radius 1:
    triangle orbit flight        6 - sqrt(3) = 4.267949192431123 each
    triangle orbit expansion     7.397032649059277 (cross-checked below
                                 against the finite-difference Jacobian)
"""

import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from openmaps import disk_billiard
from openmaps.disk_billiard import (
    DiskConfig,
    _cycle_orbits,
    _crossing,
    _cyclic_words,
    _flight_pairs,
    _initial_angles,
    _log_expansions,
    _necklace_classes,
    _necklaces,
    _occupied_cells,
    _total_length_grad,
    cylinder_table,
    escape_rate_mc,
    periodic_points,
    trapped_box_dimension,
)
from openmaps.errors import (
    EmptyTable,
    LabError,
    NoConvergence,
    NotHyperbolic,
    TooFewSurvivors,
)
from openmaps.symbolic_pressure import bowen_dimension, classical_decay_rate, finite_pressure

LOGJ_TWO_DISK = 4.584863339122355
FLIGHT_TRIANGLE = 4.267949192431123
LOGJ_TRIANGLE = 7.397032649059277

TWO_DISK = DiskConfig(centers=((0.0, 0.0), (6.0, 0.0)), radii=(1.0, 1.0))
TRI = DiskConfig(
    centers=((0.0, 0.0), (6.0, 0.0), (3.0, 3.0 * math.sqrt(3.0))),
    radii=(1.0, 1.0, 1.0),
)
UNEQUAL = DiskConfig(centers=((0.0, 0.0), (7.0, 0.5), (3.0, 6.0)),
                     radii=(1.0, 1.5, 0.7))
DOUBLED = DiskConfig(centers=tuple((2 * x, 2 * y) for x, y in TRI.centers),
                     radii=(2.0, 2.0, 2.0))
# four symbols: diagonal flights pass between two disks without crossing them
SQUARE = DiskConfig(centers=((0.0, 0.0), (6.0, 0.0), (6.0, 6.0), (0.0, 6.0)),
                    radii=(1.0, 1.0, 1.0, 1.0))
# centers 8 apart: at 1e5 rays and a cap of 4 or 5 bounces the survivor
# curve reaches 1e-3 with rays still alive
WIDE = DiskConfig(centers=((0.0, 0.0), (8.0, 0.0), (4.0, 4.0 * math.sqrt(3.0))),
                  radii=(1.0, 1.0, 1.0))

GRAZING_BAND = 1e-12


class GrazingHit(LabError):
    """Billiard image is within 1e-12 of tangency."""


@dataclass(frozen=True)
class BoundaryCoord:
    disk: int
    y: float
    eta: float

    def __post_init__(self):
        if not -1.0 < self.eta < 1.0:
            raise ValueError(f"|eta| must be < 1, got {self.eta}")


def coord_to_ray(config, c):
    """Boundary coordinate -> (foot point, outgoing unit direction)."""
    r = config.radii[c.disk]
    phi = c.y / r
    nu = np.array([math.cos(phi), math.sin(phi)])
    tau = np.array([-nu[1], nu[0]])
    p = np.array(config.centers[c.disk]) + r * nu
    d = c.eta * tau + math.sqrt(1.0 - c.eta ** 2) * nu
    return p, d


def billiard_step(config, c):
    """Map a boundary coordinate to the next reflection, or None on escape."""
    p, d = coord_to_ray(config, c)
    t_best, k_best = math.inf, -1
    for k in range(config.k):
        rel = p - np.array(config.centers[k])
        b = float(d @ rel)
        c0 = float(rel @ rel) - config.radii[k] ** 2
        disc = b * b - c0
        if disc <= 0:
            continue
        t = -b - math.sqrt(disc)
        if disk_billiard.RAY_EPS < t < t_best:
            t_best, k_best = t, k
    if k_best < 0:
        return None
    q = p + t_best * d
    r = config.radii[k_best]
    nu = (q - np.array(config.centers[k_best])) / r
    tau = np.array([-nu[1], nu[0]])
    eta = float(d @ tau)            # reflection preserves the tangential part
    if abs(eta) >= 1.0 - GRAZING_BAND:
        raise GrazingHit(f"|eta| = {abs(eta):.17g} at disk {k_best}")
    phi = math.atan2(nu[1], nu[0]) % (2 * math.pi)
    return BoundaryCoord(k_best, r * phi, eta)


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


@dataclass(frozen=True)
class OrbitSegment:
    """One closed orbit: its word, and per bounce its boundary angle and
    the flight to the next bounce (cyclically), with its logJ, total
    flight time and Newton residual."""

    word: tuple
    angles: tuple
    lengths: tuple
    logJ: float
    t_total: float
    residual: float


def orbit_for_word(config, word):
    """The closed orbit of one cyclic word: the one-word case of `_solve_orbits`."""
    b = disk_billiard._solve_orbits(config, np.array([word]))
    return OrbitSegment(tuple(word), tuple(b.angles[0].tolist()), tuple(b.lengths[0].tolist()),
                        float(b.logJ[0]), float(b.t_total[0]), float(b.residual[0]))


def point(config, disk, phi):
    cx, cy = config.centers[disk]
    r = config.radii[disk]
    return np.array([cx + r * math.cos(phi), cy + r * math.sin(phi)])


def one_word(config, word, phis):
    """`_total_length_grad` on a batch of one word."""
    ell, grad, hess = _total_length_grad(config, np.array([word]), np.array([phis]))
    return ell[0], grad[0], hess[0]


def loop_length_grad(config, word, phis):
    """(lengths, gradient) of the flight length, one flight at a time."""
    n = len(word)
    pts = [point(config, word[k], phis[k]) for k in range(n)]
    grad = np.zeros(n)
    lengths = []
    for k0, k1 in zip(*_flight_pairs(n)):
        seg = pts[k1] - pts[k0]
        ell = float(np.linalg.norm(seg))
        u = seg / ell
        for k, sign in ((k0, -1.0), (k1, +1.0)):
            r = config.radii[word[k]]
            tau = np.array([-math.sin(phis[k]), math.cos(phis[k])]) * r
            grad[k] += sign * float(u @ tau)
        lengths.append(ell)
    return np.array(lengths), grad


def fd_hessian(config, word, phis, step=1e-6):
    """Central differences of `loop_length_grad`, symmetrized."""
    n = len(word)
    hess = np.zeros((n, n))
    for k in range(n):
        up = phis.copy()
        up[k] += step
        dn = phis.copy()
        dn[k] -= step
        _, gu = loop_length_grad(config, word, up)
        _, gd = loop_length_grad(config, word, dn)
        hess[:, k] = (gu - gd) / (2 * step)
    return 0.5 * (hess + hess.T)


def newton_fd_oracle(config, word):
    """(logJ, t) of a closed word by damped Newton on the FD Hessian."""
    n = len(word)
    phis = initial_angles_oracle(config, word)
    _, grad = loop_length_grad(config, word, phis)
    mu = 1e-8
    for _ in range(120):
        if np.max(np.abs(grad)) <= 1e-12:
            break
        hess = fd_hessian(config, word, phis)
        while True:
            trial = phis + np.linalg.solve(hess + mu * np.eye(n), -grad)
            _, gt = loop_length_grad(config, word, trial)
            if np.max(np.abs(gt)) < np.max(np.abs(grad)) or mu > 1e6:
                phis, grad = trial, gt
                mu = max(mu / 10, 1e-12)
                break
            mu *= 10
    assert np.max(np.abs(grad)) <= 1e-12
    lengths, _ = loop_length_grad(config, word, np.mod(phis, 2 * math.pi))
    seg = OrbitSegment(word, tuple(np.mod(phis, 2 * math.pi)), tuple(lengths),
                       math.nan, float(lengths.sum()), 0.0)
    return stability_oracle(config, seg), seg.t_total


def initial_angles_oracle(config, word):
    """Per-word Newton start: each bounce faces its neighbours' centers."""
    n = len(word)
    phis = np.zeros(n)
    for k in range(n):
        c = np.array(config.centers[word[k]])
        u = np.zeros(2)
        neighbors = [word[(k - 1) % n], word[(k + 1) % n]]
        for other in neighbors:
            v = np.array(config.centers[other]) - c
            u = u + v / np.linalg.norm(v)
        if np.linalg.norm(u) < 1e-9:
            v = np.array(config.centers[neighbors[0]]) - c
            u = np.array([-v[1], v[0]])
        phis[k] = math.atan2(u[1], u[0])
    return phis


def assert_flights_clear(config, word, pts, clearance):
    """Assert, flight by flight, that no flight of the closed orbit through
    `pts` comes nearer than `clearance` (the table's) to a third disk."""
    for k0, k1 in zip(*_flight_pairs(len(word))):
        a, b = pts[k0], pts[k1]
        seg = b - a
        seg_len2 = float(seg @ seg)
        for other in range(config.k):
            if other in (word[k0], word[k1]):
                continue
            rel = np.array(config.centers[other]) - a
            t = min(max(float(rel @ seg) / seg_len2, 0.0), 1.0)
            gap = float(np.linalg.norm(rel - t * seg)) - config.radii[other]
            assert gap >= clearance - 1e-12 * max(1.0, clearance), (
                f"flight {word[k0]}->{word[k1]} of word {word} passes disk {other} "
                f"at {gap:.6g}, inside the clearance {clearance:.6g}")


def assert_solved_flights_clear(config, periods):
    """Solve the necklaces of each period as `periodic_points` does, one
    batch per period, and assert every flight clear of every third disk."""
    clearance = config.clearance
    for n in periods:
        b = disk_billiard._solve_orbits(config, _necklaces(config.k, n))
        pts = disk_billiard._bounces(config, b.words, b.angles)[2]
        for word, p in zip(map(tuple, b.words.tolist()), pts):
            assert_flights_clear(config, word, p, clearance)


def grid_clearance(config, i, j, l, t):
    """Gap from disk i to conv(D_j u D_l) as the least gap to the disks at
    c_j + t (c_l - c_j) of radius R_j + t (R_l - R_j) over the grid t."""
    ci, cj, cl = (np.array(config.centers[m]) for m in (i, j, l))
    c = cj + t[:, None] * (cl - cj)
    r = config.radii[j] + t * (config.radii[l] - config.radii[j])
    return float(np.min(np.linalg.norm(ci - c, axis=1) - r)) - config.radii[i]


def stability_oracle(config, segment):
    """logJ by the per-bounce monodromy product of one closed segment."""
    n = len(segment.word)
    pts = [point(config, segment.word[k], segment.angles[k]) for k in range(n)]
    cosines = []
    for k in range(n):
        nu = (pts[k] - np.array(config.centers[segment.word[k]])) / config.radii[
            segment.word[k]
        ]
        out = pts[(k + 1) % n] - pts[k]
        cosines.append(abs(float(out / np.linalg.norm(out) @ nu)))
    mono = np.eye(2)
    for k in range(n):
        flight = np.array([[1.0, segment.lengths[k]], [0.0, 1.0]])
        k_next = (k + 1) % n
        kappa = 1.0 / config.radii[segment.word[k_next]]
        refl = np.array([[1.0, 0.0], [2.0 * kappa / cosines[k_next], 1.0]])
        mono = refl @ flight @ mono
    assert abs(float(np.trace(mono))) > 2.0
    return float(math.log(max(abs(e) for e in np.linalg.eigvals(mono))))


def orbit_oracle(config, word):
    """Per-word damped Newton on the analytic Hessian, one word at a time."""
    n = len(word)
    phis = initial_angles_oracle(config, word)
    _, grad, hess = one_word(config, word, phis)
    mu = 1e-8
    for _ in range(120):
        if np.max(np.abs(grad)) <= 1e-12:
            break
        while True:
            try:
                delta = np.linalg.solve(hess + mu * np.eye(n), -grad)
            except np.linalg.LinAlgError:
                mu = max(mu * 10, 1e-8)
                continue
            trial = phis + delta
            _, gt, ht = one_word(config, word, trial)
            if np.max(np.abs(gt)) < np.max(np.abs(grad)) or mu > 1e6:
                phis, grad, hess = trial, gt, ht
                mu = max(mu / 10, 1e-12)
                break
            mu *= 10
    residual = float(np.max(np.abs(grad)))
    assert residual <= 1e-12
    phis = np.mod(phis, 2 * math.pi)
    assert_flights_clear(config, word, [point(config, word[k], phis[k]) for k in range(n)],
                         config.clearance)
    lengths, _, _ = one_word(config, word, phis)
    seg = OrbitSegment(word, tuple(float(p) for p in phis),
                       tuple(float(l) for l in lengths), math.nan,
                       float(lengths.sum()), residual)
    return replace(seg, logJ=stability_oracle(config, seg))


def periodic_points_oracle(config, periods):
    """(y, eta) of every bounce, necklace by necklace, bounce by bounce."""
    pts = []
    for n in periods:
        for w in map(tuple, _necklaces(config.k, n).tolist()):
            seg = orbit_oracle(config, w)
            for k in range(n):
                r = config.radii[seg.word[k]]
                pts_k = point(config, seg.word[k], seg.angles[k])
                nxt = point(config, seg.word[(k + 1) % n], seg.angles[(k + 1) % n])
                out = (nxt - pts_k) / np.linalg.norm(nxt - pts_k)
                nu = (pts_k - np.array(config.centers[seg.word[k]])) / r
                tau = np.array([-nu[1], nu[0]])
                pts.append(((seg.angles[k] % (2 * math.pi)) * r, float(out @ tau)))
    return np.array(pts)


def cyclic_words_oracle(k, n):
    """Cyclic words of length n as tuples, lexicographic: words without an
    immediate repeat, grown symbol by symbol, then the wrap filter (the
    builder the integer array of `_cyclic_words` replaced)."""
    words = [(s,) for s in range(k)]
    for _ in range(n - 1):
        words = [w + (s,) for w in words for s in range(k) if s != w[-1]]
    return [w for w in words if w[-1] != w[0]]


def least_rotation_oracle(word):
    """(lexicographically least rotation, shift i with word[i:] + word[:i] == it)."""
    return min((word[i:] + word[:i], i) for i in range(len(word)))


def necklaces_oracle(k, n):
    return list(dict.fromkeys(least_rotation_oracle(w)[0] for w in cyclic_words_oracle(k, n)))


def occupied_cells_oracle(pts, delta):
    return len({(int(p[0] // delta), int(p[1] // delta)) for p in pts})


def escape_rate_mc_oracle(config, samples, rng_seed=0):
    """`escape_rate_mc` gathering and scattering full-size arrays per bounce,
    for at most `disk_billiard.MAX_BOUNCES` bounces, read at call time."""
    if samples < 10 ** 4:
        raise ValueError("samples >= 1e4")
    rng = np.random.Generator(np.random.Philox(rng_seed))
    radii = np.array(config.radii)
    centers = np.array(config.centers)
    centroid = centers.mean(axis=0)
    # scale-covariant exit radius: rescaling the whole table rescales it
    r_out = 2.0 * float(np.max(np.linalg.norm(centers - centroid, axis=1) + radii))
    disk = rng.choice(config.k, size=samples, p=radii / radii.sum())
    phi = rng.uniform(0.0, 2 * math.pi, samples)
    eta = rng.uniform(-1.0, 1.0, samples)
    nu = np.column_stack([np.cos(phi), np.sin(phi)])
    tau = np.column_stack([-np.sin(phi), np.cos(phi)])
    pos = centers[disk] + radii[disk, None] * nu
    dirs = eta[:, None] * tau + np.sqrt(1 - eta ** 2)[:, None] * nu

    alive = np.ones(samples, dtype=bool)
    time_total = np.zeros(samples)
    escape_time = np.full(samples, np.nan)
    late_flights = []
    for bounce in range(disk_billiard.MAX_BOUNCES):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        p = pos[idx]
        d = dirs[idx]
        t_best = np.full(idx.size, np.inf)
        k_best = np.full(idx.size, -1)
        for k in range(config.k):
            rel = p - centers[k]
            b = np.einsum("ij,ij->i", d, rel)
            c0 = np.einsum("ij,ij->i", rel, rel) - radii[k] ** 2
            disc = b * b - c0
            ok = disc > 0
            t = np.where(ok, -b - np.sqrt(np.where(ok, disc, 0.0)), np.inf)
            hit = ok & (t > disk_billiard.RAY_EPS) & (t < t_best)
            t_best[hit] = t[hit]
            k_best[hit] = k
        gone = k_best < 0
        gi = idx[gone]
        rel = pos[gi] - centroid
        b_out = np.einsum("ij,ij->i", dirs[gi], rel)
        c_out = np.einsum("ij,ij->i", rel, rel) - r_out ** 2
        t_exit = -b_out + np.sqrt(b_out * b_out - c_out)
        escape_time[gi] = time_total[gi] + t_exit
        alive[gi] = False
        stay = ~gone
        sidx = idx[stay]
        # flights past the first bounces sample the trapped dynamics
        if bounce >= 2:
            late_flights.append(t_best[stay])
        q = p[stay] + t_best[stay, None] * d[stay]
        time_total[sidx] += t_best[stay]
        nuq = (q - centers[k_best[stay]]) / radii[k_best[stay], None]
        dd = d[stay]
        dd = dd - 2 * np.einsum("ij,ij->i", dd, nuq)[:, None] * nuq
        pos[sidx] = q
        dirs[sidx] = dd

    censored_min = time_total[alive].min() if alive.any() else np.inf
    times = escape_time[~np.isnan(escape_time)]
    if times.size < samples // 2:
        raise TooFewSurvivors("most samples never escaped; raise MAX_BOUNCES")
    if not late_flights or sum(f.size for f in late_flights) < 100:
        raise TooFewSurvivors("too few multi-bounce paths to set the flight period")
    period = float(np.mean(np.concatenate(late_flights)))

    # window endpoints: times where the survivor fraction crosses 1e-1, 1e-3
    order = np.sort(times)
    surv = 1.0 - np.arange(1, order.size + 1) / samples
    if surv[-1] + alive.mean() > 1e-3:
        raise TooFewSurvivors("survivor fraction never reaches 1e-3; raise MAX_BOUNCES")
    t_lo = float(order[np.searchsorted(-surv, -1e-1)])
    t_hi = float(order[np.searchsorted(-surv, -1e-3)])
    if not (t_lo < t_hi < censored_min):
        raise TooFewSurvivors("fit window empty or censored; raise MAX_BOUNCES")
    grid = np.linspace(t_lo, t_hi, 60)
    frac = np.array([
        ((escape_time > T) | np.isnan(escape_time)).mean() for T in grid
    ])
    harmonics = 2 if (t_hi - t_lo) > 2 * period else (1 if (t_hi - t_lo) > period else 0)
    x = grid
    y = np.log(frac)
    w = frac  # var(log S) ~ (1-S)/(N S), so S is the inverse-variance weight up to scale
    cols = [np.ones(x.size), x]
    for m in range(1, harmonics + 1):
        cols.append(np.cos(2 * math.pi * m * x / period))
        cols.append(np.sin(2 * math.pi * m * x / period))
    design = np.column_stack(cols)
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(sw[:, None] * design, sw * y, rcond=None)
    resid = y - design @ coef
    dof = max(x.size - design.shape[1], 1)
    cov = np.linalg.inv(design.T @ (w[:, None] * design))
    var_slope = float(resid @ (w * resid)) / dof * cov[1, 1]
    return float(-coef[1]), float(math.sqrt(var_slope))


class DampingSpy:
    """Logs (word, mu) of every damped Newton solve `_solve_orbits` makes.

    Wraps `_total_length_grad` to map each Hessian it returns (by its
    off-diagonal entries) to its word, and `np.linalg.solve` to read mu off
    the diagonal of each damped Hessian.  Use a table without symmetries,
    whose words all have distinct Hessians.  `singular(word, mu)` makes a
    solve raise LinAlgError (logged in `failed` for one-row solves);
    the gradient of the word `stuck` is pinned at 1, so it never converges.
    """

    def __init__(self, monkeypatch, singular=None, stuck=None):
        self.log, self.failed = [], []
        rows = {}
        real_grad, real_solve = disk_billiard._total_length_grad, np.linalg.solve

        def off_diagonal(h):
            return (h - np.diag(np.diag(h))).tobytes()

        def grad(config, idx, phis):
            ell, g, h = real_grad(config, idx, phis)
            for w, gi, hi in zip(map(tuple, idx.tolist()), g, h):
                rows[off_diagonal(hi)] = (w, hi.copy())
                if w == stuck:
                    gi[:] = 1.0
            return ell, g, h

        def solve(a, b):
            damped = []
            for m in a:
                w, h = rows[off_diagonal(m)]
                damped.append((w, float(np.mean(np.diag(m) - np.diag(h)))))
            if singular and any(singular(w, mu) for w, mu in damped):
                if len(a) == 1:
                    self.failed += damped
                raise np.linalg.LinAlgError("singular")
            self.log += damped
            return real_solve(a, b)

        monkeypatch.setattr(disk_billiard, "_total_length_grad", grad)
        monkeypatch.setattr(np.linalg, "solve", solve)

    def mus(self, word):
        return [mu for w, mu in self.log if w == word]


def random_word(rng, n):
    """Uniform cyclically admissible three-disk word."""
    while True:
        word = [int(rng.integers(3))]
        for _ in range(n - 1):
            word.append(int((word[-1] + rng.integers(1, 3)) % 3))
        if word[0] != word[-1]:
            return tuple(word)


@st.composite
def cyclic_words(draw, k, max_size):
    """Admissible cyclic words over k symbols, built directly.

    Each symbol differs from the one before it, and the last from the
    first, so no example is thrown away.
    """
    n = draw(st.integers(2, max_size))
    word = [draw(st.integers(0, k - 1))]
    for _ in range(n - 2):
        word.append((word[-1] + draw(st.integers(1, k - 1))) % k)
    word.append(draw(st.sampled_from(
        [s for s in range(k) if s not in (word[-1], word[0])])))
    return word


@st.composite
def no_eclipse_tables(draw):
    """Tables of 3-5 disks of unequal radii around a jittered ring that
    `DiskConfig` accepts; some come near eclipse."""
    k = draw(st.integers(3, 5))
    centers, radii = [], []
    for i in range(k):
        angle = 2 * math.pi * (i + draw(st.floats(-0.2, 0.2))) / k
        ring = draw(st.floats(4.0, 8.0))
        centers.append((ring * math.cos(angle), ring * math.sin(angle)))
        radii.append(draw(st.floats(0.3, 2.0)))
    try:
        return DiskConfig(centers, radii)
    except ValueError:
        assume(False)


def angle_gap(a, b):
    d = np.abs(np.asarray(a) - np.asarray(b)) % (2 * math.pi)
    return float(np.max(np.minimum(d, 2 * math.pi - d)))


@pytest.fixture(scope="module")
def tri_tables():
    """Three-disk cylinder tables at depths 4-8, shared across tests."""
    return [cylinder_table(TRI, n) for n in range(4, 9)]


@pytest.fixture
def walked_chunks(monkeypatch):
    """The chunk sizes `escape_rate_mc` hands `_walk_rays`, in call order."""
    chunks, real = [], disk_billiard._walk_rays

    def counting(config, r_out, max_bounces, size, *rest):
        chunks.append(size)
        return real(config, r_out, max_bounces, size, *rest)

    monkeypatch.setattr(disk_billiard, "_walk_rays", counting)
    return chunks


def value_or_refusal(escape, config, samples, seed):
    """`escape(config, samples, rng_seed=seed)`, or its `TooFewSurvivors` text."""
    try:
        return escape(config, samples, rng_seed=seed)
    except TooFewSurvivors as exc:
        return str(exc)


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
        seg = orbit_for_word(TWO_DISK, (0, 1))
        assert seg.t_total == pytest.approx(8.0, abs=1e-10)
        assert seg.logJ == pytest.approx(LOGJ_TWO_DISK, abs=1e-10)
        assert seg.residual < 1e-10

    def test_triangle_orbit_flights(self):
        seg = orbit_for_word(TRI, (0, 1, 2))
        for ell in seg.lengths:
            assert ell == pytest.approx(FLIGHT_TRIANGLE, abs=1e-9)
        assert seg.logJ == pytest.approx(LOGJ_TRIANGLE, abs=1e-9)

    def test_monodromy_against_fd_jacobian_two_disk(self):
        # oracle: differentiate the actual return map at the fixed point
        seg = orbit_for_word(TWO_DISK, (0, 1))
        coord = BoundaryCoord(0, seg.angles[0] % (2 * math.pi), 0.0)
        J = bounce_jacobian(TWO_DISK, coord, 2)
        eigs = np.linalg.eigvals(J)
        assert np.linalg.det(J) == pytest.approx(1.0, abs=1e-6)
        assert math.log(np.abs(eigs).max()) == pytest.approx(
            seg.logJ, rel=1e-5
        )

    def test_monodromy_against_fd_jacobian_triangle(self):
        seg = orbit_for_word(TRI, (0, 1, 2))
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
        a = orbit_for_word(TRI, (0, 1, 2, 1))
        b = orbit_for_word(TRI, (1, 2, 1, 0))
        assert a.logJ == pytest.approx(b.logJ, abs=1e-9)
        assert a.t_total == pytest.approx(b.t_total, abs=1e-9)

    def test_disk_relabel_symmetry(self):
        # the equilateral table is invariant under rotating disk labels
        a = orbit_for_word(TRI, (0, 1, 0, 2))
        b = orbit_for_word(TRI, (1, 2, 1, 0))
        assert a.logJ == pytest.approx(b.logJ, abs=1e-9)
        assert a.t_total == pytest.approx(b.t_total, abs=1e-9)

    @given(cyclic_words(3, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_random_words_converge_and_expand(self, word):
        seg = orbit_for_word(TRI, tuple(word))
        assert seg.residual < 1e-9
        assert seg.logJ > 0.0
        # every flight crosses the gap between disk hulls at least once
        assert seg.t_total > 4.0 * (len(word) - 1)

    @pytest.mark.parametrize("word", [(0,), (0, 0, 1), (0, 1, 0)],
                             ids=["short", "repeat", "cyclic_repeat"])
    def test_inadmissible_words_rejected(self, word):
        with pytest.raises(ValueError):
            orbit_for_word(TRI, word)


class TestFlightLengthDerivatives:
    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("config", [TRI, UNEQUAL], ids=["tri", "unequal"])
    def test_gradient_matches_loop(self, config, n):
        rng = np.random.default_rng(100 * n + 1)
        word = random_word(rng, n)
        phis = initial_angles_oracle(config, word) + rng.uniform(-0.2, 0.2, n)
        lengths, grad, _ = one_word(config, word, phis)
        ref_lengths, ref_grad = loop_length_grad(config, word, phis)
        assert np.max(np.abs(lengths - ref_lengths)) <= 1e-13 * ref_lengths.max()
        assert np.max(np.abs(grad - ref_grad)) <= 1e-13 * np.max(np.abs(ref_grad))

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("config", [TRI, UNEQUAL], ids=["tri", "unequal"])
    def test_analytic_hessian_matches_finite_differences(self, config, n):
        rng = np.random.default_rng(200 * n + 1)
        word = random_word(rng, n)
        phis = initial_angles_oracle(config, word) + rng.uniform(-0.2, 0.2, n)
        _, _, hess = one_word(config, word, phis)
        ref = fd_hessian(config, word, phis)
        assert np.max(np.abs(hess - ref)) <= 1e-6 * np.max(np.abs(ref))
        # cyclic tridiagonal: bounces couple only through shared flights
        k = np.arange(n)
        gap = np.abs(k[:, None] - k[None, :])
        band = (gap <= 1) | (gap == n - 1)
        assert np.all(hess[~band] == 0.0)
        assert np.array_equal(hess, hess.T)


class TestCylinderTables:
    def test_depth_two_table(self):
        table = cylinder_table(TRI, 2)
        assert len(table.words) == 6  # 3 unordered pairs, 2 rotations
        for logj, t in zip(table.logJ, table.t):
            assert logj == pytest.approx(LOGJ_TWO_DISK, abs=1e-9)
            assert t == pytest.approx(8.0, abs=1e-9)

    def test_cyclic_word_counts(self):
        # words admissible cyclically: tr(A^n) = 2^n + 2(-1)^n
        for n in range(2, 17):
            assert len(_cyclic_words(3, n)) == 2**n + 2 * (-1) ** n

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_cyclic_words_match_tuple_builder(self, k):
        for n in range(2, 13):
            ref = cyclic_words_oracle(k, n)
            words = _cyclic_words(k, n)
            assert words.dtype == np.int64 and words.shape == (len(ref), n)
            # in slices: the tuples already hold most of the memory
            for lo in range(0, len(ref), 2**15):
                chunk = np.array(ref[lo:lo + 2**15], dtype=np.int64)
                assert np.array_equal(words[lo:lo + 2**15], chunk)

    def test_necklace_representatives_cover_all_words(self):
        words = set(map(tuple, _cyclic_words(3, 4).tolist()))
        neck = map(tuple, _necklaces(3, 4).tolist())
        regen = {w[i:] + w[:i] for w in neck for i in range(4)}
        assert regen == words

    @pytest.mark.parametrize("k", [3, 4])
    def test_necklaces_match_least_rotation_search(self, k):
        for n in range(2, 11):
            assert list(map(tuple, _necklaces(k, n).tolist())) == necklaces_oracle(k, n)
            words, necklaces, cls, shift = _necklace_classes(k, n)
            for w, c, i in zip(map(tuple, words.tolist()), cls, shift):
                assert (tuple(necklaces[c].tolist()), i) == least_rotation_oracle(w)

    def test_table_words_match_depth(self):
        table = cylinder_table(TRI, 4)
        assert table.words.shape == (2**4 + 2, 4)

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("config", [TRI, UNEQUAL, SQUARE],
                             ids=["tri", "unequal", "square"])
    def test_necklace_fill_matches_per_word_newton(self, config, n):
        table = cylinder_table(config, n)
        assert list(map(tuple, table.words.tolist())) == cyclic_words_oracle(config.k, n)
        for w, logj, t in zip(map(tuple, table.words.tolist()), table.logJ, table.t):
            ref_logj, ref_t = newton_fd_oracle(config, w)
            assert abs(logj - ref_logj) <= 1e-13 * ref_logj
            assert abs(t - ref_t) <= 1e-13 * ref_t

    def test_repeated_words_get_their_distinct_rotations(self):
        table = cylinder_table(TRI, 6)
        weights = dict(zip(map(tuple, table.words.tolist()), zip(table.logJ, table.t)))
        twice = [w for w in weights if w[:3] == w[3:]]
        thrice = [w for w in weights if w[:2] == w[2:4] == w[4:]]
        # 012012-type: 2 necklaces x 3 rotations; 010101-type: 3 x 2
        assert len(twice) == 6 and len(thrice) == 6
        for w in twice + thrice:
            ref_logj, ref_t = newton_fd_oracle(TRI, w)
            assert weights[w][0] == pytest.approx(ref_logj, rel=1e-13)
            assert weights[w][1] == pytest.approx(ref_t, rel=1e-13)

    def test_one_newton_solve_per_necklace(self, monkeypatch):
        batches = []
        real = disk_billiard._solve_orbits

        def counting(config, words):
            batches.append(words.tolist())
            return real(config, words)

        monkeypatch.setattr(disk_billiard, "_solve_orbits", counting)
        for n in range(4, 9):
            batches.clear()
            table = cylinder_table(TRI, n)
            assert batches == [_necklaces(3, n).tolist()]
            assert len(table.words) == len(_cyclic_words(3, n))
        batches.clear()
        periodic_points(TRI, range(2, 9))
        assert batches == [_necklaces(3, n).tolist() for n in range(2, 9)]

    @pytest.mark.parametrize("n", [4, 6])
    def test_rotated_orbits_match_direct_solves(self, n):
        words, angles, lengths, logj, t, residual = _cycle_orbits(TRI, n)
        table = cylinder_table(TRI, n)
        assert np.array_equal(words, _cyclic_words(3, n))
        # the table's weights, bit for bit
        assert np.array_equal(logj, table.logJ) and np.array_equal(t, table.t)
        for i, w in enumerate(map(tuple, words.tolist())):
            direct = orbit_for_word(TRI, w)
            assert angle_gap(angles[i], direct.angles) <= 1e-13
            assert np.allclose(lengths[i], direct.lengths, rtol=1e-13, atol=0)
            assert logj[i] == pytest.approx(direct.logJ, rel=1e-13)
            assert t[i] == pytest.approx(direct.t_total, rel=1e-13)
            assert residual[i] <= 1e-12

    def test_depth_one_rejected(self):
        with pytest.raises(ValueError):
            cylinder_table(TRI, 1)

    def test_two_disk_decay_rate_is_the_bounce_orbit_rate(self):
        # one cyclic class per even depth, the bounce orbit repeated, so
        # the pressure root is its logJ per unit flight time
        tables = [cylinder_table(TWO_DISK, n) for n in (4, 6, 8)]
        for table in tables:
            assert table.words.tolist() == [list(w) for w in
                                            cyclic_words_oracle(2, table.n)]
        assert classical_decay_rate(tables) == pytest.approx(LOGJ_TWO_DISK / 8,
                                                             abs=1e-8)

    def test_decay_rate_of_a_shrunk_table_doubles_the_bracket(self, tri_tables):
        # shrinking every length by 5 keeps logJ and divides t by 5, so
        # gamma_cl grows fivefold, past 2: the root bracket [0, 1] doubles
        # twice before the bisection
        small = DiskConfig(centers=tuple((x / 5, y / 5) for x, y in TRI.centers),
                           radii=tuple(r / 5 for r in TRI.radii))
        gamma = classical_decay_rate([cylinder_table(small, n) for n in range(4, 9)])
        assert 2.0 < gamma < 4.0
        assert gamma == pytest.approx(5 * classical_decay_rate(tri_tables), abs=1e-7)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_two_disk_odd_depth_table_is_empty(self, n):
        table = cylinder_table(TWO_DISK, n)
        assert table.words.shape == (0, n) and table.logJ.shape == table.t.shape == (0,)
        with pytest.raises(EmptyTable):
            finite_pressure(table, -1.0, 0.0)


class TestBatchedSolver:
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("config", [TRI, UNEQUAL, SQUARE],
                             ids=["tri", "unequal", "square"])
    def test_batch_matches_per_word_newton(self, config, n):
        words = _necklaces(config.k, n)
        batch = disk_billiard._solve_orbits(config, words)
        assert all(len(column) == len(words) for column in batch)
        assert np.array_equal(batch.words, words)
        t_total = batch.t_total
        for i, w in enumerate(map(tuple, words.tolist())):
            ref = orbit_oracle(config, w)
            assert angle_gap(batch.angles[i], ref.angles) <= 1e-13
            assert np.allclose(batch.lengths[i], ref.lengths, rtol=1e-13, atol=0)
            assert t_total[i] == pytest.approx(ref.t_total, rel=1e-13)
            # t is the 1-D sum of the row, in numpy's pairwise order
            assert t_total[i] == batch.lengths[i].sum()
            assert batch.logJ[i] == pytest.approx(ref.logJ, rel=1e-13)
            assert batch.residual[i] <= 1e-12

    @pytest.mark.parametrize("config", [TRI, UNEQUAL, SQUARE],
                             ids=["tri", "unequal", "square"])
    def test_start_angles_match_per_word(self, config):
        words = _cyclic_words(config.k, 6)
        got = _initial_angles(config, words)
        for w, row in zip(words.tolist(), got):
            assert np.array_equal(row, initial_angles_oracle(config, w))

    def test_singular_solve_raises_mu_only_for_that_word(self, monkeypatch):
        words = _necklaces(3, 6)
        target = tuple(words[3].tolist())
        with pytest.MonkeyPatch.context() as mp:
            ref_spy = DampingSpy(mp)
            ref = disk_billiard._solve_orbits(UNEQUAL, words)
        # the target's damped Hessian is singular until mu reaches 1e-5
        spy = DampingSpy(monkeypatch, singular=lambda w, mu: (
            w == target and mu < 5e-6 and not spy.mus(target)))
        got = disk_billiard._solve_orbits(UNEQUAL, words)
        assert [w for w, _ in spy.failed] == [target] * 3
        assert [mu for _, mu in spy.failed] == pytest.approx([1e-8, 1e-7, 1e-6], rel=1e-6)
        assert spy.mus(target)[0] == pytest.approx(1e-5, rel=1e-6)
        for i, w in enumerate(map(tuple, words.tolist())):
            if w == target:
                assert angle_gap(got.angles[i], ref.angles[i]) <= 1e-13
            else:
                assert spy.mus(w) == ref_spy.mus(w)
                assert np.array_equal(got.angles[i], ref.angles[i])
        # each word's damping falls tenfold per step, as in the per-word loop
        assert ref_spy.mus(target) == pytest.approx(
            [10.0 ** -(8 + k) for k in range(len(ref_spy.mus(target)))], rel=1e-6)

    def test_rejected_steps_and_no_convergence(self, monkeypatch):
        words = _necklaces(3, 5)
        target = tuple(words[2].tolist())
        spy = DampingSpy(monkeypatch, stuck=target)
        with pytest.raises(NoConvergence, match=re.escape(f"word {target}:")):
            disk_billiard._solve_orbits(UNEQUAL, words)
        # a step that does not lower the gradient is rejected and mu rises
        # tenfold until it passes 1e6; each forced step then lowers it again
        mus = spy.mus(target)
        assert mus[:16] == pytest.approx([1e-8 * 10.0 ** k for k in range(16)], rel=1e-6)
        assert mus[16:] == pytest.approx([1e6, 1e7] * (disk_billiard.NEWTON_MAX_ITER - 1),
                                         rel=1e-6)

    @pytest.mark.parametrize("words, message", [
        ([(0, 1, 2), (0, 1, 1)], "word (0, 1, 1) repeats a symbol, cyclically"),
        ([(0, 1, 2, 1), (1, 2, 0, 1)], "word (1, 2, 0, 1) repeats a symbol, cyclically"),
        ([(0,), (1,)], "word length >= 2"),
    ], ids=["repeat", "cyclic_repeat", "short"])
    def test_batch_rejects_inadmissible_words(self, words, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            disk_billiard._solve_orbits(TRI, np.array(words))

    def test_newton_tol_meets_residual_contract(self):
        # a solve returns only rows at or below NEWTON_TOL (else NoConvergence),
        # so the 1e-10 residual contract holds while NEWTON_TOL lies below it
        assert disk_billiard.NEWTON_TOL <= 1e-10
        batch = disk_billiard._solve_orbits(UNEQUAL, _necklaces(3, 5))
        assert (batch.residual <= disk_billiard.NEWTON_TOL).all()

    @pytest.mark.parametrize("length", [0.0, -1.0])
    def test_batch_enforces_positive_lengths(self, monkeypatch, length):
        real = disk_billiard._total_length_grad

        def one_flat_flight(config, words, phis):
            ell, grad, hess = real(config, words, phis)
            ell[-1, 0] = length
            return ell, grad, hess

        monkeypatch.setattr(disk_billiard, "_total_length_grad", one_flat_flight)
        with pytest.raises(ValueError, match="flight lengths must be positive"):
            disk_billiard._solve_orbits(UNEQUAL, _necklaces(3, 5))

    def test_empty_period_has_no_points(self):
        # no cyclic word of odd length alternates between two disks
        assert len(_necklaces(2, 5)) == 0
        assert periodic_points(TWO_DISK, [1, 3, 5]).shape == (0, 2)

    def test_not_hyperbolic_names_the_word(self):
        words = np.array([(0, 1), (1, 0)])
        phis = np.array([(0.0, math.pi), (math.pi, 0.0)])
        # negative flights make the second word's monodromy trace -1
        lengths = np.array([(4.0, 4.0), (-0.5, -0.5)])
        with pytest.raises(NotHyperbolic, match=re.escape("word (1, 0)")):
            _log_expansions(TWO_DISK, words, phis, lengths)
        logj = _log_expansions(TWO_DISK, words[:1], phis[:1], lengths[:1])
        assert logj[0] == pytest.approx(LOGJ_TWO_DISK, abs=1e-10)


class TestEscapeRate:
    def test_two_disk_rate_matches_orbit_expansion(self):
        # the trapped set is one orbit; its expansion rate per unit time
        # is the escape rate
        seg = orbit_for_word(TWO_DISK, (0, 1))
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
        r1, _ = escape_rate_mc(TRI, 10**5, rng_seed=5)
        r2, _ = escape_rate_mc(DOUBLED, 10**5, rng_seed=5)
        assert r2 == pytest.approx(r1 / 2.0, rel=1e-9)

    def test_reproducible_given_seed(self):
        a = escape_rate_mc(TRI, 10**5, rng_seed=7)
        b = escape_rate_mc(TRI, 10**5, rng_seed=7)
        assert a == b

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            escape_rate_mc(TWO_DISK, 100)

    @pytest.mark.parametrize("max_bounces", [0, 1])
    def test_too_few_survivors_when_capped(self, monkeypatch, max_bounces):
        monkeypatch.setattr(disk_billiard, "MAX_BOUNCES", max_bounces)
        with pytest.raises(TooFewSurvivors):
            escape_rate_mc(TWO_DISK, 10**5, rng_seed=0)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("config, samples, max_bounces", [
        (TRI, 10**5, 100), (DOUBLED, 10**5, 100),
        # at 1e5 samples too few two-disk paths bounce thrice to fit a rate
        (TWO_DISK, 3 * 10**5, 100),
        # rays still alive after 6 bounces count as survivors in the fit
        (TRI, 10**5, 6),
    ], ids=["tri", "doubled", "two_disk", "tri_censored"])
    def test_compacted_loop_matches_gather_scatter(self, monkeypatch, walked_chunks, config,
                                                    samples, max_bounces, seed):
        # same draws, same per-ray arithmetic, same fit: exactly equal, with
        # chunks small enough that the pool walks at least 25 of them, on
        # the default pool, on one thread and on more threads than CPUs
        monkeypatch.setattr(disk_billiard, "RAY_CHUNK", 2**12)
        monkeypatch.setattr(disk_billiard, "MAX_BOUNCES", max_bounces)
        ref = escape_rate_mc_oracle(config, samples, rng_seed=seed)
        assert escape_rate_mc(config, samples, rng_seed=seed) == ref
        assert len(walked_chunks) >= 25 and sum(walked_chunks) == samples
        switch = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            for workers in (1, 8):
                monkeypatch.setattr(disk_billiard, "pool_size", lambda: workers)
                assert escape_rate_mc(config, samples, rng_seed=seed) == ref
        finally:
            sys.setswitchinterval(switch)

    @pytest.mark.parametrize("samples", [10**5 + 1, 10**5 + 2, 10**5 + 3])
    def test_chunk_draws_at_every_philox_offset(self, monkeypatch, samples):
        # chunk starts step by 3 (mod 4), and the angle and eta runs start
        # at samples and 2 samples: every offset into Philox's four-double
        # block, in each of the three runs
        monkeypatch.setattr(disk_billiard, "RAY_CHUNK", 2**12 + 3)
        ref = escape_rate_mc_oracle(TRI, samples, rng_seed=1)
        assert escape_rate_mc(TRI, samples, rng_seed=1) == ref

    @pytest.mark.parametrize("workers", [1, 8])
    @pytest.mark.parametrize("config, max_bounces, outcome", [
        (TRI, 100, None),
        (TRI, 2, "too few multi-bounce paths"),
        (TRI, 3, "survivor fraction never reaches 1e-3"),
        (WIDE, 4, "fit window empty or censored"),
        (WIDE, 5, None),
    ], ids=["tri", "tri_cap2", "tri_cap3", "wide_cap4", "wide_cap5"])
    def test_walk_edges_match_gather_scatter(self, monkeypatch, walked_chunks, config,
                                             max_bounces, outcome, workers):
        # the last chunk holds one ray, and low caps leave rays alive for
        # the fit to count as survivors or to refuse: the outcome, a value
        # or the refusal, is exactly the oracle's
        samples = 2**12 * 25 + 1
        monkeypatch.setattr(disk_billiard, "RAY_CHUNK", 2**12)
        monkeypatch.setattr(disk_billiard, "MAX_BOUNCES", max_bounces)
        monkeypatch.setattr(disk_billiard, "pool_size", lambda: workers)
        ref = value_or_refusal(escape_rate_mc_oracle, config, samples, 2)
        assert value_or_refusal(escape_rate_mc, config, samples, 2) == ref
        assert sorted(walked_chunks)[:2] == [1, 2**12] and sum(walked_chunks) == samples
        if outcome is None:
            assert isinstance(ref, tuple)
        else:
            assert ref.startswith(outcome)

    @pytest.mark.parametrize("config", [UNEQUAL, SQUARE], ids=["unequal", "square"])
    @pytest.mark.parametrize("max_bounces", [100, 3], ids=["cap100", "cap3"])
    @pytest.mark.parametrize("tail", [5, 2**10 + 7], ids=["tail_5", "tail_block_and_7"])
    def test_block_edges_match_gather_scatter(self, monkeypatch, walked_chunks, config,
                                              max_bounces, tail):
        # a chunk of 2**12 + 3 rays takes its first bounce in four blocks of
        # 2**10 and one of 3, and the last chunk is smaller than one block, or
        # one block and 7 rays: on unequal cdf cuts and on four disks, the value
        # or the refusal is exactly the oracle's, on one thread and on eight
        samples = 25 * (2**12 + 3) + tail
        monkeypatch.setattr(disk_billiard, "RAY_CHUNK", 2**12 + 3)
        monkeypatch.setattr(disk_billiard, "MAX_BOUNCES", max_bounces)
        ref = value_or_refusal(escape_rate_mc_oracle, config, samples, 4)
        for workers in (1, 8):
            walked_chunks.clear()
            monkeypatch.setattr(disk_billiard, "pool_size", lambda: workers)
            assert value_or_refusal(escape_rate_mc, config, samples, 4) == ref
            assert min(walked_chunks) == tail and sum(walked_chunks) == samples

    @pytest.mark.parametrize("config", [TRI, UNEQUAL, SQUARE], ids=["tri", "unequal", "square"])
    def test_start_disks_are_the_choice_draws(self, config):
        # blocks of 1, 7 and 2**10 rays drawn one after another from the same
        # generators, starting at every offset into Philox's four-double block,
        # pick the disks `Generator.choice` picks from the same doubles
        seed = np.random.SeedSequence(6)
        radii = np.array(config.radii)
        for start in range(4):
            ref = disk_billiard._draws(seed, start).choice(config.k, size=1 + 7 + 2**10,
                                                           p=radii / radii.sum())
            draws = [disk_billiard._draws(seed, start + run * 10**4) for run in range(3)]
            got = []
            for size in (1, 7, 2**10):
                got.append(np.empty(size, dtype=np.int8))
                disk_billiard._start_rays(config, draws, np.empty((11, size)), got[-1])
            assert np.array_equal(np.concatenate(got), ref)

    @pytest.mark.parametrize("samples", [
        10**4, 10**4 + 1, 12_345, 10**5 - 1, 10**5, 3 * 10**5 + 1, 10**6, 10**6 + 7])
    @pytest.mark.parametrize("q", [1e-1, 1e-3])
    def test_crossing_index_matches_searchsorted(self, samples, q):
        # every escaped count n within a few of the crossing, and n = samples
        surv = 1.0 - np.arange(1, samples + 1) / samples
        cross = int(np.searchsorted(-surv, -q))
        for n in [*range(cross - 3, cross + 4), samples]:
            assert _crossing(q, samples, n) == np.searchsorted(-surv[:n], -q)

    @pytest.mark.parametrize("chunk", [7, 512, 4096])
    @pytest.mark.parametrize("ties, live", [
        (True, 0), (True, 9), (False, 0), (False, 9), (False, 1500)],
        ids=["ties_all_escaped", "ties_live", "spread_all_escaped", "spread_live",
             "spread_many_live"])
    def test_escape_window_matches_full_sort(self, chunk, ties, live):
        # t_lo, t_hi and the survivor counts on the fit grid, read from the
        # window, equal those read from all escape times sorted: with ties
        # at the cut (40 distinct times), chunks (some empty) far smaller
        # than the window, every ray escaped, and more rays alive than the
        # 1e-3 crossing allows, where only t_lo exists
        samples = 20_011
        escaped = samples - live
        rng = np.random.default_rng(chunk + live + ties)
        times = (rng.integers(0, 40, escaped).astype(float) if ties
                 else rng.exponential(2.0, escaped))
        cuts = np.cumsum(rng.integers(0, chunk + 1, escaped))
        pieces = np.split(times, cuts[cuts < escaped])
        top = samples - _crossing(1e-1, samples, samples)
        window, count = disk_billiard._escape_window(iter(pieces), top, top + chunk)
        order = np.sort(times)
        c_lo = _crossing(1e-1, samples, escaped)
        assert count == escaped and c_lo < escaped
        for q in (1e-1, 1e-3):
            c = _crossing(q, samples, escaped)
            assert c < escaped or live > samples // 2000
            if c < escaped:
                assert window[c - escaped] == order[c]
        grid = np.linspace(order[c_lo], order[-1], 60)
        assert np.array_equal(window.size - np.searchsorted(window, grid, side="right"),
                              escaped - np.searchsorted(order, grid, side="right"))

    def test_escape_window_admits_a_late_time_above_the_floor(self):
        # the third chunk overflows four slots: the top two, {3, 4}, are
        # kept and 3 floors what follows, so the last chunk's 3.5 enters
        # and its 3.0 does not
        chunks = [np.array([1.0, 4.0]), np.array([3.0, 2.0]), np.array([2.5]),
                  np.array([3.5, 3.0])]
        window, count = disk_billiard._escape_window(iter(chunks), 2, 4)
        assert count == 7
        assert window.tolist() == [2.5, 3.0, 3.5, 4.0]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("samples", [2 * 10**5, 10**6, 10**7])
    def test_traced_peak_is_a_chunk_plus_the_escape_times(self, monkeypatch, samples, workers):
        # each worker's walk takes about 38 bytes per ray of its chunk (its
        # first bounce in blocks of a quarter chunk, the survivors in buffers
        # of their size) and holds the chunk's escape times until they are
        # merged, and the escape times kept for the fit take 0.8 bytes per
        # ray plus a chunk; keeping every escape time (8 bytes per ray),
        # sorting a copy of them, gathering arrays per bounce or walking
        # whole chunks in 11 rows (about 110 bytes per ray) exceeds this
        monkeypatch.setattr(disk_billiard, "pool_size", lambda: workers)
        bound = samples + 80 * disk_billiard.RAY_CHUNK * workers
        tracemalloc.start()
        try:
            escape_rate_mc(TRI, samples, rng_seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_draws_continue_the_whole_stream(self):
        seed = np.random.SeedSequence(4)
        whole = np.random.Generator(np.random.Philox(4)).random(3 * 10**4 + 3)
        for start in [*range(9), 4097, 10**4 + 1, 2 * 10**4 + 2, 3 * 10**4 - 5]:
            got = disk_billiard._draws(seed, start).random(8)
            assert np.array_equal(got, whole[start:start + 8])

    @pytest.mark.parametrize("seed", range(5))
    def test_compacted_loop_fails_like_gather_scatter(self, seed):
        with pytest.raises(TooFewSurvivors) as ref:
            escape_rate_mc_oracle(TWO_DISK, 10**5, rng_seed=seed)
        with pytest.raises(TooFewSurvivors, match=re.escape(str(ref.value))):
            escape_rate_mc(TWO_DISK, 10**5, rng_seed=seed)


class TestTrappedSetGeometry:
    def test_periodic_points_pool(self):
        pts = periodic_points(TRI, range(2, 7))
        assert len(pts) > 100
        assert np.all(np.abs(pts[:, 1]) < 1.0)

    def test_periodic_points_match_per_necklace_loop(self):
        pts = periodic_points(TRI, range(2, 9))
        ref = periodic_points_oracle(TRI, range(2, 9))
        assert pts.shape == ref.shape
        assert np.max(np.abs(pts - ref)) <= 1e-13

    def test_box_dimension_close_to_bowen_root(self, tri_tables):
        d_h = bowen_dimension(tri_tables)
        box = trapped_box_dimension(TRI)
        assert abs(box - d_h) < 0.05

    def test_box_counts_match_cell_sets(self):
        pts = periodic_points(TRI, range(2, 13))
        spread = max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1]))
        for j in range(11):
            delta = spread / 2.0 / 2 ** j
            assert _occupied_cells(pts, delta) == occupied_cells_oracle(pts, delta)
        rng = np.random.default_rng(3)
        cloud = rng.normal(0.0, 5.0, (2000, 2))
        for delta in (0.01, 0.3, 1.0, 7.0, 100.0):
            assert _occupied_cells(cloud, delta) == occupied_cells_oracle(cloud, delta)

    def test_box_dimension_needs_points(self):
        with pytest.raises(ValueError, match="too few periodic points"):
            trapped_box_dimension(TWO_DISK)

    def test_resolution_guard_stops_at_unresolved_scales(self, monkeypatch):
        # at the 11 default box sizes the 8436 points of periods 2-12
        # resolve every one; asked for 20, the guard stops at the first
        # size whose occupied boxes exceed a tenth of the points
        monkeypatch.setattr(disk_billiard, "N_SCALES", 20)
        pts = periodic_points(TRI, range(2, 13))
        spread = max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1]))
        sizes = [spread / 2.0 / 2 ** j for j in range(20)]
        cells = [_occupied_cells(pts, delta) for delta in sizes]
        used = next(j for j, c in enumerate(cells) if c > len(pts) / 10)
        assert 11 < used < 20
        design = np.column_stack([np.ones(used), -np.log(sizes[:used])])
        (_, slope), *_ = np.linalg.lstsq(design, np.log(cells[:used]), rcond=None)
        assert trapped_box_dimension(TRI) == slope / 2.0

    def test_box_dimension_needs_resolved_scales(self, monkeypatch):
        # periods 2-4 of the square give 132 points, and its third box size
        # already holds 25 > 13.2 of them: two usable scales
        monkeypatch.setattr(disk_billiard, "MAX_PERIOD", 4)
        with pytest.raises(ValueError, match="not enough usable scales"):
            trapped_box_dimension(SQUARE)


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

    def test_hull_clearance_is_grid_minimum(self):
        # the closed-form minimiser against a dense grid over the hull
        # parameter, on random triples of pairwise disjoint disks
        rng = np.random.default_rng(11)
        t = np.linspace(0.0, 1.0, 10**5 + 1)
        checked = 0
        while checked < 200:
            centers = rng.uniform(-10.0, 10.0, (3, 2))
            radii = rng.uniform(0.1, 3.0, 3)
            gaps = [np.linalg.norm(centers[a] - centers[b]) - radii[a] - radii[b]
                    for a, b in ((0, 1), (0, 2), (1, 2))]
            if min(gaps) <= 0:
                continue
            config = SimpleNamespace(centers=tuple(map(tuple, centers)),
                                     radii=tuple(radii))
            grid = grid_clearance(config, 0, 1, 2, t)
            exact = DiskConfig._hull_clearance(config, 0, 1, 2)
            assert -1e-12 <= grid - exact <= 1e-8
            checked += 1

    def test_clearance_is_least_over_triples(self):
        # 3 sqrt(3) - 2: the apex disk's gap to the top edge of the base pair's hull
        assert TRI.clearance == 3.196152422706632
        assert TWO_DISK.clearance is None
        t = np.linspace(0.0, 1.0, 10**5 + 1)
        for config in (TRI, UNEQUAL, SQUARE, DOUBLED, WIDE):
            brute = min(grid_clearance(config, *triple, t)
                        for triple in itertools.permutations(range(config.k), 3))
            assert -1e-12 <= brute - config.clearance <= 1e-8

    def test_import_leaves_scipy_optimize_out(self):
        src = Path(disk_billiard.__file__).resolve().parents[1]
        code = ("import sys; import openmaps; "
                "sys.exit('scipy.optimize' in sys.modules)")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": str(src)})

    def test_boundary_coord_range(self):
        with pytest.raises(ValueError):
            BoundaryCoord(0, 0.0, 1.0)


class TestNoEclipseInvariant:
    """`DiskConfig` admits only tables that meet the no-eclipse condition,
    and each flight of a closed orbit lies in the hull of the two disks it
    joins, so every flight keeps the table's clearance from every third
    disk: no solved orbit needs filtering."""

    @pytest.mark.parametrize("config", [TRI, UNEQUAL, SQUARE, TWO_DISK],
                             ids=["tri", "unequal", "square", "two_disk"])
    def test_solved_flights_keep_the_clearance(self, config):
        assert_solved_flights_clear(config, range(2, 9))

    @given(no_eclipse_tables())
    @settings(max_examples=25, deadline=None)
    def test_random_tables_keep_the_clearance(self, config):
        assert_solved_flights_clear(config, range(2, 7))


