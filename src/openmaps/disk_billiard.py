"""Planar n-disk billiard: boundary map, trapped orbits, escape rate.

Phase space is the union of co-ball bundles of the disk boundaries:
arclength y along a disk and tangential momentum eta in (-1, 1).  The
outgoing ray leaves at angle asin(eta) from the outward normal; the map
sends a boundary point to the reflected point on the first disk hit.

Trapped periodic orbits are found per symbolic word (disk sequence with
no immediate repeats) by minimizing the total flight length over the
bounce angles -- the no-eclipse condition makes that critical point
unique -- and their linear stability comes from the standard curvature
transfer matrices (free flight [[1,tau],[0,1]], dispersing reflection
[[1,0],[2*kappa/cos(phi),1]]).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import (
    GrazingHit,
    NoConvergence,
    NotHyperbolic,
    ShadowedPath,
    TooFewSurvivors,
)
from .symbolic_pressure import CylinderTable, no_repeat_shift

log = logging.getLogger(__name__)

GRAZING_BAND = 1e-12
RAY_EPS = 1e-9          # minimum admissible flight length in the step solver
NEWTON_TOL = 1e-12      # sup-norm gradient target, below the 1e-10 contract
NEWTON_MAX_ITER = 120


@dataclass(frozen=True)
class DiskConfig:
    centers: tuple
    radii: tuple

    def __post_init__(self):
        centers = tuple((float(x), float(y)) for x, y in self.centers)
        radii = tuple(float(r) for r in self.radii)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)
        if len(centers) != len(radii) or len(centers) < 2:
            raise ValueError("need >= 2 disks with matching radii")
        if any(r <= 0 for r in radii):
            raise ValueError("radii must be positive")
        k = len(centers)
        for i in range(k):
            for j in range(i + 1, k):
                gap = self._dist(i, j) - radii[i] - radii[j]
                if gap <= 0:
                    raise ValueError(f"disks {i},{j} overlap or touch (gap {gap:.3g})")
        for i in range(k):
            for j in range(k):
                for l in range(j + 1, k):
                    if i in (j, l):
                        continue
                    if self._hull_clearance(i, j, l) <= 0:
                        raise ValueError(
                            f"no-eclipse violated: disk {i} meets hull of {j},{l}"
                        )

    def _dist(self, i, j):
        (xi, yi), (xj, yj) = self.centers[i], self.centers[j]
        return math.hypot(xi - xj, yi - yj)

    def _hull_clearance(self, i, j, l):
        # conv(D_j u D_l) = union over t of disks at (1-t)c_j + t c_l with
        # radius (1-t)R_j + t R_l; clearance is min over t of the distance
        # from c_i to that disk, minus R_i (convex in t)
        ci = np.array(self.centers[i])
        cj = np.array(self.centers[j])
        cl = np.array(self.centers[l])
        rj, rl = self.radii[j], self.radii[l]

        def f(t):
            c = (1 - t) * cj + t * cl
            r = (1 - t) * rj + t * rl
            return float(np.linalg.norm(ci - c)) - r

        res = minimize_scalar(f, bounds=(0.0, 1.0), method="bounded",
                              options={"xatol": 1e-12})
        return f(res.x) - self.radii[i]

    @property
    def k(self):
        return len(self.centers)


@dataclass(frozen=True)
class BoundaryCoord:
    disk: int
    y: float
    eta: float

    def __post_init__(self):
        if not -1.0 < self.eta < 1.0:
            raise ValueError(f"|eta| must be < 1, got {self.eta}")


@dataclass(frozen=True)
class OrbitSegment:
    word: tuple
    angles: tuple        # boundary angle (radians) per bounce
    lengths: tuple       # flight lengths; cyclic (len n) when closed
    logJ: float          # nan for open segments
    t_total: float
    residual: float
    converged: bool
    closed: bool

    def __post_init__(self):
        if any(l <= 0 for l in self.lengths):
            raise ValueError("flight lengths must be positive")
        if any(a == b for a, b in zip(self.word, self.word[1:])):
            raise ValueError("immediate repeats are inadmissible")
        if self.converged and self.residual > 1e-10:
            raise ValueError("converged segments must have residual <= 1e-10")


def _point(config, disk, phi):
    cx, cy = config.centers[disk]
    r = config.radii[disk]
    return np.array([cx + r * math.cos(phi), cy + r * math.sin(phi)])


def _coord_to_ray(config, c):
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
    p, d = _coord_to_ray(config, c)
    t_best, k_best = math.inf, -1
    for k in range(config.k):
        rel = p - np.array(config.centers[k])
        b = float(d @ rel)
        c0 = float(rel @ rel) - config.radii[k] ** 2
        disc = b * b - c0
        if disc <= 0:
            continue
        t = -b - math.sqrt(disc)
        if RAY_EPS < t < t_best:
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


def _check_word(word, closed):
    if len(word) < 2:
        raise ValueError("word length >= 2")
    if any(a == b for a, b in zip(word, word[1:])):
        raise ValueError(f"immediate repeat in word {word}")
    if closed and word[0] == word[-1]:
        raise ValueError(f"closed word {word} repeats cyclically")


def _flight_pairs(n, closed):
    pairs = [(k, k + 1) for k in range(n - 1)]
    if closed:
        pairs.append((n - 1, 0))
    return pairs


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _total_length_grad(config, word, phis, closed):
    """(lengths, gradient, Hessian) of the polygonal flight length in the angles.

    Flight j runs from bounce k0 = j to k1 = j + 1 (mod n when closed).
    With t_k = dp_k/dphi_k the tangent and rho_k = p_k - c_k the radius
    vector (dt_k/dphi_k = -rho_k), each flight of length l and direction
    u adds -u.t0 and +u.t1 to the gradient and
        d2l/dphi0^2     = (|t0|^2 - (u.t0)^2)/l + u.rho0
        d2l/dphi1^2     = (|t1|^2 - (u.t1)^2)/l - u.rho1
        d2l/dphi0 dphi1 = -(t0.t1 - (u.t0)(u.t1))/l
    to the Hessian, which is therefore cyclic tridiagonal (tridiagonal
    for open words).
    """
    n = len(word)
    idx = list(word)
    cos, sin = np.cos(phis), np.sin(phis)
    radii = np.array(config.radii)[idx]
    rho = radii[:, None] * np.column_stack([cos, sin])
    tan = radii[:, None] * np.column_stack([-sin, cos])
    pts = np.array(config.centers)[idx] + rho
    k0 = np.arange(n if closed else n - 1)
    k1 = (k0 + 1) % n
    seg = pts[k1] - pts[k0]
    ell = np.hypot(seg[:, 0], seg[:, 1])
    u = seg / ell[:, None]
    t0, t1 = tan[k0], tan[k1]
    ut0, ut1 = _rowdot(u, t0), _rowdot(u, t1)
    grad = np.zeros(n)
    np.add.at(grad, k0, -ut0)
    np.add.at(grad, k1, ut1)
    hess = np.zeros((n, n))
    np.add.at(hess, (k0, k0), (_rowdot(t0, t0) - ut0 ** 2) / ell + _rowdot(u, rho[k0]))
    np.add.at(hess, (k1, k1), (_rowdot(t1, t1) - ut1 ** 2) / ell - _rowdot(u, rho[k1]))
    off = -(_rowdot(t0, t1) - ut0 * ut1) / ell
    np.add.at(hess, (k0, k1), off)
    np.add.at(hess, (k1, k0), off)
    return ell, grad, hess


def _initial_angles(config, word, closed):
    n = len(word)
    phis = np.zeros(n)
    for k in range(n):
        c = np.array(config.centers[word[k]])
        u = np.zeros(2)
        neighbors = []
        if k > 0 or closed:
            neighbors.append(word[(k - 1) % n])
        if k < n - 1 or closed:
            neighbors.append(word[(k + 1) % n])
        for other in neighbors:
            v = np.array(config.centers[other]) - c
            u = u + v / np.linalg.norm(v)
        if np.linalg.norm(u) < 1e-9:
            v = np.array(config.centers[neighbors[0]]) - c
            u = np.array([-v[1], v[0]])
        phis[k] = math.atan2(u[1], u[0])
    return phis


def _shadow_check(config, word, pts, closed):
    n = len(word)
    for k0, k1 in _flight_pairs(n, closed):
        a, b = pts[k0], pts[k1]
        seg = b - a
        seg_len2 = float(seg @ seg)
        for other in range(config.k):
            if other in (word[k0], word[k1]):
                continue
            rel = np.array(config.centers[other]) - a
            t = min(max(float(rel @ seg) / seg_len2, 0.0), 1.0)
            closest = a + t * seg
            if np.linalg.norm(np.array(config.centers[other]) - closest) < config.radii[other]:
                raise ShadowedPath(
                    f"flight {word[k0]}->{word[k1]} of word {word} crosses disk {other}"
                )


def orbit_for_word(config, word, closed=True):
    """Length-minimizing bounce sequence realizing a symbolic word.

    Damped Newton on the total-length gradient, initialized at the
    inter-center chord angles, with the analytic cyclic tridiagonal
    Hessian of `_total_length_grad`.
    """
    word = tuple(word)
    _check_word(word, closed)
    n = len(word)
    phis = _initial_angles(config, word, closed)
    _, grad, hess = _total_length_grad(config, word, phis, closed)
    mu = 1e-8
    for _ in range(NEWTON_MAX_ITER):
        if np.max(np.abs(grad)) <= NEWTON_TOL:
            break
        while True:
            try:
                delta = np.linalg.solve(hess + mu * np.eye(n), -grad)
            except np.linalg.LinAlgError:
                mu = max(mu * 10, 1e-8)
                continue
            trial = phis + delta
            _, gt, ht = _total_length_grad(config, word, trial, closed)
            if np.max(np.abs(gt)) < np.max(np.abs(grad)) or mu > 1e6:
                phis, grad, hess = trial, gt, ht
                mu = max(mu / 10, 1e-12)
                break
            mu *= 10
    residual = float(np.max(np.abs(grad)))
    if residual > NEWTON_TOL:
        raise NoConvergence(f"word {word}: gradient sup-norm {residual:.3g}")
    phis = np.mod(phis, 2 * math.pi)
    pts = [_point(config, word[k], phis[k]) for k in range(n)]
    _shadow_check(config, word, pts, closed)
    lengths, _, _ = _total_length_grad(config, word, phis, closed)
    segment = OrbitSegment(
        word=word,
        angles=tuple(float(p) for p in phis),
        lengths=tuple(float(l) for l in lengths),
        logJ=math.nan,
        t_total=float(lengths.sum()),
        residual=residual,
        converged=True,
        closed=closed,
    )
    if closed:
        segment = replace(segment, logJ=stability(config, segment))
    return segment


def _incidence_cosines(config, segment):
    """cos(incidence angle) per bounce, from the outgoing flight directions."""
    n = len(segment.word)
    pts = [_point(config, segment.word[k], segment.angles[k]) for k in range(n)]
    cosines = []
    for k in range(n):
        nu = (pts[k] - np.array(config.centers[segment.word[k]])) / config.radii[
            segment.word[k]
        ]
        out = pts[(k + 1) % n] - pts[k]
        out = out / np.linalg.norm(out)
        cosines.append(abs(float(out @ nu)))
    return cosines


def stability(config, segment):
    """log of the largest monodromy eigenvalue modulus of a closed orbit."""
    if not segment.converged:
        raise ValueError("segment must be converged")
    if not segment.closed or len(segment.lengths) != len(segment.word):
        raise ValueError("stability needs a closed segment with cyclic lengths")
    n = len(segment.word)
    cosines = _incidence_cosines(config, segment)
    mono = np.eye(2)
    for k in range(n):
        flight = np.array([[1.0, segment.lengths[k]], [0.0, 1.0]])
        k_next = (k + 1) % n
        kappa = 1.0 / config.radii[segment.word[k_next]]
        refl = np.array([[1.0, 0.0], [2.0 * kappa / cosines[k_next], 1.0]])
        mono = refl @ flight @ mono
    trace = float(np.trace(mono))
    if abs(trace) <= 2.0:
        raise NotHyperbolic(f"monodromy trace {trace:.6g} for word {segment.word}")
    eigs = np.linalg.eigvals(mono)
    return float(math.log(max(abs(e) for e in eigs)))


def _cyclic_words(k, n):
    """Directed words of length n admissible as cycles (no repeats, incl. wrap)."""
    shift = no_repeat_shift(k)
    return [w for w in shift.words(n) if w[-1] != w[0]]


def _least_rotation(word):
    """(lexicographically least rotation, shift i with word[i:] + word[:i] == it)."""
    return min((word[i:] + word[:i], i) for i in range(len(word)))


def _cycle_orbits(config, n):
    """Closed orbits of all `_cyclic_words` of length n, in that order.

    Every rotation of a word traces the same orbit, so one Newton solve
    per necklace (`_necklaces` representative: a prime cycle or a repeat
    of one) serves its whole class; the other rotations get its angles
    and flight lengths rotated.  Shadowed words are dropped and counted.
    """
    if n < 2:
        raise ValueError("depth n >= 2")
    solved = {}
    orbits = {}
    dropped = 0
    for w in _cyclic_words(config.k, n):
        canon, i = _least_rotation(w)
        if canon not in solved:
            try:
                solved[canon] = orbit_for_word(config, canon, closed=True)
            except ShadowedPath:
                solved[canon] = None
        seg = solved[canon]
        if seg is None:
            dropped += 1
            continue
        back = n - i
        orbits[w] = replace(seg, word=w,
                            angles=seg.angles[back:] + seg.angles[:back],
                            lengths=seg.lengths[back:] + seg.lengths[:back])
    if dropped:
        log.warning("depth %d cycles: dropped %d shadowed words", n, dropped)
    return orbits


def cylinder_table(config, n):
    """Closed-orbit weight table at depth n; shadowed words are dropped."""
    entries = {w: (seg.logJ, seg.t_total)
               for w, seg in _cycle_orbits(config, n).items()}
    return CylinderTable(no_repeat_shift(config.k), n, entries)


def escape_rate_mc(config, samples, max_bounces=100, rng_seed=0):
    """Monte-Carlo escape rate per unit flight time, with regression stderr.

    Uniform start points on the union of boundary co-ball bundles; a ray
    escapes when it misses every disk, and its escape time includes the
    final flight out to a circle circumscribing the obstacle cluster, so
    the survivor curve measures time spent inside the interaction region.
    Log-survivor fraction is fitted over the window where the fraction
    lies in [1e-3, 1e-1].  Escape proceeds in near-synchronized bounce
    generations, so the log-survivor curve rides a wave with the period
    of the typical trapped flight; the regression carries cos/sin columns
    at that period (measured from the sampled flights) so the wave lands
    in those columns instead of biasing the slope.
    """
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
    for bounce in range(max_bounces):
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
            hit = ok & (t > RAY_EPS) & (t < t_best)
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
        raise TooFewSurvivors("most samples never escaped; raise max_bounces")
    if not late_flights or sum(f.size for f in late_flights) < 100:
        raise TooFewSurvivors("too few multi-bounce paths to set the flight period")
    period = float(np.mean(np.concatenate(late_flights)))

    # window endpoints: times where the survivor fraction crosses 1e-1, 1e-3
    order = np.sort(times)
    surv = 1.0 - np.arange(1, order.size + 1) / samples
    if surv[-1] + alive.mean() > 1e-3:
        raise TooFewSurvivors("survivor fraction never reaches 1e-3; raise max_bounces")
    t_lo = float(order[np.searchsorted(-surv, -1e-1)])
    t_hi = float(order[np.searchsorted(-surv, -1e-3)])
    if not (t_lo < t_hi < censored_min):
        raise TooFewSurvivors("fit window empty or censored; raise max_bounces")
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


def _necklaces(k, n):
    """One representative (lexicographically least rotation) per cyclic class."""
    return list(dict.fromkeys(_least_rotation(w)[0] for w in _cyclic_words(k, n)))


def periodic_points(config, periods):
    """Boundary-coordinate samples (y mod arc, eta) of all periodic orbits.

    Points are pooled across disks in local coordinates; for symmetric
    configurations the per-disk traces coincide.
    """
    pts = []
    for n in periods:
        for w in _necklaces(config.k, n):
            try:
                seg = orbit_for_word(config, w, closed=True)
            except ShadowedPath:
                continue
            for k in range(n):
                r = config.radii[seg.word[k]]
                pts_k = _point(config, seg.word[k], seg.angles[k])
                nxt = _point(config, seg.word[(k + 1) % n], seg.angles[(k + 1) % n])
                out = (nxt - pts_k) / np.linalg.norm(nxt - pts_k)
                nu = (pts_k - np.array(config.centers[seg.word[k]])) / r
                tau = np.array([-nu[1], nu[0]])
                eta = float(out @ tau)
                y = (seg.angles[k] % (2 * math.pi)) * r
                pts.append((y, eta))
    return np.array(pts)


def trapped_box_dimension(config, max_period=12, n_scales=11):
    """Box-counting estimate of the one-sided trapped-set dimension.

    Counts 2D boxes over pooled periodic points of periods up to
    max_period and halves the slope (the trapped set is a product of two
    transverse Cantor sets of equal dimension).  Local slopes oscillate
    with the lacunarity of the Cantor structure (one period is roughly
    log2 of the per-bounce expansion), so the fit needs enough octaves
    to average over a few periods; the resolution guard trims scales the
    finite point cloud cannot support.
    """
    pts = periodic_points(config, range(2, max_period + 1))
    if len(pts) < 100:
        raise ValueError("too few periodic points; raise max_period")
    spread = max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1]))
    counts = []
    sizes = []
    for j in range(n_scales):
        delta = spread / 2.0 / 2 ** j
        cells = {(int(p[0] // delta), int(p[1] // delta)) for p in pts}
        # keep only scales that the finite point cloud still resolves
        if len(cells) > len(pts) / 10:
            break
        counts.append(len(cells))
        sizes.append(delta)
    if len(counts) < 3:
        raise ValueError("not enough usable scales for a slope")
    x = -np.log(np.array(sizes))
    y = np.log(np.array(counts))
    design = np.column_stack([np.ones(x.size), x])
    (_, slope), *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(slope / 2.0)


def orbit_to_csv_row(segment):
    """Serialize one orbit as `word,angle_k...,length_k...,logJ,t`."""
    cells = ["".join(map(str, segment.word))]
    cells += [repr(a) for a in segment.angles]
    cells += [repr(l) for l in segment.lengths]
    cells += [repr(segment.logJ), repr(segment.t_total)]
    return ",".join(cells)
