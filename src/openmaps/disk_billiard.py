"""Planar n-disk billiard: boundary map, trapped orbits, escape rate.

Phase space is the union of co-ball bundles of the disk boundaries:
arclength y along a disk and tangential momentum eta in (-1, 1).  The
outgoing ray leaves at angle asin(eta) from the outward normal; the map
sends a boundary point to the reflected point on the first disk hit.

Trapped periodic orbits are found for symbolic words (disk sequences
with no immediate repeats), all words of one length in one batch, by
minimizing the total flight length over the bounce angles -- the
no-eclipse condition makes that critical point unique -- and their
linear stability comes from the standard curvature transfer matrices
(free flight [[1,tau],[0,1]], dispersing reflection
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
    """Bounce indices (k0, k1) of each flight; the last one wraps when closed."""
    k0 = np.arange(n if closed else n - 1)
    return k0, (k0 + 1) % n


def _dot(a, b):
    return np.einsum("...j,...j->...", a, b)


def _bounces(config, words, phis):
    """Radius vectors rho, tangents t = dp/dphi and points p, each (B, n, 2),
    of the bounces at angles `phis` (B, n) on the disks `words` (B, n)."""
    radii = np.array(config.radii)[words][..., None]
    cos, sin = np.cos(phis), np.sin(phis)
    rho = radii * np.stack([cos, sin], axis=-1)
    tan = radii * np.stack([-sin, cos], axis=-1)
    return rho, tan, np.array(config.centers)[words] + rho


def _total_length_grad(config, words, phis, closed):
    """(lengths, gradient, Hessian) of the polygonal flight length in the angles.

    Batched over equal-length words: (B, flights), (B, n) and (B, n, n).
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
    batch, n = words.shape
    rho, tan, pts = _bounces(config, words, phis)
    k0, k1 = _flight_pairs(n, closed)
    seg = pts[:, k1] - pts[:, k0]
    ell = np.hypot(seg[..., 0], seg[..., 1])
    u = seg / ell[..., None]
    t0, t1 = tan[:, k0], tan[:, k1]
    ut0, ut1 = _dot(u, t0), _dot(u, t1)
    # k0 and k1 each hold distinct indices, so buffered += accumulates
    grad = np.zeros((batch, n))
    grad[:, k0] -= ut0
    grad[:, k1] += ut1
    hess = np.zeros((batch, n, n))
    hess[:, k0, k0] += (_dot(t0, t0) - ut0 ** 2) / ell + _dot(u, rho[:, k0])
    hess[:, k1, k1] += (_dot(t1, t1) - ut1 ** 2) / ell - _dot(u, rho[:, k1])
    off = -(_dot(t0, t1) - ut0 * ut1) / ell
    hess[:, k0, k1] += off
    hess[:, k1, k0] += off
    return ell, grad, hess


def _initial_angles(config, words, closed):
    """Newton start angles (B, n): each bounce faces its neighbours' centers
    (along the sum of unit chords, or across it if they cancel).  That
    depends only on the (previous, own, next) disks, so it is computed once
    per distinct triple; open words lack a neighbour (-1) past each end."""
    prev, nxt = np.roll(words, 1, axis=1), np.roll(words, -1, axis=1)
    if not closed:
        prev[:, 0] = nxt[:, -1] = -1
    triples, where = np.unique(np.stack([prev, words, nxt], axis=-1).reshape(-1, 3),
                               axis=0, return_inverse=True)
    centers = np.array(config.centers)
    angles = []
    for before, disk, after in triples:
        neighbors = [j for j in (before, after) if j >= 0]
        u = np.zeros(2)
        for other in neighbors:
            v = centers[other] - centers[disk]
            u = u + v / np.linalg.norm(v)
        if np.linalg.norm(u) < 1e-9:
            v = centers[neighbors[0]] - centers[disk]
            u = np.array([-v[1], v[0]])
        angles.append(math.atan2(u[1], u[0]))
    return np.array(angles)[where.reshape(words.shape)]


def _shadowed(config, words, pts, closed):
    """Per word, a message naming its first flight through a third disk, or None."""
    k0, k1 = _flight_pairs(words.shape[1], closed)
    start = pts[:, k0, None]
    seg = pts[:, k1, None] - start
    rel = np.array(config.centers) - start              # (B, flights, disks, 2)
    t = np.clip(_dot(rel, seg) / _dot(seg, seg), 0.0, 1.0)
    gap = rel - t[..., None] * seg
    disks = np.arange(config.k)
    crosses = ((np.hypot(gap[..., 0], gap[..., 1]) < np.array(config.radii))
               & (disks != words[:, k0, None]) & (disks != words[:, k1, None]))
    messages = [None] * len(words)
    for i in np.flatnonzero(crosses.any(axis=(1, 2))):
        j, other = np.unravel_index(np.argmax(crosses[i]), crosses[i].shape)
        word = tuple(words[i].tolist())
        messages[i] = (f"flight {word[k0[j]]}->{word[k1[j]]} of word {word} "
                       f"crosses disk {other}")
    return messages


def _solve(a, b):
    """x with a[i] x[i] = b[i] for a stack; NaN rows where a[i] is singular.

    One stacked solve; only when it meets a singular matrix are the rows
    solved one by one to find which.
    """
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full_like(b, np.nan)
        return np.concatenate([_solve(a[i:i + 1], b[i:i + 1]) for i in range(len(a))])


def _solve_orbits(config, words, closed=True):
    """Length-minimizing bounce sequences of a batch of equal-length words.

    Damped Newton on the total-length gradient, initialized at the
    inter-center chord angles, with the analytic cyclic tridiagonal
    Hessian of `_total_length_grad`.  All words share one loop with one
    stacked solve per sweep, each word with its own damping mu: a step
    that lowers its gradient sup-norm (or any step once mu > 1e6) is
    taken and mu falls tenfold; otherwise, or if its damped Hessian is
    singular, mu rises tenfold.  Returns an `OrbitSegment` per word, in
    order, or the (unraised) `ShadowedPath` of a word whose orbit
    crosses a third disk; raises `NoConvergence` naming the word.
    """
    words = [tuple(w) for w in words]
    if not words:
        return []
    for w in words:
        _check_word(w, closed)
    idx = np.array(words)
    phis = _initial_angles(config, idx, closed)
    _, grad, hess = _total_length_grad(config, idx, phis, closed)
    res = np.max(np.abs(grad), axis=1)
    mu = np.full(len(words), 1e-8)
    steps = np.zeros(len(words), dtype=int)
    while (act := np.flatnonzero((res > NEWTON_TOL) & (steps < NEWTON_MAX_ITER))).size:
        delta = _solve(hess[act] + mu[act, None, None] * np.eye(idx.shape[1]), -grad[act])
        ok = ~np.isnan(delta[:, 0])
        mu[act[~ok]] = np.maximum(mu[act[~ok]] * 10, 1e-8)
        act, trial = act[ok], phis[act[ok]] + delta[ok]
        _, gt, ht = _total_length_grad(config, idx[act], trial, closed)
        rt = np.max(np.abs(gt), axis=1)
        take = (rt < res[act]) | (mu[act] > 1e6)
        acc = act[take]
        phis[acc], grad[acc], hess[acc], res[acc] = trial[take], gt[take], ht[take], rt[take]
        mu[acc] = np.maximum(mu[acc] / 10, 1e-12)
        steps[acc] += 1
        mu[act[~take]] *= 10
    for w, r in zip(words, res):
        if r > NEWTON_TOL:
            raise NoConvergence(f"word {w}: gradient sup-norm {r:.3g}")
    phis = np.mod(phis, 2 * math.pi)
    lengths, _, _ = _total_length_grad(config, idx, phis, closed)
    shadow = _shadowed(config, idx, _bounces(config, idx, phis)[2], closed)
    clear = [i for i, s in enumerate(shadow) if s is None]
    logj = iter(_log_expansions(config, idx[clear], phis[clear], lengths[clear])
                if closed and clear else [])
    return [ShadowedPath(s) if s else OrbitSegment(
                w, tuple(phis[i].tolist()), tuple(lengths[i].tolist()),
                logJ=next(logj) if closed else math.nan, t_total=float(lengths[i].sum()),
                residual=float(res[i]), converged=True, closed=closed)
            for i, (w, s) in enumerate(zip(words, shadow))]


def orbit_for_word(config, word, closed=True):
    """Length-minimizing bounce sequence realizing a symbolic word.

    The one-word case of `_solve_orbits`; a shadowed orbit raises `ShadowedPath`.
    """
    (segment,) = _solve_orbits(config, [word], closed)
    if isinstance(segment, ShadowedPath):
        raise segment
    return segment


def _outgoing(config, words, phis):
    """Normal and tangential components (B, n) of each closed orbit's unit
    outgoing flight per bounce: the incidence cosine and eta."""
    rho, tan, pts = _bounces(config, words, phis)
    out = np.roll(pts, -1, axis=1) - pts
    scale = np.linalg.norm(out, axis=-1) * np.array(config.radii)[words]
    return _dot(out, rho) / scale, _dot(out, tan) / scale


def _log_expansions(config, words, phis, lengths):
    """log of the largest monodromy eigenvalue modulus per closed orbit.

    Batched over words; raises `NotHyperbolic` naming the first word whose
    monodromy has |trace| <= 2.
    """
    batch, n = words.shape
    radii = np.array(config.radii)[words]
    cosines = np.abs(_outgoing(config, words, phis)[0])
    flight = np.tile(np.eye(2), (batch, n, 1, 1))
    flight[..., 0, 1] = lengths
    refl = np.tile(np.eye(2), (batch, n, 1, 1))
    refl[..., 1, 0] = 2.0 * (1.0 / radii) / cosines
    mono = np.tile(np.eye(2), (batch, 1, 1))
    for k in range(n):
        mono = refl[:, (k + 1) % n] @ flight[:, k] @ mono
    trace = mono[:, 0, 0] + mono[:, 1, 1]
    for word, tr in zip(words.tolist(), trace):
        if abs(tr) <= 2.0:
            raise NotHyperbolic(f"monodromy trace {tr:.6g} for word {tuple(word)}")
    return [math.log(m) for m in np.abs(np.linalg.eigvals(mono)).max(axis=1)]


def stability(config, segment):
    """log of the largest monodromy eigenvalue modulus of a closed orbit."""
    if not segment.converged:
        raise ValueError("segment must be converged")
    if not segment.closed or len(segment.lengths) != len(segment.word):
        raise ValueError("stability needs a closed segment with cyclic lengths")
    return _log_expansions(config, np.array([segment.word]), np.array([segment.angles]),
                           np.array([segment.lengths]))[0]


def _cyclic_words(k, n):
    """Directed words of length n admissible as cycles (no repeats, incl. wrap)."""
    shift = no_repeat_shift(k)
    return [w for w in shift.words(n) if w[-1] != w[0]]


def _least_rotation(word):
    """(lexicographically least rotation, shift i with word[i:] + word[:i] == it)."""
    return min((word[i:] + word[:i], i) for i in range(len(word)))


def _necklaces(k, n):
    """One representative (lexicographically least rotation) per cyclic class."""
    return list(dict.fromkeys(_least_rotation(w)[0] for w in _cyclic_words(k, n)))


def _cycle_orbits(config, n):
    """Closed orbits of all `_cyclic_words` of length n, in that order.

    Every rotation of a word traces the same orbit, so the necklaces
    (`_necklaces` representatives: prime cycles or repeats of one) are
    solved as one batch, and each serves its whole class: the other
    rotations get its angles and flight lengths rotated.  Shadowed words
    are dropped and counted.
    """
    if n < 2:
        raise ValueError("depth n >= 2")
    necklaces = _necklaces(config.k, n)
    solved = dict(zip(necklaces, _solve_orbits(config, necklaces, closed=True)))
    orbits = {}
    dropped = 0
    for w in _cyclic_words(config.k, n):
        canon, i = _least_rotation(w)
        seg = solved[canon]
        if isinstance(seg, ShadowedPath):
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
    tau = np.column_stack([-nu[:, 1], nu[:, 0]])
    pos = centers[disk] + radii[disk, None] * nu
    dirs = eta[:, None] * tau + np.sqrt(1 - eta ** 2)[:, None] * nu

    # live rays only, compacted after every bounce (order kept)
    time_live = np.zeros(samples)
    escaped = []
    late_flights = []
    for bounce in range(max_bounces):
        if time_live.size == 0:
            break
        t_best = np.full(time_live.size, np.inf)
        k_best = np.full(time_live.size, -1)
        for k in range(config.k):
            rel = pos - centers[k]
            b = np.einsum("ij,ij->i", dirs, rel)
            c0 = np.einsum("ij,ij->i", rel, rel) - radii[k] ** 2
            disc = b * b - c0
            ok = disc > 0
            t = np.where(ok, -b - np.sqrt(np.where(ok, disc, 0.0)), np.inf)
            hit = ok & (t > RAY_EPS) & (t < t_best)
            t_best[hit] = t[hit]
            k_best[hit] = k
        gone = k_best < 0
        rel = pos[gone] - centroid
        b_out = np.einsum("ij,ij->i", dirs[gone], rel)
        c_out = np.einsum("ij,ij->i", rel, rel) - r_out ** 2
        escaped.append(time_live[gone] + (-b_out + np.sqrt(b_out * b_out - c_out)))
        stay = ~gone
        t_best, k_best = t_best[stay], k_best[stay]
        # flights past the first bounces sample the trapped dynamics
        if bounce >= 2:
            late_flights.append(t_best)
        d = dirs[stay]
        pos = pos[stay] + t_best[:, None] * d
        time_live = time_live[stay] + t_best
        nuq = (pos - centers[k_best]) / radii[k_best, None]
        dirs = d - 2 * np.einsum("ij,ij->i", d, nuq)[:, None] * nuq

    censored_min = time_live.min() if time_live.size else np.inf
    order = np.sort(np.concatenate(escaped or [np.empty(0)]))
    if order.size < samples // 2:
        raise TooFewSurvivors("most samples never escaped; raise max_bounces")
    if not late_flights or sum(f.size for f in late_flights) < 100:
        raise TooFewSurvivors("too few multi-bounce paths to set the flight period")
    period = float(np.mean(np.concatenate(late_flights)))

    # window endpoints: times where the survivor fraction crosses 1e-1, 1e-3
    surv = 1.0 - np.arange(1, order.size + 1) / samples
    if surv[-1] + time_live.size / samples > 1e-3:
        raise TooFewSurvivors("survivor fraction never reaches 1e-3; raise max_bounces")
    t_lo = float(order[np.searchsorted(-surv, -1e-1)])
    t_hi = float(order[np.searchsorted(-surv, -1e-3)])
    if not (t_lo < t_hi < censored_min):
        raise TooFewSurvivors("fit window empty or censored; raise max_bounces")
    grid = np.linspace(t_lo, t_hi, 60)
    # survivors at T: escaped later than T, or never escaped
    frac = (order.size - np.searchsorted(order, grid, side="right")
            + time_live.size) / samples
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


def periodic_points(config, periods):
    """Boundary-coordinate samples (y mod arc, eta) of all periodic orbits.

    Points are pooled across disks in local coordinates; for symmetric
    configurations the per-disk traces coincide.  Each period's
    necklaces are solved as one batch; shadowed ones are skipped.
    """
    pts = []
    for n in periods:
        segs = [s for s in _solve_orbits(config, _necklaces(config.k, n))
                if isinstance(s, OrbitSegment)]
        if not segs:
            continue
        words = np.array([s.word for s in segs])
        phis = np.array([s.angles for s in segs])
        y = np.mod(phis, 2 * math.pi) * np.array(config.radii)[words]
        eta = _outgoing(config, words, phis)[1]
        pts.append(np.column_stack([y.ravel(), eta.ravel()]))
    return np.concatenate(pts) if pts else np.empty((0, 2))


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

