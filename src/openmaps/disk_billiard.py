"""Planar n-disk billiard: trapped periodic orbits, escape rate.

Phase space is the union of co-ball bundles of the disk boundaries:
arclength y along a disk and tangential momentum eta in (-1, 1).  The
outgoing ray leaves at angle asin(eta) from the outward normal; the
bounce map sends a boundary point to the reflected point on the first
disk hit, and `escape_rate_mc` iterates it on arrays of rays, each
chunk of rays drawn by its own worker at its offset in the seed's
Philox streams.

Trapped periodic orbits are found for cyclic symbolic words (disk
sequences with no repeats, the wrap from last to first included), held
as one integer array per length, all words of one length in one batch,
by minimizing the total flight length over the bounce angles -- the
no-eclipse condition, which `DiskConfig` enforces, makes that critical
point unique and keeps every flight off the other disks -- and their
linear stability comes from the standard curvature transfer matrices
(free flight [[1,tau],[0,1]], dispersing reflection
[[1,0],[2*kappa/cos(phi),1]]).  Solved batches (`OrbitBatch`), cylinder
tables and orbit rows are all arrays.
"""

from __future__ import annotations

import bisect
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NoConvergence, NotHyperbolic, TooFewSurvivors
from .symbolic_pressure import CylinderTable
from .threads import pool_size

RAY_EPS = 1e-9          # minimum admissible flight length in the ray walk
NEWTON_TOL = 1e-12      # sup-norm gradient target, below the 1e-10 contract
NEWTON_MAX_ITER = 120
# Monte-Carlo rays per chunk, ~38 bytes each in a walk: at 10**6 rays on 2 threads 2**17
# took 5.7 MiB more traced peak and 12 % less time; 2**15 saved 2.2 MiB but took 29 % more.
RAY_CHUNK = 2 ** 16
MAX_BOUNCES = 100       # a Monte-Carlo ray still inside after this many bounces is censored
MAX_PERIOD = 12         # longest periodic orbits pooled for the box dimension
N_SCALES = 11           # box sizes spread/2 ... spread/2**N_SCALES, halving


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
        for i, j, l in self._triples():
            if self._hull_clearance(i, j, l) <= 0:
                raise ValueError(f"no-eclipse violated: disk {i} meets hull of {j},{l}")

    def _triples(self):
        """(i, j, l) for each disk i and each pair j < l of the others."""
        k = self.k
        return [(i, j, l) for i in range(k) for j in range(k) for l in range(j + 1, k)
                if i not in (j, l)]

    def _dist(self, i, j):
        (xi, yi), (xj, yj) = self.centers[i], self.centers[j]
        return math.hypot(xi - xj, yi - yj)

    def _hull_clearance(self, i, j, l):
        # conv(D_j u D_l) = union over t in [0, 1] of disks at c_j + t d with
        # radius R_j + t dr (d = c_l - c_j, dr = R_l - R_j); the clearance is
        # min over t of f(t) = |p - t d| - R_j - t dr, p = c_i - c_j, minus R_i.
        # f is convex and, with q the projection parameter of p on d and h
        # its distance from the line, f' = 0 at q + dr h / (|d| sqrt(|d|^2 - dr^2))
        (xi, yi), (xj, yj), (xl, yl) = self.centers[i], self.centers[j], self.centers[l]
        px, py, dx, dy = xi - xj, yi - yj, xl - xj, yl - yj
        dr = self.radii[l] - self.radii[j]
        dd = dx * dx + dy * dy
        h = abs(px * dy - py * dx) / math.sqrt(dd)
        t = (px * dx + py * dy) / dd + dr * h / math.sqrt(dd * (dd - dr * dr))
        t = min(max(t, 0.0), 1.0)
        return math.hypot(px - t * dx, py - t * dy) - self.radii[j] - t * dr - self.radii[i]

    @property
    def k(self):
        return len(self.centers)

    @property
    def clearance(self):
        """Least `_hull_clearance` of a disk from the hull of two others, or
        None for two disks: the margin of the no-eclipse condition.  Each
        flight of a closed orbit joins two disks inside their hull, so it
        passes no nearer than this to any third disk."""
        return min((self._hull_clearance(*t) for t in self._triples()), default=None)


class OrbitBatch(NamedTuple):
    """Closed orbits of a batch of equal-length words, one row per word."""

    words: np.ndarray       # (B, n) disk indices
    angles: np.ndarray      # (B, n) boundary angles in [0, 2 pi)
    lengths: np.ndarray     # (B, n) flight k runs from bounce k to k+1 mod n
    residual: np.ndarray    # (B,) gradient sup-norm
    logJ: np.ndarray        # (B,) log of the largest monodromy eigenvalue modulus

    @property
    def t_total(self):
        # row by row: a 1-D sum adds in numpy's pairwise order, which an
        # axis=1 sum does not keep from n = 8 on
        return np.fromiter(map(np.sum, self.lengths), float, len(self.lengths))


def _check_words(words):
    """Raise ValueError unless every row of the (B, n) array is a cyclic word."""
    if words.shape[1] < 2:
        raise ValueError("word length >= 2")
    repeats = (words == np.roll(words, -1, axis=1)).any(axis=1)
    if repeats.any():
        word = tuple(words[repeats.argmax()].tolist())
        raise ValueError(f"word {word} repeats a symbol, cyclically")


def _flight_pairs(n):
    """Bounce indices (k0, k1) of each flight; the last one wraps."""
    k0 = np.arange(n)
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


def _total_length_grad(config, words, phis):
    """(lengths, gradient, Hessian) of the polygonal flight length in the angles.

    Batched over equal-length words: (B, n), (B, n) and (B, n, n).
    Flight j runs from bounce k0 = j to k1 = j + 1 (mod n).
    With t_k = dp_k/dphi_k the tangent and rho_k = p_k - c_k the radius
    vector (dt_k/dphi_k = -rho_k), each flight of length l and direction
    u adds -u.t0 and +u.t1 to the gradient and
        d2l/dphi0^2     = (|t0|^2 - (u.t0)^2)/l + u.rho0
        d2l/dphi1^2     = (|t1|^2 - (u.t1)^2)/l - u.rho1
        d2l/dphi0 dphi1 = -(t0.t1 - (u.t0)(u.t1))/l
    to the Hessian, which is therefore cyclic tridiagonal.
    """
    batch, n = words.shape
    rho, tan, pts = _bounces(config, words, phis)
    k0, k1 = _flight_pairs(n)
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


def _initial_angles(config, words):
    """Newton start angles (B, n): each bounce faces its neighbours' centers
    (along the sum of unit chords, or across it if they cancel).  That
    depends only on the (previous, own, next) disks, so it is computed once
    per distinct triple, keyed by the triple's base-k code."""
    k = config.k
    prev, nxt = np.roll(words, 1, axis=1), np.roll(words, -1, axis=1)
    codes, where = np.unique((prev * k + words) * k + nxt, return_inverse=True)
    centers = np.array(config.centers)
    angles = []
    for code in codes.tolist():
        before, disk, after = code // (k * k), code // k % k, code % k
        u = np.zeros(2)
        for other in (before, after):
            v = centers[other] - centers[disk]
            u = u + v / np.linalg.norm(v)
        if np.linalg.norm(u) < 1e-9:
            v = centers[before] - centers[disk]
            u = np.array([-v[1], v[0]])
        angles.append(math.atan2(u[1], u[0]))
    return np.array(angles)[where.reshape(words.shape)]


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


def _solve_orbits(config, words):
    """Length-minimizing closed bounce sequences of a (B, n) array of words.

    Damped Newton on the total-length gradient, initialized at the
    inter-center chord angles, with the analytic cyclic tridiagonal
    Hessian of `_total_length_grad`.  All words share one loop with one
    stacked solve per sweep, each word with its own damping mu: a step
    that lowers its gradient sup-norm (or any step once mu > 1e6) is
    taken and mu falls tenfold; otherwise, or if its damped Hessian is
    singular, mu rises tenfold.  Returns the `OrbitBatch` of the words,
    in order, each with residual <= NEWTON_TOL; raises `NoConvergence`
    naming the word, and ValueError unless every flight length is positive.
    No flight crosses a third disk: it lies in the hull of the two disks
    it joins, which `DiskConfig` keeps clear of every other disk.
    """
    _check_words(words)
    phis = _initial_angles(config, words)
    _, grad, hess = _total_length_grad(config, words, phis)
    res = np.max(np.abs(grad), axis=1)
    mu = np.full(len(words), 1e-8)
    steps = np.zeros(len(words), dtype=int)
    while (act := np.flatnonzero((res > NEWTON_TOL) & (steps < NEWTON_MAX_ITER))).size:
        delta = _solve(hess[act] + mu[act, None, None] * np.eye(words.shape[1]), -grad[act])
        ok = ~np.isnan(delta[:, 0])
        mu[act[~ok]] = np.maximum(mu[act[~ok]] * 10, 1e-8)
        act, trial = act[ok], phis[act[ok]] + delta[ok]
        _, gt, ht = _total_length_grad(config, words[act], trial)
        rt = np.max(np.abs(gt), axis=1)
        take = (rt < res[act]) | (mu[act] > 1e6)
        acc = act[take]
        phis[acc], grad[acc], hess[acc], res[acc] = trial[take], gt[take], ht[take], rt[take]
        mu[acc] = np.maximum(mu[acc] / 10, 1e-12)
        steps[acc] += 1
        mu[act[~take]] *= 10
    stuck = res > NEWTON_TOL
    if stuck.any():
        i = stuck.argmax()
        word = tuple(words[i].tolist())
        raise NoConvergence(f"word {word}: gradient sup-norm {res[i]:.3g}")
    phis = np.mod(phis, 2 * math.pi)
    lengths, _, _ = _total_length_grad(config, words, phis)
    if not (lengths > 0).all():
        raise ValueError("flight lengths must be positive")
    return OrbitBatch(words, phis, lengths, res, _log_expansions(config, words, phis, lengths))


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
    flat = np.abs(trace) <= 2.0
    if flat.any():
        i = flat.argmax()
        word = tuple(words[i].tolist())
        raise NotHyperbolic(f"monodromy trace {trace[i]:.6g} for word {word}")
    return np.fromiter(map(math.log, np.abs(np.linalg.eigvals(mono)).max(axis=1)),
                       float, batch)


def _cyclic_words(k, n):
    """Directed words of length n admissible as cycles (no repeats, incl.
    wrap), as one (m, n) int64 array in lexicographic order.

    After the first symbol each one is one of the k - 1 others: digit e
    in base k - 1 stands for e + (e >= previous symbol).  That map keeps
    the order, so counting through (first symbol, n - 1 digits) lists
    the words lexicographically.
    """
    if n < 1:
        raise ValueError("n >= 1")
    count = (k - 1) ** (n - 1)
    index = np.arange(k * count, dtype=np.int64)
    words = np.empty((k * count, n), dtype=np.int64)
    words[:, 0] = index // count
    for i in range(1, n):
        digit = index // (k - 1) ** (n - 1 - i) % (k - 1)
        words[:, i] = digit + (digit >= words[:, i - 1])
    return words[words[:, -1] != words[:, 0]]


def _necklace_classes(k, n):
    """The `_cyclic_words` of length n as an (m, n) array, the necklaces (one
    lexicographically least rotation per cyclic class, in order of first
    appearance) as an array, and per word the index of its necklace and
    the first shift i with word[i:] + word[:i] equal to it.

    Equal-length words order lexicographically as their base-k codes do,
    and the shift by i maps a code c to (c mod k^(n-i)) k^i + c div k^(n-i),
    so the codes of every rotation of every word take n array operations.
    """
    words = _cyclic_words(k, n)
    code = words @ k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = np.empty_like(words)
    for i in range(n):
        codes[:, i] = code % k ** (n - i) * k ** i + code // k ** (n - i)
    shift = codes.argmin(axis=1)
    _, first, cls = np.unique(codes.min(axis=1), return_index=True, return_inverse=True)
    reps, rank = np.sort(first), np.argsort(np.argsort(first))
    rot = (np.arange(n)[:, None] + np.arange(n)) % n    # rot[i]: shift by i
    necklaces = np.take_along_axis(words[reps], rot[shift[reps]], axis=1)
    return words, necklaces, rank[cls], shift


def _necklaces(k, n):
    """One representative (lexicographically least rotation) per cyclic class."""
    return _necklace_classes(k, n)[1]


def _cycle_orbits(config, n):
    """Closed orbits of the `_cyclic_words` of length n, in order, as six
    aligned arrays: words, angles, flight lengths, logJ, t and residual.

    Every rotation of a word traces the same orbit, so the necklaces
    (prime cycles or repeats of one) are solved as one batch, and each
    word takes its necklace's row, angles and lengths rotated.  t is the
    necklace's `t_total`: a sum of the rotated lengths can move its last bit.
    """
    if n < 2:
        raise ValueError("depth n >= 2")
    words, necklaces, cls, shift = _necklace_classes(config.k, n)
    b = _solve_orbits(config, necklaces)
    back = (np.arange(n) - shift[:, None]) % n
    return (words, np.take_along_axis(b.angles[cls], back, axis=1),
            np.take_along_axis(b.lengths[cls], back, axis=1),
            b.logJ[cls], b.t_total[cls], b.residual[cls])


def cylinder_table(config, n):
    """Depth-n closed-orbit weights of every `_cyclic_words`, in order."""
    words, _, _, logj, t, _ = _cycle_orbits(config, n)
    return CylinderTable(n, words, logj, t)


def _draws(seed, start):
    """A generator on the Philox stream of `seed` whose next double is the
    stream's double number `start`.  Philox makes four per counter step,
    and `advance` moves the counter, so it advances start // 4 steps and
    discards start % 4 doubles."""
    bits = np.random.Philox(seed)
    bits.advance(start // 4)
    rng = np.random.Generator(bits)
    rng.random(start % 4)
    return rng


def _chord(x, y, dx, dy, cx, cy, r2, rx, ry, b, disc):
    """b = dx rx + dy ry and disc = b b - (rx rx + ry ry - r2), rx, ry = x - cx, y - cy,
    rounded as written (rx, ry: scratch): the ray meets the circle at t = -b -+ sqrt(disc)."""
    np.subtract(x, cx, out=rx)
    np.subtract(y, cy, out=ry)
    np.add(np.multiply(dx, rx, out=b), np.multiply(dy, ry, out=disc), out=b)
    np.add(np.multiply(rx, rx, out=disc), np.multiply(ry, ry, out=ry), out=disc)
    disc -= r2
    np.subtract(np.multiply(b, b, out=rx), disc, out=disc)


def _start_rays(config, draws, rows, disk):
    """Draw start rays from `draws` (disk, angle, eta generators) into `disk` and the x, y,
    dx, dy and zeroed time rows of the eleven `rows`.  A disk counts the cuts of
    `Generator.choice(k, p=radii / radii.sum())` at or below its double, and the angles and
    eta are scaled in place as `Generator.uniform` does: the one-array draws, bit for bit."""
    radii, (cx, cy) = np.array(config.radii), np.array(config.centers).T
    cdf = np.cumsum(radii / radii.sum())
    cdf /= cdf[-1]
    x, y, dx, dy, eta, phi, rx, ry, b, root, t = rows
    disk[:] = codes = np.searchsorted(cdf, draws[0].random(out=root), side="right")
    np.multiply(draws[1].random(out=phi), 2 * math.pi, out=phi)
    np.subtract(np.multiply(draws[2].random(out=eta), 2.0, out=eta), 1.0, out=eta)
    # x, y = c[disk] + r (cos, sin), r = radii[disk];
    # dx, dy = root (cos, sin) + eta (-sin, cos), root = sqrt(1 - eta ** 2)
    np.take(radii, codes, out=b, mode="clip")
    np.cos(phi, out=rx)
    np.sin(phi, out=ry)
    np.add(np.take(cx, codes, out=x, mode="clip"), np.multiply(b, rx, out=t), out=x)
    np.add(np.take(cy, codes, out=y, mode="clip"), np.multiply(b, ry, out=t), out=y)
    np.sqrt(np.subtract(1, np.square(eta, out=root), out=root), out=root)
    np.subtract(np.multiply(root, rx, out=dx), np.multiply(eta, ry, out=t), out=dx)
    np.add(np.multiply(eta, rx, out=dy), np.multiply(root, ry, out=t), out=dy)
    eta[:] = 0.0                            # the time row


def _walk_rays(config, r_out, max_bounces, size, *draws):
    """Bounce `size` start rays `_start_rays(draws)` until each escapes or the cap is hit.

    Returns the escape times, the flight times of the rays still alive
    (views of one row), and the flights per bounce from the third on, in
    start order.  Bounce 0 takes blocks of `RAY_CHUNK // 4` rays in one
    buffer; its survivors (a tenth on three disks), reflected and in start
    order, walk on in buffers of their size.  A ray never hits the disk it
    sits on, so that disk is masked out of its next hit.  Each compaction
    keeps the live rays as prefixes and writes the escaped rays' times into
    the tail of the time row they give up; each ufunc keeps its comment's order.
    """
    radii, centers = np.array(config.radii), np.array(config.centers)
    (cx, cy), (ox, oy) = centers.T, centers.mean(axis=0)

    def bounce(rows, disk, best, hit, mask):
        # rows: x, y, dx, dy, time, t_best, five scratch; returns how many stay, as prefixes
        x, y, dx, dy, time, t_best, rx, ry, b, disc, t = rows
        t_best[:], best[:] = np.inf, -1
        for k in range(config.k):
            # t = -b - sqrt(maximum(disc, 0.0)), kept where it is the first hit:
            # disc > 0, t > RAY_EPS, t < t_best and disk != k
            _chord(x, y, dx, dy, cx[k], cy[k], radii[k] ** 2, rx, ry, b, disc)
            np.sqrt(np.maximum(disc, 0.0, out=t), out=t)
            np.subtract(np.negative(b, out=b), t, out=t)
            np.greater(disc, 0, out=hit)
            hit &= np.greater(t, RAY_EPS, out=mask)
            hit &= np.less(t, t_best, out=mask)
            hit &= np.not_equal(disk, k, out=mask)
            np.copyto(t_best, t, where=hit)
            np.copyto(best, k, where=hit)
        # escape time: time + (-b + sqrt(disc)) out to radius r_out, if no disk is hit
        _chord(x, y, dx, dy, ox, oy, r_out ** 2, rx, ry, b, disc)
        np.add(time, np.subtract(np.sqrt(disc, out=disc), b, out=t), out=t)
        stay = np.greater_equal(best, 0, out=hit)
        n = int(np.count_nonzero(stay))
        for row in rows[:6]:
            row[:n] = row[stay]
        disk[:n] = best[stay]
        # the slots the live rays give up take the escape times
        np.compress(np.logical_not(stay, out=mask), t, out=time[n:])
        x, y, dx, dy, time, t_best, rx, ry, b, disc, t = (row[:n] for row in rows)
        # x, y, time += t_best (dx, dy, 1); d -= 2 (d . n) n, n = (p - c[disk]) / r
        x += np.multiply(t_best, dx, out=t)
        y += np.multiply(t_best, dy, out=t)
        time += t_best
        # one intp copy of the disks, not one per take ("raise" would also copy `out`)
        np.copyto(codes := disc.view(np.intp), disk[:n])
        np.take(radii, codes, out=b, mode="clip")
        np.divide(np.subtract(x, np.take(cx, codes, out=rx, mode="clip"), out=rx), b, out=rx)
        np.divide(np.subtract(y, np.take(cy, codes, out=ry, mode="clip"), out=ry), b, out=ry)
        np.add(np.multiply(dx, rx, out=t), np.multiply(dy, ry, out=disc), out=t)
        t *= 2
        dx -= np.multiply(t, rx, out=disc)
        dy -= np.multiply(t, ry, out=disc)
        return n

    step = min(RAY_CHUNK // 4, size)
    # survivors' times and disks (-1: a miss) fill these from the front, escapes from the back
    times, disk = np.empty(size), np.empty(size, dtype=np.min_scalar_type(-config.k))
    block, masks = np.empty((11, step)), np.empty((2, step), dtype=bool)
    best = np.empty_like(disk, shape=step)
    kept, live, end = [], 0, size
    for lo in range(0, size, step):
        m = min(step, size - lo)
        _start_rays(config, draws, rows := block[:, :m], disk[live:live + m])
        # under a cap of 0 every ray stays, at time 0
        n = bounce(rows, disk[live:live + m], best[:m], *masks[:, :m]) if max_bounces else m
        kept.append(rows[:4, :n].copy())
        times[live:live + n], times[end - m + n:end] = rows[4, :n], rows[4, n:]
        live, end = live + n, end - m + n
    del block, rows                         # before the survivors' buffer is made
    buf, m, late_flights = np.empty((10, live)), live, []
    rows = [*buf[:4], times[:m], *buf[4:]]
    np.concatenate(kept, axis=1, out=buf[:4])
    best, masks = np.empty_like(disk, shape=m), np.empty((2, m), dtype=bool)
    for bnc in range(1, max_bounces):
        if m == 0:
            break
        m = bounce([row[:m] for row in rows], disk[:m], best[:m], *masks[:, :m])
        # flights past the first bounces sample the trapped dynamics
        if bnc >= 2:
            late_flights.append(rows[5][:m].copy())
    return times[m:], times[:m], late_flights


def _crossing(q, samples, n):
    """`np.searchsorted(-surv, -q)`, surv[i] = 1.0 - (i + 1) / samples, i < n, by bisection."""
    return bisect.bisect_left(range(n), True, key=lambda i: 1.0 - (i + 1) / samples <= q)


def _escape_window(chunks, top, size):
    """The `top` largest escape times of a stream of chunks, and their count.

    `chunks` yields arrays of at most `size - top` times.  Returns
    (window, escaped): `window` holds the `top` largest times (all of
    them if fewer) in ascending order, perhaps after some smaller ones,
    and `escaped` counts every time seen.  The times go into one buffer
    of `size` doubles; a chunk that would overflow it first has the
    buffer cut to its `top` largest (by `partition`), whose least then
    floors what later chunks add: a time at or below it cannot change
    the values of the `top` largest.
    """
    kept = np.empty(size)
    fill, floor, escaped = 0, -np.inf, 0
    for times in chunks:
        escaped += times.size
        times = times[times > floor]
        if fill + times.size > size:
            kept[:fill].partition(fill - top)
            kept[:top] = kept[fill - top:fill]
            fill, floor = top, kept[0]
        kept[fill:fill + times.size] = times
        fill += times.size
    window = kept[:fill]
    window.sort()
    return window, escaped


def escape_rate_mc(config, samples, rng_seed=0):
    """Monte-Carlo escape rate per unit flight time, with regression stderr.

    Uniform start points on the union of boundary co-ball bundles; a ray
    escapes when it misses every disk, and its escape time includes the
    final flight out to a circle circumscribing the obstacle cluster, so
    the survivor curve measures time spent inside the interaction region.
    Rays are independent: chunks of `RAY_CHUNK` are walked on a pool of one
    thread per CPU available to the process, each in ~38 bytes per ray,
    and merged in order, so the result does not depend on the thread
    count.  The start disks, angles and eta are three consecutive runs of
    `samples` doubles in the seed's Philox stream; each chunk draws its own
    part of the three runs at its offsets (`_draws`), block by block into
    its walk's buffer, so no whole-sample array is staged and the draws
    equal the one-array draws bit for bit.
    Log-survivor fraction is fitted over the window where the fraction
    lies in [1e-3, 1e-1].  What the fit reads of the escape times (the
    times at both crossings, and how many rays escaped after each grid
    time between them) lies in their samples/10 + 1 largest, so only those
    are kept, in one buffer of that many doubles plus a chunk
    (`_escape_window`), and the rest are counted.  Escape proceeds in
    near-synchronized bounce generations, so the log-survivor curve rides
    a wave with the period of the typical trapped flight; the regression
    carries cos/sin columns at that period (measured from the sampled
    flights) so the wave lands in those columns instead of biasing the
    slope.
    """
    if samples < 10 ** 4:
        raise ValueError("samples >= 1e4")
    seed = np.random.SeedSequence(rng_seed)
    radii = np.array(config.radii)
    centers = np.array(config.centers)
    centroid = centers.mean(axis=0)
    # scale-covariant exit radius: rescaling the whole table rescales it
    r_out = 2.0 * float(np.max(np.linalg.norm(centers - centroid, axis=1) + radii))
    starts = range(0, samples, RAY_CHUNK)
    live_min, late = [None] * len(starts), [None] * len(starts)

    def walk(i):
        lo = starts[i]
        draws = (_draws(seed, run * samples + lo) for run in range(3))
        escapes, alive, late[i] = _walk_rays(config, r_out, MAX_BOUNCES,
                                             min(RAY_CHUNK, samples - lo), *draws)
        live_min[i] = np.min(alive, initial=np.inf)
        return escapes

    # survivor fraction 1e-1 is crossed at escape time number samples - top
    top = samples - _crossing(1e-1, samples, samples)
    with ThreadPoolExecutor(pool_size()) as pool:
        window, escaped = _escape_window(pool.map(walk, range(len(starts))),
                                         top, top + RAY_CHUNK)
    n_live = samples - escaped
    # bounce by bounce, chunk by chunk: the one-array walk's order
    late_flights = [f for i in range(MAX_BOUNCES) for chunk in late for f in chunk[i:i + 1]]

    censored_min = min(live_min)
    if escaped < samples // 2:
        raise TooFewSurvivors("most samples never escaped; raise MAX_BOUNCES")
    if not late_flights or sum(f.size for f in late_flights) < 100:
        raise TooFewSurvivors("too few multi-bounce paths to set the flight period")
    period = float(np.mean(np.concatenate(late_flights)))

    # window endpoints: times where the survivor fraction crosses 1e-1, 1e-3,
    # indexed from the end of the window as from the end of all escape times
    if 1.0 - escaped / samples + n_live / samples > 1e-3:
        raise TooFewSurvivors("survivor fraction never reaches 1e-3; raise MAX_BOUNCES")
    t_lo = float(window[_crossing(1e-1, samples, escaped) - escaped])
    t_hi = float(window[_crossing(1e-3, samples, escaped) - escaped])
    if not (t_lo < t_hi < censored_min):
        raise TooFewSurvivors("fit window empty or censored; raise MAX_BOUNCES")
    grid = np.linspace(t_lo, t_hi, 60)
    # survivors at T: escaped later than T, or never escaped
    frac = (window.size - np.searchsorted(window, grid, side="right") + n_live) / samples
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
    cov = np.linalg.inv(design.T @ (w[:, None] * design))
    var_slope = float(resid @ (w * resid)) / (x.size - design.shape[1]) * cov[1, 1]
    return float(-coef[1]), float(math.sqrt(var_slope))


def periodic_points(config, periods):
    """Boundary-coordinate samples (y mod arc, eta) of all periodic orbits.

    Points are pooled across disks in local coordinates; for symmetric
    configurations the per-disk traces coincide.  Each period's
    necklaces are solved as one batch.
    """
    pts = []
    for n in periods:
        necklaces = _necklaces(config.k, n)
        if not len(necklaces):
            continue
        b = _solve_orbits(config, necklaces)
        y = np.mod(b.angles, 2 * math.pi) * np.array(config.radii)[b.words]
        eta = _outgoing(config, b.words, b.angles)[1]
        pts.append(np.column_stack([y.ravel(), eta.ravel()]))
    return np.concatenate(pts) if pts else np.empty((0, 2))


def _occupied_cells(pts, delta):
    """Number of delta-boxes holding at least one of the (m, 2) points."""
    ij = (pts // delta).astype(np.int64)
    ij -= ij.min(axis=0)
    # one int64 code per point: np.unique(axis=0) would sort void rows
    return np.unique(ij[:, 0] * (ij[:, 1].max() + 1) + ij[:, 1]).size


def trapped_box_dimension(config):
    """Box-counting estimate of the one-sided trapped-set dimension.

    Counts 2D boxes over pooled periodic points of periods up to
    `MAX_PERIOD`, at up to `N_SCALES` box sizes, and halves the slope (the
    trapped set is a product of two transverse Cantor sets of equal
    dimension).  Local slopes oscillate with the lacunarity of the Cantor
    structure (one period is roughly log2 of the per-bounce expansion), so
    the fit needs enough octaves to average over a few periods; the
    resolution guard trims scales the finite point cloud cannot support.
    """
    pts = periodic_points(config, range(2, MAX_PERIOD + 1))
    if len(pts) < 100:
        raise ValueError("too few periodic points; raise MAX_PERIOD")
    spread = max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1]))
    counts = []
    sizes = []
    for j in range(N_SCALES):
        delta = spread / 2.0 / 2 ** j
        cells = _occupied_cells(pts, delta)
        # keep only scales that the finite point cloud still resolves
        if cells > len(pts) / 10:
            break
        counts.append(cells)
        sizes.append(delta)
    if len(counts) < 3:
        raise ValueError("not enough usable scales for a slope")
    x = -np.log(np.array(sizes))
    y = np.log(np.array(counts))
    design = np.column_stack([np.ones(x.size), x])
    (_, slope), *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(slope / 2.0)

