"""Thermodynamic formalism on subshifts of finite type.

Weights live on finite words: per admissible word w of length n the
table stores logJ(w) (Birkhoff sum of the log unstable Jacobian) and
t(w) (Birkhoff sum of the return time).  The finite-depth pressure is
the cover formula

    p_n(cJ, ct) = (1/n) log sum_w exp(cJ*logJ(w) + ct*t(w)),

extrapolated in n.  Roots of the pressure in the weight coefficients
give the partial dimension of the trapped set (Bowen root), the
classical decay rate, and the improved-gap function sigma(gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyTable, InsufficientDepths, NoCycle, NoSignChange, NotOpen

ROOT_TOL = 1e-8          # bisection tolerance for all pressure roots
Word = tuple


def full_shift(m):
    """Subshift on m symbols with every transition allowed."""
    return Subshift(m, np.ones((m, m), dtype=bool))


def no_repeat_shift(m):
    """Subshift on m symbols forbidding immediate repeats (disk coding)."""
    return Subshift(m, ~np.eye(m, dtype=bool))


@dataclass(frozen=True)
class Subshift:
    """Symbol set {0..m-1} with an allowed-transition matrix."""

    m: int
    transition: np.ndarray

    def __post_init__(self):
        trans = np.asarray(self.transition, dtype=bool)
        object.__setattr__(self, "transition", trans)
        if self.m < 2 or trans.shape != (self.m, self.m):
            raise ValueError("transition must be m x m with m >= 2")
        if not (trans.any(axis=1).all() and trans.any(axis=0).all()):
            raise ValueError("every symbol needs an outgoing and an incoming transition")
        if not self._primitive_on_recurrent():
            raise ValueError("adjacency is not primitive on its recurrent part")

    def _primitive_on_recurrent(self):
        # recurrent symbols: those lying on some cycle (reachability closure)
        reach = self.transition.copy()
        for _ in range(self.m):
            reach = reach | (reach @ self.transition)
        recurrent = np.diag(reach)
        if not recurrent.any():
            return False
        sub = self.transition[np.ix_(recurrent, recurrent)]
        r = sub.shape[0]
        power = sub.copy()
        for _ in range((r - 1) ** 2 + 1):
            if power.all():
                return True
            power = (power @ sub) > 0
        return bool(power.all())

    def admissible(self, word):
        """True when every consecutive pair of symbols is an allowed transition."""
        if any(s < 0 or s >= self.m for s in word):
            return False
        return all(self.transition[word[i], word[i + 1]] for i in range(len(word) - 1))

    def words(self, n):
        """All admissible words of length n, lexicographic."""
        if n < 1:
            raise ValueError("n >= 1")
        out = [(s,) for s in range(self.m)]
        for _ in range(n - 1):
            out = [w + (s,) for w in out for s in range(self.m) if self.transition[w[-1], s]]
        return out


@dataclass(frozen=True)
class CylinderTable:
    """Per-word (logJ, t) weights at a fixed depth n.

    Floors encode hyperbolicity (logJ >= n*lambda_floor) and the
    positive-return-time assumption (t >= n*t_min); construction fails
    loudly, naming the first word in table order that breaks a check.
    The weights are kept as read-only arrays in that order.
    """

    subshift: Subshift
    n: int
    entries: dict
    lambda_floor: float = 1e-6
    t_min: float = 1e-6
    _weights: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("depth n >= 1")
        if self.lambda_floor <= 0 or self.t_min <= 0:
            raise ValueError("floors must be positive")
        words = list(self.entries)
        size = len(words)
        wrong = np.fromiter((len(w) != self.n for w in words), bool, size)
        codes = np.array([(0,) * self.n if bad else w for w, bad in zip(words, wrong)],
                         dtype=np.int64).reshape(size, self.n)
        inside = ((codes >= 0) & (codes < self.subshift.m)).all(axis=1)
        clipped = np.clip(codes, 0, self.subshift.m - 1)
        allowed = self.subshift.transition[clipped[:, :-1], clipped[:, 1:]].all(axis=1)
        logj, t = np.array(list(self.entries.values()), dtype=float).reshape(size, 2).T.copy()
        fails = np.stack([wrong, ~(inside & allowed),
                          ~(np.isfinite(logj) & np.isfinite(t)),
                          logj < self.n * self.lambda_floor, t < self.n * self.t_min])
        if fails.any():
            i = fails.any(axis=0).argmax()
            word = words[i]
            raise ValueError((f"word {word} has length != {self.n}",
                              f"word {word} not admissible",
                              f"non-finite weights for word {word}",
                              f"logJ({word}) below hyperbolicity floor",
                              f"t({word}) below return-time floor")[fails[:, i].argmax()])
        logj.flags.writeable = t.flags.writeable = False
        object.__setattr__(self, "_weights", (logj, t))

    def weight_arrays(self):
        """(logJ, t) as aligned read-only arrays over the table's word order."""
        return self._weights


@dataclass(frozen=True)
class PressureEstimate:
    coeff_J: float
    coeff_t: float
    per_depth: list = field(default_factory=list)   # [(n, p_n)]
    value: float = 0.0
    uncertainty: float = 0.0

    def __post_init__(self):
        ns = [n for n, _ in self.per_depth]
        if ns != sorted(set(ns)):
            raise ValueError("per_depth depths must be strictly increasing")
        if self.uncertainty < 0:
            raise ValueError("uncertainty must be >= 0")


def _logsumexp(a):
    """log(sum(exp(a))) of a 1-D float array, by the steps of
    `scipy.special.logsumexp` (1.17), with its results bit for bit: the
    maximum terms are taken out of the shifted sum, which then enters
    through log1p, and a non-finite result is replaced by the direct
    log(sum(exp(a)))."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = a.max()
        at_top = a == top
        count = np.count_nonzero(at_top)
        rest = np.exp(np.where(at_top, -np.inf, a) - top).sum()
        if rest != 0:
            rest = rest / count
        out = np.log1p(rest) + np.log(count) + top
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return float(out)


def finite_pressure(table, coeff_J, coeff_t):
    """Depth-n cover pressure (1/n) log sum_w exp(cJ*logJ + ct*t)."""
    if not (math.isfinite(coeff_J) and math.isfinite(coeff_t)):
        raise ValueError("coefficients must be finite")
    if not table.entries:
        raise EmptyTable(f"no admissible words at depth {table.n}")
    logj, t = table.weight_arrays()
    return _logsumexp(coeff_J * logj + coeff_t * t) / table.n


def pressure(tables, coeff_J, coeff_t):
    """Extrapolated pressure from finite depths.

    Fits p_n = P + c/n by least squares over the three largest depths;
    the reported uncertainty is |p_nmax - P|.
    """
    if len(tables) < 3:
        raise InsufficientDepths(f"need >= 3 depths, got {len(tables)}")
    tables = sorted(tables, key=lambda tb: tb.n)
    ns = [tb.n for tb in tables]
    if len(set(ns)) != len(ns):
        raise ValueError("duplicate table depths")
    per_depth = [(tb.n, finite_pressure(tb, coeff_J, coeff_t)) for tb in tables]
    tail = per_depth[-3:]
    design = np.array([[1.0, 1.0 / n] for n, _ in tail])
    target = np.array([p for _, p in tail])
    (value, _slope), *_ = np.linalg.lstsq(design, target, rcond=None)
    uncertainty = abs(per_depth[-1][1] - value)
    return PressureEstimate(coeff_J, coeff_t, per_depth, float(value), float(uncertainty))


def _bisect(f, lo, hi, tol=ROOT_TOL, side="mid"):
    """Bisection root of f on [lo, hi].

    side="nonneg" returns the bracket endpoint where f >= 0; callers use
    it when downstream clamps must land exactly on the closed side.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0) == (fhi < 0):
        raise NoSignChange(f"f({lo})={flo:.6g} and f({hi})={fhi:.6g} have equal signs")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    if side == "nonneg":
        return hi if fhi > 0 else lo
    return 0.5 * (lo + hi)


def bowen_dimension(tables, s_bracket=(0.0, 2.0)):
    """Root s0 of s -> P(-s*logJ): the trapped set's unstable partial dimension."""
    lo, hi = s_bracket
    return _bisect(lambda s: pressure(tables, -s, 0.0).value, lo, hi)


def classical_decay_rate(tables):
    """Root gamma_cl of s -> P(-logJ + s*t); requires P(-logJ) < 0.

    Returns the P >= 0 side of the final bracket so that the sigma clamp
    at gamma = gamma_cl/2 is exact rather than off by the bisection tol.
    """
    def f(s):
        return pressure(tables, -1.0, s).value

    p0 = f(0.0)
    if p0 >= 0.0:
        raise NotOpen(f"P(-phi_u) = {p0:.6g} >= 0")
    hi = 1.0
    for _ in range(200):
        if f(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise NoSignChange("pressure never becomes positive along t-coefficient")
    return _bisect(f, 0.0, hi, side="nonneg")


def sigma_of_gamma(tables, gamma, lambda_max):
    """Improved-gap value max(0, -P(-logJ + 2*gamma*t) / (6*lambda_max))."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if lambda_max <= 0:
        raise ValueError("lambda_max must be > 0")
    p = pressure(tables, -1.0, 2.0 * gamma).value
    return max(0.0, -p / (6.0 * lambda_max))


def _max_cycle_mean(n_nodes, edges):
    """Karp's maximum mean cycle over (u, v, weight) edges; -inf if acyclic."""
    neg = -math.inf
    dp = np.full((n_nodes + 1, n_nodes), neg)
    dp[0, :] = 0.0          # walks may start anywhere
    for k in range(1, n_nodes + 1):
        row = np.full(n_nodes, neg)
        for u, v, w in edges:
            cand = dp[k - 1, u] + w
            if cand > row[v]:
                row[v] = cand
        dp[k] = row
    best = neg
    for v in range(n_nodes):
        if dp[n_nodes, v] == neg:
            continue
        worst = math.inf
        for k in range(n_nodes):
            if dp[k, v] == neg:
                continue
            worst = min(worst, (dp[n_nodes, v] - dp[k, v]) / (n_nodes - k))
        best = max(best, worst)
    return best


def lyapunov_bounds(table):
    """(lambda_min, lambda_max): extreme per-step cycle means of logJ/n.

    Cycles live on the de Bruijn graph of the table's depth: nodes are
    (n-1)-prefixes, one edge per word, weight logJ(word)/n.
    """
    if table.n < 2:
        raise ValueError("need table depth >= 2")
    if not table.entries:
        raise EmptyTable("empty table")
    nodes = sorted({w[:-1] for w in table.entries} | {w[1:] for w in table.entries})
    index = {node: i for i, node in enumerate(nodes)}
    edges = [
        (index[w[:-1]], index[w[1:]], logj / table.n)
        for w, (logj, _t) in table.entries.items()
    ]
    lam_max = _max_cycle_mean(len(nodes), edges)
    if lam_max == -math.inf:
        raise NoCycle("word graph has no cycle")
    neg_edges = [(u, v, -w) for u, v, w in edges]
    lam_min = -_max_cycle_mean(len(nodes), neg_edges)
    assert 0.0 < lam_min <= lam_max + 1e-12
    return float(lam_min), float(lam_max)

