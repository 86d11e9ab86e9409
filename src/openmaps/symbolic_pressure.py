"""Thermodynamic formalism on cylinder tables.

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
from dataclasses import dataclass

import numpy as np

from .errors import EmptyTable, InsufficientDepths, NoSignChange, NotOpen

ROOT_TOL = 1e-8          # bisection tolerance for all pressure roots
LAMBDA_FLOOR = 1e-6      # per-step floor of logJ: hyperbolicity
T_MIN = 1e-6             # per-step floor of the return time t


@dataclass(frozen=True, eq=False)
class CylinderTable:
    """Per-word (logJ, t) weights at a fixed depth n, as aligned arrays.

    `words` is an (m, n) integer array of admissible words (its builder
    makes them so), one per entry of `logJ` and `t`.  Floors encode
    hyperbolicity (logJ >= n*LAMBDA_FLOOR) and positive return times
    (t >= n*T_MIN); construction fails loudly, naming the first word in
    table order that breaks a check.  The arrays are stored read-only.
    """

    n: int
    words: np.ndarray
    logJ: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("depth n >= 1")
        words = np.array(self.words, dtype=np.int64)
        logj, t = np.array(self.logJ, dtype=float), np.array(self.t, dtype=float)
        # explicit: a reshape could re-fold words of the wrong width
        if not (words.ndim == 2 and words.shape[1] == self.n
                and logj.shape == t.shape == (len(words),)):
            raise ValueError(f"need (m, {self.n}) words and m (logJ, t) pairs, got shapes "
                             f"{words.shape}, {logj.shape}, {t.shape}")
        fails = np.stack([~(np.isfinite(logj) & np.isfinite(t)),
                          logj < self.n * LAMBDA_FLOOR, t < self.n * T_MIN])
        if fails.any():
            i = fails.any(axis=0).argmax()
            word = tuple(words[i].tolist())
            raise ValueError((f"non-finite weights for word {word}",
                              f"logJ({word}) below hyperbolicity floor",
                              f"t({word}) below return-time floor")[fails[:, i].argmax()])
        for name, value in (("words", words), ("logJ", logj), ("t", t)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class PressureEstimate:
    coeff_J: float
    coeff_t: float
    per_depth: list   # [(n, p_n)], n increasing
    value: float
    uncertainty: float


def _logsumexp(a):
    """log(sum(exp(a))) of a 1-D float array with a finite maximum, which
    is taken out of the sum so that no exp overflows."""
    top = a.max()
    return float(top + np.log(np.exp(a - top).sum()))


def finite_pressure(table, coeff_J, coeff_t):
    """Depth-n cover pressure (1/n) log sum_w exp(cJ*logJ + ct*t)."""
    if not (math.isfinite(coeff_J) and math.isfinite(coeff_t)):
        raise ValueError("coefficients must be finite")
    if not len(table.words):
        raise EmptyTable(f"no admissible words at depth {table.n}")
    return _logsumexp(coeff_J * table.logJ + coeff_t * table.t) / table.n


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


def _fit_line(x, y, weights=None, columns=()):
    """Weighted least squares of y on the columns 1, x, *columns: the
    coefficients, and the slope's standard error sqrt(s² [(XᵀWX)⁻¹]₁₁), s²
    the weighted residual sum of squares per degree of freedom, or None
    where no degree of freedom is left (an exact fit)."""
    design = np.column_stack([np.ones(len(x)), x, *columns])
    w = np.ones(len(x)) if weights is None else weights
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(sw[:, None] * design, sw * y, rcond=None)
    if (dof := len(x) - design.shape[1]) < 1:
        return coef, None
    resid = y - design @ coef
    cov = np.linalg.inv(design.T @ (w[:, None] * design))
    return coef, math.sqrt(float(resid @ (w * resid)) / dof * cov[1, 1])


def _bisect(f, lo, hi, side="mid"):
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
    while hi - lo > ROOT_TOL:
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


def bowen_dimension(tables):
    """Root s0 in [0, 2] of s -> P(-s*logJ): the trapped set's unstable
    partial dimension."""
    return _bisect(lambda s: pressure(tables, -s, 0.0).value, 0.0, 2.0)


def classical_decay_rate(tables):
    """Root gamma_cl of s -> P(-logJ + s*t); requires P(-logJ) < 0 by more
    than its round-off, so that a closed map (P = 0) is NotOpen.

    To first order, each depth's (1/n) log sum_w exp(-logJ(w)) is good
    to eps (max_w logJ(w) + log #words) / n, and the fit weights those
    errors by its intercept row.  Returns the P >= 0 side of the final
    bracket so that the sigma clamp at gamma = gamma_cl/2 is exact rather
    than off by the bisection tol.
    """
    def f(s):
        return pressure(tables, -1.0, s).value

    p0 = f(0.0)
    tail = sorted(tables, key=lambda tb: tb.n)[-3:]
    intercept = np.linalg.pinv([[1.0, 1.0 / tb.n] for tb in tail])[0]
    roundoff = np.finfo(float).eps * float(np.abs(intercept) @ [
        (tb.logJ.max() + math.log(len(tb.logJ))) / tb.n for tb in tail])
    if p0 >= -roundoff:
        raise NotOpen(f"P(-phi_u) = {p0:.6g} is not below its round-off -{roundoff:.2g}")
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
