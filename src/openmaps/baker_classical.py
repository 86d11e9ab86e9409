"""Open baker map on the torus: exact dynamics and trapped-set geometry.

The map expands x by the integer base a, keeps only the strips indexed
by the alphabet, and contracts xi correspondingly:

    (x, xi) -> (a*x - j, (xi + j)/a)   for x in [j/a, (j+1)/a), j in alphabet.

Everything about its trapped set is base-a digit combinatorics, so
covers and dimensions are computed symbolically from digit strings; the
Monte-Carlo survival estimate is the only sampled quantity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDepths
from .symbolic_pressure import CylinderTable, full_shift

DIGIT_GUARD = 1e-14     # strip boundaries snapped upward within this band


@dataclass(frozen=True)
class BakerSpec:
    a: int
    alphabet: tuple

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(sorted(self.alphabet)))
        if self.a < 2:
            raise ValueError("base a >= 2")
        if not self.alphabet:
            raise ValueError("alphabet nonempty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet entries must be distinct")
        if any(j < 0 or j >= self.a for j in self.alphabet):
            raise ValueError("alphabet entries must lie in 0..a-1")

    @property
    def m(self):
        return len(self.alphabet)


@dataclass(frozen=True)
class TorusPoint:
    x: object
    xi: object

    def __post_init__(self):
        # mod-1 reduction; works for floats and exact Fractions alike
        object.__setattr__(self, "x", self.x % 1)
        object.__setattr__(self, "xi", self.xi % 1)


def _digit(value, a):
    """Base digit of a coordinate already scaled by a.

    Floats within the guard band below a strip boundary are snapped up
    (heals 1-ulp division artifacts); the snap is clamped so the top
    strip never wraps past a-1.  Exact rationals take the plain floor.
    """
    if isinstance(value, float):
        return min(int(math.floor(value + DIGIT_GUARD)), a - 1)
    return int(value // 1)


def _nonneg(value):
    # snapped digits can leave a -1ulp fractional part behind
    return max(value, 0.0) if isinstance(value, float) else value


def forward(spec, p):
    """One step of the open map, or None when x falls in a removed strip."""
    v = p.x * spec.a
    j = _digit(v, spec.a)
    if j not in spec.alphabet:
        return None
    return TorusPoint(_nonneg(v - j), (p.xi + j) / spec.a)


def inverse(spec, p):
    """Exact inverse of forward on its range; None when xi's digit is removed."""
    v = p.xi * spec.a
    j = _digit(v, spec.a)
    if j not in spec.alphabet:
        return None
    return TorusPoint((p.x + j) / spec.a, _nonneg(v - j))


def _cylinder_starts(spec, n):
    """Left endpoints (as integer numerators over a^n) of depth-n kept cylinders."""
    numerators = [0]
    for _ in range(n):
        numerators = [num * spec.a + j for num in numerators for j in spec.alphabet]
    return numerators


def trapped_cover(spec, n_forward, n_backward):
    """Axis-aligned boxes (x0, xi0, side_x, side_xi) covering the trapped set.

    Forward survival constrains the base-a digits of x, backward
    survival those of xi, so the cover is a product of two cylinder
    families built from digit strings.
    """
    if n_forward < 1 or n_backward < 1:
        raise ValueError("cover depths >= 1")
    side_x = spec.a ** (-n_forward)
    side_xi = spec.a ** (-n_backward)
    xs = [num * side_x for num in _cylinder_starts(spec, n_forward)]
    xis = [num * side_xi for num in _cylinder_starts(spec, n_backward)]
    return [(x0, xi0, side_x, side_xi) for x0 in xs for xi0 in xis]


def box_dimension_estimate(spec, depths):
    """Box dimension of the unstable-line trace of the trapped-set cover.

    Counts N(depth) = m^depth intervals of size a^(-depth); the
    least-squares slope of log N against -log size is log m / log a.
    """
    if len(depths) < 2:
        raise InsufficientDepths("need >= 2 depths for a slope")
    depths = sorted(depths)
    log_counts = np.array([d * math.log(spec.m) for d in depths])
    log_sizes = np.array([-d * math.log(spec.a) for d in depths])
    design = np.column_stack([np.ones(len(depths)), -log_sizes])
    (_, slope), *_ = np.linalg.lstsq(design, log_counts, rcond=None)
    return float(slope)


def survival_measure(spec, n, samples, rng_seed):
    """(exact, mc) n-step survival probabilities.

    exact = (m/a)^n; mc draws uniform points and runs the digit test
    vectorized.  A deviation beyond 5 binomial sigmas is warned about,
    not failed, per the module contract.
    """
    if n < 1 or samples < 1:
        raise ValueError("n >= 1 and samples >= 1")
    exact = (spec.m / spec.a) ** n
    rng = np.random.Generator(np.random.Philox(rng_seed))
    v = rng.random(samples)
    alive = np.ones(samples, dtype=bool)
    keep = np.zeros(spec.a, dtype=bool)
    keep[list(spec.alphabet)] = True
    for _ in range(n):
        v = v * spec.a
        digits = np.floor(v + DIGIT_GUARD).astype(int)
        np.clip(digits, 0, spec.a - 1, out=digits)
        alive &= keep[digits]
        v = np.maximum(v - digits, 0.0)
    mc = float(alive.mean())
    tol = 5.0 * math.sqrt(exact / samples)
    if abs(mc - exact) > tol:
        warnings.warn(
            f"survival MC {mc:.6g} deviates from exact {exact:.6g} by more than 5 sigma",
            stacklevel=2,
        )
    return exact, mc


def cylinder_table(spec, n):
    """Depth-n table over the full m-shift: logJ = t = n*log(a) per word."""
    if n < 1:
        raise ValueError("n >= 1")
    if spec.m < 2:
        raise ValueError("need at least 2 alphabet symbols for a subshift")
    shift = full_shift(spec.m)
    weight = n * math.log(spec.a)
    entries = {w: (weight, weight) for w in shift.words(n)}
    return CylinderTable(shift, n, entries)

