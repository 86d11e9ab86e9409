"""Open baker map on the torus: exact dynamics and cylinder tables.

The map expands x by the integer base a, keeps only the strips indexed
by the alphabet, and contracts xi correspondingly:

    (x, xi) -> (a*x - j, (xi + j)/a)   for x in [j/a, (j+1)/a), j in alphabet.

Everything about its trapped set is base-a digit combinatorics: each
kept length-n digit string is one cylinder of the same Jacobian a^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .symbolic_pressure import CylinderTable

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


def cylinder_table(spec, n):
    """Depth-n full m-shift table, words lexicographic: logJ = t = n*log(a) each."""
    if n < 1:
        raise ValueError("n >= 1")
    if spec.m < 2:
        raise ValueError("need at least 2 alphabet symbols for a subshift")
    words = np.indices((spec.m,) * n).reshape(n, -1).T
    weight = np.full(len(words), n * math.log(spec.a))
    return CylinderTable(n, words, weight, weight)

