"""Tests for the open baker map.

Exactness checks run on Fractions (the map is rational-affine); float
paths are tested against the same values at machine tolerance.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from openmaps.baker_classical import (
    BakerSpec,
    TorusPoint,
    cylinder_table,
    forward,
)
from openmaps.symbolic_pressure import finite_pressure

SPEC32 = BakerSpec(3, (0, 2))


def test_spec_validation():
    with pytest.raises(ValueError):
        BakerSpec(1, (0,))
    with pytest.raises(ValueError):
        BakerSpec(3, ())
    with pytest.raises(ValueError):
        BakerSpec(3, (0, 3))
    with pytest.raises(ValueError):
        BakerSpec(3, (0, 0))
    assert BakerSpec(3, (2, 0)).alphabet == (0, 2)


def test_forward_removed_strip():
    assert forward(SPEC32, TorusPoint(0.5, 0.5)) is None


def test_forward_branch_j0_exact():
    p = TorusPoint(Fraction(1, 10), Fraction(0))
    q = forward(SPEC32, p)
    assert (q.x, q.xi) == (Fraction(3, 10), Fraction(0))


def test_forward_branch_j2_exact():
    p = TorusPoint(Fraction(9, 10), Fraction(3, 10))
    q = forward(SPEC32, p)
    assert (q.x, q.xi) == (Fraction(7, 10), Fraction(23, 30))


def test_forward_float_matches_exact():
    q = forward(SPEC32, TorusPoint(0.9, 0.3))
    assert q.x == pytest.approx(0.7, abs=1e-14)
    assert q.xi == pytest.approx(23 / 30, abs=1e-14)


@given(st.integers(min_value=0, max_value=3 ** 6 - 1))
@settings(max_examples=20, deadline=None)
def test_forward_exact_on_rationals(num_xi):
    # every x of the 3^6 grid, strip boundaries included: (3x - j, (xi + j)/3)
    # in kept strip j = floor(3x), else None
    xi = Fraction(num_xi, 3 ** 6)
    for num_x in range(3 ** 6):
        x, j = Fraction(num_x, 3 ** 6), 3 * num_x // 3 ** 6
        q = forward(SPEC32, TorusPoint(x, xi))
        if j in SPEC32.alphabet:
            assert (q.x, q.xi) == (3 * x - j, (xi + j) / 3)
        else:
            assert q is None


def torus_dist(u, v):
    d = abs(u - v) % 1
    return min(d, 1 - d)


@given(st.floats(min_value=0, max_value=1, exclude_max=True),
       st.floats(min_value=0, max_value=1, exclude_max=True))
@settings(max_examples=200, deadline=None)
def test_forward_floats_match_exact(x, xi):
    # strip boundaries are measure zero and classified by the guard band;
    # away from them the float step is the exact step of the same floats.
    # Distances are taken on the torus: (xi + j)/a can round up to 1.0,
    # which reduces to the seam point 0.0
    assume(abs(x * 3 - round(x * 3)) > 5e-14)
    q, exact = forward(SPEC32, TorusPoint(x, xi)), forward(
        SPEC32, TorusPoint(Fraction(x), Fraction(xi)))
    assert (q is None) == (exact is None)
    if q is not None:
        assert torus_dist(q.x, exact.x) <= 1e-15
        assert torus_dist(q.xi, exact.xi) <= 1e-15


def test_forward_float_seam_wrap():
    # xi just below 1 in the top kept strip: the float image rounds to 1.0
    # and wraps to 0.0, a torus distance of one rounding from the exact image
    xi = 0.9999999999999998
    q = forward(SPEC32, TorusPoint(0.75, xi))
    exact = forward(SPEC32, TorusPoint(Fraction(0.75), Fraction(xi)))
    assert q.xi == 0.0 and exact.xi < 1
    assert torus_dist(q.xi, exact.xi) <= 1e-15


def test_forward_image_avoids_removed_xi_strip():
    # strip j is written into xi's leading digit: every exact image of the
    # 3^4 grid has xi in [j/3, (j+1)/3) for a kept j, never in the removed one
    for num_x, num_xi in itertools.product(range(3 ** 4), repeat=2):
        p = TorusPoint(Fraction(num_x, 3 ** 4), Fraction(num_xi, 3 ** 4))
        q = forward(SPEC32, p)
        if q is not None:
            assert int(3 * q.xi) == 3 * num_x // 3 ** 4
            assert int(3 * q.xi) in SPEC32.alphabet


def test_closed_map_forward_total():
    # with every strip kept, no point is removed
    spec = BakerSpec(2, (0, 1))
    for x in (0.0, 0.25, 0.5, 0.6, 0.99, 0.9999999999999999):
        for xi in (0.0, 0.49, 0.51, 0.875):
            assert forward(spec, TorusPoint(x, xi)) is not None


def test_seam_points_do_not_crash():
    # adversarial floats next to the torus seam and the strip boundaries
    # classify deterministically, into the unit square
    for x in (0.9999999999999999, 1e-16, 1 / 3, math.nextafter(1 / 3, 0),
              0.6666666666666666, math.nextafter(2 / 3, 1)):
        for xi in (0.0, 0.75, 0.9999999999999999):
            q = forward(SPEC32, TorusPoint(x, xi))
            assert q == forward(SPEC32, TorusPoint(x, xi))
            if q is not None:
                assert 0.0 <= q.x < 1.0 and 0.0 <= q.xi < 1.0


def test_area_preservation_affine_image():
    # box inside strip j maps to a box of identical area (a*wx) x (wxi/a)
    spec = SPEC32
    x0, xi0, wx, wxi = 0.70, 0.20, 0.02, 0.13
    lo = forward(spec, TorusPoint(x0, xi0))
    hi = forward(spec, TorusPoint(x0 + wx, xi0 + wxi))
    area = (hi.x - lo.x) * (hi.xi - lo.xi)
    assert area == pytest.approx(wx * wxi, abs=1e-12)


# -- cylinder tables --------------------------------------------------------

def test_cylinder_table_baker_32():
    table = cylinder_table(SPEC32, 2)
    assert table.words.shape == (4, 2)
    for logj, t in zip(table.logJ, table.t):
        assert logj == pytest.approx(2 * math.log(3), abs=1e-15)
        assert t == pytest.approx(2 * math.log(3), abs=1e-15)


def test_cylinder_table_a4():
    table = cylinder_table(BakerSpec(4, (1, 3)), 1)
    assert table.words.shape == (2, 1)
    for logj in table.logJ:
        assert logj == pytest.approx(math.log(4), abs=1e-15)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_cylinder_table_words_are_the_digit_product(m):
    # every digit string, lexicographic: the full shift's words in order
    spec = BakerSpec(m + 1, tuple(range(m)))
    for n in range(1, 6):
        words = cylinder_table(spec, n).words
        assert words.tolist() == [list(w) for w in itertools.product(range(m), repeat=n)]


def test_cylinder_table_needs_two_symbols():
    with pytest.raises(ValueError, match="at least 2 alphabet symbols"):
        cylinder_table(BakerSpec(3, (1,)), 2)
    with pytest.raises(ValueError):
        cylinder_table(SPEC32, 0)


def test_cylinder_table_pressure_consistency():
    table = cylinder_table(SPEC32, 3)
    p = finite_pressure(table, -1.0, 0.0)
    assert p == pytest.approx(math.log(2) - math.log(3), abs=1e-12)
