"""Unit and property tests for symbolic_pressure.

Frozen constants used as oracles (analytic, base-a baker arithmetic):
    log 2           = 0.6931471805599453
    log 2 - log 3   = -0.4054651081081645
    log 2 / log 3   = 0.6309297535714574   (Bowen root, a=3 m=2)
    log 3 / log 5   = 0.6826061944859854   (Bowen root, a=5 m=3)
    1 - log2/log3   = 0.3690702464285426   (decay rate, a=3 m=2)
"""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openmaps import disk_billiard
from openmaps.baker_classical import BakerSpec, cylinder_table
from openmaps.errors import EmptyTable, InsufficientDepths, NoSignChange, NotOpen
from openmaps.symbolic_pressure import (
    CylinderTable,
    _logsumexp,
    bowen_dimension,
    classical_decay_rate,
    finite_pressure,
    pressure,
    sigma_of_gamma,
)

LOG2 = 0.6931471805599453
LOG3 = 1.0986122886681098
D_H_32 = 0.6309297535714574
GAMMA_CL_32 = 0.3690702464285426


def baker_tables(a, alphabet, depths):
    spec = BakerSpec(a, tuple(alphabet))
    return [cylinder_table(spec, n) for n in depths]


def full_shift_words(m, n):
    """All m^n words of length n as an (m^n, n) array, lexicographic."""
    return np.array(list(itertools.product(range(m), repeat=n)))


def constant_table(m, n, logj_per_step, t_per_step):
    words = full_shift_words(m, n)
    return CylinderTable(n, words, np.full(len(words), n * logj_per_step),
                         np.full(len(words), n * t_per_step))


# -- finite_pressure --------------------------------------------------------

def test_zero_weight_full_2shift_gives_log2():
    table = constant_table(2, 3, 1e-6, 1e-6)   # weights at floor, coeffs 0
    assert finite_pressure(table, 0.0, 0.0) == pytest.approx(LOG2, abs=1e-12)


def test_baker_constant_weights_depth_independent():
    for n in (2, 3, 5):
        table = cylinder_table(BakerSpec(3, (0, 2)), n)
        p = finite_pressure(table, -1.0, 0.0)
        assert p == pytest.approx(LOG2 - LOG3, abs=1e-12)


def test_no_repeat_3shift_zero_weights():
    # 3 * 2^(n-1) words without an immediate repeat, so p_n = log(3 * 2^(n-1)) / n
    for n in (2, 4, 6):
        words = full_shift_words(3, n)
        words = words[(words[:, 1:] != words[:, :-1]).all(axis=1)]
        ones = np.ones(len(words))
        table = CylinderTable(n, words, n * ones, n * ones)
        expect = math.log(3 * 2 ** (n - 1)) / n
        assert finite_pressure(table, 0.0, 0.0) == pytest.approx(expect, abs=1e-12)


def test_empty_table_raises():
    table = CylinderTable(2, np.empty((0, 2), dtype=int), np.empty(0), np.empty(0))
    with pytest.raises(EmptyTable):
        finite_pressure(table, -1.0, 0.0)


def test_nonfinite_coefficients_rejected():
    table = constant_table(2, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        finite_pressure(table, math.inf, 0.0)


def test_logsumexp_guards_large_weights():
    # weights around 2000 per word would overflow a naive exp sum;
    # 4 words of weight 2000 give p = (2000 + log 4)/2 = 1000 + log 2
    table = constant_table(2, 2, 500.0, 1.0)
    p = finite_pressure(table, 2.0, 0.0)
    assert math.isfinite(p)
    assert p == pytest.approx(1000.0 + LOG2, abs=1e-9)


def logsumexp_oracle(a):
    """log(sum(exp(a))) in np.longdouble, the maximum taken out."""
    a = a.astype(np.longdouble)
    top = a.max()
    return top + np.log(np.exp(a - top).sum())


# Shifting by the maximum, summing the exps and taking the log each cost
# a few float64 rounding errors, of the size of |max a| + log(len a) at
# most; 2 ulps of that bounds them (the largest seen is 1.15).
LOGSUMEXP_ULPS = 2


def assert_logsumexp_near_oracle(a):
    scale = np.spacing(abs(float(a.max())) + math.log(a.size))
    err = abs(np.longdouble(_logsumexp(a)) - logsumexp_oracle(a))
    assert err <= LOGSUMEXP_ULPS * np.longdouble(scale), a


needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is no wider than float64 here")


@needs_long_double
def test_logsumexp_near_long_double_on_three_disk_tables():
    tri = disk_billiard.DiskConfig(
        centers=((0.0, 0.0), (6.0, 0.0), (3.0, 3.0 * math.sqrt(3.0))),
        radii=(1.0, 1.0, 1.0))
    for n in range(4, 9):
        table = disk_billiard.cylinder_table(tri, n)
        logj, t = table.logJ, table.t
        for c_j in np.linspace(-2.0, 1.0, 13):
            for c_t in np.linspace(-1.0, 1.0, 9):
                assert_logsumexp_near_oracle(c_j * logj + c_t * t)


@needs_long_double
def test_logsumexp_near_long_double_on_ties_and_edges():
    # every case has a finite maximum, as every pressure sum does
    rng = np.random.default_rng(17)
    cases = [np.array([x]) for x in (0.0, -3.5, 710.0)]
    for _ in range(2000):
        a = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), int(rng.integers(1, 300)))
        # repeated maxima, and repeats of other values
        a[rng.integers(0, a.size, int(rng.integers(0, 4)))] = a.max()
        a[rng.integers(0, a.size, int(rng.integers(0, 4)))] = a[0]
        cases.append(a)
        b = a.copy()
        b[rng.integers(0, b.size, int(rng.integers(1, b.size + 1)))] = -np.inf
        b[rng.integers(0, b.size)] = a.max()
        cases.append(b)
    cases += [np.array([800.0, 800.0, -1.0]), np.array([-np.inf, 2.0, -np.inf])]
    for a in cases:
        assert_logsumexp_near_oracle(a)


def test_logsumexp_equal_weights_are_exact():
    # m equal terms, as in the baker tables: the shifted exps are ones and
    # sum to m exactly, so the result is log m + top, rounded once
    for m in (1, 2, 3, 64, 3 * 2 ** 7):
        for top in (-700.0, -2.5, 0.0, 1.25, 709.0):
            assert _logsumexp(np.full(m, top)) == np.log(np.float64(m)) + top


def test_weight_arrays_are_stored_read_only():
    words = full_shift_words(2, 3)
    logj, t = np.arange(1.0, 9.0), np.arange(2.0, 10.0)
    table = CylinderTable(3, words, logj, t)
    assert np.array_equal(table.words, words)
    assert table.logJ.tolist() == logj.tolist() and table.t.tolist() == t.tolist()
    for stored in (table.words, table.logJ, table.t):
        with pytest.raises(ValueError):
            stored[0] = 0
    # the table keeps copies: the caller's arrays stay writeable and apart
    logj[0] = 5.0
    assert table.logJ[0] == 1.0
    # tables compare by identity, so == on array fields never runs
    assert table == table and table != CylinderTable(3, words, logj, t)


@pytest.mark.parametrize("words, logj, t, message", [
    ([(2, 0), (0, 1)], [3.0, math.nan], [3.0, 3.0], "non-finite weights for word (0, 1)"),
    ([(2, 0), (0, 1)], [3.0, 3.0], [3.0, math.inf], "non-finite weights for word (0, 1)"),
    ([(2, 0), (0, 1)], [3.0, 1e-7], [3.0, 3.0], "logJ((0, 1)) below hyperbolicity floor"),
    ([(2, 0), (0, 1)], [3.0, 3.0], [3.0, 1e-7], "t((0, 1)) below return-time floor"),
    # the first bad word in table order is named, by its first failed check
    ([(2, 0), (1, 2), (0, 1)], [3.0, 1e-7, math.nan], [3.0, math.inf, 3.0],
     "non-finite weights for word (1, 2)"),
    ([(2, 0), (1, 0), (2, 1)], [3.0, 3.0, math.nan], [3.0, 0.0, 3.0],
     "t((1, 0)) below return-time floor"),
    # six symbols would re-fold into three words of width 2: the width is checked
    ([(2, 0, 1), (0, 1, 2)], [3.0, 3.0], [3.0, 3.0],
     "need (m, 2) words and m (logJ, t) pairs, got shapes (2, 3), (2,), (2,)"),
    ([(2, 0), (0, 1)], [3.0], [3.0, 3.0],
     "need (m, 2) words and m (logJ, t) pairs, got shapes (2, 2), (1,), (2,)"),
    ([(2, 0), (0, 1)], [3.0, 3.0], [3.0],
     "need (m, 2) words and m (logJ, t) pairs, got shapes (2, 2), (2,), (1,)"),
    # a flat run of symbols is not read as words of width n
    ([2, 0, 0, 1], [3.0, 3.0], [3.0, 3.0],
     "need (m, 2) words and m (logJ, t) pairs, got shapes (4,), (2,), (2,)"),
], ids=["nan", "inf", "logj_floor", "t_floor", "first_word", "first_word_again",
        "width", "weight_count", "time_count", "flat_words"])
def test_table_checks_name_the_first_bad_word(words, logj, t, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        CylinderTable(2, np.array(words), np.array(logj), np.array(t))


@pytest.mark.parametrize("n, message", [
    (0, "depth n >= 1"),
], ids=["depth"])
def test_table_rejects_bad_depth_and_floors(n, message):
    words = full_shift_words(2, max(n, 1))
    with pytest.raises(ValueError, match=re.escape(message)):
        CylinderTable(n, words, np.full(len(words), 3.0), np.full(len(words), 3.0))


# -- pressure extrapolation -------------------------------------------------

def test_pressure_requires_three_depths():
    tables = baker_tables(3, (0, 2), [2, 3])
    with pytest.raises(InsufficientDepths):
        pressure(tables, -1.0, 0.0)


def test_pressure_constant_weights_baker():
    est = pressure(baker_tables(3, (0, 2), [2, 3, 4, 5]), -1.0, 0.0)
    assert est.value == pytest.approx(LOG2 - LOG3, abs=1e-10)
    assert est.uncertainty == pytest.approx(0.0, abs=1e-10)
    assert [n for n, _ in est.per_depth] == [2, 3, 4, 5]


def test_pressure_recovers_exact_c_over_n_law():
    # logJ(w) = n + c per word makes p_n = (log2 + 1) + c/n exactly at coeff_J=1
    c = 0.3
    tables = []
    for n in (3, 4, 5, 6):
        words = full_shift_words(2, n)
        tables.append(CylinderTable(n, words, np.full(len(words), n + c),
                                    np.full(len(words), n * 1.0)))
    est = pressure(tables, 1.0, 0.0)
    assert est.value == pytest.approx(LOG2 + 1.0, abs=1e-12)
    assert est.uncertainty == pytest.approx(c / 6, abs=1e-12)


# -- roots ------------------------------------------------------------------

def test_bowen_dimension_baker_32():
    s0 = bowen_dimension(baker_tables(3, (0, 2), [2, 3, 4]))
    assert s0 == pytest.approx(D_H_32, abs=1e-8)


def test_bowen_dimension_baker_53():
    s0 = bowen_dimension(baker_tables(5, (0, 2, 4), [2, 3, 4]))
    assert s0 == pytest.approx(math.log(3) / math.log(5), abs=1e-8)


def test_bowen_bad_bracket_raises():
    # logJ = 0.1 n on the full 3-shift: P(-s logJ) = log 3 - 0.1 s has its
    # root at s = 10 log 3, past the bracket [0, 2]
    tables = [constant_table(3, n, 0.1, 1.0) for n in (2, 3, 4)]
    with pytest.raises(NoSignChange):
        bowen_dimension(tables)


def test_bowen_consistency_at_deepest_table():
    tables = baker_tables(3, (0, 2), [2, 3, 4])
    s0 = bowen_dimension(tables)
    assert abs(finite_pressure(tables[-1], -s0, 0.0)) <= 10 * 1e-8


def test_classical_decay_rate_baker():
    gamma = classical_decay_rate(baker_tables(3, (0, 2), [2, 3, 4]))
    assert gamma == pytest.approx(GAMMA_CL_32, abs=1e-8)


@pytest.mark.parametrize("a, depths", [
    (2, [2, 3, 4]), (3, [4, 5, 6]), (3, [3, 4, 5]), (3, [4, 5, 6, 7]), (3, [1, 2, 5]),
    (5, [3, 4, 5]), (5, [2, 3, 4]), (7, [1, 2, 3]), (7, [2, 3, 4]),
])
def test_closed_baker_not_open(a, depths):
    # P(-logJ) = 0 exactly, computed as a round-off of either sign
    with pytest.raises(NotOpen):
        classical_decay_rate(baker_tables(a, tuple(range(a)), depths))


# -- sigma ------------------------------------------------------------------

def test_sigma_at_zero_baker():
    tables = baker_tables(3, (0, 2), [2, 3, 4])
    val = sigma_of_gamma(tables, 0.0, LOG3)
    assert val == pytest.approx((1 - D_H_32) / 6, abs=1e-10)


def test_sigma_quarter_decay_rate():
    tables = baker_tables(3, (0, 2), [2, 3, 4])
    val = sigma_of_gamma(tables, GAMMA_CL_32 / 4, LOG3)
    assert val == pytest.approx(GAMMA_CL_32 / 12, abs=1e-10)


def test_sigma_clamps_to_zero_at_half_decay_rate():
    tables = baker_tables(3, (0, 2), [2, 3, 4])
    gamma_cl = classical_decay_rate(tables)
    for gamma in (gamma_cl / 2, gamma_cl, 2 * gamma_cl):
        assert sigma_of_gamma(tables, gamma, LOG3) == 0.0


def test_sigma_rejects_bad_args():
    tables = baker_tables(3, (0, 2), [2, 3, 4])
    with pytest.raises(ValueError):
        sigma_of_gamma(tables, -0.1, LOG3)
    with pytest.raises(ValueError):
        sigma_of_gamma(tables, 0.1, 0.0)


# -- properties -------------------------------------------------------------

@st.composite
def random_tables(draw):
    m = draw(st.integers(min_value=2, max_value=3))
    n = draw(st.integers(min_value=1, max_value=3))
    words = full_shift_words(m, n)
    logjs = draw(
        st.lists(
            st.floats(min_value=0.2, max_value=3.0),
            min_size=len(words),
            max_size=len(words),
        )
    )
    ts = draw(
        st.lists(
            st.floats(min_value=0.2, max_value=4.0),
            min_size=len(words),
            max_size=len(words),
        )
    )
    return CylinderTable(n, words, n * np.array(logjs), n * np.array(ts))


@given(random_tables(), st.floats(min_value=-2, max_value=2), st.floats(min_value=0.1, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_pressure_monotone_in_coefficients(table, base, step):
    # logJ, t > 0 per word, so the weight (and the pressure) grows with
    # either coefficient; equivalently p is decreasing in s = -coeff_J
    p0 = finite_pressure(table, base, 0.5)
    assert finite_pressure(table, base + step, 0.5) > p0
    assert finite_pressure(table, base, 0.5 + step) > p0


@given(
    st.integers(min_value=2, max_value=3),
    st.floats(min_value=0.3, max_value=2.0),
    st.floats(min_value=0.3, max_value=2.0),
)
@settings(max_examples=50, deadline=None)
def test_constant_weight_pressure_depth_independent(m, c1, c2):
    ps = [
        finite_pressure(constant_table(m, n, c1, c2), -0.7, 0.3) for n in (1, 2, 4)
    ]
    assert max(ps) - min(ps) <= 1e-12
