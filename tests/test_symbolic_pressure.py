"""Unit and property tests for symbolic_pressure.

Frozen constants used as oracles (analytic, base-a baker arithmetic):
    log 2           = 0.6931471805599453
    log 2 - log 3   = -0.4054651081081645
    log 2 / log 3   = 0.6309297535714574   (Bowen root, a=3 m=2)
    log 3 / log 5   = 0.6826061944859854   (Bowen root, a=5 m=3)
    1 - log2/log3   = 0.3690702464285426   (decay rate, a=3 m=2)
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from openmaps import disk_billiard
from openmaps.baker_classical import BakerSpec, cylinder_table
from openmaps.errors import EmptyTable, InsufficientDepths, NoSignChange, NotOpen
from openmaps.symbolic_pressure import (
    CylinderTable,
    Subshift,
    _logsumexp,
    _max_cycle_mean,
    bowen_dimension,
    classical_decay_rate,
    finite_pressure,
    full_shift,
    lyapunov_bounds,
    no_repeat_shift,
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


def constant_table(m, n, logj_per_step, t_per_step):
    shift = full_shift(m)
    entries = {w: (n * logj_per_step, n * t_per_step) for w in shift.words(n)}
    return CylinderTable(shift, n, entries)


# -- Subshift ---------------------------------------------------------------

def test_subshift_rejects_dead_symbols():
    trans = np.array([[True, True], [False, False]])
    with pytest.raises(ValueError):
        Subshift(2, trans)


def test_subshift_rejects_imprimitive_cycle():
    # pure 2-cycle: powers alternate, never all-positive
    trans = np.array([[False, True], [True, False]])
    with pytest.raises(ValueError):
        Subshift(2, trans)


def test_no_repeat_shift_words():
    shift = no_repeat_shift(3)
    assert len(shift.words(2)) == 6
    assert len(shift.words(4)) == 3 * 2 ** 3
    assert not shift.admissible((0, 0, 1))


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
    # 3 * 2^(n-1) admissible words, so p_n = log(3 * 2^(n-1)) / n
    shift = no_repeat_shift(3)
    for n in (2, 4, 6):
        entries = {w: (n * 1.0, n * 1.0) for w in shift.words(n)}
        table = CylinderTable(shift, n, entries)
        expect = math.log(3 * 2 ** (n - 1)) / n
        assert finite_pressure(table, 0.0, 0.0) == pytest.approx(expect, abs=1e-12)


def test_empty_table_raises():
    table = CylinderTable(full_shift(2), 2, {})
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


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def test_logsumexp_matches_scipy_on_three_disk_tables():
    tri = disk_billiard.DiskConfig(
        centers=((0.0, 0.0), (6.0, 0.0), (3.0, 3.0 * math.sqrt(3.0))),
        radii=(1.0, 1.0, 1.0))
    for n in range(4, 9):
        logj, t = disk_billiard.cylinder_table(tri, n).weight_arrays()
        for c_j in np.linspace(-2.0, 1.0, 13):
            for c_t in np.linspace(-1.0, 1.0, 9):
                a = c_j * logj + c_t * t
                assert same_bits(_logsumexp(a), logsumexp(a)), (n, c_j, c_t)


def test_logsumexp_matches_scipy_on_ties_and_edges():
    rng = np.random.default_rng(17)
    cases = [np.array([x]) for x in (0.0, -3.5, 710.0, -np.inf, np.inf)]
    for _ in range(2000):
        a = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), int(rng.integers(1, 300)))
        # repeated maxima, and repeats of other values
        a[rng.integers(0, a.size, int(rng.integers(0, 4)))] = a.max()
        a[rng.integers(0, a.size, int(rng.integers(0, 4)))] = a[0]
        cases.append(a)
        b = a.copy()
        b[rng.integers(0, b.size, int(rng.integers(1, b.size + 1)))] = -np.inf
        cases.append(b)
    cases += [np.full(5, -np.inf), np.array([np.inf, 1.0]), np.array([800.0, 800.0, -1.0])]
    for a in cases:
        assert same_bits(_logsumexp(a), logsumexp(a)), a


def test_weight_arrays_are_stored_read_only():
    table = constant_table(2, 3, 1.0, 2.0)
    logj, t = table.weight_arrays()
    assert table.weight_arrays()[0] is logj
    assert logj.tolist() == [v[0] for v in table.entries.values()]
    assert t.tolist() == [v[1] for v in table.entries.values()]
    with pytest.raises(ValueError):
        logj[0] = 0.0


@pytest.mark.parametrize("bad, message", [
    ({(0, 1, 2): (3.0, 3.0)}, "word (0, 1, 2) has length != 2"),
    ({(0, 0): (3.0, 3.0)}, "word (0, 0) not admissible"),
    ({(0, 3): (3.0, 3.0)}, "word (0, 3) not admissible"),
    ({(0, -1): (3.0, 3.0)}, "word (0, -1) not admissible"),
    ({(0, 1): (math.nan, 3.0)}, "non-finite weights for word (0, 1)"),
    ({(0, 1): (3.0, math.inf)}, "non-finite weights for word (0, 1)"),
    ({(0, 1): (1e-7, 3.0)}, "logJ((0, 1)) below hyperbolicity floor"),
    ({(0, 1): (3.0, 1e-7)}, "t((0, 1)) below return-time floor"),
    # the first bad word in table order is named, by its first failed check
    ({(1, 1): (math.nan, 3.0), (0, 1, 2): (3.0, 3.0)}, "word (1, 1) not admissible"),
    ({(1, 0): (3.0, 0.0), (2, 2): (math.nan, 3.0)}, "t((1, 0)) below return-time floor"),
], ids=["length", "repeat", "symbol_high", "symbol_low", "nan", "inf",
        "logj_floor", "t_floor", "first_word", "first_word_again"])
def test_table_checks_name_the_first_bad_word(bad, message):
    entries = {(2, 0): (3.0, 3.0), **bad}
    with pytest.raises(ValueError, match=re.escape(message)):
        CylinderTable(no_repeat_shift(3), 2, entries)


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
    shift = full_shift(2)
    tables = []
    for n in (3, 4, 5, 6):
        entries = {w: (n + c, n * 1.0) for w in shift.words(n)}
        tables.append(CylinderTable(shift, n, entries))
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
    tables = baker_tables(3, (0, 2), [2, 3, 4])
    with pytest.raises(NoSignChange):
        bowen_dimension(tables, s_bracket=(1.0, 2.0))


def test_bowen_consistency_at_deepest_table():
    tables = baker_tables(3, (0, 2), [2, 3, 4])
    s0 = bowen_dimension(tables)
    assert abs(finite_pressure(tables[-1], -s0, 0.0)) <= 10 * 1e-8


def test_classical_decay_rate_baker():
    gamma = classical_decay_rate(baker_tables(3, (0, 2), [2, 3, 4]))
    assert gamma == pytest.approx(GAMMA_CL_32, abs=1e-8)


def test_closed_baker_not_open():
    with pytest.raises(NotOpen):
        classical_decay_rate(baker_tables(2, (0, 1), [2, 3, 4]))


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


# -- lyapunov bounds --------------------------------------------------------

def brute_cycle_means(n_nodes, edges):
    """All simple-cycle mean weights by exhaustive DFS (small graphs only)."""
    adj = {}
    for u, v, w in edges:
        adj.setdefault(u, []).append((v, w))
    means = []

    def walk(path, total):
        u = path[-1]
        for v, w in adj.get(u, []):
            if v == path[0]:
                means.append((total + w) / len(path))
            elif v > path[0] and v not in path and len(path) < n_nodes:
                walk(path + [v], total + w)

    for start in range(n_nodes):
        walk([start], 0.0)
    return means


def test_max_cycle_mean_matches_brute_force_hand_graph():
    edges = [(0, 0, 1.0), (0, 1, 3.0), (1, 0, 5.0)]
    means = brute_cycle_means(2, edges)
    assert _max_cycle_mean(2, edges) == pytest.approx(max(means), abs=1e-12)
    assert -_max_cycle_mean(2, [(u, v, -w) for u, v, w in edges]) == pytest.approx(
        min(means), abs=1e-12
    )


@st.composite
def random_digraphs(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=4))
    pairs = [(u, v) for u in range(n_nodes) for v in range(n_nodes)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=8, unique=True)
    )
    weights = draw(
        st.lists(
            st.floats(min_value=-2, max_value=2, allow_nan=False),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    return n_nodes, [(u, v, w) for (u, v), w in zip(chosen, weights)]


@given(random_digraphs())
@settings(max_examples=200, deadline=None)
def test_max_cycle_mean_matches_brute_force_random(graph):
    n_nodes, edges = graph
    means = brute_cycle_means(n_nodes, edges)
    got = _max_cycle_mean(n_nodes, edges)
    if not means:
        assert got == -math.inf
    else:
        assert got == pytest.approx(max(means), abs=1e-9)


def test_lyapunov_bounds_baker_constant():
    table = cylinder_table(BakerSpec(3, (0, 2)), 2)
    lam_min, lam_max = lyapunov_bounds(table)
    assert lam_min == pytest.approx(LOG3, abs=1e-12)
    assert lam_max == pytest.approx(LOG3, abs=1e-12)


def test_lyapunov_bounds_baker_a4():
    table = cylinder_table(BakerSpec(4, (0, 3)), 2)
    lam_min, lam_max = lyapunov_bounds(table)
    assert lam_min == pytest.approx(math.log(4), abs=1e-12)
    assert lam_max == pytest.approx(math.log(4), abs=1e-12)


def test_lyapunov_bounds_hand_table():
    # edge weights logJ/2: (0,0)->1, (0,1)->3, (1,0)->5; cycles: loop 1, pair 4
    shift = full_shift(2)
    entries = {(0, 0): (2.0, 1.0), (0, 1): (6.0, 1.0), (1, 0): (10.0, 1.0)}
    table = CylinderTable(shift, 2, entries)
    lam_min, lam_max = lyapunov_bounds(table)
    assert lam_min == pytest.approx(1.0, abs=1e-12)
    assert lam_max == pytest.approx(4.0, abs=1e-12)


# -- properties -------------------------------------------------------------

@st.composite
def random_tables(draw):
    m = draw(st.integers(min_value=2, max_value=3))
    n = draw(st.integers(min_value=1, max_value=3))
    shift = full_shift(m)
    words = shift.words(n)
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
    entries = {w: (n * lj, n * t) for w, lj, t in zip(words, logjs, ts)}
    return CylinderTable(shift, n, entries)


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


@given(random_tables())
@settings(max_examples=100, deadline=None)
def test_cycle_mean_sandwich_on_rotation_invariant_tables(table):
    if table.n < 2:
        return
    # symmetrize weights over rotation classes so each word IS a cycle mean
    classes = {}
    for w in table.entries:
        rots = [w[i:] + w[:i] for i in range(table.n)]
        key = min(rots)
        classes.setdefault(key, []).extend([w])
    entries = {}
    for key, members in classes.items():
        lj = sum(table.entries[w][0] for w in members) / len(members)
        t = sum(table.entries[w][1] for w in members) / len(members)
        for w in members:
            entries[w] = (lj, t)
    sym = CylinderTable(table.subshift, table.n, entries)
    lam_min, lam_max = lyapunov_bounds(sym)
    for w, (lj, _t) in sym.entries.items():
        assert lam_min - 1e-9 <= lj / sym.n <= lam_max + 1e-9

