import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from refusal import refused
from sft_oracles import (
    _matpow,
    _trace,
    det_shifted,
    divisors,
    is_primitive_wielandt,
    min_principal_minor,
    mobius,
    roots_above,
    sturm_entropy_gap,
    sturm_perron_bracket,
    sturm_sequence,
    tower_census,
    tr_n,
)

from camshift import hierarchy, sft
from camshift.errors import BudgetExceeded, CamshiftError

GOLDEN = [[1, 1], [1, 0]]
FULL2 = [[2]]

# dimension <= 4, entries <= 2, spectral radius small enough to enumerate
CATALOG = [
    [[1]],
    [[2]],
    [[1, 1], [1, 0]],
    [[0, 1], [1, 0]],
    [[1, 1], [1, 1]],
    [[0, 2], [1, 0]],
    [[1, 2], [1, 0]],
    [[2, 1], [1, 1]],
    [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
    [[0, 1, 0], [0, 0, 2], [1, 0, 0]],
    [[1, 1, 0], [0, 0, 1], [1, 0, 0]],
    [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
    [[0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1], [1, 1, 0, 0]],
]


def square_matrices(max_dim, max_entry):
    return st.integers(1, max_dim).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(0, max_entry), min_size=d, max_size=d), min_size=d, max_size=d
        )
    )


def random_catalog(count=50, seed=20260810):
    """Seeded random matrices (dim 2..4, entries <= 2) kept enumerable."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        dim = rng.randint(2, 4)
        rows = tuple(
            tuple(rng.choices((0, 1, 2), weights=(11, 7, 2))[0] for _ in range(dim))
            for _ in range(dim)
        )
        if sft.trace_power(rows, 10) > 20_000:
            continue
        found.append([list(r) for r in rows])
    return found


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(4) == 0
    assert mobius(6) == 1
    assert [mobius(n) for n in (2, 3, 12, 30)] == [-1, -1, 0, -1]


def test_tr_n_examples():
    assert tr_n(FULL2, 1) == 2
    assert tr_n(FULL2, 2) == 2
    assert tr_n(GOLDEN, 2) == 2
    assert tr_n(GOLDEN, 3) == 3


def test_census_golden_mean():
    assert sft.census(GOLDEN, 3) == {1: 1, 2: 2, 3: 3}
    for n_max in (0, -3):
        with refused("n_max must be at least 1"):
            sft.census(GOLDEN, n_max)


@given(square_matrices(4, 3), st.integers(1, 24))
@settings(max_examples=60, deadline=None)
def test_census_matches_tr_n(matrix, n_max):
    # the one trace sequence against fresh per-divisor matrix powers
    table = sft.census(matrix, n_max)
    assert list(table) == list(range(1, n_max + 1))
    assert all(table[n] == tr_n(matrix, n) for n in table)


@given(square_matrices(3, 2), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_census_equals_tr_n_to_forty(matrix, n_max):
    table = sft.census(matrix, n_max)
    assert all(table[n] == tr_n(matrix, n) for n in range(1, n_max + 1))


def test_census_divisor_sums_are_traces_to_3000():
    # sum over k | n of q_k = tr(A^n), with the traces from plain successive
    # products and the divisors from trial division
    n_max = 3000
    for matrix in (GOLDEN, *random_catalog(3, seed=20261019)):
        table = sft.census(matrix, n_max)
        power = matrix
        for n in range(1, n_max + 1):
            assert sum(table[k] for k in divisors(n)) == _trace(power), (matrix, n)
            power = sft._matmul(power, matrix)


def test_census_of_one_loop_to_10_5():
    # one fixed point and nothing else: each q_k is subtracted from its multiples once
    table = sft.census([[1]], 10**5)
    assert len(table) == 10**5 and table[1] == 1
    assert not any(table[n] for n in range(2, 10**5 + 1))


def test_least_periods_inverts_divisor_sums():
    values = [7, 1, 5, -2, 0, 9, 4, 3]
    q = sft._least_periods(values, 7)
    assert q[0] == 7 and values == [7, 1, 5, -2, 0, 9, 4, 3]  # the input is left as it was
    assert all(sum(q[k] for k in divisors(n)) == values[n] for n in range(1, 8))


def test_brute_examples():
    assert sft.brute_periodic_points(FULL2, 1) == 2
    assert sft.brute_periodic_points(GOLDEN, 1) == 1


def test_brute_guard():
    with pytest.raises(BudgetExceeded):
        sft.brute_periodic_points([[2]], 13)
    with pytest.raises(BudgetExceeded):
        sft.brute_periodic_points([[2, 2], [2, 2]], 12)


def test_census_matches_brute_on_catalog():
    for matrix in CATALOG:
        for n in range(1, 11):
            assert tr_n(matrix, n) == sft.brute_periodic_points(matrix, n), (matrix, n)


def test_census_matches_brute_on_random_matrices():
    for matrix in random_catalog():
        for n in range(1, 11):
            assert tr_n(matrix, n) == sft.brute_periodic_points(matrix, n), (matrix, n)


def test_mobius_round_trip():
    for matrix in CATALOG:
        for n in range(1, 13):
            total = sum(tr_n(matrix, d) for d in divisors(n))
            assert total == sft.trace_power(matrix, n)


@given(st.integers(min_value=1, max_value=400))
@settings(max_examples=120, deadline=None)
def test_mobius_square_factor(n):
    # mu vanishes exactly on numbers with a squared prime factor
    squarefree = all(n % (p * p) != 0 for p in range(2, int(n**0.5) + 1))
    assert (mobius(n) != 0) == squarefree


# -- Perron ---------------------------------------------------------------------


def test_perron_examples():
    exact = sft.perron_eigenvalue(FULL2)
    assert exact.lower == exact.upper == 2 and exact.iterations == 0
    golden = sft.perron_eigenvalue(GOLDEN)
    assert 0 < golden.upper - golden.lower <= sft._PERRON_WIDTH
    # phi is the root of x^2 - x - 1 above 1
    assert golden.lower**2 - golden.lower - 1 < 0 < golden.upper**2 - golden.upper - 1
    assert golden.primitive
    swap = sft.perron_eigenvalue([[0, 1], [1, 0]])
    assert swap.lower == swap.upper == 1
    assert not swap.primitive


def test_perron_bracket_and_range_bounds():
    matrices = ([[1, 1], [1, 0]], [[2, 1], [1, 1]], [[0, 2], [1, 0]], [[1, 2], [2, 1]], *CATALOG)
    for matrix in matrices:
        result = sft.perron_eigenvalue(matrix)
        assert isinstance(result.lower, Fraction) and isinstance(result.upper, Fraction)
        assert result.upper - result.lower <= sft._PERRON_WIDTH
        # lower <= lambda <= upper, checked exactly on the principal minors
        assert min_principal_minor(matrix, result.lower) <= 0
        assert min_principal_minor(matrix, result.upper) >= 0
        assert min(map(sum, matrix)) <= result.lower <= result.upper <= max(map(sum, matrix))


@given(square_matrices(4, 3))
@settings(max_examples=60, deadline=None)
def test_perron_bracket_contains_numpy_radius(matrix):
    if not sft.is_irreducible(matrix):
        with refused("matrix is not irreducible"):
            sft.perron_eigenvalue(matrix)
        return
    result = sft.perron_eigenvalue(matrix)
    radius = max(abs(np.linalg.eigvals(np.array(matrix, dtype=float))))
    slack = 1e-9 * max(1.0, radius)  # float rounding of eigvals, not of the bracket
    assert float(result.lower) - slack <= radius <= float(result.upper) + slack


@given(square_matrices(4, 3))
@example([[0, 1], [1, 0]])  # lambda = 1, period 2: the bracket closes at once
@example([[0, 1], [2, 0]])  # lambda = sqrt 2, period 2
@example([[1, 1], [1, 0]])
@settings(max_examples=80, deadline=None)
def test_perron_bracket_matches_the_sturm_bisection(matrix):
    # the sign test keeps the same half at every step as a Sturm count did
    if not sft.is_irreducible(matrix):
        return
    result = sft.perron_eigenvalue(matrix)
    assert (result.lower, result.upper, result.iterations) == sturm_perron_bracket(matrix)


def test_perron_rejects_reducible():
    for matrix in ([[1, 1], [0, 1]], [[0]]):
        with refused("matrix is not irreducible"):
            sft.perron_eigenvalue(matrix)


def test_zero_one_by_one_is_not_irreducible():
    # [[0]] has no closed walk; a loop makes a 1x1 matrix irreducible
    assert not sft.is_irreducible([[0]])
    assert sft.is_irreducible([[1]]) and sft.is_irreducible([[3]])
    for call in (
        lambda: sft.perron_eigenvalue([[0]]),
        lambda: sft.embedding_feasibility([[0]], 1, 4),
        lambda: sft.smallest_feasible_height([[0]], 4),
    ):
        with refused("matrix is not irreducible"):
            call()


# -- characteristic polynomial and Sturm count -------------------------------------


@given(square_matrices(5, 4))
@settings(max_examples=80, deadline=None)
def test_charpoly_matches_determinant(matrix):
    coeffs = sft._charpoly(tuple(map(tuple, matrix)))
    assert len(coeffs) == len(matrix) + 1 and coeffs[0] == 1
    for x in range(-1, len(matrix) + 1):
        value = 0
        for c in coeffs:
            value = value * x + c
        assert value == det_shifted(matrix, x)


@given(square_matrices(5, 3))
@example([[0, 1], [0, 0]])  # nilpotent
@example([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
@example([[1, 1], [0, 1]])  # reducible, with a Jordan block
@example([[0]])
@example([[3]])
@settings(max_examples=80, deadline=None)
def test_traces_match_matrix_powers(matrix):
    # the Cayley-Hamilton recurrence against powers built by repeated squaring
    d = len(matrix)
    traces = list(itertools.islice(sft._traces(matrix), 3 * d + 6))
    assert traces == [_trace(_matpow(matrix, n)) for n in range(3 * d + 6)]


@given(square_matrices(4, 3), st.integers(1, 5))
@example([[0, 1], [0, 0]], 2)
@example([[1, 1], [1, 0]], 3)
@settings(max_examples=60, deadline=None)
def test_newton_of_power_sums_is_charpoly_of_power(matrix, m):
    # chi_(A^m) from the power sums tr(A^m), tr(A^2m), ..., tr(A^dm)
    d = len(matrix)
    traces = list(itertools.islice(sft._traces(matrix), d * m + 1))
    coeffs = sft._newton(traces[::m])
    assert len(coeffs) == d + 1 and coeffs[0] == 1
    power = _matpow(matrix, m)
    for x in range(-1, d):
        assert sum(c * x ** (d - i) for i, c in enumerate(coeffs)) == det_shifted(power, x)


@given(square_matrices(5, 2))
@example([[1, 0], [0, 1]])  # aperiodic cycles, but not irreducible
@example([[0, 1], [1, 0]])  # period 2
@example([[0]])
@settings(max_examples=200, deadline=None)
def test_is_primitive_matches_wielandt(matrix):
    # perron_eigenvalue reports primitivity for irreducible matrices only
    if sft.is_irreducible(matrix):
        assert sft.perron_eigenvalue(matrix).primitive == is_primitive_wielandt(matrix)
    else:
        assert not is_primitive_wielandt(matrix)
        with refused("matrix is not irreducible"):
            sft.perron_eigenvalue(matrix)


def test_one_trace_sequence_per_call(monkeypatch):
    # every entry point draws t_1..t_d with d - 1 products and nothing else
    # multiplies; a height search on a cycle (every row sum 1) draws none
    products = []
    matmul = sft._matmul
    monkeypatch.setattr(sft, "_matmul", lambda X, Y: products.append(1) or matmul(X, Y))

    def smallest(A):
        return sft.smallest_feasible_height(A, 20, 8)

    calls = (
        lambda A: sft.census(A, 40),
        lambda A: sft.embedding_feasibility(A, 3, 20),
        smallest,
        sft.perron_eigenvalue,
    )
    for matrix in CATALOG:
        cycle = all(sum(row) == 1 for row in matrix)
        for call in calls:
            products.clear()
            call(matrix)
            expected = 0 if cycle and call is smallest else len(matrix) - 1
            assert len(products) == expected, (matrix, call)


@given(square_matrices(4, 3), st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_entropy_gap_matches_principal_minors(matrix, m):
    # lambda(A^m) > 2 iff some principal minor of 2I - A^m is negative
    power = _matpow(tuple(map(tuple, matrix)), m)
    traces = list(itertools.islice(sft._traces(matrix), len(matrix) * m + 1))
    assert sft._entropy_gap(traces, m) == (min_principal_minor(power, 2) < 0)


@given(square_matrices(4, 3), st.integers(1, 8))
@example([[0, 1], [2, 0]], 2)  # imprimitive, lambda^2 = 2 exactly
@example([[0, 1, 0], [0, 0, 1], [2, 0, 0]], 3)  # period 3, lambda^3 = 2 exactly
@example([[2, 1], [0, 2]], 1)  # reducible, a Jordan block at 2
@example([[2, 0], [0, 3]], 1)  # reducible, one eigenvalue above 2
@example([[1, 1], [0, 0]], 5)  # reducible, lambda = 1
@example([[0, 0], [0, 0]], 4)  # nilpotent
@settings(max_examples=200, deadline=None)
def test_entropy_gap_matches_the_sturm_count(matrix, m):
    # the shifted-polynomial sign test against a Sturm count on chi of A^m
    traces = list(itertools.islice(sft._traces(matrix), len(matrix) * m + 1))
    assert sft._entropy_gap(traces, m) == sturm_entropy_gap(matrix, m)


def test_radius_test_is_exact_at_a_root():
    # (x - 2)^2: rho = 2 is not above 2, and is above any rational below it
    assert not sft._radius_exceeds([1, -4, 4], 2)
    assert sft._radius_exceeds([1, -4, 4], Fraction(2**41 - 1, 2**40))
    assert not sft._radius_exceeds([1, -4, 4], Fraction(2**41 + 1, 2**40))
    # x^2 - x - 1 for the golden mean: 8/5 < phi < 13/8, and phi > 0
    golden = [1, -1, -1]
    assert sft._radius_exceeds(golden, Fraction(8, 5))
    assert not sft._radius_exceeds(golden, Fraction(13, 8))
    assert sft._radius_exceeds(golden, 0)
    # (x - 2)^2 (x^2 - 12x + 16): a double root at 2, and 6 + sqrt 20 ~ 10.47
    chi = [1, -16, 68, -112, 64]
    assert sft._radius_exceeds(chi, 2) and sft._radius_exceeds(chi, Fraction(1047, 100))
    assert not sft._radius_exceeds(chi, Fraction(1048, 100))


def test_no_entry_point_builds_a_sturm_chain():
    # every eigenvalue question of census, embedding and Perron is one sign
    # test, and the parameter solver's root finder bisects between the
    # derivative's roots; a profiler records every Python call whose
    # function bears a chain name
    chain = {"sturm_sequence", "roots_above", "_pseudo_divide"}
    calls = []

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_name in chain:
            calls.append(frame.f_code.co_name)

    def profiled(run):
        sys.setprofile(record)
        try:
            run()
        finally:
            sys.setprofile(None)

    def entry_points():
        for matrix in CATALOG + random_catalog(20):
            sft.census(matrix, 40)
            if sft.is_irreducible(matrix):
                sft.embedding_feasibility(matrix, 3, 20)
                sft.smallest_feasible_height(matrix, 20, 8)
                sft.perron_eigenvalue(matrix)
        # (n - 2)^2 (n^2 - 12n + 16) and (3n - 7)(n + 5), lowest degree first
        for p in ([64, -112, 68, -16, 1], [-35, 8, 3]):
            hierarchy._root_ceilings(p)

    profiled(entry_points)
    assert calls == []
    # the recorder sees the chain where it is built: the test oracle
    profiled(lambda: roots_above(sturm_sequence([1, -16, 68, -112, 64]), 2))
    assert set(calls) == {"sturm_sequence", "roots_above", "_pseudo_divide"}


@pytest.mark.parametrize(
    "matrix, height, status",
    [
        ([[0, 1], [2, 0]], 2, "fail"),  # lambda^2 = 2 exactly
        ([[0, 1, 0], [0, 0, 1], [2, 0, 0]], 3, "fail"),  # lambda^3 = 2 exactly
        # chi_{A^2} = (x - 2)^2 (x^2 - 12x + 16): 2 is a double root, lambda^2 ~ 10.47
        ([[0, 0, 0, 2], [0, 0, 2, 1], [1, 2, 0, 0], [1, 0, 1, 2]], 2, "pass"),
        ([[2]], 1, "fail"),
        (GOLDEN, 2, "pass"),
        ([[0, 1], [2, 0]], 3, "pass"),
        ([[2]], 2, "pass"),
        ([[1, 1], [1, 1]], 1, "fail"),  # lambda = 2 beside the eigenvalue 0
    ],
)
def test_entropy_status_exact_cases(matrix, height, status):
    assert sft.embedding_feasibility(matrix, height, 2 * height).entropy_status == status


def test_squarefree_step_removes_the_double_root():
    power = _matpow(((0, 0, 0, 2), (0, 0, 2, 1), (1, 2, 0, 0), (1, 0, 1, 2)), 2)
    chi = sft._charpoly(power)
    assert chi == [1, -16, 68, -112, 64]  # (x - 2)^2 (x^2 - 12x + 16)
    seq = sturm_sequence(chi)
    assert len(seq[0]) == 4  # degree 3: (x - 2)(x^2 - 12x + 16) up to a positive scale
    # roots 6 - sqrt(20) ~ 1.53, 2 and 6 + sqrt(20) ~ 10.47, each counted once
    points = (0, Fraction(8, 5), 2, 10, 11)
    assert [roots_above(seq, x) for x in points] == [3, 2, 1, 1, 0]


# -- embedding feasibility ---------------------------------------------------------


def test_entropy_condition_full_shift_m1_fails():
    report = sft.embedding_feasibility(FULL2, 1, 6)
    assert report.entropy_status == "fail"  # log 2 < log 2 is false


def test_entropy_condition_golden():
    assert sft.embedding_feasibility(GOLDEN, 1, 6).entropy_status == "fail"
    report = sft.embedding_feasibility(GOLDEN, 2, 12)
    assert report.entropy_status == "pass"
    assert report.entropy_lhs == pytest.approx(math.log(2) / 2)


def test_tower_rows_without_divisibility_pass():
    report = sft.embedding_feasibility(GOLDEN, 2, 11)
    for n, tower, _target, ok in report.periodic_rows:
        if n % 2 != 0:
            assert tower == 0 and ok


def _tower_column(m, n_max):
    """The tower counts of the height-m report to n_max (1-based)."""
    rows = sft.embedding_feasibility(GOLDEN, m, n_max).periodic_rows
    assert [n for n, *_ in rows] == list(range(1, n_max + 1))
    return [None] + [tower for _, tower, _, _ in rows]


@given(st.integers(1, 12), st.integers(1, 72))
@settings(max_examples=150, deadline=None)
def test_tower_census_closed_form(m, n):
    expected = m * tr_n(FULL2, n // m) if n % m == 0 else 0
    assert _tower_column(m, max(m, n))[n] == tower_census(m, n) == expected


def test_tower_census_identity():
    # summed least-period counts of the tower match m times the base prefix
    for m in (2, 3, 5):
        for n_cap in (6, 12):
            column = _tower_column(m, m * n_cap)
            assert column[1:] == [tower_census(m, n) for n in range(1, m * n_cap + 1)]
            base = sum(tr_n(FULL2, j) for j in range(1, n_cap + 1))
            assert sum(column[1:]) == m * base


def test_smallest_feasible_height_golden():
    m = sft.smallest_feasible_height(GOLDEN, 30)
    assert m == 5
    assert sft.embedding_feasibility(GOLDEN, m, 30).feasible
    for smaller in range(1, m):
        assert not sft.embedding_feasibility(GOLDEN, smaller, 30).feasible


def _outcome(call):
    try:
        return call()
    except CamshiftError as exc:
        return type(exc), str(exc)


@given(square_matrices(3, 3), st.integers(1, 12), st.integers(1, 20))
@example(GOLDEN, 2, 10)  # first feasible height 5, past n_max
@settings(max_examples=40, deadline=None)
def test_smallest_height_is_first_feasible(matrix, n_max, cap):
    def first_feasible():
        for m in range(1, cap + 1):
            if sft.embedding_feasibility(matrix, m, max(n_max, m)).feasible:
                return m
        return None

    assert _outcome(lambda: sft.smallest_feasible_height(matrix, n_max, cap)) == _outcome(
        first_feasible
    )


def test_smallest_height_builds_no_census_past_reach(monkeypatch):
    products, terms = [], []
    matmul, traces = sft._matmul, sft._traces
    monkeypatch.setattr(sft, "_matmul", lambda X, Y: products.append(1) or matmul(X, Y))

    def counted(rows):
        for t in traces(rows):
            terms.append(t)
            yield t

    monkeypatch.setattr(sft, "_traces", counted)

    def search(n_max, cap):
        products.clear()
        terms.clear()
        return sft.smallest_feasible_height(GOLDEN, n_max, cap), len(terms), len(products)

    # GOLDEN (d = 2) is first feasible at height 5, so the sequence reaches
    # t_0..t_max(n_max, 2 * 5), and a huge cap must cost what cap 5 costs, in
    # trace terms drawn and in matrix products
    for n_max, drawn in ((30, 31), (2, 11)):
        huge, five = search(n_max, 10**6), search(n_max, 5)
        assert huge == five == (5, drawn, 1)


def _inversions(monkeypatch):
    calls = []
    invert = sft._least_periods
    monkeypatch.setattr(sft, "_least_periods", lambda *args: calls.append(args[1]) or invert(*args))
    return calls


def test_smallest_height_inverts_a_census_only_past_the_gap(monkeypatch):
    calls = _inversions(monkeypatch)
    # lambda = 1 has no entropy gap at any height: no periodic rows, no census
    assert sft.smallest_feasible_height([[0, 1], [1, 0]], 12, 3000) is None
    assert calls == []
    # GOLDEN has the gap from height 2 and is first feasible at 5: one target
    # census to n_max and one full-shift column, then no census per height
    assert sft.smallest_feasible_height(GOLDEN, 30, 10**6) == 5
    assert calls == [30, 15]


def test_smallest_height_draws_no_trace_on_a_cycle(monkeypatch):
    # every row sum 1 makes lambda = 1, so no height has the entropy gap and
    # the search ends before the trace sequence starts, whatever the cap
    drawn = []
    traces = sft._traces
    monkeypatch.setattr(sft, "_traces", lambda rows: drawn.append(rows) or traces(rows))
    cycles = [[[int(j == (i + 1) % d) for j in range(d)] for i in range(d)] for d in range(1, 6)]
    for cycle in cycles + [[[0, 0, 1], [1, 0, 0], [0, 1, 0]]]:
        assert sft.smallest_feasible_height(cycle, 12, 3000) is None
    assert drawn == []
    # a matrix with the gap still draws its one sequence
    assert sft.smallest_feasible_height(GOLDEN, 30) == 5
    assert len(drawn) == 1


def test_smallest_height_grows_the_target_geometrically(monkeypatch):
    # cycles of length 10 and 11: lambda^11 = lambda + 1, so the gap starts at
    # height 11, and past n_max the first feasible height is far above it
    chord = [[1 if j == (i + 1) % 11 else 0 for j in range(11)] for i in range(11)]
    chord[9][0] = 1
    height = sft.smallest_feasible_height(chord, 2, 10**6)
    assert sft.embedding_feasibility(chord, height, height).feasible
    assert not sft.embedding_feasibility(chord, height - 1, height - 1).feasible
    calls = _inversions(monkeypatch)
    assert sft.smallest_feasible_height(chord, 2, 10**6) == height
    # the target census at the first gap height, the full-shift column there
    # (reach // m = 1), then one target census per doubling, not one per height
    first, full, *grown = calls
    assert (first, full) == (11, 1)
    assert grown == [11 << i for i in range(1, len(grown) + 1)]
    assert grown[-1] >= height > grown[-2]


def test_smallest_height_rejects_cap_below_one():
    for cap in (0, -3):
        with refused(f"height cap must be at least 1, got {cap}"):
            sft.smallest_feasible_height(GOLDEN, 30, cap)
