import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sft_oracles import det_shifted, min_principal_minor, tr_n

from camshift import sft
from camshift.errors import CamshiftError, EnumerationTooLarge, InvalidParameter, ReducibleMatrix

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
    assert sft.mobius(1) == 1
    assert sft.mobius(4) == 0
    assert sft.mobius(6) == 1
    assert [sft.mobius(n) for n in (2, 3, 12, 30)] == [-1, -1, 0, -1]


def test_tr_n_examples():
    assert tr_n(FULL2, 1) == 2
    assert tr_n(FULL2, 2) == 2
    assert tr_n(GOLDEN, 2) == 2
    assert tr_n(GOLDEN, 3) == 3


def test_census_golden_mean():
    assert sft.census(GOLDEN, 3) == {1: 1, 2: 2, 3: 3}
    for n_max in (0, -3):
        with pytest.raises(InvalidParameter):
            sft.census(GOLDEN, n_max)


@given(square_matrices(4, 3), st.integers(1, 24))
@settings(max_examples=60, deadline=None)
def test_census_matches_tr_n(matrix, n_max):
    # the one trace sequence against fresh per-divisor matrix powers
    table = sft.census(matrix, n_max)
    assert list(table) == list(range(1, n_max + 1))
    assert all(table[n] == tr_n(matrix, n) for n in table)


def test_brute_examples():
    assert sft.brute_periodic_points(FULL2, 1) == 2
    assert sft.brute_periodic_points(GOLDEN, 1) == 1


def test_brute_guard():
    with pytest.raises(EnumerationTooLarge):
        sft.brute_periodic_points([[2]], 13)
    with pytest.raises(EnumerationTooLarge):
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
            total = sum(tr_n(matrix, d) for d in sft.divisors(n))
            assert total == sft.trace_power(matrix, n)


@given(st.integers(min_value=1, max_value=400))
@settings(max_examples=120, deadline=None)
def test_mobius_square_factor(n):
    # mu vanishes exactly on numbers with a squared prime factor
    squarefree = all(n % (p * p) != 0 for p in range(2, int(n**0.5) + 1))
    assert (sft.mobius(n) != 0) == squarefree


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
        with pytest.raises(ReducibleMatrix):
            sft.perron_eigenvalue(matrix)
        return
    result = sft.perron_eigenvalue(matrix)
    radius = max(abs(np.linalg.eigvals(np.array(matrix, dtype=float))))
    slack = 1e-9 * max(1.0, radius)  # float rounding of eigvals, not of the bracket
    assert float(result.lower) - slack <= radius <= float(result.upper) + slack


def test_perron_rejects_reducible():
    for matrix in ([[1, 1], [0, 1]], [[0]]):
        with pytest.raises(ReducibleMatrix):
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
        with pytest.raises(ReducibleMatrix):
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


@given(square_matrices(4, 3), st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_entropy_gap_matches_principal_minors(matrix, m):
    # lambda(A^m) > 2 iff some principal minor of 2I - A^m is negative
    power = sft._matpow(tuple(map(tuple, matrix)), m)
    assert sft._entropy_gap(power) == (min_principal_minor(power, 2) < 0)


@pytest.mark.parametrize(
    "matrix, height, status",
    [
        ([[0, 1], [2, 0]], 2, "fail"),  # lambda^2 = 2 exactly
        ([[0, 1, 0], [0, 0, 1], [2, 0, 0]], 3, "fail"),  # lambda^3 = 2 exactly
        # chi_{A^2} = (x - 2)^2 (x^2 - 12x + 16): 2 is a double root, lambda^2 ~ 10.47
        ([[0, 0, 0, 2], [0, 0, 2, 1], [1, 2, 0, 0], [1, 0, 1, 2]], 2, "pass"),
        ([[2]], 1, "fail"),
        (GOLDEN, 2, "pass"),
    ],
)
def test_entropy_status_exact_cases(matrix, height, status):
    assert sft.embedding_feasibility(matrix, height, 2 * height).entropy_status == status


def test_squarefree_step_removes_the_double_root():
    power = sft._matpow(((0, 0, 0, 2), (0, 0, 2, 1), (1, 2, 0, 0), (1, 0, 1, 2)), 2)
    chi = sft._charpoly(power)
    assert chi == [1, -16, 68, -112, 64]  # (x - 2)^2 (x^2 - 12x + 16)
    seq = sft._sturm_sequence(chi)
    assert len(seq[0]) == 4  # degree 3: (x - 2)(x^2 - 12x + 16) up to a positive scale
    # roots 6 - sqrt(20) ~ 1.53, 2 and 6 + sqrt(20) ~ 10.47, each counted once
    points = (0, Fraction(8, 5), 2, 10, 11)
    assert [sft._roots_above(seq, x) for x in points] == [3, 2, 1, 1, 0]


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


@given(st.integers(1, 12), st.integers(1, 72))
@settings(max_examples=150, deadline=None)
def test_tower_census_closed_form(m, n):
    expected = m * tr_n(FULL2, n // m) if n % m == 0 else 0
    assert sft.tower_census(m, n) == expected


def test_tower_census_identity():
    # summed least-period counts of the tower match m times the base prefix
    for m in (2, 3, 5):
        for n_cap in (6, 12):
            total = sum(sft.tower_census(m, n) for n in range(1, m * n_cap + 1))
            base = sum(tr_n(FULL2, j) for j in range(1, n_cap + 1))
            assert total == m * base


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
        return type(exc)


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
    matmul, counts = sft._matmul, sft._least_period_counts
    monkeypatch.setattr(sft, "_matmul", lambda X, Y: products.append(1) or matmul(X, Y))

    def counted(rows):
        for q in counts(rows):
            terms.append(q)
            yield q

    monkeypatch.setattr(sft, "_least_period_counts", counted)

    def search(n_max, cap):
        products.clear()
        terms.clear()
        return sft.smallest_feasible_height(GOLDEN, n_max, cap), len(terms), len(products)

    # GOLDEN is first feasible at height 5, so the census reaches n = max(n_max, 5),
    # and a huge cap must cost what cap 5 costs, in census terms and in all products
    for n_max, reach in ((30, 30), (2, 5)):
        huge, five = search(n_max, 10**6), search(n_max, 5)
        assert huge == five and huge[:2] == (5, reach)


def test_smallest_height_rejects_cap_below_one():
    for cap in (0, -3):
        with pytest.raises(InvalidParameter):
            sft.smallest_feasible_height(GOLDEN, 30, cap)
