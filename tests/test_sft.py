import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    assert sft.tr_n(FULL2, 1) == 2
    assert sft.tr_n(FULL2, 2) == 2
    assert sft.tr_n(GOLDEN, 2) == 2
    assert sft.tr_n(GOLDEN, 3) == 3


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
    assert all(table[n] == sft.tr_n(matrix, n) for n in table)


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
            assert sft.tr_n(matrix, n) == sft.brute_periodic_points(matrix, n), (matrix, n)


def test_census_matches_brute_on_random_matrices():
    for matrix in random_catalog():
        for n in range(1, 11):
            assert sft.tr_n(matrix, n) == sft.brute_periodic_points(matrix, n), (matrix, n)


def test_mobius_round_trip():
    for matrix in CATALOG:
        for n in range(1, 13):
            total = sum(sft.tr_n(matrix, d) for d in sft.divisors(n))
            assert total == sft.trace_power(matrix, n)


@given(st.integers(min_value=1, max_value=400))
@settings(max_examples=120, deadline=None)
def test_mobius_square_factor(n):
    # mu vanishes exactly on numbers with a squared prime factor
    squarefree = all(n % (p * p) != 0 for p in range(2, int(n**0.5) + 1))
    assert (sft.mobius(n) != 0) == squarefree


# -- Perron ---------------------------------------------------------------------


def test_perron_examples():
    exact = sft.perron_eigenvalue(FULL2, 1e-12)
    assert exact.value == 2.0 and exact.residual == 0.0
    golden = sft.perron_eigenvalue(GOLDEN, 1e-12)
    phi = (1 + math.sqrt(5)) / 2
    assert abs(golden.value - phi) < 1e-9
    assert golden.lower <= phi <= golden.upper
    swap = sft.perron_eigenvalue([[0, 1], [1, 0]], 1e-12)
    assert abs(swap.value - 1.0) < 1e-9
    assert not swap.primitive


def test_perron_residual_and_range_bounds():
    for matrix in ([[1, 1], [1, 0]], [[2, 1], [1, 1]], [[0, 2], [1, 0]], [[1, 2], [2, 1]]):
        result = sft.perron_eigenvalue(matrix, 1e-9)
        assert result.residual <= 10 * 1e-9
        row_min = max(min(row) for row in matrix)
        row_sum = max(sum(row) for row in matrix)
        assert row_min <= result.value <= row_sum


def test_perron_rejects_reducible():
    with pytest.raises(ReducibleMatrix):
        sft.perron_eigenvalue([[1, 1], [0, 1]], 1e-9)


def test_perron_rejects_bad_tolerance():
    for tolerance in (0, -1e-9, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameter):
            sft.perron_eigenvalue(GOLDEN, tolerance)


# -- embedding feasibility ---------------------------------------------------------


def test_entropy_condition_full_shift_m1_fails():
    report = sft.embedding_feasibility(FULL2, 1, 6)
    assert report.entropy_status == "fail"  # log 2 < log 2 is false


def test_entropy_condition_golden():
    assert sft.embedding_feasibility(GOLDEN, 1, 6).entropy_status == "fail"
    report = sft.embedding_feasibility(GOLDEN, 2, 12)
    assert report.entropy_status == "pass"
    assert report.entropy_lhs == pytest.approx(math.log(2) / 2)
    low, high = report.entropy_interval
    assert low < math.log((1 + math.sqrt(5)) / 2) < high


def test_tower_rows_without_divisibility_pass():
    report = sft.embedding_feasibility(GOLDEN, 2, 11)
    for n, tower, _target, ok in report.periodic_rows:
        if n % 2 != 0:
            assert tower == 0 and ok


@given(st.integers(1, 12), st.integers(1, 72))
@settings(max_examples=150, deadline=None)
def test_tower_census_closed_form(m, n):
    expected = m * sft.tr_n(FULL2, n // m) if n % m == 0 else 0
    assert sft.tower_census(m, n) == expected


def test_tower_census_identity():
    # summed least-period counts of the tower match m times the base prefix
    for m in (2, 3, 5):
        for n_cap in (6, 12):
            total = sum(sft.tower_census(m, n) for n in range(1, m * n_cap + 1))
            base = sum(sft.tr_n(FULL2, j) for j in range(1, n_cap + 1))
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
    products = []
    matmul = sft._matmul
    monkeypatch.setattr(sft, "_matmul", lambda X, Y: products.append(1) or matmul(X, Y))

    def search(n_max, cap):
        products.clear()
        return sft.smallest_feasible_height(GOLDEN, n_max, cap), len(products)

    # GOLDEN is first feasible at height 5, so the search reaches n = max(n_max, 5)
    # and a huge cap must cost what cap 5 costs: the census products
    # A^2..A^reach plus the one is_primitive takes inside the Perron call
    for n_max, reach in ((30, 30), (2, 5)):
        assert search(n_max, 10**6) == search(n_max, 5) == (5, (reach - 1) + 1)


def test_smallest_height_rejects_cap_below_one():
    for cap in (0, -3):
        with pytest.raises(InvalidParameter):
            sft.smallest_feasible_height(GOLDEN, 30, cap)
