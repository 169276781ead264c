"""Shift-of-finite-type arithmetic on nonnegative integer matrices.

Covers the periodic-point census, the Perron eigenvalue as an exact
rational bracket, and the feasibility check for embedding a discrete tower
over the full 2-shift: a strict entropy inequality plus a periodic-count
comparison.

A census reads one trace sequence tr(A^1), tr(A^2), ... per matrix, built
with one matrix product per n, and takes the Mobius sums
q_n = sum over d | n of mu(n/d) * tr(A^d) from it.
:func:`brute_periodic_points` enumerates closed walks, an independent check
of the census; the per-divisor matrix-power oracle ``tr_n`` lives with the
tests (``tests/sft_oracles.py``).

Eigenvalue questions are decided in integers, by Sturm counts of the real
roots of the squarefree part of the characteristic polynomial.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import EnumerationTooLarge, InvalidParameter, ReducibleMatrix

_ENUM_CAP = 5_000_000


@dataclass(frozen=True)
class SftMatrix:
    """Square nonnegative integer matrix presenting an edge shift."""

    rows: tuple

    def __post_init__(self):
        if not isinstance(self.rows, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in self.rows
        ):
            raise InvalidParameter("matrix must be an array of arrays")
        rows = tuple(map(tuple, self.rows))
        if not rows or any(len(row) != len(rows) for row in rows):
            raise InvalidParameter("matrix must be square and nonempty")
        # exact type: a float, a string or a bool is not read as an entry
        if any(type(x) is not int or x < 0 for row in rows for x in row):
            raise InvalidParameter("matrix entries must be nonnegative integers")
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return len(self.rows)


def _as_matrix(A) -> SftMatrix:
    return A if isinstance(A, SftMatrix) else SftMatrix(A)


def _matmul(X, Y):
    columns = tuple(zip(*Y))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in columns) for row in X)


def _matpow(rows, e):
    n = len(rows)
    result = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    base = rows
    while e:
        if e & 1:
            result = _matmul(result, base)
        base = _matmul(base, base)
        e >>= 1
    return result


def _trace(rows) -> int:
    return sum(rows[i][i] for i in range(len(rows)))


def trace_power(A, n: int) -> int:
    """Exact trace of A^n (number of closed edge walks of length n)."""
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    return _trace(_matpow(_as_matrix(A).rows, n))


def mobius(n: int) -> int:
    if n < 1:
        raise InvalidParameter("mobius needs n >= 1")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def divisors(n: int):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _least_period_counts(rows):
    """Yield q_1, q_2, ... for the edge shift of `rows`, lazily.

    Term n costs one matrix product (A^n from A^(n-1)) and a Mobius sum over
    the traces already kept, so a consumer that stops at n builds no power
    past A^n.
    """
    traces = [0]  # traces[d] = tr(A^d)
    mu = [0]  # mu[k] = mobius(k)
    power = rows
    for n in itertools.count(1):
        if n > 1:
            power = _matmul(power, rows)
        traces.append(_trace(power))
        mu.append(mobius(n))
        yield sum(mu[n // d] * traces[d] for d in divisors(n))


def census(A, n_max: int) -> dict:
    """Map n -> least-period-n point count for 1 <= n <= n_max."""
    A = _as_matrix(A)
    if n_max < 1:
        raise InvalidParameter("n_max must be at least 1")
    return dict(zip(range(1, n_max + 1), _least_period_counts(A.rows)))


def brute_periodic_points(A, n: int, cap: int = _ENUM_CAP) -> int:
    """Direct enumeration oracle for the least-period-n point count of
    :func:`census` (the benchmark's arith-sft workload checks the census
    against it, so it stays in the package).

    Enumerates closed edge sequences of length n (entries > 1 act as
    parallel edges, so each step also picks an edge label) and keeps those
    whose least cyclic period is exactly n.
    """
    A = _as_matrix(A)
    if A.dim > 6 or n > 12:
        raise EnumerationTooLarge("enumeration bound is dimension <= 6, n <= 12")
    total_walks = trace_power(A, n)
    if total_walks > cap:
        raise EnumerationTooLarge(f"{total_walks} closed walks exceed the enumeration cap {cap}")
    rows = A.rows
    dim = A.dim
    proper = [d for d in divisors(n) if d < n]
    count = 0
    # a step is (target vertex, edge label); the walk starts at `start`
    def extend(vertex, steps):
        nonlocal count
        if len(steps) == n:
            if vertex != start:
                return
            for d in proper:
                if all(steps[i] == steps[i % d] for i in range(n)):
                    return
            count += 1
            return
        for nxt in range(dim):
            for label in range(rows[vertex][nxt]):
                steps.append((nxt, label))
                extend(nxt, steps)
                steps.pop()

    for start in range(dim):
        extend(start, [])
    return count


def is_irreducible(A) -> bool:
    """True when the digraph is strongly connected with a closed walk (``[[0]]`` has none)."""
    A = _as_matrix(A)
    n = A.dim
    if n == 1:
        return A.rows[0][0] > 0
    adj = [[j for j in range(n) if A.rows[i][j] > 0] for i in range(n)]
    radj = [[j for j in range(n) if A.rows[j][i] > 0] for i in range(n)]

    def reach(graph):
        seen = {0}
        stack = [0]
        while stack:
            for j in graph[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    return len(reach(adj)) == n and len(reach(radj)) == n


def _require_irreducible(A) -> SftMatrix:
    A = _as_matrix(A)
    if not is_irreducible(A):
        raise ReducibleMatrix("matrix is not irreducible")
    return A


def is_primitive(A) -> bool:
    """True when some power of A is entrywise positive (Wielandt bound)."""
    A = _as_matrix(A)
    power = A.rows
    for _ in range((A.dim - 1) ** 2 + 1):
        if all(x > 0 for row in power for x in row):
            return True
        power = _matmul(power, A.rows)
    return all(x > 0 for row in power for x in row)


# -- exact real-root counting ---------------------------------------------------
# A polynomial is a list of int coefficients, highest degree first, with no
# leading zero; [] is the zero polynomial.


def _charpoly(rows) -> list:
    """det(xI - A) by Faddeev-LeVerrier: every division by k is exact."""
    coeffs = [1]
    product = rows  # A * M_k, with M_1 = I and M_(k+1) = A * M_k + c_k * I
    for k in range(1, len(rows) + 1):
        c = -_trace(product) // k
        coeffs.append(c)
        if k < len(rows):
            step = _matmul(rows, product)  # A * M_(k+1) = A * (A * M_k) + c_k * A
            product = [[x + c * a for x, a in zip(xs, row)] for xs, row in zip(step, rows)]
    return coeffs


def _primitive_part(p) -> list:
    """p without leading zeros, divided by the positive gcd of its coefficients."""
    while p and p[0] == 0:
        p = p[1:]
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else list(p)


def _pseudo_divide(a, b):
    """Primitive parts of the quotient and remainder of |lead(b)|^(deg a - deg b + 1) * a
    by b: the scale makes each step exact and, being positive, keeps their signs."""
    r = [c * abs(b[0]) ** (len(a) - len(b) + 1) for c in a]
    quotient = []
    while len(r) >= len(b):
        c = r[0] // b[0]
        quotient.append(c)
        r = [x - c * y for x, y in zip(r, b + [0] * (len(r) - len(b)))][1:]
    return _primitive_part(quotient), _primitive_part(r)


def _sturm_sequence(p) -> list:
    """The Sturm sequence of the squarefree part of p (degree >= 1); a multiple
    root at the evaluation point would zero every member of p's own sequence."""

    def chain(f):
        seq = [f, [c * (len(f) - 1 - i) for i, c in enumerate(f[:-1])]]
        while seq[-1]:
            seq.append([-c for c in _pseudo_divide(seq[-2], seq[-1])[1]])
        return seq[:-1]

    seq = chain(p)
    if len(seq[-1]) > 1:  # gcd(p, p') is not constant: p has a multiple root
        seq = chain(_pseudo_divide(p, seq[-1])[0])
    return seq


def _sign_changes(values) -> int:
    signs = [v > 0 for v in values if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _roots_above(seq, x) -> int:
    """Distinct real roots above x (strictly) of the polynomial whose Sturm sequence is seq."""
    values = (functools.reduce(lambda total, c: total * x + c, p, 0) for p in seq)
    return _sign_changes(values) - _sign_changes(p[0] for p in seq)


def _entropy_gap(power) -> bool:
    """log 2/m < log lambda(A) for power = A^m, i.e. lambda(A^m) > 2: no real
    eigenvalue of A^m exceeds lambda(A^m), so iff det(xI - A^m) has a root above 2."""
    return _roots_above(_sturm_sequence(_charpoly(power)), 2) > 0


# -- Perron eigenvalue -----------------------------------------------------------

_PERRON_WIDTH = Fraction(1, 1 << 40)


@dataclass(frozen=True)
class PerronResult:
    lower: Fraction        # lower <= Perron eigenvalue <= upper
    upper: Fraction
    iterations: int        # bisection steps
    primitive: bool


def perron_eigenvalue(A) -> PerronResult:
    """Exact bracket of the Perron eigenvalue of an irreducible nonnegative matrix.

    Bisects [min row sum, max row sum] down to width ``_PERRON_WIDTH`` on a
    Sturm count of the characteristic polynomial: lambda > x iff it has a root
    above x, because no real eigenvalue exceeds lambda.
    """
    A = _require_irreducible(A)
    seq = _sturm_sequence(_charpoly(A.rows))
    lower = Fraction(min(map(sum, A.rows)))
    upper = Fraction(max(map(sum, A.rows)))
    iterations = 0
    while upper - lower > _PERRON_WIDTH:
        middle = (lower + upper) / 2
        lower, upper = (middle, upper) if _roots_above(seq, middle) else (lower, middle)
        iterations += 1
    return PerronResult(lower=lower, upper=upper, iterations=iterations, primitive=is_primitive(A))


@dataclass
class FeasibilityReport:
    """Embedding feasibility of the height-m tower over the full 2-shift."""

    height: int
    n_max: int
    entropy_lhs: float               # log(2)/m, for display; the status is decided exactly
    entropy_status: str              # "pass" | "fail"
    periodic_rows: list = field(default_factory=list)  # (n, tower count, target count, ok)
    feasible: bool = False


def tower_census(m: int, n: int) -> int:
    """Least-period-n count for the height-m tower over the full 2-shift.

    Only n = j*m has points: m * sum over d | j of mu(j/d) * 2^d.
    """
    if n % m != 0:
        return 0
    j = n // m
    return m * sum(mobius(j // d) << d for d in divisors(j))


def embedding_feasibility(A, tower_height: int, n_max: int) -> FeasibilityReport:
    """Check the two embedding hypotheses for the height-m tower.

    (1) strict entropy gap: log(2)/m < log(Perron eigenvalue), decided
    exactly as lambda(A^m) > 2 (equality is a fail); (2) least-period counts
    of the tower do not exceed the target's for every n <= n_max.
    """
    if tower_height < 1:
        raise InvalidParameter("tower height must be >= 1")
    if n_max < tower_height:
        raise InvalidParameter("n_max must be at least the tower height")
    A = _require_irreducible(A)
    gap = _entropy_gap(_matpow(A.rows, tower_height))
    return _feasibility(tower_height, n_max, gap, census(A, n_max))


def _feasibility(m: int, n_max: int, gap: bool, target_census) -> FeasibilityReport:
    """The report for height m from the entropy decision and a target census to n_max."""
    rows = [(n, tower_census(m, n), target_census[n]) for n in range(1, n_max + 1)]
    rows = [(n, tower, target, tower <= target) for n, tower, target in rows]
    return FeasibilityReport(
        height=m,
        n_max=n_max,
        entropy_lhs=math.log(2.0) / m,
        entropy_status="pass" if gap else "fail",
        periodic_rows=rows,
        feasible=gap and all(ok for *_, ok in rows),
    )


def smallest_feasible_height(A, n_max: int, cap: int = 64) -> int | None:
    """Smallest tower height m <= cap whose report is feasible, else None.

    Height m is checked up to max(n_max, m), as
    ``embedding_feasibility(A, m, max(n_max, m))`` would.  A^m grows by one
    matrix product per height, and the target census grows one term at a
    time only as far as the heights tried need it.
    """
    if cap < 1:
        raise InvalidParameter(f"height cap must be at least 1, got {cap}")
    A = _require_irreducible(A)
    counts = _least_period_counts(A.rows)
    target = {}
    power = A.rows
    for m in range(1, cap + 1):
        if m > 1:
            power = _matmul(power, A.rows)
        reach = max(n_max, m)
        while len(target) < reach:
            target[len(target) + 1] = next(counts)
        if _feasibility(m, reach, _entropy_gap(power), target).feasible:
            return m
    return None
