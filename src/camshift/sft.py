"""Shift-of-finite-type arithmetic on nonnegative integer matrices.

Covers the periodic-point census, the Perron eigenvalue with certified
two-sided bounds, and the feasibility check for embedding a discrete tower
over the full 2-shift: a strict entropy inequality plus a periodic-count
comparison.

A census reads one trace sequence tr(A^1), tr(A^2), ... per matrix, built
with one matrix product per n, and takes the Mobius sums
q_n = sum over d | n of mu(n/d) * tr(A^d) from it.  :func:`tr_n` computes a
single q_n from fresh matrix powers, and :func:`brute_periodic_points`
enumerates closed walks; both are independent checks of the census.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

from .errors import (
    EnumerationTooLarge,
    InvalidParameter,
    NoConvergence,
    ReducibleMatrix,
)

_ENUM_CAP = 5_000_000
_PERRON_MAX_ITERATIONS = 200_000
# Perron tolerance of the entropy test (embedding_feasibility, smallest_feasible_height)
_EMBED_TOLERANCE = 1e-12


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


def tr_n(A, n: int) -> int:
    """Count of points of least period n: sum over d|n of mu(n/d) * tr(A^d)."""
    A = _as_matrix(A)
    return sum(mobius(n // d) * trace_power(A, d) for d in divisors(n))


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
    """Direct enumeration oracle for :func:`tr_n`.

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
    """True when the underlying digraph is strongly connected."""
    A = _as_matrix(A)
    n = A.dim
    if n == 1:
        return True  # a single vertex is trivially its own class
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


def is_primitive(A, limit: int | None = None) -> bool:
    """True when some power of A is entrywise positive (Wielandt bound)."""
    A = _as_matrix(A)
    n = A.dim
    limit = limit if limit is not None else (n - 1) ** 2 + 1
    power = A.rows
    for _ in range(limit):
        if all(x > 0 for row in power for x in row):
            return True
        power = _matmul(power, A.rows)
    return all(x > 0 for row in power for x in row)


@dataclass(frozen=True)
class PerronResult:
    value: float
    lower: float           # certified lower bound (min Collatz-Wielandt ratio)
    upper: float           # certified upper bound (max ratio)
    residual: float        # ||Av - value*v||_inf with ||v||_inf = 1
    iterations: int
    primitive: bool


def perron_eigenvalue(A, tolerance: float = 1e-10) -> PerronResult:
    """Dominant eigenvalue of an irreducible nonnegative matrix.

    Power iteration runs on A + I (same Perron vector, immune to
    periodicity); the returned lower/upper bounds are the Collatz-Wielandt
    ratios min_i (Av)_i/v_i and max_i (Av)_i/v_i of the final positive
    iterate, which bracket the true eigenvalue.  The tolerance must be a
    finite positive number.
    """
    A = _as_matrix(A)
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise InvalidParameter(f"tolerance must be finite and positive, got {tolerance!r}")
    if not is_irreducible(A):
        raise ReducibleMatrix("matrix is not irreducible")
    n = A.dim
    rows = A.rows
    v = [1.0] * n
    previous = None
    for iteration in range(1, _PERRON_MAX_ITERATIONS + 1):
        w = [sum(rows[i][j] * v[j] for j in range(n)) + v[i] for i in range(n)]
        top = max(w)
        v = [x / top for x in w]
        ratios = [
            (sum(rows[i][j] * v[j] for j in range(n)) + v[i]) / v[i] for i in range(n)
        ]
        lower, upper = min(ratios) - 1.0, max(ratios) - 1.0
        quotient = top - 1.0
        close = previous is not None and abs(quotient - previous) < tolerance
        if close and upper - lower < tolerance:
            value = (lower + upper) / 2.0
            residual = max(
                abs(sum(rows[i][j] * v[j] for j in range(n)) - value * v[i]) for i in range(n)
            )
            return PerronResult(
                value=value,
                lower=lower,
                upper=upper,
                residual=residual,
                iterations=iteration,
                primitive=is_primitive(A),
            )
        previous = quotient
    raise NoConvergence(
        f"power iteration did not converge in {_PERRON_MAX_ITERATIONS} iterations"
    )


@dataclass
class FeasibilityReport:
    """Embedding feasibility of the height-m tower over the full 2-shift."""

    height: int
    n_max: int
    entropy_lhs: float               # log(2)/m
    entropy_interval: tuple          # certified (log lower, log upper) for log(Perron)
    entropy_status: str              # "pass" | "fail" | "inconclusive"
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
    against the certified eigenvalue interval (overlap -> "inconclusive",
    never a pass); (2) least-period counts of the tower do not exceed the
    target's for every n <= n_max.
    """
    A = _as_matrix(A)
    if tower_height < 1:
        raise InvalidParameter("tower height must be >= 1")
    if n_max < tower_height:
        raise InvalidParameter("n_max must be at least the tower height")
    perron = perron_eigenvalue(A, _EMBED_TOLERANCE)
    return _feasibility(tower_height, n_max, perron, census(A, n_max))


def _feasibility(m: int, n_max: int, perron: PerronResult, target_census) -> FeasibilityReport:
    """The report for height m, read from the target's Perron bounds and its
    census (least-period counts for at least n = 1..n_max)."""
    lhs = math.log(2.0) / m
    if perron.lower <= 0:
        raise ReducibleMatrix("Perron lower bound is not positive")
    low, high = math.log(perron.lower), math.log(perron.upper)
    if lhs < low:
        status = "pass"
    elif lhs >= high:
        status = "fail"
    else:
        status = "inconclusive"
    rows = []
    all_ok = True
    for n in range(1, n_max + 1):
        tower = tower_census(m, n)
        target = target_census[n]
        ok = tower <= target
        all_ok = all_ok and ok
        rows.append((n, tower, target, ok))
    return FeasibilityReport(
        height=m,
        n_max=n_max,
        entropy_lhs=lhs,
        entropy_interval=(low, high),
        entropy_status=status,
        periodic_rows=rows,
        feasible=(status == "pass") and all_ok,
    )


def smallest_feasible_height(A, n_max: int, cap: int = 64) -> int | None:
    """Smallest tower height m <= cap whose report is feasible, else None.

    Height m is checked up to max(n_max, m), as
    ``embedding_feasibility(A, m, max(n_max, m))`` would.  The Perron bounds
    are computed once, and the target census grows one term at a time only
    as far as the heights tried need it.
    """
    if cap < 1:
        raise InvalidParameter(f"height cap must be at least 1, got {cap}")
    A = _as_matrix(A)
    perron = perron_eigenvalue(A, _EMBED_TOLERANCE)
    counts = _least_period_counts(A.rows)
    target = {}
    for m in range(1, cap + 1):
        reach = max(n_max, m)
        while len(target) < reach:
            target[len(target) + 1] = next(counts)
        if _feasibility(m, reach, perron, target).feasible:
            return m
    return None
