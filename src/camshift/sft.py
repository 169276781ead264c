"""Shift-of-finite-type arithmetic on nonnegative integer matrices.

Covers the periodic-point census, the Perron eigenvalue as an exact
rational bracket, and the feasibility check for embedding a discrete tower
over the full 2-shift: a strict entropy inequality plus a periodic-count
comparison.

Every number here comes from one exact sequence per matrix, t_n = tr(A^n),
drawn lazily by :func:`_traces`: d - 1 matrix products (the module's only
ones) give t_1..t_d, Newton's identities turn them into chi_A, and the
Cayley-Hamilton recurrence on chi_A gives each later term in O(d).  Every
least-period count comes from :func:`_least_periods`, one Dirichlet
inversion of t_n = sum over k | n of q_k, and chi_(A^m) is Newton's
identities on the power sums t_m, t_2m, ..., t_dm.
:func:`brute_periodic_points` enumerates closed walks, an independent check
of the census; the matrix-power oracles and the trial-division Mobius sums
live with the tests (``tests/sft_oracles.py``).

Eigenvalue questions are decided in integers, by Sturm counts of the real
roots of the squarefree part of a characteristic polynomial.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetExceeded, CamshiftError

_ENUM_CAP = 5_000_000


@dataclass(frozen=True)
class SftMatrix:
    """Square nonnegative integer matrix presenting an edge shift."""

    rows: tuple

    def __post_init__(self):
        if not isinstance(self.rows, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in self.rows
        ):
            raise CamshiftError("matrix must be an array of arrays")
        rows = tuple(map(tuple, self.rows))
        if not rows or any(len(row) != len(rows) for row in rows):
            raise CamshiftError("matrix must be square and nonempty")
        # exact type: a float, a string or a bool is not read as an entry
        if any(type(x) is not int or x < 0 for row in rows for x in row):
            raise CamshiftError("matrix entries must be nonnegative integers")
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return len(self.rows)


def _as_matrix(A) -> SftMatrix:
    return A if isinstance(A, SftMatrix) else SftMatrix(A)


def _matmul(X, Y):
    columns = tuple(zip(*Y))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in columns) for row in X)


def _traces(rows):
    """Yield t_0 = d, t_1, t_2, ... with t_n = tr(A^n), for the d x d matrix `rows`:
    t_1..t_d from d - 1 matrix products, each later term from the Cayley-Hamilton
    recurrence t_n = -(c_1 t_(n-1) + ... + c_d t_(n-d)) on chi_A = _newton(t_0..t_d)."""
    d = len(rows)
    traces, power = [d], rows
    for n in range(1, d + 1):
        traces.append(sum(power[i][i] for i in range(d)))
        if n < d:
            power = _matmul(power, rows)
    yield from traces
    coeffs = _newton(traces)[1:]
    while True:
        traces.append(-sum(map(operator.mul, coeffs, traces[: -d - 1 : -1])))
        yield traces[-1]


def _newton(power_sums) -> list:
    """The monic degree-d polynomial whose roots have power sums p_1..p_d, from
    [d, p_1, ..., p_d] by Newton's identities k c_k = -(c_0 p_k + ... + c_(k-1) p_1);
    for the traces of an integer matrix every division is exact."""
    coeffs = [1]
    for k in range(1, len(power_sums)):
        coeffs.append(-sum(map(operator.mul, coeffs, power_sums[k:0:-1])) // k)
    return coeffs


def trace_power(A, n: int) -> int:
    """Exact trace of A^n (number of closed edge walks of length n)."""
    if n < 1:
        raise CamshiftError("n must be >= 1")
    return next(itertools.islice(_traces(_as_matrix(A).rows), n, None))


def _least_periods(values, n_max: int) -> list:
    """q with sum over k | n of q[k] = values[n] for 1 <= n <= n_max (q[0] = values[0]).

    Exact Dirichlet inversion in O(n_max log n_max) subtractions: q_k is final
    once every proper divisor of k has been subtracted from it, and is then
    subtracted from every proper multiple of k."""
    q = values[: n_max + 1]
    for k in range(1, n_max // 2 + 1):
        q_k = q[k]
        if q_k:
            q[2 * k :: k] = [x - q_k for x in q[2 * k :: k]]
    return q


def census(A, n_max: int) -> dict:
    """Map n -> least-period-n point count for 1 <= n <= n_max."""
    A = _as_matrix(A)
    if n_max < 1:
        raise CamshiftError("n_max must be at least 1")
    q = _least_periods(list(itertools.islice(_traces(A.rows), n_max + 1)), n_max)
    return {n: q[n] for n in range(1, n_max + 1)}


def brute_periodic_points(A, n: int) -> int:
    """Direct enumeration oracle for the least-period-n point count of
    :func:`census` (the benchmark's arith-sft workload checks the census
    against it, so it stays in the package).

    Enumerates closed edge sequences of length n (entries > 1 act as
    parallel edges, so each step also picks an edge label) and keeps those
    whose least cyclic period is exactly n.
    """
    A = _as_matrix(A)
    if A.dim > 6 or n > 12:
        raise BudgetExceeded("enumeration bound is dimension <= 6, n <= 12")
    total_walks = trace_power(A, n)
    if total_walks > _ENUM_CAP:
        raise BudgetExceeded(f"{total_walks} closed walks exceed the enumeration cap {_ENUM_CAP}")
    rows = A.rows
    dim = A.dim
    proper = [d for d in range(1, n) if n % d == 0]
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
        raise CamshiftError("matrix is not irreducible")
    return A


def _aperiodic(chi) -> bool:
    """Period 1 for an irreducible A with chi = chi_A.  The period is the gcd of the
    simple-cycle lengths, all <= d: of the n <= d with tr(A^n) > 0.  By Newton's
    identities those n and the n >= 1 with c_n != 0 have the same gcd."""
    return math.gcd(*(n for n, c in enumerate(chi) if n and c)) == 1


# -- exact real-root counting ---------------------------------------------------
# A polynomial is a list of int coefficients, highest degree first, with no
# leading zero; [] is the zero polynomial.


def _charpoly(rows) -> list:
    """det(xI - A): Newton's identities on the first d traces."""
    return _newton(list(itertools.islice(_traces(rows), len(rows) + 1)))


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


def sturm_sequence(p) -> list:
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


def roots_above(seq, x) -> int:
    """Distinct real roots above x (strictly) of the polynomial whose Sturm sequence is seq."""
    values = (functools.reduce(lambda total, c: total * x + c, p, 0) for p in seq)
    return _sign_changes(values) - _sign_changes(p[0] for p in seq)


def _entropy_gap(traces, m: int) -> bool:
    """log 2/m < log lambda(A), i.e. lambda(A^m) > 2, for traces[n] = tr(A^n) up to
    n = d*m: no real eigenvalue of A^m exceeds lambda(A^m), so iff det(xI - A^m) has
    a root above 2.  A^m has power sums tr(A^m), tr(A^2m), ..., tr(A^dm)."""
    return roots_above(sturm_sequence(_newton(traces[: traces[0] * m + 1 : m])), 2) > 0


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
    chi = _charpoly(A.rows)
    seq = sturm_sequence(chi)
    lower = Fraction(min(map(sum, A.rows)))
    upper = Fraction(max(map(sum, A.rows)))
    iterations = 0
    while upper - lower > _PERRON_WIDTH:
        middle = (lower + upper) / 2
        lower, upper = (middle, upper) if roots_above(seq, middle) else (lower, middle)
        iterations += 1
    return PerronResult(lower=lower, upper=upper, iterations=iterations, primitive=_aperiodic(chi))


@dataclass
class FeasibilityReport:
    """Embedding feasibility of the height-m tower over the full 2-shift."""

    height: int
    n_max: int
    entropy_lhs: float               # log(2)/m, for display; the status is decided exactly
    entropy_status: str              # "pass" | "fail"
    periodic_rows: list = field(default_factory=list)  # (n, tower count, target count, ok)
    feasible: bool = False


def _full_shift_periods(j_max: int) -> list:
    """Least-period counts of the full 2-shift, whose traces are 2^j, for j <= j_max."""
    return _least_periods([1 << j for j in range(j_max + 1)], j_max)


def _periodic_rows(m: int, n_max: int, target, full) -> list:
    """(n, tower count, target count, ok) for 1 <= n <= n_max: the height-m tower
    has m * full[n/m] points of least period n when m | n and none otherwise."""
    tower = [0] * (n_max + 1)
    tower[m::m] = [m * x for x in full[1 : n_max // m + 1]]
    return [(n, tower[n], target[n], tower[n] <= target[n]) for n in range(1, n_max + 1)]


def embedding_feasibility(A, tower_height: int, n_max: int) -> FeasibilityReport:
    """Check the two embedding hypotheses for the height-m tower.

    (1) strict entropy gap: log(2)/m < log(Perron eigenvalue), decided
    exactly as lambda(A^m) > 2 (equality is a fail); (2) least-period counts
    of the tower do not exceed the target's for every n <= n_max.
    """
    m = tower_height
    if m < 1:
        raise CamshiftError("tower height must be >= 1")
    if n_max < m:
        raise CamshiftError("n_max must be at least the tower height")
    A = _require_irreducible(A)
    traces = list(itertools.islice(_traces(A.rows), max(n_max, A.dim * m) + 1))
    gap = _entropy_gap(traces, m)
    rows = _periodic_rows(m, n_max, _least_periods(traces, n_max), _full_shift_periods(n_max // m))
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

    Height m is checked up to reach = max(n_max, m), as
    ``embedding_feasibility(A, m, reach)`` would, and its periodic rows are
    built only if it has the entropy gap.  The trace sequence grows only as
    far as the heights tried need it: to max(d*m, reach) terms at height m.
    The target census is inverted once to n_max; past n_max it grows
    geometrically (to at most cap), so a search makes O(log cap) inversions.
    A cycle (every row sum 1, so lambda = 1) has the gap at no height, and
    its search ends before any trace is drawn.
    """
    if cap < 1:
        raise CamshiftError(f"height cap must be at least 1, got {cap}")
    A = _require_irreducible(A)
    if all(sum(row) == 1 for row in A.rows):
        return None
    terms = _traces(A.rows)
    traces, target, full = [], [], None

    def draw(n):  # extend traces to t_0..t_n
        traces.extend(itertools.islice(terms, max(0, n + 1 - len(traces))))

    for m in range(1, cap + 1):
        draw(A.dim * m)
        if not _entropy_gap(traces, m):
            continue
        reach = max(n_max, m)
        if len(target) <= reach:
            size = max(reach, min(cap, 2 * (len(target) - 1)))
            draw(size)
            target = _least_periods(traces, size)
        if full is None:  # reach // m only falls as m grows
            full = _full_shift_periods(reach // m)
        if all(ok for *_, ok in _periodic_rows(m, reach, target, full)):
            return m
    return None
