"""Reference computations for ``camshift.sft``.

The production module reads every number off one trace sequence per matrix
(``sft._traces``: Newton's identities and the Cayley-Hamilton recurrence).
The oracles here share nothing with that sequence:

* ``_matpow`` raises a matrix to a power by repeated squaring, and ``tr_n``
  computes one least-period count of the census from those powers, as a
  Mobius sum over the divisors found by trial division (``mobius`` and
  ``divisors``);
* ``tower_census`` is the same Mobius sum for one least-period count of the
  height-m tower over the full 2-shift, to check the ``tower`` column of
  ``sft.embedding_feasibility``;
* ``is_primitive_wielandt`` looks for an entrywise positive power of A up to
  Wielandt's bound A^((d-1)^2 + 1), to check ``sft.perron_eigenvalue``'s
  ``primitive`` flag.

The checks of the exact eigenvalue path use plain ``Fraction`` Gaussian
elimination and share no code with the characteristic polynomial or the
sign test of ``sft._radius_exceeds``:

* ``det_shifted`` evaluates det(xI - A) at one rational point, to check the
  coefficients of ``sft._charpoly``;
* ``min_principal_minor`` compares a spectral radius with a rational s.  For a
  nonnegative B, sI - B is a Z-matrix, so rho(B) <= s iff every principal
  minor of sI - B is >= 0, and rho(B) < s iff every one is > 0 (Berman &
  Plemmons, *Nonnegative Matrices in the Mathematical Sciences*, ch. 6).

The sign test replaced a Sturm count, kept here as an oracle of the same
decisions and used by nothing in the package.  ``sturm_sequence`` builds the
chain of the squarefree part of a polynomial by pseudo-division
(``_pseudo_divide``), and ``roots_above`` counts its distinct real roots
above a point.  The entropy test reads the characteristic polynomial of the
power A^m itself, built by repeated squaring (``_matpow``), not Newton's
identities on the power sums t_m, t_2m, ..., t_dm:

* ``sturm_entropy_gap`` decides lambda(A^m) > 2 by a Sturm count of the
  real roots above 2 of det(xI - A^m), squarefree part first;
* ``sturm_perron_bracket`` bisects [min row sum, max row sum] on a Sturm
  count, as ``sft.perron_eigenvalue`` did, to a bracket and step count.
"""

import functools
import math
from fractions import Fraction
from itertools import combinations

from camshift import sft
from camshift.errors import CamshiftError
from camshift.sft import _matmul


def mobius(n: int) -> int:
    if n < 1:
        raise CamshiftError("mobius needs n >= 1")
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


def _matpow(rows, e):
    """rows ** e by repeated squaring."""
    n = len(rows)
    result = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    base = rows
    while e:
        if e & 1:
            result = _matmul(result, base)
        base = _matmul(base, base)
        e >>= 1
    return result


def tr_n(A, n: int) -> int:
    """Count of points of least period n: sum over d|n of mu(n/d) * tr(A^d)."""
    return sum(mobius(n // d) * _trace(_matpow(A, d)) for d in divisors(n))


def tower_census(m: int, n: int) -> int:
    """Least-period-n count for the height-m tower over the full 2-shift.

    Only n = j*m has points: m * sum over d | j of mu(j/d) * 2^d.
    """
    if n % m != 0:
        return 0
    j = n // m
    return m * sum(mobius(j // d) << d for d in divisors(j))


def _trace(rows) -> int:
    return sum(row[i] for i, row in enumerate(rows))


def is_primitive_wielandt(A) -> bool:
    """True when some power of A is entrywise positive (Wielandt bound)."""
    power = A
    for _ in range((len(A) - 1) ** 2 + 1):
        if all(x > 0 for row in power for x in row):
            return True
        power = _matmul(power, A)
    return all(x > 0 for row in power for x in row)


def det(matrix) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    n = len(rows)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            result = -result
        result *= rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return result


def det_shifted(A, x) -> Fraction:
    """det(xI - A)."""
    n = len(A)
    return det([[(x if i == j else 0) - A[i][j] for j in range(n)] for i in range(n)])


def min_principal_minor(B, s) -> Fraction:
    """The smallest principal minor of sI - B: >= 0 iff rho(B) <= s, > 0 iff rho(B) < s."""
    n = len(B)
    shifted = [[(s if i == j else 0) - B[i][j] for j in range(n)] for i in range(n)]
    return min(
        det([[shifted[i][j] for j in subset] for i in subset])
        for size in range(1, n + 1)
        for subset in combinations(range(n), size)
    )


# A polynomial below is a list of int coefficients, highest degree first, with
# no leading zero; [] is the zero polynomial.


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


def sturm_entropy_gap(A, m: int) -> bool:
    """lambda(A^m) > 2 for a nonnegative A: det(xI - A^m) has a real root above 2,
    since no real eigenvalue of A^m exceeds lambda(A^m)."""
    chi = sft._charpoly(_matpow(tuple(map(tuple, A)), m))
    return roots_above(sturm_sequence(chi), 2) > 0


def sturm_perron_bracket(A):
    """(lower, upper, iterations) of a bisection of [min row sum, max row sum] to
    width ``sft._PERRON_WIDTH`` on a Sturm count: lambda > x iff det(xI - A) has
    a real root above x."""
    seq = sturm_sequence(sft._charpoly(tuple(map(tuple, A))))
    lower, upper = Fraction(min(map(sum, A))), Fraction(max(map(sum, A)))
    iterations = 0
    while upper - lower > sft._PERRON_WIDTH:
        middle = (lower + upper) / 2
        lower, upper = (middle, upper) if roots_above(seq, middle) else (lower, middle)
        iterations += 1
    return lower, upper, iterations
