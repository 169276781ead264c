"""Reference computations for ``camshift.sft``.

``tr_n`` computes one least-period count of the census from fresh matrix
powers.  The checks of the exact eigenvalue path use plain ``Fraction``
Gaussian elimination and share no code with the characteristic polynomial
or the Sturm count:

* ``det_shifted`` evaluates det(xI - A) at one rational point, to check the
  coefficients of ``sft._charpoly``;
* ``min_principal_minor`` compares a spectral radius with a rational s.  For a
  nonnegative B, sI - B is a Z-matrix, so rho(B) <= s iff every principal
  minor of sI - B is >= 0, and rho(B) < s iff every one is > 0 (Berman &
  Plemmons, *Nonnegative Matrices in the Mathematical Sciences*, ch. 6).
"""

from fractions import Fraction
from itertools import combinations

from camshift.sft import divisors, mobius, trace_power


def tr_n(A, n: int) -> int:
    """Count of points of least period n: sum over d|n of mu(n/d) * tr(A^d)."""
    return sum(mobius(n // d) * trace_power(A, d) for d in divisors(n))


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
