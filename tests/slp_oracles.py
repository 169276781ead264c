"""Reference counts for ``camshift.slp``.

``slp.count_occurrences_naive`` reads each window of overlapping occurrences
as an arithmetic progression, and ``SlpBuilder`` calls it for every seam and
junction scan, so neither can check the other.  The oracles here share no
code with either:

* ``scan_count`` makes one ``str.find`` per occurrence, stepping one symbol
  past each;
* ``brute_count`` tests ``startswith`` at every position.

``materialize`` spells a whole word, for the tests that compare against it.
"""

from camshift import slp


def scan_count(pattern: str, text: str) -> int:
    """Occurrences of ``pattern`` in ``text``, one search per occurrence."""
    count = 0
    i = text.find(pattern)
    while i != -1:
        count += 1
        i = text.find(pattern, i + 1)
    return count


def brute_count(pattern: str, text: str) -> int:
    """Occurrences of ``pattern`` in ``text``, one comparison per position."""
    return sum(text.startswith(pattern, i) for i in range(len(text) - len(pattern) + 1))


def materialize(expr) -> str:
    """The whole word of an ``slp.SlpExpr``."""
    return slp.window(expr, 0, expr.length)
