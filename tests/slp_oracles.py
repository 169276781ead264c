"""Reference counts for ``camshift.slp``.

``slp.count_occurrences_naive`` reads each window of overlapping occurrences
as an arithmetic progression, and ``SlpBuilder`` calls it for every seam and
junction scan, so neither can check the other.  The oracles here share no
code with either:

* ``scan_count`` makes one ``str.find`` per occurrence, stepping one symbol
  past each;
* ``brute_count`` tests ``startswith`` at every position.

``materialize`` spells a whole word, for the tests that compare against it,
and ``word`` builds the expression of an explicit one.
"""

import itertools

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


def word(builder, text: str):
    """The ``slp.SlpExpr`` of an explicit word, run-length encoded."""
    runs = itertools.groupby(text)
    return builder.concat([(builder.atom(symbol), len(list(run))) for symbol, run in runs])
