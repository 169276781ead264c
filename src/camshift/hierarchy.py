"""The family contract: what the level hierarchies of every dimension share.

A family is a :class:`Hierarchy` (its docstring lists what a family type
supplies), certified by one scheme whatever its dimension d, and
:meth:`Hierarchy._certify` assembles that certificate once for every
type.  The certificate of level k+1 at parameter n has the
:func:`eps_tail_rows` of the weights eps_m (:class:`FrequencySequence`);
the type's layout rows, and nothing more when one fails; per side and
inherited word u of level m <= k, a :func:`frequency_row`: u's frequency
in the doubled density word below (eps_m + ... + eps_k) / (|u| (2|u| -
1)^d), |u| in cells, each followed by the type's variant rows; the
:func:`period_gap_row`, |a_k| / |a_(k+1)| against the period of a_k; and
per side, the density of its rare symbol below eps_1 + ... + eps_k.  A
side's level-1 word is its rare symbol, and one symbol never crosses a
junction, so its count in the doubled density word is 2^d times the
density row's count: a certificate counts it once, in the density row,
and counts only the words of level 2 and up as patterns.  Each parameter
is the smallest n whose certificate passes.  A row is lhs < rhs between
integer ratios (:func:`row`), decided exactly with no float, and keeps
its unreduced parts for the parameter solver of :mod:`camshift.cam1d`; a
row over budget is :func:`unverifiable`, never passed.  The output form
(:func:`canonical_json`) is shared too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .budgets import Budgets
from .errors import CamshiftError

EPS_SCHEME = "half-geometric4"


@dataclass(frozen=True)
class FrequencySequence:
    """Summable per-level weights eps_k with closed-form geometric tails.

    The one scheme (named EPS_SCHEME in family files) is
    eps_k = (1/2) * 3^-(dim-1) * 4^-k, whose tail
    sum_{n>=N} eps_n = (2/3) * 3^-(dim-1) * 4^-N is strictly below
    3^-(dim+N-1) for every N >= 1.
    """

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise CamshiftError("dimension must be >= 1")

    def value(self, k: int) -> Fraction:
        if k < 1:
            raise CamshiftError("frequency index must be >= 1")
        return Fraction(1, 2) * Fraction(1, 3 ** (self.dim - 1)) * Fraction(1, 4**k)

    def tail(self, start: int) -> Fraction:
        """Exact value of sum_{n >= start} eps_n."""
        return Fraction(2, 3) * Fraction(1, 3 ** (self.dim - 1)) * Fraction(1, 4**start)

    def tail_bound(self, start: int) -> Fraction:
        return Fraction(1, 3 ** (self.dim + start - 1))

    def partial(self, lo: int, hi: int) -> Fraction:
        return sum((self.value(j) for j in range(lo, hi + 1)), Fraction(0))


@dataclass
class CertRow:
    ident: str
    lhs: Fraction | None
    rhs: Fraction | None
    status: str  # "pass" | "fail" | "unverifiable" | "info"
    note: str = ""
    # (lhs numerator, lhs denominator, rhs numerator, rhs denominator) as
    # certified, unreduced, denominators positive: each is a polynomial in
    # the level parameter n, which the parameter solver fits; never stored
    parts: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def margin(self) -> Fraction | None:
        if self.lhs is None or self.rhs is None:
            return None
        return self.rhs - self.lhs


def row(ident: str, lhs: tuple, rhs: tuple) -> CertRow:
    """The row lhs < rhs, each side an integer (numerator, denominator) pair."""
    left, right = Fraction(*lhs), Fraction(*rhs)
    return CertRow(ident, left, right, "pass" if left < right else "fail", parts=lhs + rhs)


def ratio(x: Fraction) -> tuple:
    return x.numerator, x.denominator


def unverifiable(ident: str, note: str) -> CertRow:
    return CertRow(ident=ident, lhs=None, rhs=None, status="unverifiable", note=note)


def eps_tail_rows(eps: FrequencySequence, new_level: int) -> list:
    """Closed-form tail bounds of the weight scheme, up to the new level."""
    return [
        row(f"eps-tail[N={m}]", ratio(eps.tail(m)), ratio(eps.tail_bound(m)))
        for m in range(1, new_level + 1)
    ]


def inherited_words(eps: FrequencySequence, k: int, rare: dict):
    """(ident, side, m, name, bound) for each inherited word of level m <= k
    checked on one side, with bound = eps_m + ... + eps_k.

    A side's density words are poor in its symbol ``rare[side]``: they are
    made of the level-1 word of the other symbol, and of a_m or b_m above
    level 1, and that word is not checked.
    """
    for m in range(1, k + 1):
        bound = eps.partial(m, k)
        for side, symbol in rare.items():
            skip = level_names(1)[1 - int(symbol)] if m == 1 else f"{side}{m}"
            for name in level_names(m):
                if name != skip:
                    yield f"{side}-freq[m={m},u={name}]", side, m, name, bound


def frequency_row(ident, count: int, size: int, size_next: int, bound: Fraction, dim: int):
    """Row for a word u of ``size`` cells found ``count`` times in the doubled
    next density word (2^dim copies of ``size_next`` cells).

    Its frequency must stay below bound / (size (2 size - 1)^dim).
    """
    rhs = (bound.numerator, bound.denominator * size * (2 * size - 1) ** dim)
    return row(ident, (count, 2**dim * size_next), rhs)


def period_gap_row(k: int, period: int, size_k: int, size_next: int) -> CertRow:
    """|a_k| / |a_(k+1)| below 1/((4k-2) p_k) - 1/(3^k |a_k|), sizes in cells."""
    gap, scale = (4 * k - 2) * period, 3**k * size_k
    return row("period-gap", (size_k, size_next), (scale - gap, gap * scale))


@dataclass
class CertificateReport:
    level: int
    param: int
    rows: list = field(default_factory=list)
    # the row whose pass set starts last, set by the parameter solver; never stored
    binding: CertRow | None = field(default=None, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.rows if r.status != "info")

    @property
    def failed_rows(self) -> list:
        return [r for r in self.rows if r.status == "fail"]

    @property
    def unverifiable_rows(self) -> list:
        return [r for r in self.rows if r.status == "unverifiable"]


def level_names(k: int) -> list[str]:
    """Canonical word names of level k: periodic words first, then a, b."""
    if k == 1:
        return ["w1_1", "w2_1"]
    return [f"w{i}_{k}" for i in range(1, 2 * k - 1)] + [f"a{k}", f"b{k}"]


class Hierarchy:
    """Level state, accessors and the certificate shared by the one- and
    d-dimensional families.

    ``levels[k - 1]`` maps the names of level k to its words; ``params`` and
    ``certificates`` hold one entry per level above the first, and
    ``Hierarchy.__init__`` alone sets them.  :meth:`_certify` assembles
    every certificate; a subclass appends its level-1 words and supplies
    only what it counts and stores:

    - ``rare``, per side the symbol that side's density words are poor in;
    - ``_words(k, n)``, the words of level k+1 at parameter n;
    - ``_tally(k, n, inherited)``: the size of a level-(k+1) word in
      cells, each side's rare-symbol count in its density word, and
      ``{ident: count}`` for the inherited words of level 2 and up it
      counts in the doubled density word under its budget;
    - ``_size(k)``, the cells of a level-k word, and ``period(k)``, the
      period of a_k or None when a_k is over budget;
    - ``word_note`` and ``period_note``, what an unverifiable row says is
      over budget;
    - ``_words_to_obj()`` (the file fields that store its words) and
      ``_pair_counts(k)`` (the pair scan's counts);

    and overrides ``_layout(k, n)`` (rows checked before any count; the
    report stops at one that fails), ``_variants(side, m, name, bound,
    freq)`` (rows reported after a frequency row) and ``_fit_start(k)``
    (where its rows become polynomials in n later than n = 2) where it has
    them.  The level driver of :mod:`camshift.cam1d` needs nothing else.
    ``_words`` and ``_tally`` read levels 1..k, change none, and meet no
    limit but the fields of the family's :class:`Budgets`.  The commands
    call four more methods: ``window(starts, sides)``, ``measure(k, side,
    cylinders)``, ``parse(k, start, blocks)`` and ``complexity(n_max,
    window_length)``; a type refuses what it does not define, so no
    command asks for the dimension.
    """

    rare: dict
    word_note: str
    period_note: str

    def __init__(self, dim: int, budgets: Budgets | None):
        self.eps = FrequencySequence(dim)
        self.dim = dim
        self.budgets = budgets or Budgets()
        self.levels: list[dict] = []
        self.params: list[int] = []
        self.certificates: list[CertificateReport] = []

    @property
    def top_level(self) -> int:
        return len(self.levels)

    def names(self, k: int) -> list[str]:
        self._check_level(k)
        return level_names(k)

    def word(self, k: int, name: str):
        self._check_level(k)
        return self.levels[k - 1][name]

    def _check_level(self, k: int):
        if k < 1 or k > self.top_level:
            raise CamshiftError(f"level {k} not built (levels 1..{self.top_level})")

    def is_certified(self) -> bool:
        return len(self.certificates) == self.top_level - 1 and all(
            c.passed for c in self.certificates
        )

    def _certify(self, k: int, n: int) -> CertificateReport:
        """Exact certification of level k+1 at parameter n against levels
        1..k, the rows in the order of the module docstring."""
        report = CertificateReport(level=k + 1, param=n)
        report.rows += eps_tail_rows(self.eps, k + 1)
        for layout in self._layout(k, n):
            report.rows.append(layout)
            if layout.status == "fail":
                return report  # the words cannot be laid out; counts are moot
        inherited = list(inherited_words(self.eps, k, self.rare))
        size_next, rare_counts, counts = self._tally(k, n, inherited)
        for ident, side, m, name, bound in inherited:
            if m == 1:  # its side's rare symbol (see the module docstring)
                count = 2**self.dim * rare_counts[side]
            elif ident in counts:
                count = counts[ident]
            else:
                report.rows.append(unverifiable(ident, f"unverifiable at budget: {self.word_note}"))
                continue
            freq = frequency_row(ident, count, self._size(m), size_next, bound, self.dim)
            report.rows += [freq, *self._variants(side, m, name, bound, freq)]

        if k >= 2:
            p_k = self.period(k)
            if p_k is None:
                gap = unverifiable("period-gap", f"unverifiable at budget: {self.period_note}")
            else:
                gap = period_gap_row(k, p_k, self._size(k), size_next)
            report.rows.append(gap)

        prefix = ratio(self.eps.partial(1, k))
        for side, symbol in self.rare.items():
            count = rare_counts[side]
            report.rows.append(row(f"{side}-density[{symbol}]", (count, size_next), prefix))
        return report

    def _layout(self, k: int, n: int) -> list:
        """Rows checked before any count; none by default."""
        return []

    def _variants(self, side: str, m: int, name: str, bound: Fraction, freq: CertRow) -> list:
        """Rows reported after a frequency row; none by default."""
        return []

    def _fit_start(self, k: int) -> int:
        """Smallest n from which every row of ``_certify(k, n)`` is a
        polynomial in n; no smaller n passes.  In one dimension every
        parameter n > 1 qualifies."""
        return 2

    def _check_measure_level(self, k: int):
        """Measures are defined for the built levels from 2 on."""
        if not 2 <= k <= self.top_level:
            raise CamshiftError(f"measure is defined for levels 2..{self.top_level}, got {k}")


# -- the output form ------------------------------------------------------------


def canonical_json(obj) -> str:
    """The one JSON text of every file and report: sorted keys, no spaces, a newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def frac_str(x: Fraction | None) -> str:
    """A fraction as the commands print it, "p/q"; "" for none."""
    if x is None:
        return ""
    return f"{x.numerator}/{x.denominator}"
