"""The family contract, and the level driver that serves every dimension.

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
is the smallest n whose certificate passes.  A row keeps the unreduced
integer pairs it is certified, stored and read with; :func:`row` decides
it by cross-multiplication, with no float; a Fraction is made only where
a row is printed.  A row over budget is :func:`unverifiable`, never passed.

One level driver serves every family type through that contract: the
type picker :func:`new_family`, the one importer of a family module,
building, certifying, the pair scan, the file form and the parameter
solver (:func:`choose_parameter`).  The solver rests on one fact: all
level-k words share one size, so an occurrence of an inherited word meets
at most 2^d level-k blocks, and every count and size in a level-(k+1) row
is an integer polynomial in n of degree <= d from the threshold on; it
certifies at most d + 3 candidates per level, four at each level of the
level-4 family.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .budgets import Budgets
from .errors import BudgetExceeded, CamshiftError, MalformedFamily

EPS_SCHEME = "half-geometric4"


@dataclass(frozen=True)
class FrequencySequence:
    """Summable per-level weights eps_k, every sum in closed form.

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
        return self.partial(k, k)

    def tail(self, start: int) -> Fraction:
        """Exact value of sum_{n >= start} eps_n."""
        return Fraction(2, 3**self.dim * 4**start)

    def tail_bound(self, start: int) -> Fraction:
        return Fraction(1, 3 ** (self.dim + start - 1))

    def partial(self, lo: int, hi: int) -> Fraction:
        """eps_lo + ... + eps_hi = (4^(hi-lo+1) - 1) / (2 3^dim 4^hi); 0 when lo > hi."""
        if lo > hi:
            return Fraction(0)
        if lo < 1:
            raise CamshiftError("frequency index must be >= 1")
        return Fraction(4 ** (hi - lo + 1) - 1, 2 * 3**self.dim * 4**hi)


@dataclass(eq=False)
class CertRow:
    """A row lhs < rhs, each side the integer (numerator, denominator) pair
    it was certified or stored with, unreduced, the denominator positive,
    or None; ``parts`` joins them for the solver.  The Fractions ``lhs``,
    ``rhs`` and ``margin`` are made when read; rows compare by value, their
    sides in lowest terms."""

    ident: str
    left: tuple | None
    right: tuple | None
    status: str  # "pass" | "fail" | "unverifiable" | "info"
    note: str = ""

    @property
    def parts(self) -> tuple | None:
        return None if self.left is None or self.right is None else self.left + self.right

    @property
    def gap(self) -> tuple | None:
        """rhs - lhs as an integer pair, the denominator positive."""
        if self.parts is None:
            return None
        ln, ld, rn, rd = self.parts
        return rn * ld - ln * rd, ld * rd

    @property
    def lhs(self) -> Fraction | None:
        return None if self.left is None else Fraction(*self.left)

    @property
    def rhs(self) -> Fraction | None:
        return None if self.right is None else Fraction(*self.right)

    @property
    def margin(self) -> Fraction | None:
        return None if self.parts is None else Fraction(*self.gap)

    def __eq__(self, other):
        if not isinstance(other, CertRow):
            return NotImplemented
        key = lambda r: (r.ident, _ratio_obj(r.left), _ratio_obj(r.right), r.status, r.note)
        return key(self) == key(other)


def row(ident: str, lhs: tuple, rhs: tuple) -> CertRow:
    """The row lhs < rhs between integer pairs, decided by cross-multiplication."""
    return CertRow(ident, lhs, rhs, "pass" if lhs[0] * rhs[1] < rhs[0] * lhs[1] else "fail")


def unverifiable(ident: str, note: str) -> CertRow:
    return CertRow(ident, None, None, "unverifiable", note)


def eps_tail_rows(eps: FrequencySequence, new_level: int) -> list:
    """Closed-form tail bounds of the weight scheme, up to the new level."""
    return [
        row(f"eps-tail[N={m}]", eps.tail(m).as_integer_ratio(),
            eps.tail_bound(m).as_integer_ratio())
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
    them.  The level driver below needs nothing else.
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

        prefix = self.eps.partial(1, k).as_integer_ratio()
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


# -- the level driver ---------------------------------------------------------


def build_level(family: Hierarchy, n_next: int) -> Hierarchy:
    """Append level top+1 at the given parameter; no inequality checking."""
    family.levels.append(family._words(family.top_level, n_next))
    family.params.append(n_next)
    return family


def certify_level(family: Hierarchy, k: int) -> CertificateReport:
    """Re-run the certifier for built level k at its parameter."""
    if k < 2 or k > family.top_level:
        raise CamshiftError(f"no built level {k} to certify")
    return family._certify(k - 1, family.params[k - 2])


def certify_candidate(family: Hierarchy, n: int) -> CertificateReport:
    """Certify the candidate level top+1 at parameter n without building it."""
    return family._certify(family.top_level, n)


# -- the parameter solver ------------------------------------------------------
# A polynomial is a list of coefficients, lowest degree first, with no
# trailing zero; [] is the zero polynomial.


def _trim(p) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(p, q) -> list:
    out = [0] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _value(p, x):
    total = 0
    for c in reversed(p):
        total = total * x + c
    return total


def _fit(values, start: int) -> list:
    """d! p, where p is the polynomial of degree <= d = len(values) - 1
    through (start + i, values[i]).

    Newton's forward differences in integers:
    d! p(n) = sum_j D^j values[0] (d!/j!) (n - start) ... (n - start - j + 1).
    """
    weight = math.factorial(len(values) - 1)
    poly, basis, diffs = [0] * len(values), [1], list(values)
    for j in range(len(values)):
        weight //= j or 1  # d!/j!
        for i, b in enumerate(basis):
            poly[i] += diffs[0] * weight * b
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        basis = [a - (start + j) * b for a, b in zip([0] + basis, basis + [0])]
    return _trim(poly)


def _fit_rows(reports, start: int) -> dict:
    """ident -> the row's four parts as polynomials in n, fitted through
    ``reports``, certified at n = start, start + 1, ..., start + d, and
    scaled by d!; every report must have the same rows."""
    tables = [_decided_parts(report) for report in reports]
    for table in tables[1:]:
        if table.keys() != tables[0].keys():
            ident = sorted(table.keys() ^ tables[0].keys())[0]
            raise CamshiftError(f"row {ident} is not certified at every fitted parameter")
    return {
        ident: tuple(_fit([table[ident][i] for table in tables], start) for i in range(4))
        for ident in tables[0]
    }


def _decided_parts(report: CertificateReport) -> dict:
    return {r.ident: r.parts for r in report.rows if r.status in ("pass", "fail")}


def _margin(parts) -> list:
    """rhs_num lhs_den - lhs_num rhs_den: with the denominators positive,
    the row passes exactly where this polynomial is positive (parts scaled
    by d! scale it by (d!)^2, which keeps its sign)."""
    lhs_num, lhs_den, rhs_num, rhs_den = parts
    left, right = _poly_mul(rhs_num, lhs_den), _poly_mul(lhs_num, rhs_den)
    return _trim(a - b for a, b in itertools.zip_longest(left, right, fillvalue=0))


def _root_ceilings(p) -> set:
    """Integers among which lies ceil(r) for every real root r of the integer
    polynomial p.

    A linear c0 + c1 x has the ceiling -(c0 // c1).  Above, every root lies
    in (-B, B), B = 2 + max|c_i| // |lead|.  The ceilings of the roots of p'
    (this function, one degree down) and -B, B + 1 cut the line at integers
    ``ends``; between consecutive ends lo < hi, p' has no root in (lo, hi -
    1], so p is monotone on [lo, hi - 1] with at most one root there.  When
    p changes sign on it, a bisection finds the least x with p(lo) p(x) <=
    0, that root's ceiling.  A root in (hi - 1, hi] has the ceiling hi, a
    ceiling of p' (hi is neither -B nor B + 1, as the root lies in (-B,
    B)): root isolation by differentiation (Collins & Loos, SYMSAC 1976).
    """
    if len(p) < 3:
        return {-(p[0] // p[1])} if len(p) == 2 else set()
    bound = 2 + max(abs(c) for c in p[:-1]) // abs(p[-1])
    found = _root_ceilings([i * c for i, c in enumerate(p)][1:])
    ends = sorted(found | {-bound, bound + 1})
    for lo, hi in zip(ends, ends[1:]):
        s, hi = _value(p, lo), hi - 1
        if s and s * _value(p, hi) <= 0:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if s * _value(p, mid) <= 0 else (mid, hi)
            found.add(hi)
    return found


def _smallest_pass(margins, start: int) -> int | None:
    """The smallest integer n >= start at which every margin is positive.

    The points are start, and c and c + 1 for each root ceiling c above it.
    Between two consecutive points x < y, no margin has a root in [x, y - 1]
    (x a root ceiling makes y = x + 1), and past the last point none has a
    root at all; so every margin keeps its sign on x..y-1, and the
    intersection of the pass sets starts at a point if anywhere.
    """
    points = {start}
    for p in margins:
        points.update(x for c in _root_ceilings(p) for x in (c, c + 1) if x > start)
    return next((x for x in sorted(points) if all(_value(p, x) > 0 for p in margins)), None)


def _check_fit(report: CertificateReport, fitted: dict, start: int, scale: int):
    """Every row certified at n >= start has the parts its polynomials
    predict, ``scale`` times each part; Fractions are built only for the error."""
    n = report.param
    if n < start:
        return
    actual = _decided_parts(report)
    for ident in list(fitted) + [i for i in actual if i not in fitted]:
        parts = actual.get(ident)
        values = [_value(p, n) for p in fitted.get(ident, ())]
        if parts is None or [scale * part for part in parts] != values:
            predicted = tuple(Fraction(v, scale) for v in values) if ident in fitted else None
            raise CamshiftError(
                f"level {report.level} row {ident} at n={n}: certified parts "
                f"{parts}, fitted polynomials predict {predicted}"
            )


def _decided(report: CertificateReport) -> CertificateReport:
    """The report, unless a row is unverifiable: such a row stays so at every
    larger n (its word, or the doubled density word, is over budget)."""
    if report.unverifiable_rows:
        notes = "; ".join(r.note for r in report.unverifiable_rows[:2])
        raise BudgetExceeded(
            f"certification of level {report.level} undecidable at budget: {notes}"
        )
    return report


def choose_parameter(family: Hierarchy) -> CertificateReport:
    """The passing report of the smallest n > 1 whose candidate level passes;
    n is ``report.param``.

    Every row's four parts are polynomials in n of degree <= d (the family's
    dimension) from ``family._fit_start(k)`` on, and no smaller n passes.
    The solver certifies the d + 1 parameters from there, fits each part
    exactly in integers (:func:`_fit`), turns each row into one integer
    polynomial inequality (:func:`_margin`) and takes the smallest n in the
    intersection of their pass sets (:func:`_smallest_pass`).  It then
    certifies n and n - 1: every row there must have its predicted parts,
    else a CamshiftError names it; n must pass and n - 1 fail.  No (level,
    n) is certified twice.  The report at n is returned, with ``binding``
    set to its row that fails at n - 1, the first in report order: that
    row's pass set starts last.

    An unverifiable row, at any parameter certified, raises BudgetExceeded;
    rows that no n passes raise CamshiftError.
    """
    if not family.is_certified():
        raise CamshiftError("family must be certified through its top level")
    start = family._fit_start(family.top_level)
    reports = {}

    def certify(n: int) -> CertificateReport:
        if n not in reports:
            reports[n] = _decided(certify_candidate(family, n))
        return reports[n]

    fitted = _fit_rows([certify(n) for n in range(start, start + family.dim + 1)], start)
    n = _smallest_pass([_margin(parts) for parts in fitted.values()], start)
    if n is None:
        raise CamshiftError(f"level {family.top_level + 1}: no parameter passes every row")
    scale = math.factorial(family.dim)
    report = certify(n)
    _check_fit(report, fitted, start, scale)
    below = certify(n - 1) if n > 2 else None
    if below is not None:
        _check_fit(below, fitted, start, scale)
    if not report.passed or (below is not None and below.passed):
        raise CamshiftError(
            f"level {report.level}: n={n} is not the first passing parameter the rows predict"
        )
    if below is not None:
        ident = below.failed_rows[0].ident
        report.binding = next(r for r in report.rows if r.ident == ident)
    return report


def build_levels(family: Hierarchy, levels: int) -> Hierarchy:
    """Certify and build levels 2..``levels`` of a fresh family, each at the
    parameter the search chose, keeping the report the search certified."""
    if levels < 2:
        raise CamshiftError("a family needs at least 2 levels")
    for _ in range(levels - 1):
        report = choose_parameter(family)
        build_level(family, report.param)
        family.certificates.append(report)
    return family


def new_family(dim: int, budgets: Budgets | None = None) -> Hierarchy:
    """An empty family of dimension ``dim``: a ``cam1d.LevelFamily`` for
    d = 1, a ``camzd.ZdFamily`` above, each module imported here and only then."""
    if dim == 1:
        from .cam1d import LevelFamily

        return LevelFamily(budgets)
    from .camzd import ZdFamily

    return ZdFamily(dim, budgets)


def build_family(levels: int, budgets: Budgets | None = None, dim: int = 1) -> Hierarchy:
    """Build and certify a family of dimension ``dim`` through the requested
    level, each parameter auto-chosen."""
    return build_levels(new_family(dim, budgets), levels)


# -- distinct-subword checks ------------------------------------------------


@dataclass
class PairCheck:
    u: str
    v: str
    status: str  # "verified" | "certified-by-inequalities"
    count: int | None


@dataclass
class SubwordReport:
    level: int
    pairs: list

    @property
    def verified(self) -> list:
        return [p for p in self.pairs if p.status == "verified"]

    @property
    def deferred(self) -> list:
        return [p for p in self.pairs if p.status == "certified-by-inequalities"]

    @property
    def violations(self) -> list:
        return [p for p in self.pairs if p.count not in (None, 0)]


def verify_distinct_subwords(family: Hierarchy, k: int) -> SubwordReport:
    """Count every level-k word u in the doubled word vv of every other v.

    The family type counts (``_pair_counts``).  When a doubled word exceeds
    its budget every pair is reported as certified-by-inequalities, never
    silently dropped.
    """
    counts = family._pair_counts(k)
    names = family.names(k)
    tasks = [(u, v) for v in names for u in names if u != v]
    if counts is None:
        pairs = [PairCheck(u, v, "certified-by-inequalities", None) for u, v in tasks]
    else:
        pairs = [PairCheck(u, v, "verified", counts[u, v]) for u, v in tasks]
    return SubwordReport(level=k, pairs=pairs)


# -- the file form -------------------------------------------------------------


def _json_int(value, what: str) -> int:
    """A JSON integer from a family file; a bool or a fractional number is malformed."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedFamily(f"{what} must be a JSON integer, got {value!r}")
    return value


def _decimal(text, what: str, *args, signed: bool = False) -> int:
    """An integer stored as a decimal string: ASCII digits, and a leading '-'
    only when `signed`.  int() alone would also read '+', '_', surrounding
    whitespace and non-ASCII digits, so one value could be stored many ways.
    The error names the value `what`, its {} fields filled from `args` only
    then, so a load formats no message for a well-formed row."""
    if isinstance(text, str) and text.isascii() and (
        text.isdigit() or signed and text[:1] == "-" and text[1:].isdigit()
    ):
        return int(text)
    raise MalformedFamily(f"{what.format(*args)} must be a decimal string, got {text!r}")


def _params_from_obj(obj) -> list:
    """The stored parameters: a JSON array of decimal strings (a bare string
    would otherwise be read digit by digit)."""
    if not isinstance(obj["params"], list):
        raise MalformedFamily(f"params must be a JSON array, got {obj['params']!r}")
    return [_decimal(p, "parameter") for p in obj["params"]]


def _check_scheme(obj):
    if obj["eps_scheme"] != EPS_SCHEME:
        raise MalformedFamily(f"unknown frequency scheme {obj['eps_scheme']!r}")


def _ratio_obj(pair: tuple | None):
    """An integer pair, its denominator positive, stored in lowest terms."""
    if pair is None:
        return None
    g = math.gcd(*pair)
    return {"num": str(pair[0] // g), "den": str(pair[1] // g)}


def _stored_ratio(obj, ident: str, side: str) -> tuple | None:
    """The `side` of row `ident` as its stored (numerator, denominator),
    unreduced, the denominator positive; a stored null stays None."""
    if obj is None:
        return None
    num = _decimal(obj["num"], "row {} {} numerator", ident, side, signed=True)
    den = _decimal(obj["den"], "row {} {} denominator", ident, side)
    if den == 0:
        raise MalformedFamily(f"row {ident} {side} has a zero denominator")
    return num, den


def _json_str(value, what: str, *args) -> str:
    """A JSON string; `what` and `args` name it as in :func:`_decimal`."""
    if not isinstance(value, str):
        raise MalformedFamily(f"{what.format(*args)} must be a JSON string, got {value!r}")
    return value


def report_to_obj(report: CertificateReport) -> dict:
    return {
        "level": report.level,
        "param": str(report.param),
        "rows": [
            {
                "id": r.ident,
                "lhs": _ratio_obj(r.left),
                "rhs": _ratio_obj(r.right),
                "margin": _ratio_obj(r.gap),
                "status": r.status,
                "note": r.note,
            }
            for r in report.rows
        ],
    }


def report_from_obj(obj) -> CertificateReport:
    """Read a stored report, checking each row against its own numbers.

    A row's id and status, and its note when present, must be JSON strings,
    and the status one of pass, fail, unverifiable, info.  Each stored
    fraction is read once as an integer pair ln/ld (lhs), rn/rd (rhs),
    mn/md (margin), every denominator positive, and the checks are integer
    identities: a pass or fail row has both sides and passes exactly when
    rn ld - ln rd > 0, and the margin equals rhs - lhs, mn ld rd ==
    (rn ld - ln rd) md, or is null where a side is.  Any other row is
    MalformedFamily.  A row keeps the stored pairs; no Fraction is made.
    """
    report = CertificateReport(
        level=_json_int(obj["level"], "certificate level"),
        param=_decimal(obj["param"], "certificate param"),
    )
    for stored in obj["rows"]:
        ident = _json_str(stored["id"], "row id")
        status = _json_str(stored["status"], "row {} status", ident)
        note = _json_str(stored.get("note", ""), "row {} note", ident)
        if status not in ("pass", "fail", "unverifiable", "info"):
            raise MalformedFamily(f"row {ident}: unknown status {status!r}")
        lhs = _stored_ratio(stored["lhs"], ident, "lhs")
        rhs = _stored_ratio(stored["rhs"], ident, "rhs")
        margin = _stored_ratio(stored["margin"], ident, "margin")
        cert = CertRow(ident, lhs, rhs, status, note)
        gap = cert.gap  # (rhs - lhs) as (rn ld - ln rd, ld rd), or None where a side is
        if status in ("pass", "fail") and (gap is None or (status == "pass") != (gap[0] > 0)):
            raise MalformedFamily(f"row {ident}: status {status} contradicts lhs < rhs")
        if (margin is None) != (gap is None) or gap and margin[0] * gap[1] != gap[0] * margin[1]:
            raise MalformedFamily(f"row {ident}: stored margin is not rhs - lhs")
        report.rows.append(cert)
    return report


def _certificates_from_obj(objs, params) -> list:
    """The stored reports, checked to be those of levels 2, 3, ... at `params`."""
    reports = [report_from_obj(c) for c in objs]
    if len(reports) != len(params):
        raise MalformedFamily("certificate count does not match the parameters")
    for k, (report, n) in enumerate(zip(reports, params), start=2):
        if (report.level, report.param) != (k, n):
            raise MalformedFamily(
                f"certificate {k - 2} is for level {report.level} at n={report.param}, "
                f"not level {k} at n={n}"
            )
    return reports


def family_to_obj(family: Hierarchy) -> dict:
    """The file form of a family of any dimension."""
    return {
        "dim": family.dim,
        "K": family.top_level,
        "eps_scheme": EPS_SCHEME,
        "params": [str(n) for n in family.params],
        **family._words_to_obj(),
        "certificates": [report_to_obj(r) for r in family.certificates],
    }


def family_from_obj(obj, budgets: Budgets | None = None) -> Hierarchy:
    """Rebuild a family of any dimension from its file form and check it
    against the file.

    The stored ``dim`` picks the family type (:func:`new_family`).  The
    levels are rebuilt from ``params``, every stored certificate must be the
    one of its level and parameter, and every field of
    ``family._words_to_obj()`` must equal the stored one, so a file cannot
    store words its parameters do not build.  Any malformed field is
    MalformedFamily, and so is any parameter the builder refuses: every
    CamshiftError met here but a budget's becomes MalformedFamily.
    """
    if not isinstance(obj, dict) or "dim" not in obj:
        raise MalformedFamily("not a family file: no dim field")
    try:
        family = new_family(_json_int(obj["dim"], "dim"), budgets)
        levels = _json_int(obj["K"], "K")
        params = _params_from_obj(obj)
        _check_scheme(obj)
        if len(params) != levels - 1:
            raise MalformedFamily("parameter count does not match K")
        for n in params:
            build_level(family, n)
        family.certificates = _certificates_from_obj(obj["certificates"], params)
        rebuilt = family._words_to_obj()
        if any(value != obj[key] for key, value in rebuilt.items()):
            raise MalformedFamily("serialized words do not match their parameters")
        return family
    except (MalformedFamily, BudgetExceeded):
        raise
    except (CamshiftError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise MalformedFamily(f"malformed family file: {exc}") from exc
