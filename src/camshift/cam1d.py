"""One-dimensional level hierarchy with exact-rational certificates.

Level 1 holds the two single-symbol words.  Level 2 introduces a density
parameter n: two constant words of length n+1 plus the density words
0*1^n and 0^n*1.  From level k >= 2, the step to level k+1 repeats every
level-k word E = (2k+1)n + 2k times to make the periodic words, and builds
the density words by interleaving runs a_k^n (resp. b_k^n) with the other
level-k words, so all level-(k+1) words share one length.

Each parameter is chosen as the smallest integer for which the certifier
passes: every inherited word u of level m must occur in the doubled density
word with frequency below (eps_m + ... + eps_k) / (|u| (2|u|-1)), the
length ratio |a_k|/|a_{k+1}| must clear a bound driven by the minimal
period of a_k a_k, and the single-symbol densities stay below the running
eps prefix sum.  All inequality arithmetic is exact (Fraction); floats
appear nowhere in certification.

This module also holds the level driver for any dimension.  A family type
(:class:`LevelFamily` here, ``camzd.ZdFamily``) is a :class:`Hierarchy`
that supplies two methods: ``_words(k, n)``, the candidate words of level
k+1 at parameter n, and ``_certify(k, n)``, their certificate report.
Everything else exists once and serves both dimensions: :func:`build_level`,
:func:`certify_level`, :func:`certify_candidate`, the parameter search
(:func:`search_parameter`, :func:`choose_parameter`), the build loop
(:func:`build_levels`) and the rebuild-and-compare loader
(:func:`load_family`).  The eps-tail rows, the inherited-word loop, the
frequency and period-gap row formulas (written for dimension d, so d = 1
gives the one-dimensional denominators) and the pair-scan skeleton are
shared too.  ``_words`` and ``_certify`` are pure functions of the prefix
level k and the parameter n: they read levels 1..k of a family and never
change its levels.  Every limit they meet (symbols materialized, pattern
length, cells, search cap) is a field of the family's :class:`Budgets`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import slp
from .budgets import Budgets
from .errors import (
    BudgetExceeded,
    InvalidParameter,
    MalformedFamily,
    MisalignedWindow,
    OutOfBuiltRange,
)

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
            raise InvalidParameter("dimension must be >= 1")

    def value(self, k: int) -> Fraction:
        if k < 1:
            raise InvalidParameter("frequency index must be >= 1")
        return Fraction(1, 2) * Fraction(1, 3 ** (self.dim - 1)) * Fraction(1, 4**k)

    def tail(self, start: int) -> Fraction:
        """Exact value of sum_{n >= start} eps_n."""
        return Fraction(2, 3) * Fraction(1, 3 ** (self.dim - 1)) * Fraction(1, 4**start)

    def tail_bound(self, start: int) -> Fraction:
        return Fraction(1, 3 ** (self.dim + start - 1))

    def tail_ok(self, start: int) -> bool:
        return self.tail(start) < self.tail_bound(start)

    def partial(self, lo: int, hi: int) -> Fraction:
        return sum((self.value(j) for j in range(lo, hi + 1)), Fraction(0))


def default_frequency_sequence(dim: int) -> FrequencySequence:
    return FrequencySequence(dim=dim)


@dataclass
class CertRow:
    ident: str
    lhs: Fraction | None
    rhs: Fraction | None
    status: str  # "pass" | "fail" | "unverifiable" | "info"
    note: str = ""

    @property
    def margin(self) -> Fraction | None:
        if self.lhs is None or self.rhs is None:
            return None
        return self.rhs - self.lhs


def _row(ident: str, lhs: Fraction, rhs: Fraction) -> CertRow:
    return CertRow(ident=ident, lhs=lhs, rhs=rhs, status="pass" if lhs < rhs else "fail")


def _unverifiable(ident: str, note: str) -> CertRow:
    return CertRow(ident=ident, lhs=None, rhs=None, status="unverifiable", note=note)


def _eps_tail_rows(eps: FrequencySequence, new_level: int) -> list:
    """Closed-form tail bounds of the weight scheme, up to the new level."""
    return [
        _row(f"eps-tail[N={m}]", eps.tail(m), eps.tail_bound(m)) for m in range(1, new_level + 1)
    ]


def _inherited_words(eps: FrequencySequence, k: int, skip_a, skip_b):
    """(ident, side, m, name, bound) for each inherited word of level m <= k
    checked on one side, with bound = eps_m + ... + eps_k.

    ``skip_a(m)`` and ``skip_b(m)`` name the word that side's density words
    are made of; it is not checked.
    """
    for m in range(1, k + 1):
        bound = eps.partial(m, k)
        for side, skip in (("a", skip_a(m)), ("b", skip_b(m))):
            for name in level_names(m):
                if name != skip:
                    yield f"{side}-freq[m={m},u={name}]", side, m, name, bound


def _frequency_row(ident, count: int, size: int, size_next: int, bound: Fraction, dim: int):
    """Row for a word u of ``size`` cells found ``count`` times in the doubled
    next density word (2^dim copies of ``size_next`` cells).

    Its frequency must stay below bound / (size (2 size - 1)^dim).
    """
    return _row(
        ident, Fraction(count, 2**dim * size_next), bound / (size * (2 * size - 1) ** dim)
    )


def _period_gap_row(k: int, period: int, size_k: int, size_next: int) -> CertRow:
    """|a_k| / |a_(k+1)| below 1/((4k-2) p_k) - 1/(3^k |a_k|), sizes in cells."""
    lhs = Fraction(size_k, size_next)
    rhs = Fraction(1, (4 * k - 2) * period) - Fraction(1, 3**k * size_k)
    return _row("period-gap", lhs, rhs)


@dataclass
class CertificateReport:
    level: int
    param: int
    rows: list = field(default_factory=list)

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


def _json_int(value, what: str) -> int:
    """A JSON integer from a family file; a bool or a fractional number is malformed."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedFamily(f"{what} must be a JSON integer, got {value!r}")
    return value


_DECIMAL = re.compile("[0-9]+")
_SIGNED_DECIMAL = re.compile("-?[0-9]+")


def _decimal(text, what: str, signed: bool = False) -> int:
    """An integer stored as a decimal string: ASCII digits, and a leading '-'
    only when `signed`.  int() alone would also read '+', '_', surrounding
    whitespace and non-ASCII digits, so one value could be stored many ways."""
    pattern = _SIGNED_DECIMAL if signed else _DECIMAL
    if not isinstance(text, str) or pattern.fullmatch(text) is None:
        raise MalformedFamily(f"{what} must be a decimal string, got {text!r}")
    return int(text)


def _params_from_obj(obj) -> list:
    """The stored parameters: a JSON array of decimal strings (a bare string
    would otherwise be read digit by digit)."""
    if not isinstance(obj["params"], list):
        raise MalformedFamily(f"params must be a JSON array, got {obj['params']!r}")
    return [_decimal(p, "parameter") for p in obj["params"]]


def _check_scheme(obj):
    if obj["eps_scheme"] != EPS_SCHEME:
        raise MalformedFamily(f"unknown frequency scheme {obj['eps_scheme']!r}")


def excluded_a(m: int) -> str:
    """Word skipped on the a-side at level m (the one a-words are made of)."""
    return "w2_1" if m == 1 else f"a{m}"


def excluded_b(m: int) -> str:
    return "w1_1" if m == 1 else f"b{m}"


class Hierarchy:
    """Level accessors shared by the one- and d-dimensional families.

    ``levels[k - 1]`` maps the names of level k to its words; ``params`` and
    ``certificates`` hold one entry per level above the first.  A subclass
    supplies ``_words(k, n)`` (the words of level k+1 at parameter n, from
    levels 1..k) and ``_certify(k, n)`` (their :class:`CertificateReport`);
    the level driver below needs nothing else.
    """

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
            raise OutOfBuiltRange(f"level {k} not built (levels 1..{self.top_level})")

    def is_certified(self) -> bool:
        return len(self.certificates) == self.top_level - 1 and all(
            c.passed for c in self.certificates
        )


class LevelFamily(Hierarchy):
    """A built hierarchy: levels of words, parameters, and certificates."""

    def __init__(self, budgets: Budgets | None = None):
        self.dim = 1
        self.budgets = budgets or Budgets()
        self.eps = default_frequency_sequence(1)
        self.builder = slp.SlpBuilder(snippet_cap=self.budgets.snippet_cap)
        self.levels = [
            {"w1_1": self.builder.atom("0"), "w2_1": self.builder.atom("1")}
        ]
        self.params: list[int] = []
        self.certificates: list[CertificateReport] = []
        self._strings: dict = {("w1_1", 1): "0", ("w2_1", 1): "1"}
        self._periods: dict = {}

    # -- accessors ------------------------------------------------------

    def a(self, k: int) -> slp.SlpExpr:
        return self.word(k, f"a{k}") if k >= 2 else self.word(1, "w2_1")

    def b(self, k: int) -> slp.SlpExpr:
        return self.word(k, f"b{k}") if k >= 2 else self.word(1, "w1_1")

    def word_length(self, k: int) -> int:
        self._check_level(k)
        return next(iter(self.levels[k - 1].values())).length

    def string(self, k: int, name: str) -> str | None:
        """Materialized word, or None when it exceeds the symbol budget."""
        key = (name, k)
        if key in self._strings:
            return self._strings[key]
        expr = self.word(k, name)
        if expr.length > self.budgets.symbols:
            return None
        text = slp.materialize(expr, cap=self.budgets.symbols)
        self._strings[key] = text
        return text

    def period(self, k: int) -> int | None:
        """Minimal period of a_k a_k, or None when over the symbol budget."""
        if k in self._periods:
            return self._periods[k]
        a_k = self.a(k)
        if 2 * a_k.length > self.budgets.symbols:
            return None
        text = self.string(k, f"a{k}" if k >= 2 else "w2_1")
        if text is None:
            return None
        p = slp.minimal_period(text + text)
        self._periods[k] = p
        return p

    # -- the two things the level driver needs ---------------------------

    def _words(self, k: int, n: int) -> dict:
        """Candidate words of level k+1 at parameter n, from levels 1..k (no checking here)."""
        if n <= 1:
            raise InvalidParameter("level parameter must be > 1")
        b = self.builder
        if k == 1:
            zero, one = b.atom("0"), b.atom("1")
            return {
                "w1_2": b.power(zero, n + 1),
                "w2_2": b.power(one, n + 1),
                "a2": b.concat([(zero, 1), (one, n)]),
                "b2": b.concat([(zero, n), (one, 1)]),
            }
        exponent = (2 * k + 1) * n + 2 * k
        prev = self.levels[k - 1]
        a_k, b_k = prev[f"a{k}"], prev[f"b{k}"]
        words = {}
        for i in range(1, 2 * k - 1):
            words[f"w{i}_{k + 1}"] = b.power(prev[f"w{i}_{k}"], exponent)
        words[f"w{2 * k - 1}_{k + 1}"] = b.power(a_k, exponent)
        words[f"w{2 * k}_{k + 1}"] = b.power(b_k, exponent)

        def density(base):
            parts = []
            for i in range(1, 2 * k - 1):
                parts += [(base, n), (prev[f"w{i}_{k}"], 1)]
            parts += [(base, n), (a_k, 1), (base, n), (b_k, 1), (base, n)]
            return b.concat(parts)

        words[f"a{k + 1}"] = density(a_k)
        words[f"b{k + 1}"] = density(b_k)
        return words

    def _certify(self, k: int, n: int) -> CertificateReport:
        """Exact-rational certification of level k+1 at parameter n against levels 1..k.

        A built level k+1 is certified on its own words: hash-consing returns
        the nodes already in the family.
        """
        new_level = k + 1
        builder = self.builder
        words = self._words(k, n)
        a_next = words[f"a{new_level}"]
        b_next = words[f"b{new_level}"]
        len_next = a_next.length
        doubled = {
            "a": builder.concat([(a_next, 2)]),
            "b": builder.concat([(b_next, 2)]),
        }
        report = CertificateReport(level=new_level, param=n)
        report.rows += _eps_tail_rows(self.eps, new_level)

        for ident, side, m, name, bound in _inherited_words(self.eps, k, excluded_a, excluded_b):
            u = self.string(m, name)
            if u is None:
                report.rows.append(
                    _unverifiable(ident, "unverifiable at budget: word exceeds symbol budget")
                )
                continue
            if len(u) >= builder.snippet_cap:
                report.rows.append(
                    _unverifiable(
                        ident,
                        f"unverifiable at budget: pattern length {len(u)} "
                        f"exceeds window cap {builder.snippet_cap}",
                    )
                )
                continue
            count = builder.count_occurrences(u, doubled[side])
            report.rows.append(_frequency_row(ident, count, len(u), len_next, bound, dim=1))

        if k >= 2:
            p_k = self.period(k)
            if p_k is None:
                report.rows.append(
                    _unverifiable(
                        "period-gap", "unverifiable at budget: a_k a_k exceeds symbol budget"
                    )
                )
            else:
                report.rows.append(_period_gap_row(k, p_k, self.word_length(k), len_next))

        prefix = self.eps.partial(1, k)
        report.rows.append(
            _row("a-density[0]", Fraction(builder.count_occurrences("0", a_next), len_next), prefix)
        )
        report.rows.append(
            _row("b-density[1]", Fraction(builder.count_occurrences("1", b_next), len_next), prefix)
        )
        return report


# -- the level driver (any dimension) -----------------------------------------


def build_level(family: Hierarchy, n_next: int) -> Hierarchy:
    """Append level top+1 at the given parameter; no inequality checking."""
    family.levels.append(family._words(family.top_level, n_next))
    family.params.append(n_next)
    return family


def certify_level(family: Hierarchy, k: int | None = None) -> CertificateReport:
    """Re-run the certifier for a built level (default: the top level)."""
    k = family.top_level if k is None else k
    if k < 2 or k > family.top_level:
        raise OutOfBuiltRange(f"no built level {k} to certify")
    return family._certify(k - 1, family.params[k - 2])


def certify_candidate(family: Hierarchy, n: int, at_level: int | None = None) -> CertificateReport:
    """Certify a candidate level at parameter n without building it.

    ``at_level`` defaults to top+1; passing a built level's number re-runs
    the certifier as if that level were the candidate (used to probe the
    pass boundary of already-chosen parameters).
    """
    target = family.top_level + 1 if at_level is None else at_level
    if target < 2 or target > family.top_level + 1:
        raise OutOfBuiltRange(f"cannot certify candidate level {target}")
    return family._certify(target - 1, n)


def search_parameter(family: Hierarchy, certify) -> CertificateReport:
    """The passing report of the smallest n > 1 for which ``certify(n)``, a
    CertificateReport of the family's next level at parameter n, passes;
    n is ``report.param``.

    Doubles until a passing n is found, then bisects between the last
    failing n and it.  Every n is certified at most once: the search keeps
    the report of the smallest passing n it has seen, and the failing lower
    end of the bisection is never tried again.  Doubling past the family's
    ``search_cap`` raises BudgetExceeded.  A report with unverifiable rows
    and no failed row decides nothing, so it stops the search with
    BudgetExceeded.
    """
    if not family.is_certified():
        raise InvalidParameter("family must be certified through its top level")
    cap = family.budgets.search_cap

    def decide(n: int) -> CertificateReport:
        report = certify(n)
        if report.unverifiable_rows and not report.failed_rows:
            notes = "; ".join(r.note for r in report.unverifiable_rows[:2])
            raise BudgetExceeded(
                f"certification of level {report.level} undecidable at budget: {notes}"
            )
        return report

    report = decide(2)
    if report.passed:
        return report
    lo, hi = 2, 4
    best = decide(hi)
    while not best.passed:
        lo = hi
        hi *= 2
        if hi > cap:
            raise BudgetExceeded(f"no passing parameter found up to cap {cap}")
        best = decide(hi)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        report = decide(mid)
        if report.passed:
            hi, best = mid, report
        else:
            lo = mid
    return best


def choose_parameter(family: Hierarchy) -> CertificateReport:
    """The passing report of the smallest n > 1 whose candidate level passes."""
    return search_parameter(family, lambda n: certify_candidate(family, n))


def build_levels(family: Hierarchy, levels: int) -> Hierarchy:
    """Certify and build levels 2..``levels`` of a fresh family, each at the
    parameter the search chose, keeping the report the search certified."""
    if levels < 2:
        raise InvalidParameter("a family needs at least 2 levels")
    for _ in range(levels - 1):
        report = choose_parameter(family)
        build_level(family, report.param)
        family.certificates.append(report)
    return family


def build_family(levels: int, budgets: Budgets | None = None) -> LevelFamily:
    """Build and certify a family through the requested level, each
    parameter auto-chosen."""
    return build_levels(LevelFamily(budgets=budgets), levels)


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


def _pair_report(k: int, names: list, count) -> SubwordReport:
    """Check every ordered pair of distinct level-k words u, v.

    ``count(u, v)`` gives the occurrences of u inside vv; when ``count`` is
    None every pair is reported as certified-by-inequalities.
    """
    tasks = [(u, v) for v in names for u in names if u != v]
    if count is None:
        pairs = [PairCheck(u, v, "certified-by-inequalities", None) for u, v in tasks]
    else:
        pairs = [PairCheck(u, v, "verified", count(u, v)) for u, v in tasks]
    return SubwordReport(level=k, pairs=pairs)


def verify_distinct_subwords(family: LevelFamily, k: int) -> SubwordReport:
    """Scan every ordered pair of distinct level-k words u, v for u inside vv.

    Pairs whose doubled word exceeds the symbol budget are reported as
    certified-by-inequalities, never silently dropped.
    """
    names = family.names(k)
    if 2 * family.word_length(k) > family.budgets.symbols:
        return _pair_report(k, names, None)
    strings = {name: family.string(k, name) for name in names}
    doubles = {name: strings[name] + strings[name] for name in names}
    return _pair_report(
        k, names, lambda u, v: slp.count_occurrences_naive(strings[u], doubles[v])
    )


# -- the transitive point --------------------------------------------------


def transitive_point_window(family: LevelFamily, start: int, size: int) -> str:
    """Symbols x_start ... x_(start+size-1) of the transitive point.

    Coordinates follow the central convention x_1..x_|a_K| =
    x_(1-|a_K|)..x_0 = a_K, so the window must lie inside (-|a_K|, |a_K|].
    """
    if family.top_level < 2:
        raise OutOfBuiltRange("family has no built level >= 2")
    if size < 0:
        raise InvalidParameter("window length must be nonnegative")
    top = family.top_level
    span = family.word_length(top)
    if start <= -span or start + size > span + 1:
        raise OutOfBuiltRange(
            f"window [{start}, {start + size}) outside built range ({-span}, {span}]"
        )
    doubled = family.builder.concat([(family.a(top), 2)])
    return slp.window(doubled, start + span - 1, size, cap=family.budgets.symbols)


PAIR_FORMS = ("equal", "a-w", "w-a", "b-w", "w-b", "ab", "ba")


def classify_pair(left: str, right: str, k: int) -> str:
    """Classify two adjacent level-k block names; 'violation' if disallowed."""
    if left == right:
        return "equal"
    a_name, b_name = f"a{k}", f"b{k}"

    def is_w(name):
        return name.startswith("w")

    if left == a_name and is_w(right):
        return "a-w"
    if is_w(left) and right == a_name:
        return "w-a"
    if left == b_name and is_w(right):
        return "b-w"
    if is_w(left) and right == b_name:
        return "w-b"
    if left == a_name and right == b_name:
        return "ab"
    if left == b_name and right == a_name:
        return "ba"
    return "violation"


@dataclass
class StructureParse:
    level: int
    start: int
    blocks: list
    pair_kinds: list
    violations: list


def parse_structure(family: LevelFamily, k: int, start: int, num_blocks: int) -> StructureParse:
    """Parse an aligned window of the transitive point into level-k blocks.

    The window must start at a coordinate congruent to 1 modulo the level-k
    word length; every block is identified as a level-k word and every
    adjacent pair classified (equal, density-word next to periodic word, or
    one of the two mixed density junctions).
    """
    word_len = family.word_length(k)
    if (start - 1) % word_len != 0:
        raise MisalignedWindow(f"window start {start} is not 1 mod {word_len}")
    if num_blocks < 1:
        raise InvalidParameter("need at least one block")
    strings = {}
    for name in family.names(k):
        text = family.string(k, name)
        if text is None:
            raise BudgetExceeded(f"level-{k} words exceed the symbol budget")
        strings[text] = name
    window_text = transitive_point_window(family, start, num_blocks * word_len)
    blocks = []
    violations = []
    for i in range(num_blocks):
        segment = window_text[i * word_len : (i + 1) * word_len]
        name = strings.get(segment)
        if name is None:
            violations.append(("block", i, "not a level-%d word" % k))
            name = "?"
        blocks.append(name)
    pair_kinds = []
    for i in range(num_blocks - 1):
        kind = classify_pair(blocks[i], blocks[i + 1], k)
        if kind == "violation":
            violations.append(("pair", i, f"{blocks[i]}|{blocks[i + 1]}"))
        pair_kinds.append(kind)
    return StructureParse(
        level=k, start=start, blocks=blocks, pair_kinds=pair_kinds, violations=violations
    )


# -- empirical measures ------------------------------------------------------


def empirical_measure(family: LevelFamily, k: int, side: str, cylinder: str) -> Fraction:
    """Exact shift-average frequency of a cylinder word along the level-k orbit
    segment of the transitive point (side "a") or its mirror (side "b").

    Averages over the 2|a_k| shifts m in (-|a_k|, |a_k|]; windows reaching
    past the central doubled word continue canonically into the next copy
    of the base word.
    """
    if side not in ("a", "b"):
        raise InvalidParameter("side must be 'a' or 'b'")
    if not cylinder:
        raise InvalidParameter("cylinder word must be nonempty")
    if k < 2 or k > family.top_level:
        raise OutOfBuiltRange(f"level {k} not built")
    base = family.a(k) if side == "a" else family.b(k)
    span = base.length
    size = len(cylinder)
    if size > span:
        raise BudgetExceeded("cylinder longer than the orbit segment's base word")
    if size > family.budgets.symbols:
        raise BudgetExceeded("cylinder exceeds the symbol budget")
    builder = family.builder
    if size >= builder.snippet_cap:
        raise BudgetExceeded("cylinder exceeds the counting window cap")
    doubled = builder.concat([(base, 2)])
    inner = builder.count_occurrences(cylinder, doubled)
    prefix_hit = 1 if slp.window(doubled, 0, size) == cylinder else 0
    tail = slp.window(doubled, 2 * span - (size - 1), size - 1) if size > 1 else ""
    continuation = slp.window(base, 0, size)
    edge = slp.count_occurrences_naive(cylinder, tail + continuation)
    return Fraction(inner - prefix_hit + edge, 2 * span)


@dataclass
class MeasureRow:
    level: int
    a_zero: Fraction
    a_one: Fraction
    b_zero: Fraction
    b_one: Fraction
    gap: Fraction
    eps_prefix: Fraction
    a_zero_below_third: bool
    b_one_below_third: bool
    gap_above_third: bool


def measure_report(family: LevelFamily, k_max: int | None = None) -> list:
    """Single-symbol empirical frequencies and separation flags per level."""
    k_max = family.top_level if k_max is None else min(k_max, family.top_level)
    third = Fraction(1, 3)
    rows = []
    for k in range(2, k_max + 1):
        a0 = empirical_measure(family, k, "a", "0")
        a1 = empirical_measure(family, k, "a", "1")
        b0 = empirical_measure(family, k, "b", "0")
        b1 = empirical_measure(family, k, "b", "1")
        gap = abs(a0 - b0)
        rows.append(
            MeasureRow(
                level=k,
                a_zero=a0,
                a_one=a1,
                b_zero=b0,
                b_one=b1,
                gap=gap,
                eps_prefix=family.eps.partial(1, k),
                a_zero_below_third=a0 < third,
                b_one_below_third=b1 < third,
                gap_above_third=gap > third,
            )
        )
    return rows


# -- complexity ---------------------------------------------------------------


def _packed_prefixes(text: str):
    """``(key, bits, per)``: key[i] packs the first ``per`` symbols from i.

    The s distinct symbols get codes 1..s and "past the end" gets 0; with
    bits = s.bit_length(), per = 64 // bits codes fit one uint64 as
    base-2**bits digits, first symbol highest.  key has len(text) + 1
    entries; the last one, 0, stands for the empty suffix.
    """
    size = len(text)
    points = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    seen = np.zeros(int(points.max()) + 1, dtype=np.uint64)
    seen[points] = 1
    code_of = np.cumsum(seen)
    bits = int(code_of[-1]).bit_length()
    per = 64 // bits
    key = np.zeros(size + 2 * per, dtype=np.uint64)
    key[:size] = code_of[points]
    # double the packed width while it fits, then append the top symbols of the next key
    width = 1
    while 2 * width <= per:
        key = (key[:-width] << np.uint64(bits * width)) | key[width:]
        width *= 2
    rest = per - width
    if rest:
        tail = key[width:] >> np.uint64(bits * (width - rest))
        key = (key[:-width] << np.uint64(bits * rest)) | tail
    return key[: size + 1], bits, per


def _packed_lcp(x, y, bits: int, per: int):
    """Common leading symbols of packed keys ``x`` and ``y`` (at most ``per``).

    The highest set bit of x ^ y lies in the first differing symbol, so
    one search against the symbol boundaries 1 << (bits * t) reads it off.
    """
    boundaries = np.uint64(1) << (np.arange(per, dtype=np.uint64) * np.uint64(bits))
    return per - np.searchsorted(boundaries, x ^ y, side="right")


def _stable_order(values, shift: int):
    """Positions sorted by ``values`` (ints below 2**(64-shift)), ties by position."""
    positions = np.arange(len(values), dtype=np.uint64)
    packed = np.sort((values.astype(np.uint64) << np.uint64(shift)) | positions)
    return (packed & np.uint64((1 << shift) - 1)).astype(np.intp)


def distinct_factor_counts(text: str, n_max: int) -> list[int]:
    """Number of distinct length-n factors of ``text`` for n = 1..n_max.

    With N = len(text) suffixes, p(n) = (N - n + 1) - #{lexicographically
    adjacent suffix pairs whose longest common prefix (LCP) is >= n}: the
    suffixes that share a length-n prefix form one run of the sorted order.
    Only the order up to n_max symbols matters, and only LCPs capped at
    n_max.

    Each suffix's first per symbols are packed into one uint64 key (per =
    32 for binary text, see :func:`_packed_prefixes`).  The packing is
    injective and numeric order is lexicographic order: every code is
    below 2**bits, and a suffix's 0 codes past its end sit where any
    longer suffix has a nonzero code, so two suffixes never agree on a
    position past the end of either.  For n_max <= per one sort of the
    keys and the XOR of adjacent keys give every capped LCP.  Longer
    prefixes take ceil(log2(n_max / per)) prefix-doubling rounds (fewer
    once all suffixes are told apart): each ranks the pairs
    (rank[i], rank[i + h]) of the last round, which stand for the first 2h
    symbols.  An adjacent pair's LCP is then a greedy descent over those
    rank levels, largest h first, finished by the packed keys.  Every
    comparison is an integer equality of injective codes: there is no
    hashing and no sampling.

    Cost: one O(N log N) sort, plus one more sort and one O(N) descent
    step per doubling round; memory is O(N) words per kept round.
    """
    if n_max < 1:
        return []
    size = len(text)
    if size >= 1 << 32:
        raise BudgetExceeded("text too long to rank its positions in 32 bits")
    counts = [max(size - n + 1, 0) for n in range(1, n_max + 1)]
    if size < 2:
        return counts
    key, bits, per = _packed_prefixes(text)
    ordered = np.sort(key[:size])
    if n_max <= per:
        lcp = _packed_lcp(ordered[:-1], ordered[1:], bits, per)
    else:
        distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
        rank = np.zeros(size + 1, dtype=np.uint32)  # rank[size] == 0: the empty suffix
        rank[:size] = np.searchsorted(distinct, key[:size]) + 1
        shift = size.bit_length()
        order = _stable_order(rank[:size], shift)
        levels = [key]  # levels[j] tells apart the first per * 2**j symbols
        h, groups = per, len(distinct)
        while h < n_max and groups < size:
            # all positions in order of rank[i + h], which is 0 past the end
            later = order[order >= h]
            ends = np.arange(max(size - h, 0), size)
            by_second = np.concatenate((ends, later - h))
            second = np.concatenate((np.zeros(len(ends), np.uint32), rank[later]))
            pick = _stable_order(rank[by_second], shift)
            order = by_second[pick]
            first, second = rank[order], second[pick]
            fresh = (first[1:] != first[:-1]) | (second[1:] != second[:-1])
            rank = np.zeros(size + 1, dtype=np.uint32)
            rank[order] = np.cumsum(np.concatenate(([True], fresh)))
            groups = int(rank[order[-1]])
            levels.append(rank)
            h *= 2
        left, right = order[:-1], order[1:]
        lcp = np.zeros(size - 1, dtype=np.intp)
        for j in reversed(range(len(levels))):
            same = levels[j][left + lcp] == levels[j][right + lcp]
            lcp += same * (per << j)
        lcp += _packed_lcp(key[left + lcp], key[right + lcp], bits, per)
    at_least = np.cumsum(np.bincount(np.minimum(lcp, n_max), minlength=n_max + 1)[::-1])[::-1]
    return [count - int(pairs) for count, pairs in zip(counts, at_least[1:])]


@dataclass
class ComplexityProfile:
    window_length: int
    counts: list  # counts[i] = p(i+1); lower bounds for the full system


def complexity_profile(family: LevelFamily, n_max: int, window_length: int) -> ComplexityProfile:
    """Distinct-factor counts of a window of x centered at the origin."""
    if window_length > family.budgets.symbols:
        raise BudgetExceeded("window exceeds the symbol budget")
    if n_max < 1 or n_max > window_length:
        raise InvalidParameter("n_max must be in 1..window_length")
    start = 1 - window_length // 2
    text = transitive_point_window(family, start, window_length)
    return ComplexityProfile(
        window_length=window_length, counts=distinct_factor_counts(text, n_max)
    )


# -- serialization -------------------------------------------------------------


def _fraction_obj(x: Fraction | None):
    if x is None:
        return None
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _fraction_from(obj) -> Fraction | None:
    if obj is None:
        return None
    return Fraction(
        _decimal(obj["num"], "numerator", signed=True), _decimal(obj["den"], "denominator")
    )


def report_to_obj(report: CertificateReport) -> dict:
    return {
        "level": report.level,
        "param": str(report.param),
        "rows": [
            {
                "id": r.ident,
                "lhs": _fraction_obj(r.lhs),
                "rhs": _fraction_obj(r.rhs),
                "margin": _fraction_obj(r.margin),
                "status": r.status,
                "note": r.note,
            }
            for r in report.rows
        ],
    }


def report_from_obj(obj) -> CertificateReport:
    """Read a stored report, checking each row against its own numbers.

    The status must be known, a pass or fail must agree with lhs < rhs, and
    the stored margin must equal rhs - lhs; otherwise MalformedFamily.
    """
    report = CertificateReport(
        level=_json_int(obj["level"], "certificate level"),
        param=_decimal(obj["param"], "certificate param"),
    )
    for row in obj["rows"]:
        cert = CertRow(
            ident=row["id"],
            lhs=_fraction_from(row["lhs"]),
            rhs=_fraction_from(row["rhs"]),
            status=row["status"],
            note=row.get("note", ""),
        )
        if cert.status not in ("pass", "fail", "unverifiable", "info"):
            raise MalformedFamily(f"row {cert.ident}: unknown status {cert.status!r}")
        if cert.status in ("pass", "fail") and (
            cert.margin is None or (cert.status == "pass") != (cert.lhs < cert.rhs)
        ):
            raise MalformedFamily(f"row {cert.ident}: status {cert.status} contradicts lhs < rhs")
        if _fraction_from(row["margin"]) != cert.margin:
            raise MalformedFamily(f"row {cert.ident}: stored margin is not rhs - lhs")
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


def family_to_obj(family: LevelFamily) -> dict:
    roots = []
    for k in range(1, family.top_level + 1):
        roots.extend(family.word(k, name) for name in family.names(k))
    order, ids = slp.collect_nodes(roots)
    levels = []
    for k in range(1, family.top_level + 1):
        levels.append(
            {
                "level": k,
                "words": {name: ids[family.word(k, name).uid] for name in family.names(k)},
            }
        )
    return {
        "dim": 1,
        "K": family.top_level,
        "eps_scheme": EPS_SCHEME,
        "params": [str(n) for n in family.params],
        "levels": levels,
        "slp": {"nodes": slp.nodes_to_obj(order, ids)},
        "certificates": [report_to_obj(r) for r in family.certificates],
    }


def load_family(obj, new_family, to_obj, keys) -> Hierarchy:
    """Rebuild a family from its file form and check it against the file.

    ``new_family(dim)`` checks the stored dimension and returns an empty
    family of its type.  The levels are rebuilt from ``params``, every
    stored certificate must be the one of its level and parameter, and each
    of ``keys`` of ``to_obj(family)`` must equal the stored value, so a file
    cannot store words its parameters do not build.  Any malformed field is
    MalformedFamily.
    """
    try:
        family = new_family(_json_int(obj["dim"], "dim"))
        levels = _json_int(obj["K"], "K")
        params = _params_from_obj(obj)
        _check_scheme(obj)
        if len(params) != levels - 1:
            raise MalformedFamily("parameter count does not match K")
        for n in params:
            build_level(family, n)
        family.certificates = _certificates_from_obj(obj["certificates"], params)
        rebuilt = to_obj(family)
        if any(rebuilt[key] != obj[key] for key in keys):
            raise MalformedFamily("serialized words do not match their parameters")
        return family
    except MalformedFamily:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError, InvalidParameter) as exc:
        raise MalformedFamily(f"malformed family file: {exc}") from exc


def family_from_obj(obj, budgets: Budgets | None = None) -> LevelFamily:
    """Rebuild a one-dimensional family; its node table and level roots must
    match the words its parameters build."""

    def new_family(dim):
        if dim != 1:
            raise MalformedFamily("not a one-dimensional family file")
        return LevelFamily(budgets=budgets)

    return load_family(obj, new_family, family_to_obj, ("slp", "levels"))
