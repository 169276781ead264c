"""One-dimensional level hierarchy with exact-rational certificates.

Level 1 holds the two single-symbol words.  Level 2 introduces a density
parameter n: two constant words of length n+1 plus the density words
0*1^n and 0^n*1.  From level k >= 2, the step to level k+1 repeats every
level-k word E = (2k+1)n + 2k times to make the periodic words, and builds
the density words by interleaving runs a_k^n (resp. b_k^n) with the other
level-k words, so all level-(k+1) words share one length.

Each parameter is the smallest n at which the certificate of
:mod:`camshift.hierarchy`, where the family contract is stated, passes.
This module also holds the level driver, which serves every family type
through that contract: the type picker :func:`new_family`, building,
certifying, the parameter solver (:func:`choose_parameter`), the file
form and the pair scan.

The solver rests on one fact: all level-k words share one size, so an
occurrence of an inherited word meets at most 2^d level-k blocks, and every
count and size in a level-(k+1) row is an integer polynomial in n of degree
<= d from the threshold on.  Each row keeps its unreduced integer parts
(``CertRow.parts``).  The solver certifies the d + 1 parameters from the
threshold, interpolates every part exactly, and writes the row's lhs < rhs
as one integer polynomial inequality.  A linear one is solved by floor
division, a quadratic one by an ``isqrt`` bracket, a higher one (d >= 3) by
a Sturm count.  The smallest n in the intersection of all the pass sets is
the answer.  The certifier then runs at n and n - 1, and every count and
size there must equal its prediction.  That is at most d + 3 certifier
runs per level, four at each level of the level-4 family.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import sft, slp
from .budgets import Budgets
from .errors import BudgetExceeded, CamshiftError, MalformedFamily
from .hierarchy import (
    EPS_SCHEME,
    CertificateReport,
    CertRow,
    Hierarchy,
    eps_tail_rows,
    frac_str,
    frequency_row,
    inherited_words,
    period_gap_row,
    ratio,
    row,
    unverifiable,
)


def _json_int(value, what: str) -> int:
    """A JSON integer from a family file; a bool or a fractional number is malformed."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedFamily(f"{what} must be a JSON integer, got {value!r}")
    return value


def _decimal(text, what: str, signed: bool = False) -> int:
    """An integer stored as a decimal string: ASCII digits, and a leading '-'
    only when `signed`.  int() alone would also read '+', '_', surrounding
    whitespace and non-ASCII digits, so one value could be stored many ways."""
    if isinstance(text, str) and text.isascii() and (
        text.isdigit() or signed and text[:1] == "-" and text[1:].isdigit()
    ):
        return int(text)
    raise MalformedFamily(f"{what} must be a decimal string, got {text!r}")


def _params_from_obj(obj) -> list:
    """The stored parameters: a JSON array of decimal strings (a bare string
    would otherwise be read digit by digit)."""
    if not isinstance(obj["params"], list):
        raise MalformedFamily(f"params must be a JSON array, got {obj['params']!r}")
    return [_decimal(p, "parameter") for p in obj["params"]]


def _check_scheme(obj):
    if obj["eps_scheme"] != EPS_SCHEME:
        raise MalformedFamily(f"unknown frequency scheme {obj['eps_scheme']!r}")


class LevelFamily(Hierarchy):
    """A built hierarchy: levels of words, parameters, and certificates."""

    # a-words are mostly 1 (a_2 = 0 1^n), b-words mostly 0
    rare = {"a": "0", "b": "1"}

    def __init__(self, budgets: Budgets | None = None):
        super().__init__(1, budgets)
        self.builder = slp.SlpBuilder()
        self.levels.append({"w1_1": self.builder.atom("0"), "w2_1": self.builder.atom("1")})
        self._periods: dict = {}

    # -- accessors ------------------------------------------------------

    def a(self, k: int) -> slp.SlpExpr:
        return self.word(k, f"a{k}")

    def b(self, k: int) -> slp.SlpExpr:
        return self.word(k, f"b{k}")

    def word_length(self, k: int) -> int:
        self._check_level(k)
        return next(iter(self.levels[k - 1].values())).length

    def string(self, k: int, name: str) -> str | None:
        """Materialized word, or None when it exceeds the symbol budget: the
        builder's cached prefix snippet of the whole word, the string its
        counts read."""
        expr = self.word(k, name)
        if expr.length > self.budgets.symbols:
            return None
        return self.builder.prefix_snippet(expr, expr.length)

    def period(self, k: int) -> int | None:
        """Minimal period of a_k a_k, or None when over the symbol budget."""
        if k in self._periods:
            return self._periods[k]
        a_k = self.a(k)
        if 2 * a_k.length > self.budgets.symbols:
            return None
        text = self.string(k, f"a{k}")
        p = slp.minimal_period(text + text)
        self._periods[k] = p
        return p

    def _words_to_obj(self) -> dict:
        """The file fields that store the words: the level roots and the node table."""
        roots = []
        for k in range(1, self.top_level + 1):
            roots.extend(self.word(k, name) for name in self.names(k))
        order, ids = slp.collect_nodes(roots)
        levels = []
        for k in range(1, self.top_level + 1):
            levels.append(
                {
                    "level": k,
                    "words": {name: ids[self.word(k, name).uid] for name in self.names(k)},
                }
            )
        return {"levels": levels, "slp": {"nodes": slp.nodes_to_obj(order, ids)}}

    # -- the two things the level driver needs ---------------------------

    def _words(self, k: int, n: int) -> dict:
        """Candidate words of level k+1 at parameter n, from levels 1..k (no checking here)."""
        if n <= 1:
            raise CamshiftError("level parameter must be > 1")
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
        density = {side: words[f"{side}{new_level}"] for side in self.rare}
        len_next = density["a"].length
        doubled = {side: builder.concat([(word, 2)]) for side, word in density.items()}
        report = CertificateReport(level=new_level, param=n)
        report.rows += eps_tail_rows(self.eps, new_level)

        for ident, side, m, name, bound in inherited_words(self.eps, k, self.rare):
            u = self.string(m, name)
            if u is None:
                report.rows.append(
                    unverifiable(ident, "unverifiable at budget: word exceeds symbol budget")
                )
                continue
            count = builder.count_occurrences(u, doubled[side])
            report.rows.append(frequency_row(ident, count, len(u), len_next, bound, dim=1))

        if k >= 2:
            p_k = self.period(k)
            if p_k is None:
                report.rows.append(
                    unverifiable(
                        "period-gap", "unverifiable at budget: a_k a_k exceeds symbol budget"
                    )
                )
            else:
                report.rows.append(period_gap_row(k, p_k, self.word_length(k), len_next))

        prefix = ratio(self.eps.partial(1, k))
        for side, symbol in self.rare.items():
            count = builder.count_occurrences(symbol, density[side])
            report.rows.append(row(f"{side}-density[{symbol}]", (count, len_next), prefix))
        return report

    def _pair_counts(self, k: int) -> dict | None:
        """(u, v) -> occurrences of u in vv for the distinct level-k words,
        counted compressed (from level 3 on, on level-2 block names); None
        when a doubled word exceeds the symbol budget."""
        names = self.names(k)
        if 2 * self.word_length(k) > self.budgets.symbols:
            return None
        strings = {name: self.string(k, name) for name in names}
        doubles = {name: self.builder.concat([(self.word(k, name), 2)]) for name in names}
        count = self.builder.count_occurrences
        return {(u, v): count(strings[u], doubles[v]) for v in names for u in names if u != v}

    # -- the commands ----------------------------------------------------

    def window(self, starts: list, sides: list) -> str:
        """The line of the ``sides[0]`` symbols of the transitive point from ``starts[0]`` on."""
        if len(starts) != 1 or len(sides) != 1:
            raise CamshiftError("window must have one start and one length")
        return transitive_point_window(self, starts[0], sides[0]) + "\n"

    def measure(self, k: int, side: str | None, cylinders: list | None) -> tuple:
        """The printed lines and the rows of the cylinder measures at level k
        on side a (the default), b or both, of ``cylinders`` (default 0 and
        1).  Every cylinder is measured before any line is returned, so a bad
        one prints nothing."""
        sides = ["a", "b"] if side == "both" else [side or "a"]
        rows = [
            {"side": s, "cylinder": c, "value": frac_str(empirical_measure(self, k, s, c))}
            for s in sides
            for c in (["0", "1"] if cylinders is None else cylinders)
        ]
        return [f"side {r['side']} [{r['cylinder']}] = {r['value']}" for r in rows], rows

    def parse(self, k: int, start: int, blocks: int) -> StructureParse:
        return parse_structure(self, k, start, blocks)

    def complexity(self, n_max: int, window_length: int) -> ComplexityProfile:
        return complexity_profile(self, n_max, window_length)


# -- the level driver (any dimension) -----------------------------------------


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
    return functools.reduce(lambda total, c: total * x + c, reversed(p), 0)


def _fit(values, start: int) -> list:
    """d! p, where p is the polynomial of degree <= d = len(values) - 1
    through (start + i, values[i]).

    Newton's forward differences: d! p(n) = sum_j D^j values[0] (d!/j!)
    (n - start) (n - start - 1) ... (n - start - j + 1), all in integers.
    """
    scale = math.factorial(len(values) - 1)
    poly, basis, diffs = [], [1], list(values)
    for j in range(len(values)):
        weight = diffs[0] * (scale // math.factorial(j))
        poly = [a + weight * b for a, b in itertools.zip_longest(poly, basis, fillvalue=0)]
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        basis = _poly_mul(basis, [-(start + j), 1])
    return _trim(poly)


def _fit_rows(reports, start: int) -> dict:
    """ident -> the row's four parts as polynomials in n, fitted through
    ``reports``, certified at n = start, start + 1, ..., start + d, and
    scaled by d!; every report must have the same rows."""
    tables = [{r.ident: r.parts for r in report.rows if r.parts} for report in reports]
    for table in tables[1:]:
        if table.keys() != tables[0].keys():
            ident = sorted(table.keys() ^ tables[0].keys())[0]
            raise CamshiftError(f"row {ident} is not certified at every fitted parameter")
    return {
        ident: tuple(_fit([table[ident][i] for table in tables], start) for i in range(4))
        for ident in tables[0]
    }


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

    Degree 1: one floor division.  Degree 2: with s = isqrt(disc), each root
    lies between (-b + e) / 2a for e = +-s and e = +-(s + 1), a bracket at
    most 1/2 wide, so its ceiling is the ceiling of one end.  Higher
    degrees (only d >= 3 families have them): bisection of a Sturm count
    down to unit intervals (c - 1, c] inside the Cauchy bound.
    """
    if len(p) < 2:
        return set()
    if len(p) == 2:
        b, a = p
        return {-(b // a)}
    if len(p) == 3:
        c, b, a = p
        disc = b * b - 4 * a * c
        if disc < 0:
            return set()
        s = math.isqrt(disc)
        return {-((b - e) // (2 * a)) for e in (s, s + 1, -s, -s - 1)}
    seq = sft.sturm_sequence(p[::-1])
    bound = 2 + max(abs(c) for c in p[:-1]) // abs(p[-1])
    found, stack = set(), [(-bound - 1, bound)]
    while stack:
        lo, hi = stack.pop()
        if sft.roots_above(seq, lo) == sft.roots_above(seq, hi):
            continue
        if hi - lo == 1:
            found.add(hi)
        else:
            mid = (lo + hi) // 2
            stack += [(lo, mid), (mid, hi)]
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
    (scaled by ``scale``) predict."""
    n = report.param
    if n < start:
        return
    actual = {r.ident: r.parts for r in report.rows if r.parts}
    for ident in list(fitted) + [i for i in actual if i not in fitted]:
        predicted = None
        if ident in fitted:
            predicted = tuple(Fraction(_value(p, n), scale) for p in fitted[ident])
        if actual.get(ident) != predicted:
            raise CamshiftError(
                f"level {report.level} row {ident} at n={n}: certified parts "
                f"{actual.get(ident)}, fitted polynomials predict {predicted}"
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
    """An empty family of dimension ``dim``: a :class:`LevelFamily` for
    d = 1, a ``camzd.ZdFamily`` above.  The one place outside ``camzd``
    that imports it, here and only then, as ``camzd`` imports this module."""
    if dim == 1:
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


# -- the transitive point --------------------------------------------------


def transitive_point_window(family: LevelFamily, start: int, size: int) -> str:
    """Symbols x_start ... x_(start+size-1) of the transitive point.

    Coordinates follow the central convention x_1..x_|a_K| =
    x_(1-|a_K|)..x_0 = a_K, so the window must lie inside (-|a_K|, |a_K|].
    """
    if family.top_level < 2:
        raise CamshiftError("family has no built level >= 2")
    if size < 1:
        raise CamshiftError("window length must be positive")
    top = family.top_level
    span = family.word_length(top)
    if start <= -span or start + size > span + 1:
        raise CamshiftError(
            f"window [{start}, {start + size}) outside built range ({-span}, {span}]"
        )
    if size > family.budgets.symbols:
        raise BudgetExceeded(
            f"window of {size} symbols exceeds materialization budget {family.budgets.symbols}"
        )
    doubled = family.builder.concat([(family.a(top), 2)])
    return slp.window(doubled, start + span - 1, size)


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
    word length, and k must be at least 2 (level 1 has no density words to
    classify against); every block is identified as a level-k word and every
    adjacent pair classified (equal, density-word next to periodic word, or
    one of the two mixed density junctions).

    The window is read run by run: a block's name is looked up once, the
    copies of it that follow are counted by galloping and bisection
    (:func:`slp.run_length`), and :func:`classify_pair` runs only where one
    run meets the next.  A segment that is no level-k word is a run of one
    "?" block.  The violations list every unknown block, then every
    disallowed pair, each in window order.
    """
    if k < 2:
        raise CamshiftError(f"level {k}: structure is parsed into level-k blocks for k >= 2")
    word_len = family.word_length(k)
    if (start - 1) % word_len != 0:
        raise CamshiftError(f"window start {start} is not 1 mod {word_len}")
    if num_blocks < 1:
        raise CamshiftError("need at least one block")
    strings = {}
    for name in family.names(k):
        text = family.string(k, name)
        if text is None:
            raise BudgetExceeded(f"level-{k} words exceed the symbol budget")
        strings[text] = name
    window_text = transitive_point_window(family, start, num_blocks * word_len)
    blocks, pair_kinds = [], []
    unknown, disallowed = [], []
    i = 0
    while i < num_blocks:
        pos = i * word_len
        segment = window_text[pos : pos + word_len]
        name = strings.get(segment)
        if name is None:
            unknown.append(("block", i, "not a level-%d word" % k))
            name, run = "?", 1
        else:
            run = slp.run_length(window_text, segment, pos, num_blocks - i)
        if i:
            kind = classify_pair(blocks[-1], name, k)
            if kind == "violation":
                disallowed.append(("pair", i - 1, f"{blocks[-1]}|{name}"))
            pair_kinds.append(kind)
        blocks += [name] * run
        pair_kinds += ["equal"] * (run - 1)
        i += run
    return StructureParse(
        level=k, start=start, blocks=blocks, pair_kinds=pair_kinds, violations=unknown + disallowed
    )


# -- empirical measures ------------------------------------------------------


def empirical_measure(family: LevelFamily, k: int, side: str, cylinder: str) -> Fraction:
    """Exact shift-average frequency of a cylinder word along the level-k orbit
    segment of the transitive point (side "a") or its mirror (side "b").

    Averages over the 2|a_k| shifts m in (-|a_k|, |a_k|]; windows reaching
    past the central doubled word continue canonically into the next copy
    of the base word, so a cylinder of any length L has a measure.  The
    shifts start in the first two copies of base^(2+r), r = max(1,
    ceil((L - 1) / |base|)), which holds every window they read; a cylinder
    that starts in the last r copies lies in them, so the count is
    count(base^(2+r)) - count(base^r).
    """
    if side not in ("a", "b"):
        raise CamshiftError("side must be 'a' or 'b'")
    if not cylinder:
        raise CamshiftError("cylinder word must be nonempty")
    family._check_measure_level(k)
    base = family.a(k) if side == "a" else family.b(k)
    span = base.length
    if len(cylinder) > family.budgets.symbols:
        raise BudgetExceeded("cylinder exceeds the symbol budget")
    r = max(1, -(-(len(cylinder) - 1) // span))
    builder = family.builder
    head, tail = builder.concat([(base, 2 + r)]), builder.concat([(base, r)])
    count = builder.count_occurrences(cylinder, head) - builder.count_occurrences(cylinder, tail)
    return Fraction(count, 2 * span)


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
    """Single-symbol empirical frequencies and separation flags per level 2..k_max
    (every built level when ``k_max`` is None)."""
    if k_max is None:
        k_max = family.top_level
    else:
        family._check_measure_level(k_max)
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


def _uint(bits: int):
    """The narrowest unsigned numpy dtype of at least ``bits`` bits."""
    return next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if np.iinfo(t).bits >= bits)


def _packed_prefixes(text: str):
    """``(key, bits, per)``: key[i] packs the first ``per`` symbols from i.

    The s distinct symbols get codes 1..s and "past the end" gets 0; with
    bits = s.bit_length(), per = 64 // bits codes fit one uint64 as
    base-2**bits digits, first symbol highest.  key has len(text) + 1
    entries; the last one, 0, stands for the empty suffix.

    Chunks of ``width`` symbols are doubled in the narrowest dtype that
    holds them, while 2 * width symbols fit 32 bits; the uint64 key is then
    assembled in place from per / width chunks, the last one cut short by
    a right shift when width does not divide per.
    """
    size = len(text)
    points = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    seen = np.zeros(int(points.max()) + 1, dtype=bool)
    seen[points] = True
    bits = int(np.count_nonzero(seen)).bit_length()
    per = 64 // bits
    chunk = np.zeros(size + 2 * per, dtype=_uint(bits))
    np.take(np.cumsum(seen, dtype=chunk.dtype), points, out=chunk[:size])
    width = 1
    while 2 * width <= per and 2 * width * bits <= 32:
        doubled = np.left_shift(chunk[:-width], bits * width, dtype=_uint(2 * width * bits))
        doubled |= chunk[width:]
        chunk, width = doubled, 2 * width
    key = chunk[: size + 1].astype(np.uint64)
    for start in range(width, per, width):
        take = min(width, per - start)
        key <<= np.uint64(bits * take)
        piece = chunk[start : start + size + 1]
        key |= piece >> (bits * (width - take)) if take < width else piece
    return key, bits, per


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
    position past the end of either.  For n_max <= per the sorted keys
    are all the order needed.  Longer prefixes take
    ceil(log2(n_max / per)) prefix-doubling rounds (fewer once all
    suffixes are told apart): each ranks the pairs (rank[i], rank[i + h])
    of the last round, which stand for the first 2h symbols.

    Either way the suffixes end up in U groups of equal key or equal final
    rank, and two suffixes of one group share at least n_max symbols, so
    the N - U adjacent pairs inside groups lower every p(n) by one each.
    Only the U - 1 pairs across groups need an LCP: a greedy descent over
    the rank levels, largest h first, finished by the XOR of the packed
    keys.  Every comparison is an integer equality of injective codes:
    there is no hashing and no sampling.

    Cost: one O(N log N) sort of the keys and a few O(N) passes in 8- to
    32-bit words to pack them; then O(U) for the LCPs when n_max <= per.
    Each doubling round adds one more O(N log N) sort and one kept O(N)
    rank array, and the descent costs O(U) per round.
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
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    h, groups = per, len(distinct)
    if h < n_max and groups < size:
        rank = np.zeros(size + 1, dtype=np.uint32)  # rank[size] == 0: the empty suffix
        rank[:size] = np.searchsorted(distinct, key[:size]) + 1
        shift = size.bit_length()
        order = _stable_order(rank[:size], shift)
        levels = [key]  # levels[j] tells apart the first per * 2**j symbols
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
        # neighbours across groups differ in the last level, so the descent starts below it
        left, right = order[:-1][fresh], order[1:][fresh]
        lcp = np.zeros(len(left), dtype=np.intp)
        for j in reversed(range(len(levels) - 1)):
            same = levels[j][left + lcp] == levels[j][right + lcp]
            lcp += same * (per << j)
        ahead, behind = key[left + lcp], key[right + lcp]
    else:
        lcp, ahead, behind = 0, distinct[:-1], distinct[1:]
    lcp = lcp + _packed_lcp(ahead, behind, bits, per)
    at_least = np.cumsum(np.bincount(np.minimum(lcp, n_max), minlength=n_max + 1)[::-1])[::-1]
    inside = size - groups
    return [count - inside - int(pairs) for count, pairs in zip(counts, at_least[1:])]


@dataclass
class ComplexityProfile:
    window_length: int
    counts: list  # counts[i] = p(i+1); lower bounds for the full system


def complexity_profile(family: LevelFamily, n_max: int, window_length: int) -> ComplexityProfile:
    """Distinct-factor counts of a window of x centered at the origin."""
    if window_length > family.budgets.symbols:
        raise BudgetExceeded("window exceeds the symbol budget")
    if n_max < 1 or n_max > window_length:
        raise CamshiftError("n_max must be in 1..window_length")
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


def _stored_ratio(obj, what: str) -> tuple | None:
    """A stored fraction as its (numerator, denominator), unreduced, the
    denominator positive; a stored null stays None."""
    if obj is None:
        return None
    num = _decimal(obj["num"], f"{what} numerator", signed=True)
    den = _decimal(obj["den"], f"{what} denominator")
    if den == 0:
        raise MalformedFamily(f"{what} has a zero denominator")
    return num, den


def _json_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise MalformedFamily(f"{what} must be a JSON string, got {value!r}")
    return value


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

    A row's id and status, and its note when present, must be JSON strings,
    and the status one of pass, fail, unverifiable, info.  Each stored
    fraction is read once as an integer pair ln/ld (lhs), rn/rd (rhs),
    mn/md (margin), every denominator positive, and the checks are integer
    identities: a pass or fail row has both sides and passes exactly when
    rn ld - ln rd > 0, and the margin equals rhs - lhs, mn ld rd ==
    (rn ld - ln rd) md, or is null where a side is.  Any other row is
    MalformedFamily.  Only the two sides a CertRow keeps become Fractions.
    """
    report = CertificateReport(
        level=_json_int(obj["level"], "certificate level"),
        param=_decimal(obj["param"], "certificate param"),
    )
    for stored in obj["rows"]:
        ident = _json_str(stored["id"], "row id")
        status = _json_str(stored["status"], f"row {ident} status")
        note = _json_str(stored.get("note", ""), f"row {ident} note")
        if status not in ("pass", "fail", "unverifiable", "info"):
            raise MalformedFamily(f"row {ident}: unknown status {status!r}")
        lhs = _stored_ratio(stored["lhs"], f"row {ident} lhs")
        rhs = _stored_ratio(stored["rhs"], f"row {ident} rhs")
        margin = _stored_ratio(stored["margin"], f"row {ident} margin")
        decided = status in ("pass", "fail")
        if lhs is None or rhs is None:
            if decided:
                raise MalformedFamily(f"row {ident}: status {status} contradicts lhs < rhs")
            if margin is not None:
                raise MalformedFamily(f"row {ident}: stored margin is not rhs - lhs")
        else:
            (ln, ld), (rn, rd) = lhs, rhs
            gap = rn * ld - ln * rd  # (rhs - lhs) ld rd: positive exactly when lhs < rhs
            if decided and (status == "pass") != (gap > 0):
                raise MalformedFamily(f"row {ident}: status {status} contradicts lhs < rhs")
            if margin is None or margin[0] * ld * rd != gap * margin[1]:
                raise MalformedFamily(f"row {ident}: stored margin is not rhs - lhs")
        left = None if lhs is None else Fraction(*lhs)
        right = None if rhs is None else Fraction(*rhs)
        report.rows.append(CertRow(ident, left, right, status, note))
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
