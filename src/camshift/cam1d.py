"""One-dimensional level hierarchy (:class:`LevelFamily`) and its probes.

Level 1 holds the two single-symbol words.  Level 2 introduces a density
parameter n: two constant words of length n+1 plus the density words
0*1^n and 0^n*1.  From level k >= 2, the step to level k+1 repeats every
level-k word E = (2k+1)n + 2k times to make the periodic words, and builds
the density words by interleaving runs a_k^n (resp. b_k^n) with the other
level-k words, so all level-(k+1) words share one length.

:mod:`camshift.hierarchy` states the family contract, assembles the
certificate and drives the levels; :class:`LevelFamily` supplies its
counts, made on the compressed words.  The probes are transitive-point
windows, structure parsing, empirical measures and complexity profiles,
whose numpy kernel (:mod:`camshift.factors`) loads with the first profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import slp
from .budgets import Budgets
from .errors import BudgetExceeded, CamshiftError
from .hierarchy import Hierarchy, frac_str, level_names
from .hierarchy import (  # kept only for the benchmark, which reads them off this module
    certify_candidate, certify_level, choose_parameter, family_from_obj, verify_distinct_subwords,
)

__all__ = [
    "LevelFamily", "transitive_point_window", "classify_pair", "StructureParse", "parse_structure",
    "empirical_measure", "MeasureRow", "measure_report", "distinct_factor_counts",
    "ComplexityProfile", "complexity_profile", "certify_candidate", "certify_level",
    "choose_parameter", "family_from_obj", "verify_distinct_subwords",
]


class LevelFamily(Hierarchy):
    """A built hierarchy: levels of words, parameters, and certificates."""

    # a-words are mostly 1 (a_2 = 0 1^n), b-words mostly 0
    rare = {"a": "0", "b": "1"}
    word_note = "word exceeds symbol budget"
    period_note = "a_k a_k exceeds symbol budget"

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

    _size = word_length

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
        order, ids = slp.collect_nodes([w for level in self.levels for w in level.values()])
        levels = [
            {"level": k, "words": {name: ids[w.uid] for name, w in level.items()}}
            for k, level in enumerate(self.levels, start=1)
        ]
        return {"levels": levels, "slp": {"nodes": slp.nodes_to_obj(order, ids)}}

    # -- what the level driver and the certificate need -------------------

    def _words(self, k: int, n: int) -> dict:
        """Candidate words of level k+1 at parameter n, from levels 1..k (no checking here)."""
        if n <= 1:
            raise CamshiftError("level parameter must be > 1")
        b = self.builder
        if k == 1:
            zero, one = b.atom("0"), b.atom("1")
            words = [b.power(zero, n + 1), b.power(one, n + 1)]
            words += [b.concat([(zero, 1), (one, n)]), b.concat([(zero, n), (one, 1)])]
            return dict(zip(level_names(2), words))
        exponent = (2 * k + 1) * n + 2 * k
        prev = [self.levels[k - 1][name] for name in level_names(k)]

        def density(base):
            return b.concat([part for w in prev for part in ((base, n), (w, 1))] + [(base, n)])

        words = [b.power(w, exponent) for w in prev] + [density(prev[-2]), density(prev[-1])]
        return dict(zip(level_names(k + 1), words))

    def _tally(self, k: int, n: int, inherited: list) -> tuple:
        """The counts of the level-(k+1) certificate at parameter n, made on
        the compressed density words: each inherited word of level 2 and up
        within the symbol budget in the doubled one.  A built level k+1 is
        counted on its own words: hash-consing returns the nodes already in
        the family."""
        builder = self.builder
        words = self._words(k, n)
        density = {side: words[f"{side}{k + 1}"] for side in self.rare}
        doubled = {side: builder.concat([(word, 2)]) for side, word in density.items()}
        rare_counts = {
            side: builder.count_occurrences(symbol, density[side])
            for side, symbol in self.rare.items()
        }
        counts = {}
        for ident, side, m, name, _ in inherited:
            u = self.string(m, name) if m > 1 else None
            if u is not None:
                counts[ident] = builder.count_occurrences(u, doubled[side])
        return density["a"].length, rare_counts, counts

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


# the allowed pairs of distinct block kinds: a or b (the density words), w (periodic)
_PAIR_KINDS = {"aw": "a-w", "wa": "w-a", "bw": "b-w", "wb": "w-b", "ab": "ab", "ba": "ba"}


def classify_pair(left: str, right: str, k: int) -> str:
    """Classify two adjacent level-k block names; 'violation' if disallowed."""
    if left == right:
        return "equal"
    kinds = {f"a{k}": "a", f"b{k}": "b"}
    pair = "".join(kinds.get(name, "w" if name.startswith("w") else "?") for name in (left, right))
    return _PAIR_KINDS.get(pair, "violation")


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


def distinct_factor_counts(text: str, n_max: int) -> list[int]:
    """p(1), ..., p(n_max) of ``text`` by :mod:`camshift.factors`, imported on first call."""
    from . import factors

    return factors.distinct_factor_counts(text, n_max)


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
