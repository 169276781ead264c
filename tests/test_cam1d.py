import json
import math
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from cam1d_oracles import (
    build_by_doubling,
    certify_materialized,
    distinct_factor_counts_automaton,
    empirical_measure_edge,
    empirical_measure_scan,
    parse_structure_scan,
    report_from_obj_fractions,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from refusal import refused
from slp_oracles import materialize, scan_count

from camshift import cam1d, camzd, factors, hierarchy, slp
from camshift.budgets import Budgets
from camshift.errors import BudgetExceeded, MalformedFamily

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _benchmark_family():
    """The probe-1d workload's level-4 family, loaded from its fixture."""
    return hierarchy.family_from_obj(json.loads((BENCH / "data" / "family-l4.json").read_text()))


# -- frequency sequence --------------------------------------------------------


def test_default_eps_values():
    eps1 = hierarchy.FrequencySequence(dim=1)
    assert eps1.value(1) == Fraction(1, 8)
    assert eps1.tail(1) == Fraction(1, 6)
    assert eps1.tail(1) < Fraction(1, 3)
    eps2 = hierarchy.FrequencySequence(dim=2)
    assert eps2.value(1) == Fraction(1, 24)


def test_eps_tail_bound_holds_everywhere():
    for dim in (1, 2, 3):
        eps = hierarchy.FrequencySequence(dim=dim)
        for start in range(1, 12):
            assert eps.tail(start) < eps.tail_bound(start)
            # prefix sums approximate the closed form from below
            partial = eps.partial(start, start + 30)
            assert partial < eps.tail(start)


# -- building -------------------------------------------------------------------


def test_level2_materializations():
    family = cam1d.LevelFamily()
    hierarchy.build_level(family, 8)
    assert family.string(2, "a2") == "011111111"
    assert family.string(2, "b2") == "000000001"
    assert family.string(2, "w1_2") == "0" * 9
    assert family.string(2, "w2_2") == "1" * 9


def test_strings_are_the_builders_snippets(family4):
    # one stored string per word: the whole-word prefix snippet the counts read
    builder = family4.builder
    for k in (1, 2, 3):
        for name in family4.names(k):
            expr = family4.word(k, name)
            assert family4.string(k, name) is builder.prefix_snippet(expr, expr.length)
    assert all(family4.string(4, name) is None for name in family4.names(4))


def test_level3_length_identity():
    family = cam1d.LevelFamily()
    hierarchy.build_level(family, 8)
    for n3 in (2, 5, 11):
        words = family._words(2, n3)
        assert words["a3"].length == (5 * n3 + 4) * 9
        assert words["w1_3"].length == words["a3"].length


def test_level4_block_count_identity(family4):
    # |a_{k+1}| / |a_k| = (2k+1) n_{k+1} + 2k for built k >= 2
    for k in (2, 3):
        n_next = family4.params[k - 1]
        assert family4.word_length(k + 1) == ((2 * k + 1) * n_next + 2 * k) * family4.word_length(k)


def test_equal_lengths_within_levels(family4):
    for k in range(1, family4.top_level + 1):
        lengths = {family4.word(k, name).length for name in family4.names(k)}
        assert len(lengths) == 1


def test_begins_and_ends_with_previous(family4):
    for k in (2, 3):
        for side in ("a", "b"):
            prev = getattr(family4, side)(k)
            nxt = getattr(family4, side)(k + 1)
            head = slp.window(prev, 0, min(2000, prev.length))
            assert slp.window(nxt, 0, len(head)) == head
            tail_len = min(2000, prev.length)
            tail = slp.window(prev, prev.length - tail_len, tail_len)
            assert slp.window(nxt, nxt.length - tail_len, tail_len) == tail


def test_build_level_rejects_small_parameter():
    family = cam1d.LevelFamily()
    with refused("level parameter must be > 1"):
        hierarchy.build_level(family, 1)


# -- certification ---------------------------------------------------------------


def test_level2_certificate_margin():
    family = cam1d.LevelFamily()
    report = hierarchy.certify_candidate(family, 8)
    assert report.passed
    row = next(r for r in report.rows if r.ident == "a-freq[m=1,u=w1_1]")
    assert row.lhs == Fraction(1, 9)
    assert row.rhs == Fraction(1, 8)
    assert row.margin == Fraction(1, 72)


def test_level2_strictness_boundary():
    family = cam1d.LevelFamily()
    report = hierarchy.certify_candidate(family, 7)
    assert not report.passed
    assert report.failed_rows  # 1/8 < 1/8 fails strictly


def test_choose_parameter_level2():
    family = cam1d.LevelFamily()
    assert hierarchy.choose_parameter(family).param == 8


@pytest.mark.parametrize(
    "build",
    [
        lambda: hierarchy.build_family(levels=3),
        lambda: camzd.build_family_d(dim=2, levels=2),
        lambda: hierarchy.build_family(levels=4),
    ],
    ids=["d1-levels3", "d2-levels2", "d1-levels4"],
)
def test_build_certifies_each_candidate_once(build, monkeypatch):
    certify = hierarchy.certify_candidate
    reports = []

    def recording(family, n):
        reports.append(certify(family, n))
        return reports[-1]

    monkeypatch.setattr(hierarchy, "certify_candidate", recording)
    family = build()
    seen = [(r.level, r.param) for r in reports]
    assert len(seen) == len(set(seen))
    # d + 1 fitted parameters, then the answer n and n - 1
    assert max(Counter(level for level, _ in seen).values()) <= 5
    # the stored certificates are the reports the search decided on
    assert all(any(c is r for r in reports) for c in family.certificates)


def test_certification_work_is_flat_in_n(monkeypatch):
    # the solver may return any n: a level-4 candidate costs the same at
    # every one (the d-dim analogue is test_certificate_work_does_not_grow_with_n).
    # Each n gets a new family, so no memo carries work over from another n
    work = Counter()
    count, naive = slp.SlpBuilder.count_occurrences, slp.count_occurrences_naive

    def counting(self, pattern, expr):
        work["count calls"] += 1
        return count(self, pattern, expr)

    def scanning(pattern, text):
        work["text bytes"] += len(text)
        return naive(pattern, text)

    monkeypatch.setattr(slp.SlpBuilder, "count_occurrences", counting)
    monkeypatch.setattr(slp, "count_occurrences_naive", scanning)
    for n in (4738998107, 10**15, 10**30):
        family = hierarchy.build_family(levels=3)
        work.clear()
        assert hierarchy.certify_candidate(family, n).passed
        # the two level-1 words are counted from the densities (20 calls before)
        assert work == {"count calls": 18, "text bytes": 96}


def test_choose_parameter_with_no_passing_n():
    class NoPass(hierarchy.Hierarchy):
        def __init__(self):
            hierarchy.Hierarchy.__init__(self, 1, None)
            self.levels.append({})

        def _certify(self, k, n):
            return hierarchy.CertificateReport(k + 1, n, [hierarchy.row("n<1", (n, 1), (1, 1))])

    with refused("^level 2: no parameter passes every row$"):  # a failure, not a budget
        hierarchy.choose_parameter(NoPass())


def _cells(family, k, name) -> str:
    """The symbols of a level-k word, in cell order."""
    if isinstance(family, cam1d.LevelFamily):
        return family.string(k, name)
    return "".join(map(str, family.word(k, name).array.reshape(-1)))


@pytest.mark.parametrize(
    "new_family",
    [cam1d.LevelFamily] + [lambda d=d: camzd.ZdFamily(dim=d) for d in (1, 2, 3)],
    ids=["d1", "zd1", "zd2", "zd3"],
)
def test_rare_table_matches_the_words(new_family):
    # each side's density words are poor in its rare symbol, made of the
    # level-1 word of the other one, and their density row counts the rare one
    family = hierarchy.build_levels(new_family(), 2)
    inherited = list(hierarchy.inherited_words(family.eps, 1, family.rare))
    report = hierarchy.certify_candidate(family, family._fit_start(2))
    for side, rare in family.rare.items():
        other = "10"[int(rare)]
        density = _cells(family, 2, f"{side}2")
        assert density.count(rare) < density.count(other)
        checked = {name for _, s, _, name, _ in inherited if s == side}
        (skipped,) = set(hierarchy.level_names(1)) - checked
        assert _cells(family, 1, skipped) == other
        rows = [r.ident for r in report.rows if r.ident.startswith(f"{side}-density")]
        assert rows == [f"{side}-density[{rare}]"]


@pytest.mark.parametrize(
    "new_family, levels",
    [
        (cam1d.LevelFamily, 4),
        (lambda: camzd.ZdFamily(dim=2), 2),
        # cubic rows: the recursion bisects at degrees 3, 2 and 1
        (lambda: camzd.ZdFamily(dim=3), 2),
        # cubic rows whose pass set starts at 8539
        (lambda: camzd.ZdFamily(dim=3), 3),
    ],
    ids=["d1-levels4", "d2-levels2", "d3-levels2", "d3-levels3"],
)
def test_solver_matches_doubling_search(new_family, levels):
    solved = hierarchy.build_levels(new_family(), levels)
    searched = build_by_doubling(new_family(), levels)
    assert solved.params == searched.params
    assert [hierarchy.report_to_obj(r) for r in solved.certificates] == [
        hierarchy.report_to_obj(r) for r in searched.certificates
    ]


@pytest.mark.parametrize(
    "fixture, level, params",
    [
        ("family3", 2, range(2, 61)),
        ("family3", 3, range(2, 61)),
        # below the postcard margin n = 12 only the eps-tail and stamp-fit rows exist
        ("family_d2", 3, range(8, 21)),
    ],
    ids=["d1-level2", "d1-level3", "d2-level3"],
)
def test_fitted_rows_predict_certified_parts(request, fixture, level, params):
    family = request.getfixturevalue(fixture)
    start = family._fit_start(level - 1)

    def certify(n):
        return family._certify(level - 1, n)

    fitted = hierarchy._fit_rows([certify(n) for n in range(start, start + family.dim + 1)], start)
    scale = math.factorial(family.dim)
    for n in params:
        parts = {r.ident: r.parts for r in certify(n).rows if r.parts}
        if n >= start:
            assert parts.keys() == fitted.keys()
        for ident, actual in parts.items():
            predicted = tuple(Fraction(hierarchy._value(p, n), scale) for p in fitted[ident])
            assert predicted == actual, (n, ident)


def test_solver_rejects_a_non_polynomial_row(monkeypatch):
    certify = cam1d.LevelFamily._certify

    def bent(self, k, n):
        # exact at the fitted n = 2, 3, off by (n - 2)(n - 3) elsewhere
        report = certify(self, k, n)
        i = next(i for i, r in enumerate(report.rows) if r.ident == "a-density[0]")
        count, size, bound_num, bound_den = report.rows[i].parts
        bent_count = count + (n - 2) * (n - 3)
        report.rows[i] = hierarchy.row("a-density[0]", (bent_count, size), (bound_num, bound_den))
        return report

    monkeypatch.setattr(cam1d.LevelFamily, "_certify", bent)
    with refused(r"row a-density\[0\] at n=8: certified parts .*, fitted polynomials predict"):
        hierarchy.choose_parameter(cam1d.LevelFamily())


POLYNOMIALS = st.lists(st.integers(-30, 30), min_size=1, max_size=5).map(hierarchy._trim)


@given(margins=st.lists(POLYNOMIALS, min_size=1, max_size=3), start=st.integers(-20, 20))
@settings(max_examples=300, deadline=None)
@example(margins=[[-6, 1]], start=2)  # linear
@example(margins=[[12, -7, 1]], start=3)  # (n - 3)(n - 4): fails at 3 and 4 only
@example(margins=[[-12, 7, -1]], start=0)  # only 3 < n < 4: never on an integer
@example(margins=[[-1, 0, 2], [0, 0, 0, 1]], start=-5)  # irrational roots, cubic
@example(margins=[[-4, 8, -5, 1]], start=0)  # (n - 1)(n - 2)^2: a double root
@example(margins=[[-28, -30, 11]], start=0)  # a root at 3.46, Cauchy bound 4: gives 4
@example(margins=[[-992, 630, -100]], start=0)  # -(10n - 31)(10n - 32): > 0 on (3.1, 3.2) only
@example(margins=[[-49, 28, -4]], start=0)  # -(2n - 7)^2: a double root off the integers
def test_smallest_pass_matches_a_scan(margins, start):
    # past the Cauchy bound every margin has the sign of its leading coefficient
    bound = max((2 + max(map(abs, p[:-1]), default=0) // abs(p[-1]) for p in margins if p), default=0)
    scan = next(
        (n for n in range(start, max(start, bound) + 2) if all(hierarchy._value(p, n) > 0 for p in margins)),
        None,
    )
    assert hierarchy._smallest_pass(margins, start) == scan


@st.composite
def _factored(draw):
    """(p, ceilings): p = c (q_1 n - a_1) ... (q_k n - a_k) of degree <= 6,
    times a quadratic with no real root when one is drawn, and the ceilings
    ceil(a_i / q_i) of its real roots."""
    quadratic = draw(st.booleans())
    factors = draw(
        st.lists(st.tuples(st.integers(1, 6), st.integers(-60, 60)), min_size=1, max_size=6 - 2 * quadratic)
    )
    p = [draw(st.integers(-5, 5).filter(bool))]
    for q, a in factors:
        p = hierarchy._poly_mul(p, [-a, q])
    if quadratic:
        lead, b = draw(st.integers(1, 5)), draw(st.integers(-20, 20))
        p = hierarchy._poly_mul(p, [b * b // (4 * lead) + draw(st.integers(1, 30)), b, lead])
    return p, {-(-a // q) for q, a in factors}


@given(case=_factored())
@settings(max_examples=300, deadline=None)
@example(case=([28, 30, -11], {0, 4}))  # roots -0.74 and 3.46, Cauchy bound 4
@example(case=([49, -28, 4], {4}))  # (2n - 7)^2
@example(case=(hierarchy._poly_mul([-31, 10], [-32, 10]), {4}))  # roots 3.1 and 3.2
def test_root_ceilings_hold_every_root_ceiling(case):
    p, ceilings = case
    assert ceilings <= hierarchy._root_ceilings(p)


def test_choose_parameter_requires_certified_family():
    family = cam1d.LevelFamily()
    hierarchy.build_level(family, 8)  # built but never certified
    with refused("family must be certified through its top level"):
        hierarchy.choose_parameter(family)


def test_level3_counts_match_naive(family3):
    n3 = family3.params[1]
    a3a3 = family3.string(3, "a3") * 2
    report = family3._certify(2, n3)
    assert report.passed
    for name in ("w1_2", "w2_2", "b2"):
        row = next(r for r in report.rows if r.ident == f"a-freq[m=2,u={name}]")
        pattern = family3.string(2, name)
        count = scan_count(pattern, a3a3)
        assert row.lhs == Fraction(count, len(a3a3))


def test_chooser_boundary_levels(family3):
    for level in (2, 3):
        n = family3.params[level - 2]
        assert family3._certify(level - 1, n).passed
        if n > 2:
            assert not family3._certify(level - 1, n - 1).passed


def test_certification_is_pure(family4, monkeypatch):
    # certifying a lower level reads levels 1..k in place (level 3, where
    # patterns are still counted); the family keeps all its levels throughout
    levels = family4.levels
    seen = []
    string = cam1d.LevelFamily.string

    def recording(self, k, name):
        seen.append(self.top_level)
        return string(self, k, name)

    monkeypatch.setattr(cam1d.LevelFamily, "string", recording)
    hierarchy.certify_level(family4, 3)
    family4._certify(2, family4.params[1])
    assert seen and set(seen) == {4}
    assert family4.levels is levels and family4.top_level == 4


@pytest.mark.parametrize("level", [2, 3])
def test_level1_rows_match_a_scan_of_the_doubled_density_word(family3, level):
    # a level-1 row reads its side's density count: the symbol's
    # occurrences in the materialized doubled density word
    rows = {r.ident: r for r in hierarchy.certify_level(family3, level).rows}
    for side, symbol in family3.rare.items():
        text = materialize(family3.word(level, f"{side}{level}")) * 2
        name = hierarchy.level_names(1)[int(symbol)]
        row = rows[f"{side}-freq[m=1,u={name}]"]
        assert row.parts[:2] == (scan_count(symbol, text), len(text))
        assert row.status == "pass"


def test_certify_unverifiable_rows_reported():
    # a symbol budget below |a_2| = 9 forces the level-3 pattern rows to be flagged
    budgets = Budgets(symbols=8)
    family = cam1d.LevelFamily(budgets=budgets)
    hierarchy.build_level(family, 8)
    report = hierarchy.certify_candidate(family, 20)
    flagged = [r for r in report.rows if r.status == "unverifiable"]
    assert flagged
    assert all("budget" in r.note for r in flagged)


def _row_parts(report):
    return [(r.ident, r.lhs, r.rhs, r.status, r.note, r.parts) for r in report.rows]


# the symbols budget of a family with these level-2 and top-level word lengths
SYMBOL_BUDGETS = {
    "default": lambda len2, top: None,
    "no word above level 1": lambda len2, top: len2 - 1,
    "level-2 words only": lambda len2, top: len2,
    "no a_k a_k": lambda len2, top: top,
}


@pytest.mark.parametrize("budget", SYMBOL_BUDGETS)
@given(params=st.lists(st.integers(2, 4), min_size=1, max_size=3), n=st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_certificate_rows_match_the_materialized_certifier(budget, params, n):
    # row order, notes, counts and parts of the level top+1 candidate, on
    # small hierarchies (levels 2..4), against the spelled-word certifier
    family = cam1d.LevelFamily()
    for p in params:
        hierarchy.build_level(family, p)
    symbols = SYMBOL_BUDGETS[budget](family.word_length(2), family.word_length(family.top_level))
    family = cam1d.LevelFamily(budgets=Budgets(symbols=symbols) if symbols else None)
    for p in params:
        hierarchy.build_level(family, p)
    report = hierarchy.certify_candidate(family, n)
    assert _row_parts(report) == _row_parts(certify_materialized(family, family.top_level, n))
    # every budget below the default leaves a_k a_k unverifiable
    assert ("period-gap" in {r.ident for r in report.unverifiable_rows}) == (symbols is not None)


# -- distinct-subword scans -------------------------------------------------------


def test_verify_level2(family3):
    report = hierarchy.verify_distinct_subwords(family3, 2)
    assert len(report.pairs) == 12
    assert all(p.status == "verified" and p.count == 0 for p in report.pairs)


def test_verify_skips_equal_pair(family3):
    report = hierarchy.verify_distinct_subwords(family3, 2)
    assert all(p.u != p.v for p in report.pairs)
    # the self-pair count would not be zero, which is why it is skipped
    a2 = family3.string(2, "a2")
    assert slp.count_occurrences_naive(a2, a2 + a2) >= 2


def test_verify_over_budget_defers(family4):
    report = hierarchy.verify_distinct_subwords(family4, 4)
    assert report.pairs and all(p.status == "certified-by-inequalities" for p in report.pairs)
    assert not report.violations


def test_verify_counts_match_scan_of_doubled_words():
    # the compressed pair counts against a scan of the materialized vv,
    # and the skipped self-pairs, which do occur, through the same builder
    family = cam1d.LevelFamily()
    for n in (3, 2):
        hierarchy.build_level(family, n)
    for k in (2, 3):
        strings = {name: family.string(k, name) for name in family.names(k)}
        report = hierarchy.verify_distinct_subwords(family, k)
        assert len(report.verified) == len(strings) * (len(strings) - 1)
        for pair in report.pairs:
            assert pair.count == scan_count(strings[pair.u], strings[pair.v] * 2)
        for name, text in strings.items():
            doubled = family.builder.concat([(family.word(k, name), 2)])
            count = family.builder.count_occurrences(text, doubled)
            assert count == scan_count(text, text * 2) >= 2


# -- counting hierarchy words on block names ----------------------------------------


@given(params=st.lists(st.integers(2, 6), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_certificate_counts_match_scan_of_doubled_words(params):
    # every count in every certificate of a small hierarchy (levels 2..4)
    # against a scan of the materialized doubled density words
    family = cam1d.LevelFamily()
    for n in params:
        hierarchy.build_level(family, n)
    for k in range(2, family.top_level + 1):
        report = hierarchy.certify_level(family, k)
        texts = {side: family.string(k, f"{side}{k}") for side in "ab"}
        for row in report.rows:
            if row.ident.startswith(("a-freq", "b-freq")):
                m, name = row.ident[row.ident.index("=") + 1 : -1].split(",u=")
                pattern, text = family.string(int(m), name), texts[row.ident[0]] * 2
            elif "density" in row.ident:
                pattern, text = row.ident[-2], texts[row.ident[0]]
            else:
                continue
            assert row.parts[0] == scan_count(pattern, text), row.ident


@pytest.fixture()
def junction_work(monkeypatch):
    """The compressed counter's work as it goes: text scans and their bytes,
    junction name tables built, and block-name counts with their memo
    misses."""
    work = Counter()
    naive, junction = slp.count_occurrences_naive, slp._junction
    name_count, keep = slp.SlpBuilder._name_count, slp.SlpBuilder._keep

    def scanning(pattern, text):
        work["text scans"] += 1
        work["text bytes"] += len(text)
        return naive(pattern, text)

    def building(*args):
        work["junctions"] += 1
        return junction(*args)

    def counting(self, *args):
        work["name counts"] += 1
        return name_count(self, *args)

    def keeping(self, key, value, size):
        if len(key) == 4 and isinstance(key[0], tuple):  # (names, lo, hi, pattern)
            work["name count misses"] += 1
        return keep(self, key, value, size)

    monkeypatch.setattr(slp, "count_occurrences_naive", scanning)
    monkeypatch.setattr(slp, "_junction", building)
    monkeypatch.setattr(slp.SlpBuilder, "_name_count", counting)
    monkeypatch.setattr(slp.SlpBuilder, "_keep", keeping)
    return work


def test_junction_work_of_a_level4_build_and_verify(junction_work):
    # pinned: a junction's names are built once per (junction, q), so a
    # counter without that memo builds more tables
    work = junction_work
    family = hierarchy.build_family(levels=4)
    assert family.params == [8, 979, 4738998107]
    assert work == {
        "text scans": 48,
        "text bytes": 656,
        "junctions": 90,
        "name counts": 680,
        "name count misses": 102,
    }
    # the verify pair scans on the built family: level 2 is all hits, and at
    # level 3 the memo already holds the seams of the two repeated words
    work.clear()
    for k in (2, 3):
        hierarchy.verify_distinct_subwords(family, k)
    assert work == {"junctions": 4, "name counts": 30, "name count misses": 20}


def test_junction_work_of_a_loaded_level4_verify(family4, junction_work):
    # the loader rebuilds the words without counting, and the pair scans on
    # its fresh builder meet every seam anew: the same 30 name counts as on
    # the built family, with 6 junction tables and all 30 counts misses
    loaded = hierarchy.family_from_obj(json.loads(json.dumps(hierarchy.family_to_obj(family4))))
    assert junction_work == {}
    for k in (2, 3):
        hierarchy.verify_distinct_subwords(loaded, k)
    assert junction_work == {
        "text scans": 24,
        "text bytes": 300,
        "junctions": 6,
        "name counts": 30,
        "name count misses": 30,
    }


def test_cold_level4_counts_cut_the_pattern_not_the_junction(family4, junction_work, monkeypatch):
    # an occurrence off a block boundary is matched by cutting the pattern,
    # once per (pattern, ell) and offset h in 1..ell-1, against the names of
    # the junction as they are: no junction's names are ever shifted (one
    # cold level-4 certificate used to shift them 266 times)
    shifts = []

    def recording(names, h):
        shifts.append((sys._getframe(1).f_code.co_name, names, h))
        return shifted(names, h)

    shifted = slp._shifted
    monkeypatch.setattr(slp, "_shifted", recording)
    obj = json.loads(json.dumps(hierarchy.family_to_obj(family4)))
    cold_certify = {
        "text scans": 48,
        "text bytes": 656,
        "junctions": 24,
        "name counts": 170,
        "name count misses": 102,
    }
    cold_verify = {"junctions": 6, "name counts": 30, "name count misses": 30}
    for run, work in (
        (lambda: hierarchy.certify_level(hierarchy.family_from_obj(obj), 4), cold_certify),
        (lambda: hierarchy.verify_distinct_subwords(hierarchy.family_from_obj(obj), 3), cold_verify),
    ):
        shifts.clear()
        junction_work.clear()
        run()
        assert junction_work == work
        assert {caller for caller, _, _ in shifts} == {"_cut"}
        per_pattern = Counter(names for _, names, _ in shifts)
        assert all(n <= len(names[0][0]) - 1 for names, n in per_pattern.items())
        assert len(set(shifts)) == len(shifts)
        # only w1_3 and w2_3, runs of one level-2 word, meet a name off a
        # block boundary
        assert (len(per_pattern), len(shifts)) == (2, 16)


def test_cold_level4_certificate_checks_no_spelled_word(family4, monkeypatch):
    # the level-3 words a certificate counts are the builder's own whole-word
    # snippets, spelled from its atoms: only the density symbols, which come
    # from the family's class table, are checked for stray symbols
    checked = []

    def recording(pattern):
        checked.append(pattern)
        return check(pattern)

    check = slp._check_symbols
    monkeypatch.setattr(slp, "_check_symbols", recording)
    obj = json.loads(json.dumps(hierarchy.family_to_obj(family4)))
    loaded = hierarchy.family_from_obj(obj)
    hierarchy.certify_level(loaded, 4)
    assert sorted(checked) == ["0", "1"]
    # a pattern from outside the builder is still checked, once
    for _ in range(2):
        loaded.builder.count_occurrences("0110", loaded.a(3))
    assert sorted(checked) == ["0", "0110", "1"]


def test_level4_build_scans_no_text_for_a_level3_word(monkeypatch):
    # every junction a level-3 word meets in a level-4 build is decided on
    # level-2 block names; only the short patterns are counted in texts
    seen = []

    def recording(pattern, text):
        seen.append(len(pattern))
        return naive(pattern, text)

    naive = slp.count_occurrences_naive
    monkeypatch.setattr(slp, "count_occurrences_naive", recording)
    family = hierarchy.build_family(levels=4)
    assert family.params == [8, 979, 4738998107]
    assert seen and max(seen) < family.word_length(3)


# -- transitive point --------------------------------------------------------------


def test_transitive_window_examples(family3):
    assert cam1d.transitive_point_window(family3, 1, 9) == "011111111"
    assert cam1d.transitive_point_window(family3, -8, 9) == "011111111"
    with refused(r"window \[\d+, \d+\) outside built range"):
        cam1d.transitive_point_window(family3, family3.word_length(3), 2)


def test_transitive_window_checks_the_symbol_budget():
    family = cam1d.LevelFamily(budgets=Budgets(symbols=8))
    hierarchy.build_level(family, 8)
    assert cam1d.transitive_point_window(family, 1, 8) == "01111111"
    with pytest.raises(BudgetExceeded, match="window of 9 symbols exceeds"):
        cam1d.transitive_point_window(family, 1, 9)


def test_transitive_window_nested_consistency(family4):
    # the window is the same whether read at level 3 or level 4 context
    small = hierarchy.build_family(levels=3)
    for start, size in ((1, 40), (-30, 60), (-small.word_length(3) + 1, 100)):
        assert cam1d.transitive_point_window(small, start, size) == cam1d.transitive_point_window(
            family4, start, size
        )


def test_parse_structure_inside_a3(family3):
    n3 = family3.params[1]
    # the first n3+2 blocks of x are a2^n3, w1_2, a2
    result = cam1d.parse_structure(family3, 2, 1, n3 + 2)
    assert result.blocks == ["a2"] * n3 + ["w1_2", "a2"]
    assert result.pair_kinds == ["equal"] * (n3 - 1) + ["a-w", "w-a"]
    assert not result.violations


def test_parse_structure_origin_pair(family3):
    result = cam1d.parse_structure(family3, 2, 1 - family3.word_length(2), 2)
    assert result.blocks == ["a2", "a2"]
    assert result.pair_kinds == ["equal"]


def test_parse_structure_alignment_error(family3):
    with refused("window start 2 is not 1 mod 9"):
        cam1d.parse_structure(family3, 2, 2, 4)


def test_parse_structure_level3_window(family4):
    result = cam1d.parse_structure(family4, 3, 1, 20)
    assert not result.violations
    assert set(result.blocks) <= set(family4.names(3))


def _aligned_window(data, family, k, most_blocks):
    """A drawn (start, num_blocks) whose level-k blocks lie inside x's built range."""
    word_len = family.word_length(k)
    half = family.word_length(family.top_level) // word_len  # blocks on each side of the origin
    num_blocks = data.draw(st.integers(1, min(most_blocks, 2 * half)), label="num_blocks")
    low, high = -half, half - num_blocks
    # anywhere, or across the nearest junction on either side of the origin:
    # x_1... starts a_k^n w1_k, and ...x_0 ends b_k a_k^n (n the level-(k+1) parameter)
    n = family.params[k - 1]
    near = st.sampled_from([-n - 1, n]).flatmap(lambda j: st.integers(j - 30, j + 30))
    first = data.draw(
        st.integers(low, high) | near.map(lambda j: min(max(j, low), high)), label="first block"
    )
    return 1 + first * word_len, num_blocks


# (family fixture, k, most blocks): the windows stay under the 10^6-symbol budget
PARSE_CASES = [("family3", 2, 10_000), ("family4", 2, 3_000), ("family4", 3, 22)]


def _flipping(flips):
    """``transitive_point_window`` with the symbols at ``flips`` (window offsets) flipped."""
    window = cam1d.transitive_point_window

    def flipped(family, start, size):
        text = list(window(family, start, size))
        for i in flips:
            text[i] = "1" if text[i] == "0" else "0"
        return "".join(text)

    return flipped


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_parse_structure_matches_the_block_scan(request, data):
    name, k, most = data.draw(st.sampled_from(PARSE_CASES), label="case")
    family = request.getfixturevalue(name)
    start, num_blocks = _aligned_window(data, family, k, most)
    word_len = family.word_length(k)
    # symbols flipped in a few of the first blocks, so unknown blocks often meet
    flipped_blocks = data.draw(st.sets(st.integers(0, min(num_blocks, 40) - 1), max_size=6))
    flips = [
        b * word_len + data.draw(st.integers(0, word_len - 1), label="offset")
        for b in sorted(flipped_blocks)
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cam1d, "transitive_point_window", _flipping(flips))
        fast = cam1d.parse_structure(family, k, start, num_blocks)
        assert vars(fast) == vars(parse_structure_scan(family, k, start, num_blocks))


def test_parse_structure_reports_flipped_blocks(family3):
    # blocks 0..3 are a2; flip the 0 of block 1 (a2 -> w2_2) and a 1 in blocks 2 and 3
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cam1d, "transitive_point_window", _flipping([9, 20, 30]))
        result = cam1d.parse_structure(family3, 2, 1, 6)
        assert vars(result) == vars(parse_structure_scan(family3, 2, 1, 6))
    assert result.blocks == ["a2", "w2_2", "?", "?", "a2", "a2"]
    assert result.pair_kinds == ["a-w", "violation", "equal", "violation", "equal"]
    assert result.violations == [
        ("block", 2, "not a level-2 word"),
        ("block", 3, "not a level-2 word"),
        ("pair", 1, "w2_2|?"),
        ("pair", 3, "?|a2"),
    ]


def test_benchmark_parse_reads_the_window_run_by_run(monkeypatch):
    # the probe-1d parse: x over (-|a3|, |a3|] in level-2 blocks
    family = _benchmark_family()
    extent, block = family.word_length(3), family.word_length(2)
    calls = Counter()

    class CountingStr(str):
        def startswith(self, *args):
            calls["startswith"] += 1
            return super().startswith(*args)

        def __getitem__(self, key):
            calls["lookup"] += 1
            return super().__getitem__(key)

    def classify(left, right, k):
        calls["classify"] += 1
        return classify_pair(left, right, k)

    window, classify_pair = cam1d.transitive_point_window, cam1d.classify_pair
    monkeypatch.setattr(cam1d, "transitive_point_window", lambda *a: CountingStr(window(*a)))
    monkeypatch.setattr(cam1d, "classify_pair", classify)
    result = cam1d.parse_structure(family, 2, 1 - extent, 2 * extent // block)
    assert len(result.blocks) == 9798 and not result.violations
    assert calls["classify"] == sum(a != b for a, b in zip(result.blocks, result.blocks[1:]))
    assert calls["startswith"] + calls["lookup"] <= 200


# -- measures -----------------------------------------------------------------------


def test_empirical_measure_examples(family3):
    assert cam1d.empirical_measure(family3, 2, "a", "0") == Fraction(1, 9)
    assert cam1d.empirical_measure(family3, 2, "b", "1") == Fraction(1, 9)
    total = cam1d.empirical_measure(family3, 2, "a", "0") + cam1d.empirical_measure(
        family3, 2, "a", "1"
    )
    assert total == 1


def test_empirical_measure_longer_cylinder(family3):
    # frequency of the whole a2 word along the level-2 segment
    value = cam1d.empirical_measure(family3, 2, "a", "011111111")
    assert value == Fraction(2, 18)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_empirical_measure_matches_the_edge_oracle(family4, data):
    # cylinders from inside the base word, across the seam of base base
    # (the windows that continue into the next copy), whole base words of
    # levels 2 and 3, and drawn words
    k = data.draw(st.integers(2, 4), label="level")
    side = data.draw(st.sampled_from("ab"), label="side")
    base = family4.a(k) if side == "a" else family4.b(k)
    span = base.length
    kind = data.draw(st.sampled_from(["inside", "seam", "whole", "drawn"]), label="kind")
    if kind == "whole" and span <= 50_000:
        cylinder = slp.window(base, 0, span)
    elif kind == "drawn":
        words = st.text(alphabet="01", min_size=1, max_size=min(span, 40))
        cylinder = data.draw(words, label="cylinder")
    else:
        size = data.draw(st.integers(1, min(span, 120)), label="size")
        if kind == "seam" and size > 1:
            start = data.draw(st.integers(span - size + 1, span - 1), label="start")
        else:
            start = data.draw(st.integers(0, span - size), label="start")
        cylinder = slp.window(family4.builder.concat([(base, 2)]), start, size)
    expected = empirical_measure_edge(family4, k, side, cylinder)
    assert cam1d.empirical_measure(family4, k, side, cylinder) == expected


def _measure_cases(family, k):
    """Cylinders of lengths around 1, 2 and 3 copies of the level-k base
    words, read from base^4 at starts across its first copy, and drawn
    words of those lengths."""
    rng = random.Random(k)
    span = family.word_length(k)
    sizes = {1, 2, span - 1, span, span + 1, span + 2, 2 * span - 1, 2 * span}
    sizes |= {2 * span + 1, 2 * span + 2, 2 * span + 7, 3 * span + 2}
    for side in "ab":
        text = family.string(k, f"{side}{k}") * 4
        for size in sorted(sizes):
            for start in {0, 1, span // 2, span - 1}:
                yield side, text[start : start + size]
            yield side, "".join(rng.choice("01") for _ in range(size))


@pytest.mark.parametrize("k", [2, 3])
def test_empirical_measure_matches_a_window_scan_at_any_length(family3, k):
    # the shift average is defined for every length: windows past the
    # doubled word continue into the next copy of the base
    for side, cylinder in _measure_cases(family3, k):
        expected = empirical_measure_scan(family3, k, side, cylinder)
        assert cam1d.empirical_measure(family3, k, side, cylinder) == expected, len(cylinder)


def test_empirical_measure_follows_the_family_symbol_budget(family4):
    # a cylinder longer than 10^6 symbols is measured under a larger budget
    family = cam1d.LevelFamily(budgets=Budgets(symbols=1_100_000))
    for n in family4.params:
        hierarchy.build_level(family, n)
    cylinder = slp.window(family.a(4), 0, 1_020_000)
    value = cam1d.empirical_measure(family, 4, "a", cylinder)
    assert isinstance(value, Fraction) and 0 < value <= 1


def test_measure_report_flags(family4):
    rows = cam1d.measure_report(family4)
    assert [row.level for row in rows] == [2, 3, 4]
    for row in rows:
        assert row.a_zero + row.a_one == 1
        assert row.a_zero < row.eps_prefix < Fraction(1, 3)
        assert row.a_zero_below_third and row.b_one_below_third and row.gap_above_third
    level2 = rows[0]
    assert level2.a_zero == Fraction(1, 9)
    assert level2.b_zero == Fraction(8, 9)
    assert level2.gap == Fraction(7, 9)


def test_measure_report_rejects_unbuilt_levels(family3):
    for k_max in (-5, 1, 4, 9):
        with refused(rf"^measure is defined for levels 2\.\.3, got {k_max}$"):
            cam1d.measure_report(family3, k_max)
    assert [row.level for row in cam1d.measure_report(family3, 2)] == [2]


# -- complexity ----------------------------------------------------------------------


def test_complexity_profile_examples(family3):
    profile = cam1d.complexity_profile(family3, 8, 2 * family3.word_length(3))
    assert profile.counts[0] == 2
    assert profile.counts[1] == 4
    for i in range(len(profile.counts) - 1):
        assert profile.counts[i] <= profile.counts[i + 1]


def test_distinct_factor_counts_brute(rng):
    for _ in range(40):
        text = "".join(rng.choice("01") for _ in range(rng.randint(1, 60)))
        n_max = min(len(text), 10)
        assert factors.distinct_factor_counts(text, n_max) == _brute_counts(text, n_max)


def _brute_counts(text, n_max):
    return [len({text[i : i + n] for i in range(len(text) - n + 1)}) for n in range(1, n_max + 1)]


SYMBOL_POOL = "01abcdefgé一\U0001F600"
WIDE_ALPHABET = [chr(0x4E00 + i) for i in range(300)]  # 9-bit codes, 7 per uint64


@st.composite
def factor_cases(draw):
    """Random, periodic and one-symbol-off periodic texts with an n_max past their end."""
    alphabet = draw(
        st.lists(st.sampled_from(SYMBOL_POOL), min_size=1, max_size=10, unique=True)
        | st.just(WIDE_ALPHABET)
    )
    symbol = st.sampled_from(alphabet)
    length = draw(st.integers(0, 80))
    kind = draw(st.sampled_from(["random", "periodic", "periodic-changed"]))
    if kind == "random":
        text = "".join(draw(st.lists(symbol, min_size=length, max_size=length)))
    else:
        period = "".join(draw(st.lists(symbol, min_size=1, max_size=7)))
        text = (period * (length // len(period) + 1))[:length]
        if kind == "periodic-changed" and text:
            i = draw(st.integers(0, len(text) - 1))
            text = text[:i] + draw(symbol) + text[i + 1 :]
    return text, draw(st.integers(1, len(text) + 3))


@given(case=factor_cases())
@example(case=("", 3))
@example(case=("一", 2))
@settings(max_examples=300, deadline=None)
def test_distinct_factor_counts_match_oracles(case):
    text, n_max = case
    counts = factors.distinct_factor_counts(text, n_max)
    assert counts == distinct_factor_counts_automaton(text, n_max)
    assert counts == _brute_counts(text, n_max)


@pytest.fixture()
def lcp_pairs(monkeypatch):
    """Sizes of the batches of neighbour pairs whose LCP is computed."""
    sizes = []
    packed_lcp = factors._packed_lcp

    def counting(x, y, bits, per):
        sizes.append(len(x))
        return packed_lcp(x, y, bits, per)

    monkeypatch.setattr(factors, "_packed_lcp", counting)
    return sizes


@pytest.mark.parametrize("n_max", [32, 33, 64, 200])
def test_distinct_factor_counts_on_transitive_windows(family3, n_max, lcp_pairs):
    # 32 binary symbols to a key: n_max = 32 sorts keys only, 33, 64 and 200
    # take 1, 1 and 3 doubling rounds
    text = cam1d.transitive_point_window(family3, -2000, 4000)
    counts = factors.distinct_factor_counts(text, n_max)
    assert counts == distinct_factor_counts_automaton(text, n_max)
    assert counts == _brute_counts(text, n_max)
    # the window repeats level-2 words, so most neighbours share a key or a final rank
    assert sum(lcp_pairs) < len(text) // 10


@pytest.mark.parametrize("n_max", [1, 8, 31])
def test_short_factor_keys_are_cut_to_n_max(family3, n_max, lcp_pairs):
    # below 32 binary symbols a key is cut to n_max symbols, so the groups
    # are the distinct n_max-factors and the n_max - 1 shortest suffixes,
    # whatever follows a window's starts
    text = cam1d.transitive_point_window(family3, -2000, 4000)
    counts = factors.distinct_factor_counts(text, n_max)
    assert counts == _brute_counts(text, n_max)
    assert lcp_pairs == [counts[-1] + n_max - 2]


@pytest.mark.parametrize(
    "alphabet, bits, per", [(WIDE_ALPHABET, 9, 7), ("abcd", 3, 21)], ids=["wide", "four"]
)
def test_distinct_factor_counts_on_long_periodic_text(rng, alphabet, bits, per, lcp_pairs):
    # per = 21 is no multiple of the 8-symbol chunks that bits = 3 packs in 32 bits
    period = rng.sample(list(alphabet), len(alphabet)) + rng.choices(alphabet, k=17)
    text = "".join(period * (3000 // len(period) + 1))[:3000]
    changed = rng.choice([c for c in alphabet if c != text[1777]])
    text = text[:1777] + changed + text[1778:]
    assert factors._packed_prefixes(text)[1:] == (bits, per)
    for n_max in (per, per + 1, 3 * per, 150):
        counts = factors.distinct_factor_counts(text, n_max)
        assert counts == distinct_factor_counts_automaton(text, n_max)
        assert counts == _brute_counts(text, n_max)
    # four calls take fewer LCPs than one call would over all N - 1 neighbours
    assert sum(lcp_pairs) < len(text)


def test_complexity_profile_pins_benchmark_counts():
    # the probe-1d workload's complexity call on its level-4 fixture
    family = _benchmark_family()
    expected = json.loads((BENCH / "expected.json").read_text())["probe-1d"]
    profile = cam1d.complexity_profile(family, 32, 500_000)
    assert profile.counts == expected["complexity_counts"]


def test_benchmark_complexity_computes_lcps_between_distinct_keys_only(lcp_pairs):
    # the 500 000 suffixes of the probe-1d window have 142 distinct 32-symbol keys
    family = _benchmark_family()
    cam1d.complexity_profile(family, 32, 500_000)
    assert lcp_pairs == [141]


@given(case=factor_cases(), copies=st.integers(1, 6), stride=st.sampled_from([1, 2, 7]))
@example(case=("01", 5), copies=40, stride=2)
@example(case=("abc" * 20 + "abd", 4), copies=1, stride=7)
@example(case=("".join(WIDE_ALPHABET[:2]), 9), copies=40, stride=1)  # 9 > 7 symbols a key
@example(case=("0110", 40), copies=40, stride=2)  # 40 > 32 symbols a key
@settings(max_examples=300, deadline=None)
def test_windowed_factor_counts_match_oracles(case, copies, stride):
    # a small stride cuts short texts into many windows; copies of a text
    # and periodic texts repeat them, and the tails vary in length
    text, n_max = case
    text *= copies
    with mock.patch.object(factors, "_STRIDE", stride):
        joined, kept, tail = factors._distinct_windows(text, n_max)
        counts = factors.distinct_factor_counts(text, n_max)
    # each distinct window once, its first max(stride, n_max) starts kept, then the tail
    step = max(stride, n_max)
    length = step + n_max - 1
    windows = [joined[i : i + length] for i in range(0, len(joined) - tail, length)]
    assert len(joined) <= len(text) and joined.endswith(text[len(text) - tail :])
    assert len(set(windows)) == len(windows) and all(w in text for w in windows)
    assert kept.sum() == len(windows) * step + tail
    assert counts == distinct_factor_counts_automaton(text, n_max)
    assert counts == _brute_counts(text, n_max)


def test_benchmark_complexity_packs_the_distinct_windows_only(monkeypatch):
    # the 500 000-symbol probe-1d window holds 48 distinct windows of
    # 256 + 31 symbols: the packing reads them and the tail, and the traced
    # peak stays a small fraction of the text
    family = _benchmark_family()
    packed, peaks = [], []
    packed_prefixes, counter = factors._packed_prefixes, factors.distinct_factor_counts

    def recording(text):
        packed.append(len(text))
        return packed_prefixes(text)

    def traced(text, n_max):
        tracemalloc.start()
        try:
            return counter(text, n_max)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / len(text))
            tracemalloc.stop()

    monkeypatch.setattr(factors, "_packed_prefixes", recording)
    monkeypatch.setattr(factors, "distinct_factor_counts", traced)
    cam1d.complexity_profile(family, 32, 500_000)
    assert len(packed) == 1 and packed[0] <= 20_000
    assert len(peaks) == 1 and peaks[0] < 4


# -- serialization --------------------------------------------------------------------


def test_family_round_trip(family3):
    obj = hierarchy.family_to_obj(family3)
    data = json.loads(json.dumps(obj))
    loaded = hierarchy.family_from_obj(data)
    assert loaded.params == family3.params
    assert hierarchy.family_to_obj(loaded) == obj
    # rationals ride as decimal strings
    row = obj["certificates"][0]["rows"][0]
    assert isinstance(row["lhs"]["num"], str)


def test_family_from_obj_rejects_tampering(family3):
    obj = hierarchy.family_to_obj(family3)
    data = json.loads(json.dumps(obj))
    data["levels"][1]["words"]["a2"] = data["levels"][1]["words"]["b2"]
    with pytest.raises(MalformedFamily):
        hierarchy.family_from_obj(data)


@pytest.mark.parametrize(
    "field, value",
    [
        ("lhs", {"num": "1", "den": "1"}),  # a pass row whose lhs no longer passes
        ("lhs", None),
        ("status", "fail"),
        ("status", "passed"),
        ("margin", {"num": "1", "den": "2"}),
        ("margin", {"num": "1", "den": "0"}),
        ("id", 5),
        ("note", None),
    ],
)
def test_family_from_obj_checks_certificate_rows(family3, field, value):
    data = json.loads(json.dumps(hierarchy.family_to_obj(family3)))
    row = next(r for r in data["certificates"][0]["rows"] if r["id"] == "b-freq[m=1,u=w2_1]")
    row[field] = value
    with pytest.raises(MalformedFamily):
        hierarchy.family_from_obj(data)


@st.composite
def _stored_ratios(draw):
    """A stored fraction: unreduced, a negative numerator or a zero
    denominator allowed, its digits now and then written unusually."""
    scale = draw(st.integers(1, 6))
    num, den = draw(st.integers(-30, 30)) * scale, draw(st.integers(0, 12)) * scale
    spell = draw(st.sampled_from([str] * 6 + [lambda v: f"{v:03d}", lambda v: f"+{v}"]))
    return (num, den), {"num": spell(num), "den": spell(den)}


@st.composite
def _stored_rows(draw):
    """A stored row, mostly a consistent one: None sides under each status,
    and now and then a wrong status or margin."""
    sides = [None if draw(st.integers(0, 4)) == 0 else draw(_stored_ratios()) for _ in range(2)]
    (lhs, lhs_obj), (rhs, rhs_obj) = (side or (None, None) for side in sides)
    status = draw(st.sampled_from(["pass", "fail", "unverifiable", "info", "passed"]))
    decidable = lhs and rhs and lhs[1] and rhs[1]
    if decidable and status in ("pass", "fail") and draw(st.integers(0, 3)):
        status = "pass" if Fraction(*lhs) < Fraction(*rhs) else "fail"
    margin = draw(st.sampled_from(["rhs - lhs"] * 3 + ["null", "drawn"]))
    if margin == "rhs - lhs" and decidable:
        gap = Fraction(*rhs) - Fraction(*lhs)
        scale = draw(st.integers(1, 4))  # sometimes unreduced
        margin = {"num": str(gap.numerator * scale), "den": str(gap.denominator * scale)}
    elif margin == "drawn":
        margin = draw(_stored_ratios())[1]
    else:
        margin = None
    note = draw(st.sampled_from(["", "unverifiable at budget"]))
    return dict(id="r", lhs=lhs_obj, rhs=rhs_obj, margin=margin, status=status, note=note)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_stored_rows(), min_size=1, max_size=2))
def test_report_reader_agrees_with_the_fraction_reader(rows):
    obj = {"level": 2, "param": "8", "rows": rows}

    def read(reader):
        try:
            return reader(obj)
        except MalformedFamily:
            return "rejected"

    assert read(hierarchy.report_from_obj) == read(report_from_obj_fractions)


def test_family_from_obj_rejects_garbage():
    with pytest.raises(MalformedFamily):
        hierarchy.family_from_obj({"dim": 1, "K": "x"})


@pytest.mark.parametrize(
    "text, signed",
    [
        ("9_79", False),
        ("+5", False),
        (" 5", False),
        ("5\n", False),
        ("\u0665", False),  # ARABIC-INDIC DIGIT FIVE, which int() reads as 5
        ("", False),
        ("-5", False),
        ("-", True),
        ("--5", True),
        ("5.0", True),
        (5, False),
        (None, True),
    ],
)
def test_stored_integers_are_strict_decimals(text, signed):
    with pytest.raises(MalformedFamily):
        hierarchy._decimal(text, "value", signed=signed)


def test_stored_integers_read_plain_decimals():
    assert hierarchy._decimal("0979", "value") == 979
    assert hierarchy._decimal("-12", "value", signed=True) == -12
    assert hierarchy._decimal(str(10**30), "value") == 10**30
