import json
from fractions import Fraction
from pathlib import Path

import pytest
from cam1d_oracles import distinct_factor_counts_automaton
from hypothesis import example, given, settings
from hypothesis import strategies as st

from camshift import cam1d, camzd, slp
from camshift.budgets import Budgets
from camshift.errors import (
    InvalidParameter,
    MalformedFamily,
    MisalignedWindow,
    OutOfBuiltRange,
)


# -- frequency sequence --------------------------------------------------------


def test_default_eps_values():
    eps1 = cam1d.default_frequency_sequence(1)
    assert eps1.value(1) == Fraction(1, 8)
    assert eps1.tail(1) == Fraction(1, 6)
    assert eps1.tail(1) < Fraction(1, 3)
    eps2 = cam1d.default_frequency_sequence(2)
    assert eps2.value(1) == Fraction(1, 24)


def test_eps_tail_bound_holds_everywhere():
    for dim in (1, 2, 3):
        eps = cam1d.default_frequency_sequence(dim)
        for start in range(1, 12):
            assert eps.tail_ok(start)
            # prefix sums approximate the closed form from below
            partial = eps.partial(start, start + 30)
            assert partial < eps.tail(start)


# -- building -------------------------------------------------------------------


def test_level2_materializations():
    family = cam1d.LevelFamily()
    cam1d.build_level(family, 8)
    assert family.string(2, "a2") == "011111111"
    assert family.string(2, "b2") == "000000001"
    assert family.string(2, "w1_2") == "0" * 9
    assert family.string(2, "w2_2") == "1" * 9


def test_level3_length_identity():
    family = cam1d.LevelFamily()
    cam1d.build_level(family, 8)
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
    with pytest.raises(InvalidParameter):
        cam1d.build_level(family, 1)


# -- certification ---------------------------------------------------------------


def test_level2_certificate_margin():
    family = cam1d.LevelFamily()
    report = cam1d.certify_candidate(family, 8)
    assert report.passed
    row = next(r for r in report.rows if r.ident == "a-freq[m=1,u=w1_1]")
    assert row.lhs == Fraction(1, 9)
    assert row.rhs == Fraction(1, 8)
    assert row.margin == Fraction(1, 72)


def test_level2_strictness_boundary():
    family = cam1d.LevelFamily()
    report = cam1d.certify_candidate(family, 7)
    assert not report.passed
    assert report.failed_rows  # 1/8 < 1/8 fails strictly


def test_choose_parameter_level2():
    family = cam1d.LevelFamily()
    assert cam1d.choose_parameter(family).param == 8


@pytest.mark.parametrize(
    "build",
    [lambda: cam1d.build_family(levels=3), lambda: camzd.build_family_d(dim=2, levels=2)],
    ids=["d1-levels3", "d2-levels2"],
)
def test_build_certifies_each_candidate_once(build, monkeypatch):
    certify = cam1d.certify_candidate
    reports = []

    def recording(family, n, at_level=None):
        reports.append(certify(family, n, at_level))
        return reports[-1]

    monkeypatch.setattr(cam1d, "certify_candidate", recording)
    family = build()
    seen = [(r.level, r.param) for r in reports]
    assert len(seen) == len(set(seen))
    # the stored certificates are the reports the search decided on
    assert all(any(c is r for r in reports) for c in family.certificates)


def test_choose_parameter_requires_certified_family():
    family = cam1d.LevelFamily()
    cam1d.build_level(family, 8)  # built but never certified
    with pytest.raises(InvalidParameter):
        cam1d.choose_parameter(family)


def test_level3_counts_match_naive(family3):
    n3 = family3.params[1]
    a3a3 = family3.string(3, "a3") * 2
    report = cam1d.certify_candidate(family3, n3, at_level=3)
    assert report.passed
    for name in ("w1_2", "w2_2", "b2"):
        row = next(r for r in report.rows if r.ident == f"a-freq[m=2,u={name}]")
        pattern = family3.string(2, name)
        count = slp.count_occurrences_naive(pattern, a3a3)
        assert row.lhs == Fraction(count, len(a3a3))


def test_chooser_boundary_levels(family3):
    for level in (2, 3):
        n = family3.params[level - 2]
        assert cam1d.certify_candidate(family3, n, at_level=level).passed
        if n > 2:
            assert not cam1d.certify_candidate(family3, n - 1, at_level=level).passed


def test_certification_is_pure(family3, monkeypatch):
    # certifying a lower level reads levels 1..k in place; the family keeps
    # all its levels throughout
    levels = family3.levels
    seen = []
    string = cam1d.LevelFamily.string

    def recording(self, k, name):
        seen.append(self.top_level)
        return string(self, k, name)

    monkeypatch.setattr(cam1d.LevelFamily, "string", recording)
    cam1d.certify_level(family3, 2)
    cam1d.certify_candidate(family3, family3.params[0], at_level=2)
    assert seen and set(seen) == {3}
    assert family3.levels is levels and family3.top_level == 3


def test_certify_unverifiable_rows_reported():
    # a tiny snippet cap forces the level-3 pattern rows to be flagged
    budgets = Budgets(snippet_cap=8)
    family = cam1d.LevelFamily(budgets=budgets)
    cam1d.build_level(family, 8)
    report = cam1d.certify_candidate(family, 20)
    flagged = [r for r in report.rows if r.status == "unverifiable"]
    assert flagged
    assert all("budget" in r.note for r in flagged)


# -- distinct-subword scans -------------------------------------------------------


def test_verify_level2(family3):
    report = cam1d.verify_distinct_subwords(family3, 2)
    assert len(report.pairs) == 12
    assert all(p.status == "verified" and p.count == 0 for p in report.pairs)


def test_verify_skips_equal_pair(family3):
    report = cam1d.verify_distinct_subwords(family3, 2)
    assert all(p.u != p.v for p in report.pairs)
    # the self-pair count would not be zero, which is why it is skipped
    a2 = family3.string(2, "a2")
    assert slp.count_occurrences_naive(a2, a2 + a2) >= 2


def test_verify_over_budget_defers(family4):
    report = cam1d.verify_distinct_subwords(family4, 4)
    assert report.pairs and all(p.status == "certified-by-inequalities" for p in report.pairs)
    assert not report.violations


# -- transitive point --------------------------------------------------------------


def test_transitive_window_examples(family3):
    assert cam1d.transitive_point_window(family3, 1, 9) == "011111111"
    assert cam1d.transitive_point_window(family3, -8, 9) == "011111111"
    with pytest.raises(OutOfBuiltRange):
        cam1d.transitive_point_window(family3, family3.word_length(3), 2)


def test_transitive_window_nested_consistency(family4):
    # the window is the same whether read at level 3 or level 4 context
    small = cam1d.build_family(levels=3)
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
    with pytest.raises(MisalignedWindow):
        cam1d.parse_structure(family3, 2, 2, 4)


def test_parse_structure_level3_window(family4):
    result = cam1d.parse_structure(family4, 3, 1, 20)
    assert not result.violations
    assert set(result.blocks) <= set(family4.names(3))


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
        counts = cam1d.distinct_factor_counts(text, n_max)
        brute = [
            len({text[i : i + n] for i in range(len(text) - n + 1)}) for n in range(1, n_max + 1)
        ]
        assert counts == brute


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
    counts = cam1d.distinct_factor_counts(text, n_max)
    assert counts == distinct_factor_counts_automaton(text, n_max)
    brute = [
        len({text[i : i + n] for i in range(len(text) - n + 1)}) for n in range(1, n_max + 1)
    ]
    assert counts == brute


def test_complexity_profile_pins_benchmark_counts():
    # the probe-1d workload's complexity call on its level-4 fixture
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    family = cam1d.family_from_obj(json.loads((bench / "data" / "family-l4.json").read_text()))
    expected = json.loads((bench / "expected.json").read_text())["probe-1d"]
    profile = cam1d.complexity_profile(family, 32, 500_000)
    assert profile.counts == expected["complexity_counts"]


# -- serialization --------------------------------------------------------------------


def test_family_round_trip(family3):
    obj = cam1d.family_to_obj(family3)
    data = json.loads(json.dumps(obj))
    loaded = cam1d.family_from_obj(data)
    assert loaded.params == family3.params
    assert cam1d.family_to_obj(loaded) == obj
    # rationals ride as decimal strings
    row = obj["certificates"][0]["rows"][0]
    assert isinstance(row["lhs"]["num"], str)


def test_family_from_obj_rejects_tampering(family3):
    obj = cam1d.family_to_obj(family3)
    data = json.loads(json.dumps(obj))
    data["levels"][1]["words"]["a2"] = data["levels"][1]["words"]["b2"]
    with pytest.raises(MalformedFamily):
        cam1d.family_from_obj(data)


@pytest.mark.parametrize(
    "field, value",
    [
        ("lhs", {"num": "1", "den": "1"}),  # a pass row whose lhs no longer passes
        ("lhs", None),
        ("status", "fail"),
        ("status", "passed"),
        ("margin", {"num": "1", "den": "2"}),
        ("margin", {"num": "1", "den": "0"}),
    ],
)
def test_family_from_obj_checks_certificate_rows(family3, field, value):
    data = json.loads(json.dumps(cam1d.family_to_obj(family3)))
    row = next(r for r in data["certificates"][0]["rows"] if r["id"] == "b-freq[m=1,u=w2_1]")
    row[field] = value
    with pytest.raises(MalformedFamily):
        cam1d.family_from_obj(data)


def test_family_from_obj_rejects_garbage():
    with pytest.raises(MalformedFamily):
        cam1d.family_from_obj({"dim": 1, "K": "x"})


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
        cam1d._decimal(text, "value", signed=signed)


def test_stored_integers_read_plain_decimals():
    assert cam1d._decimal("0979", "value") == 979
    assert cam1d._decimal("-12", "value", signed=True) == -12
    assert cam1d._decimal(str(10**30), "value") == 10**30
