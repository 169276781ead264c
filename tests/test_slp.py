import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camshift import slp
from camshift.errors import (
    BudgetExceeded,
    EmptyPattern,
    IndexOutOfRange,
    InvalidParameter,
    PatternTooLong,
)
from conftest import random_expression, random_pattern

WORDS = st.text(alphabet="01", min_size=1, max_size=48)


@pytest.fixture()
def builder():
    return slp.SlpBuilder()


def a2_expr(builder, n2=8):
    return builder.concat([(builder.atom("0"), 1), (builder.atom("1"), n2)])


def a3_expr(builder, n2=8, n3=3):
    a2 = a2_expr(builder, n2)
    w12 = builder.power(builder.atom("0"), n2 + 1)
    w22 = builder.power(builder.atom("1"), n2 + 1)
    b2 = builder.concat([(builder.atom("0"), n2), (builder.atom("1"), 1)])
    return builder.concat(
        [(a2, n3), (w12, 1), (a2, n3), (w22, 1), (a2, n3), (a2, 1), (a2, n3), (b2, 1), (a2, n3)]
    )


# -- length ------------------------------------------------------------------


def test_length_atom(builder):
    assert builder.atom("0").length == 1


def test_length_repetition(builder):
    assert builder.power(builder.atom("1"), 8).length == 8


def test_length_a2(builder):
    expr = a2_expr(builder)
    assert expr.length == len(slp.materialize(expr)) == 9


def test_length_homomorphism(builder, rng):
    for _ in range(50):
        expr = random_expression(builder, rng)
        if expr.kind != "concat":
            continue
        assert expr.length == sum(rep * child.length for child, rep in expr.parts)
        if expr.length <= 200_000:
            assert expr.length == len(slp.materialize(expr))


# -- char_at -----------------------------------------------------------------


def test_char_at_examples(builder):
    a2 = a2_expr(builder)
    assert slp.char_at(a2, 0) == "0"
    assert slp.char_at(a2, 5) == "1"
    assert slp.char_at(a3_expr(builder), 0) == "0"


def test_char_at_bounds(builder):
    a2 = a2_expr(builder)
    with pytest.raises(IndexOutOfRange):
        slp.char_at(a2, 9)
    with pytest.raises(IndexOutOfRange):
        slp.char_at(a2, -1)


def test_random_access_soundness(builder, rng):
    checked = 0
    while checked < 100:
        expr = random_expression(builder, rng, max_length=30_000)
        if expr.length > 100_000:
            continue
        text = slp.materialize(expr)
        for _ in range(5):
            i = rng.randint(0, expr.length - 1)
            assert slp.char_at(expr, i) == text[i]
        checked += 1


# -- window ------------------------------------------------------------------


def test_window_examples(builder):
    a2 = a2_expr(builder)
    assert slp.window(a2, 0, 9) == "011111111"
    assert slp.window(a2, 0, 0) == ""
    w12 = builder.power(builder.atom("0"), 9)
    assert slp.window(w12, 3, 4) == "0000"


def test_window_errors(builder):
    a2 = a2_expr(builder)
    with pytest.raises(IndexOutOfRange):
        slp.window(a2, 5, 9)
    with pytest.raises(BudgetExceeded):
        slp.window(a2, 0, 9, cap=4)


def test_window_matches_char_at(builder, rng):
    for _ in range(30):
        expr = random_expression(builder, rng, max_length=20_000)
        size = rng.randint(0, min(40, expr.length))
        start = rng.randint(0, expr.length - size)
        text = slp.window(expr, start, size)
        for j in range(size):
            assert text[j] == slp.char_at(expr, start + j)


# -- snippets ----------------------------------------------------------------


def test_snippet_caches_match_materialization(builder, rng):
    for _ in range(40):
        expr = random_expression(builder, rng, max_length=20_000)
        if expr.length > 50_000:
            continue
        text = slp.materialize(expr)
        for k in (1, 2, 5, 17, 4095):
            need = min(k, expr.length)
            assert builder.prefix_snippet(expr, k) == text[:need]
            assert builder.suffix_snippet(expr, k) == text[len(text) - need :]


# -- counting ----------------------------------------------------------------


def test_count_examples(builder):
    assert builder.count_occurrences("11", builder.word("1110")) == 2
    assert builder.count_occurrences("0", a2_expr(builder)) == 1


def test_count_against_naive_for_a2_pattern(builder):
    a3 = a3_expr(builder, n3=4)
    doubled = builder.concat([(a3, 2)])
    pattern = slp.materialize(a2_expr(builder))
    text = slp.materialize(doubled)
    assert builder.count_occurrences(pattern, doubled) == slp.count_occurrences_naive(
        pattern, text
    )


def test_count_rejects_bad_patterns(builder):
    a2 = a2_expr(builder)
    with pytest.raises(EmptyPattern):
        builder.count_occurrences("", a2)
    small = slp.SlpBuilder(snippet_cap=4)
    with pytest.raises(PatternTooLong):
        small.count_occurrences("00000", small.power(small.atom("0"), 10))
    for pattern, stray in (("2", "2"), ("01x10", "x"), ("0110 ", " ")):
        with pytest.raises(InvalidParameter, match=f"got {stray!r}"):
            builder.count_occurrences(pattern, a2)


def test_count_is_deterministic(builder):
    expr = a3_expr(builder, n3=5)
    assert builder.count_occurrences("01", expr) == builder.count_occurrences("01", expr)


def test_naive_examples():
    assert slp.count_occurrences_naive("0", "011111111") == 1
    assert slp.count_occurrences_naive("01", "0101") == 2
    text = "011111111011111111"
    pattern = "11111111"
    brute = sum(text[i : i + 8] == pattern for i in range(len(text) - 7))
    assert brute == 2  # two runs of exactly eight ones, one start each
    assert slp.count_occurrences_naive(pattern, text) == brute
    with pytest.raises(EmptyPattern):
        slp.count_occurrences_naive("", "01")


@given(text=WORDS, pattern=st.text(alphabet="01", min_size=1, max_size=6))
@settings(max_examples=250, deadline=None)
def test_naive_matches_sliding_brute(text, pattern):
    brute = sum(
        text[i : i + len(pattern)] == pattern for i in range(len(text) - len(pattern) + 1)
    )
    assert slp.count_occurrences_naive(pattern, text) == brute


@given(text=WORDS, pattern=st.text(alphabet="01", min_size=1, max_size=6))
@settings(max_examples=250, deadline=None)
def test_compressed_count_matches_naive_on_words(text, pattern):
    builder = slp.SlpBuilder()
    expr = builder.word(text)
    assert builder.count_occurrences(pattern, expr) == slp.count_occurrences_naive(
        pattern, text
    )


def test_oracle_equivalence_randomized(builder, rng):
    checked = 0
    while checked < 120:
        expr = random_expression(builder, rng)
        if expr.length > 1_000_000:
            continue
        text = slp.materialize(expr)
        pattern = random_pattern(rng, text, max_len=min(64, expr.length))
        assert builder.count_occurrences(pattern, expr) == slp.count_occurrences_naive(
            pattern, text
        )
        checked += 1


def test_junction_memo_stays_within_its_byte_bound(builder, rng, monkeypatch):
    monkeypatch.setattr(slp, "_JUNCTION_CACHE_BYTES", 200)
    cleared = False
    for _ in range(60):
        expr = random_expression(builder, rng, max_length=5_000)
        text = slp.materialize(expr)
        pattern = random_pattern(rng, text, max_len=min(12, expr.length))
        before = builder._junction_bytes
        assert builder.count_occurrences(pattern, expr) == slp.count_occurrences_naive(
            pattern, text
        )
        held = sum(len(left) + len(right) + len(p) for left, _, right, p in builder._junction_counts)
        assert held == builder._junction_bytes <= 200
        cleared = cleared or builder._junction_bytes < before
    assert cleared

@st.composite
def runs_and_pattern(draw):
    """A random DAG whose runs exercise every counting regime, and a pattern.

    Short leaves sit under repeats m-1, m and m+1 with m = ceil((L-1)/|c|) + 1,
    long children repeat too, and the top node has parts shorter than the
    pattern, so occurrences cross three or more parts.
    """
    builder = slp.SlpBuilder(snippet_cap=64)
    reach = draw(st.integers(1, 40))  # L - 1
    texts = st.lists(st.text(alphabet="01", min_size=1, max_size=4), min_size=1, max_size=4)
    leaves = [builder.word(text) for text in draw(texts)]

    def run(child):
        m = -(-reach // child.length) + 1
        return child, draw(st.sampled_from([1, 2, max(m - 1, 1), m, m + 1]))

    def node(children, max_parts):
        parts = draw(st.lists(st.sampled_from(children), min_size=1, max_size=max_parts))
        return builder.concat([run(child) for child in parts])

    mids = [node(leaves, 4) for _ in range(draw(st.integers(1, 3)))]
    top = node(leaves + mids, 8)
    text = slp.materialize(top)
    size = min(reach + 1, len(text))
    if draw(st.integers(0, 3)):  # mostly a factor, so that occurrences exist
        start = draw(st.integers(0, len(text) - size))
        pattern = text[start : start + size]
    else:
        pattern = draw(st.text(alphabet="01", min_size=size, max_size=size))
    return builder, top, text, pattern


@given(case=runs_and_pattern(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_run_regimes_match_oracles(case, data):
    builder, expr, text, pattern = case
    assert builder.count_occurrences(pattern, expr) == slp.count_occurrences_naive(pattern, text)
    for k in (len(pattern) - 1, data.draw(st.integers(1, len(text)))):
        assert builder.prefix_snippet(expr, k) == text[:k]
        assert builder.suffix_snippet(expr, k) == text[len(text) - min(k, len(text)) :]
    start = data.draw(st.integers(0, len(text) - 1))
    size = data.draw(st.integers(0, len(text) - start))
    piece = slp.window(expr, start, size)
    assert piece == text[start : start + size]
    assert piece == "".join(slp.char_at(expr, start + j) for j in range(size))


def test_count_across_many_parts(builder):
    # a pattern of 7 symbols over parts of 1-2 symbols crosses up to five parts
    one, zero = builder.atom("1"), builder.atom("0")
    expr = builder.concat([(zero, 1), (one, 2), (zero, 1), (builder.word("01"), 1), (one, 1)])
    text = slp.materialize(expr)
    assert text == "0110011"
    for size in range(1, 8):
        for start in range(len(text) - size + 1):
            pattern = text[start : start + size]
            assert builder.count_occurrences(pattern, expr) == slp.count_occurrences_naive(
                pattern, text
            )


# -- minimal period ----------------------------------------------------------


def test_minimal_period_examples(builder):
    assert slp.minimal_period("0000") == 1
    assert slp.minimal_period("0101") == 2
    a2a2 = slp.materialize(builder.concat([(a2_expr(builder), 2)]))
    assert slp.minimal_period(a2a2) == 9


@given(word=WORDS)
@settings(max_examples=250, deadline=None)
def test_minimal_period_brute_force(word):
    brute = next(
        p for p in range(1, len(word) + 1) if all(word[i] == word[i + p] for i in range(len(word) - p))
    )
    assert slp.minimal_period(word) == brute


def test_minimal_period_rejects_empty():
    with pytest.raises(InvalidParameter):
        slp.minimal_period("")


# -- construction and serialization -------------------------------------------


def test_hash_consing_shares_nodes(builder):
    first = a2_expr(builder)
    second = a2_expr(builder)
    assert first is second


def test_adjacent_equal_children_merge(builder):
    a2 = a2_expr(builder)
    merged = builder.concat([(a2, 3), (a2, 1), (a2, 2)])
    assert merged.parts == ((a2, 6),)


def test_concat_rejects_bad_repeat(builder):
    with pytest.raises(InvalidParameter):
        builder.concat([(builder.atom("0"), 0)])


def test_serialization_round_trip(builder, rng):
    for _ in range(20):
        expr = random_expression(builder, rng, max_length=5_000)
        if expr.length > 20_000:
            continue
        order, ids = slp.collect_nodes([expr])
        # postorder: children come first, so one pass over the table rebuilds the word
        fresh = slp.SlpBuilder()
        built = []
        for node in slp.nodes_to_obj(order, ids):
            if node["kind"] == "atom":
                built.append(fresh.atom(node["symbol"]))
                continue
            # big integers ride as decimal strings
            assert all(isinstance(rep, str) and rep.isdigit() for _, rep in node["children"])
            built.append(fresh.concat([(built[c], int(rep)) for c, rep in node["children"]]))
        assert slp.materialize(built[ids[expr.uid]]) == slp.materialize(expr)
