import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from camshift import slp
from conftest import random_expression, random_pattern
from refusal import refused
from slp_oracles import brute_count, materialize, scan_count, word

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
    assert expr.length == len(materialize(expr)) == 9


def test_length_homomorphism(builder, rng):
    for _ in range(50):
        expr = random_expression(builder, rng)
        if expr.kind != "concat":
            continue
        assert expr.length == sum(rep * child.length for child, rep in expr.parts)
        if expr.length <= 200_000:
            assert expr.length == len(materialize(expr))


# -- char_at -----------------------------------------------------------------


def test_char_at_examples(builder):
    a2 = a2_expr(builder)
    assert slp.char_at(a2, 0) == "0"
    assert slp.char_at(a2, 5) == "1"
    assert slp.char_at(a3_expr(builder), 0) == "0"


def test_char_at_bounds(builder):
    a2 = a2_expr(builder)
    with refused("index 9 out of range for word of length"):
        slp.char_at(a2, 9)
    with refused("index -1 out of range for word of length"):
        slp.char_at(a2, -1)


def test_random_access_soundness(builder, rng):
    checked = 0
    while checked < 100:
        expr = random_expression(builder, rng, max_length=30_000)
        if expr.length > 100_000:
            continue
        text = materialize(expr)
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
    with refused(r"window \[5, 14\) out of range for length"):
        slp.window(a2, 5, 9)


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
        text = materialize(expr)
        for k in (1, 2, 5, 17, 4095):
            need = min(k, expr.length)
            assert builder.prefix_snippet(expr, k) == text[:need]
            assert builder.suffix_snippet(expr, k) == text[len(text) - need :]


# -- counting ----------------------------------------------------------------


def test_count_examples(builder):
    assert builder.count_occurrences("11", word(builder, "1110")) == 2
    assert builder.count_occurrences("0", a2_expr(builder)) == 1


def test_count_against_naive_for_a2_pattern(builder):
    a3 = a3_expr(builder, n3=4)
    doubled = builder.concat([(a3, 2)])
    pattern = materialize(a2_expr(builder))
    text = materialize(doubled)
    assert builder.count_occurrences(pattern, doubled) == scan_count(pattern, text)


def test_count_rejects_bad_patterns(builder):
    a2 = a2_expr(builder)
    with refused("pattern must be nonempty"):
        builder.count_occurrences("", a2)
    for pattern, stray in (("2", "2"), ("01x10", "x"), ("0110 ", " ")):
        with refused(f"symbol must be one of .*, got {stray!r}"):
            builder.count_occurrences(pattern, a2)


def test_bad_pattern_raises_after_a_good_one_is_counted(builder):
    # patterns are checked once each; a new one is still checked
    a2 = a2_expr(builder)
    assert builder.count_occurrences("01", a2) == 1
    assert builder.count_occurrences("01", a2) == 1
    with refused("symbol must be one of .*, got '2'"):
        builder.count_occurrences("012", a2)
    with refused("symbol must be one of .*, got '2'"):
        builder.count_occurrences("012", a2)


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
    with refused("pattern must be nonempty"):
        slp.count_occurrences_naive("", "01")


@given(text=WORDS, pattern=st.text(alphabet="01", min_size=1, max_size=6))
@settings(max_examples=250, deadline=None)
def test_naive_matches_sliding_brute(text, pattern):
    brute = sum(
        text[i : i + len(pattern)] == pattern for i in range(len(text) - len(pattern) + 1)
    )
    assert slp.count_occurrences_naive(pattern, text) == brute


@st.composite
def overlapping_cases(draw):
    """A bordered pattern in a periodic or near-periodic text.

    The pattern repeats a root of 1-8 symbols up to L <= 80 symbols, so its
    occurrences overlap.  The text repeats the same root from a drawn offset
    for 0 to 5L symbols (or 20L to 60L for L <= 3), and may have one symbol
    flipped at a drawn position.
    """
    root = draw(st.text(alphabet="01", min_size=1, max_size=8))
    size = draw(st.integers(1, 80))
    if size <= 3 and draw(st.booleans()):
        length = draw(st.integers(20 * size, 60 * size))
    else:
        length = draw(st.integers(0, 5 * size))
    offset = draw(st.integers(0, len(root) - 1))
    text = (root * (length // len(root) + 2))[offset : offset + length]
    flip = draw(st.none() | st.integers(0, max(length - 1, 0)))
    if flip is not None and text:
        text = text[:flip] + "10"[int(text[flip])] + text[flip + 1 :]
    return (root * size)[:size], text


@given(case=overlapping_cases())
@example(case=("0110", ""))
@example(case=("01010", "0101"))
@settings(max_examples=400, deadline=None)
def test_naive_matches_brute_on_overlapping_runs(case):
    pattern, text = case
    assert slp.count_occurrences_naive(pattern, text) == brute_count(pattern, text)


class _CountingStr(str):
    """A str that counts its searches (find, rfind) and startswith tests."""

    def find(self, *args):
        self.searches += 1
        return super().find(*args)

    def rfind(self, *args):
        self.searches += 1
        return super().rfind(*args)

    def startswith(self, *args):
        self.tests += 1
        return super().startswith(*args)


def test_naive_search_count_is_per_window():
    # 981 overlapping occurrences; a window holds L start positions
    pattern, size, length = "01" * 20, 40, 2000
    windows = -(-(length - size + 1) // size)
    text = _CountingStr("01" * 1000)
    text.searches = text.tests = 0
    assert scan_count(pattern, text) == 981
    assert text.searches == 982
    text.searches = text.tests = 0
    assert slp.count_occurrences_naive(pattern, text) == 981
    assert text.searches <= 2 * windows + 1
    assert text.tests <= windows * math.ceil(math.log2(size))


@given(text=WORDS, pattern=st.text(alphabet="01", min_size=1, max_size=6))
@settings(max_examples=250, deadline=None)
def test_compressed_count_matches_naive_on_words(text, pattern):
    builder = slp.SlpBuilder()
    expr = word(builder, text)
    assert builder.count_occurrences(pattern, expr) == scan_count(pattern, text)


def test_oracle_equivalence_randomized(builder, rng):
    checked = 0
    while checked < 120:
        expr = random_expression(builder, rng)
        if expr.length > 1_000_000:
            continue
        text = materialize(expr)
        pattern = random_pattern(rng, text, max_len=min(64, expr.length))
        assert builder.count_occurrences(pattern, expr) == scan_count(pattern, text)
        checked += 1


def test_junction_memo_stays_within_its_byte_bound(builder, rng, monkeypatch):
    monkeypatch.setattr(slp, "_JUNCTION_CACHE_BYTES", 200)
    cleared = False
    for _ in range(60):
        expr = random_expression(builder, rng, max_length=5_000)
        text = materialize(expr)
        pattern = random_pattern(rng, text, max_len=min(12, expr.length))
        before = builder._memo_bytes
        assert builder.count_occurrences(pattern, expr) == scan_count(pattern, text)
        # the text counts share the memo and its byte count with the block names
        held = sum(
            len(key[0]) + len(key[2]) + len(key[3])
            for key in builder._memo
            if len(key) == 4 and isinstance(key[0], str)
        )
        assert held <= builder._memo_bytes <= 200
        cleared = cleared or builder._memo_bytes < before
    assert cleared

@st.composite
def runs_and_pattern(draw):
    """A random DAG whose runs exercise every counting regime, and a pattern.

    Short leaves sit under repeats m-1, m and m+1 with m = ceil((L-1)/|c|) + 1,
    long children repeat too, and the top node has parts shorter than the
    pattern, so occurrences cross three or more parts.
    """
    builder = slp.SlpBuilder()
    reach = draw(st.integers(1, 40))  # L - 1
    texts = st.lists(st.text(alphabet="01", min_size=1, max_size=4), min_size=1, max_size=4)
    leaves = [word(builder, text) for text in draw(texts)]

    def run(child):
        m = -(-reach // child.length) + 1
        return child, draw(st.sampled_from([1, 2, max(m - 1, 1), m, m + 1]))

    def node(children, max_parts):
        parts = draw(st.lists(st.sampled_from(children), min_size=1, max_size=max_parts))
        return builder.concat([run(child) for child in parts])

    mids = [node(leaves, 4) for _ in range(draw(st.integers(1, 3)))]
    top = node(leaves + mids, 8)
    text = materialize(top)
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
    assert builder.count_occurrences(pattern, expr) == scan_count(pattern, text)
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
    expr = builder.concat([(zero, 1), (one, 2), (zero, 1), (word(builder, "01"), 1), (one, 1)])
    text = materialize(expr)
    assert text == "0110011"
    for size in range(1, 8):
        for start in range(len(text) - size + 1):
            pattern = text[start : start + size]
            assert builder.count_occurrences(pattern, expr) == scan_count(pattern, text)


# -- counting on block names --------------------------------------------------


@st.composite
def block_sequences_and_pattern(draw):
    """A DAG over blocks of one length ell and a pattern of q >= 2 chunks.

    Blocks repeat q - 1, q and q + 1 times, so runs end just short of,
    at, and just past a pattern's length; middle nodes are shorter or
    longer than the pattern; the pattern starts at any symbol, so at every
    offset from a block boundary, and is half the time drawn from scratch.
    """
    builder = slp.SlpBuilder()
    ell = draw(st.integers(2, 4))
    q = draw(st.integers(2, 5))
    words = st.text(alphabet="01", min_size=ell, max_size=ell)
    blocks = [word(builder, text) for text in draw(st.lists(words, min_size=1, max_size=4))]
    reps = st.sampled_from([1, 2, q - 1, q, q + 1, 3 * q])

    def node(children, max_parts):
        parts = draw(st.lists(st.sampled_from(children), min_size=1, max_size=max_parts))
        return builder.concat([(child, draw(reps)) for child in parts])

    mids = [node(blocks, 4) for _ in range(draw(st.integers(1, 3)))]
    top = node(blocks + mids, 6)
    top = builder.concat([(top, draw(st.integers(1, 3))), (draw(st.sampled_from(mids)), 1)])
    text = materialize(top)
    size = q * ell
    if draw(st.booleans()) and len(text) >= size:
        start = draw(st.integers(0, len(text) - size))
        pattern = text[start : start + size]
    else:
        pattern = draw(st.text(alphabet="01", min_size=size, max_size=size))
    return builder, top, text, pattern


@given(case=block_sequences_and_pattern())
@settings(max_examples=300, deadline=None)
def test_block_names_match_oracle_without_text_counts(case):
    builder, expr, text, pattern = case
    seen = []

    def recording(pattern, text):
        seen.append(len(pattern))
        return naive(pattern, text)

    naive = slp.count_occurrences_naive
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slp, "count_occurrences_naive", recording)
        assert builder.count_occurrences(pattern, expr) == scan_count(pattern, text)
    assert seen == []  # every boundary was decided on block names


def test_block_names_at_run_edges():
    # runs of 1..4 blocks of 3 symbols: every start of every pattern of 2..5
    # chunks, so each offset 0, 1, 2 at each run edge, and runs both
    # shorter and longer than the pattern
    builder = slp.SlpBuilder()
    x, y, z = word(builder, "001"), word(builder, "011"), word(builder, "000")
    mid = builder.concat([(x, 3), (y, 1), (z, 2)])
    expr = builder.concat([(x, 1), (y, 4), (mid, 2), (z, 1), (x, 2), (mid, 1), (y, 3)])
    text = materialize(expr)
    assert slp._grain(expr) == 3
    for size in (6, 9, 12, 15):
        for start in range(len(text) - size + 1):
            pattern = text[start : start + size]
            assert builder.count_occurrences(pattern, expr) == scan_count(pattern, text)
    for pattern in ("000000", "000001000", "011011011011"):
        assert builder.count_occurrences(pattern, expr) == scan_count(pattern, text)


@st.composite
def block_names_and_pattern(draw):
    """Run-length block names, a pattern of q >= 2 chunks and a start range.

    Blocks of ell = 2..4 symbols, 2..4 distinct ones, in maximal runs of
    1..6; the pattern is half the time cut from the spelled text at any
    symbol, so at every offset from a block boundary, and starts are
    counted in [lo, hi), each end often 0 or the full length.
    """
    ell = draw(st.integers(2, 4))
    words = st.text(alphabet="01", min_size=ell, max_size=ell)
    blocks = draw(st.lists(words, min_size=2, max_size=4, unique=True))
    seq = []
    for name in draw(st.lists(st.sampled_from(blocks), min_size=1, max_size=8)):
        slp._push(seq, name, draw(st.integers(1, 6)))
    text = "".join(name * count for name, count in seq)
    size = draw(st.integers(2, 8)) * ell
    if draw(st.booleans()) and len(text) >= size:
        start = draw(st.integers(0, len(text) - size))
        pattern = text[start : start + size]
    else:
        pattern = draw(st.text(alphabet="01", min_size=size, max_size=size))
    lo = draw(st.sampled_from([0, len(text)]) | st.integers(0, len(text)))
    hi = draw(st.sampled_from([0, len(text)]) | st.integers(0, len(text)))
    return pattern, ell, tuple(seq), min(lo, hi), max(lo, hi), text


# a head in the first block and a tail in the last; a cut whose whole
# chunks are a whole run; a cut with head and tail inside a longer run
@example(case=("1101", 2, (("01", 1), ("10", 2)), 0, 6, "011010"))
@example(case=("001011", 2, (("00", 1), ("01", 2), ("11", 1)), 0, 8, "00010111"))
@example(case=("101010", 2, (("00", 1), ("01", 4), ("11", 1)), 0, 12, "000101010111"))
@given(case=block_names_and_pattern())
@settings(max_examples=400, deadline=None)
def test_name_count_matches_a_scan_of_the_spelled_blocks(case):
    pattern, ell, seq, lo, hi, text = case
    builder = slp.SlpBuilder()
    count = builder._name_count(pattern, slp._chunk_runs(pattern, ell), ell, seq, lo, hi)
    assert count == sum(text.startswith(pattern, i) for i in range(lo, hi))


def test_name_memo_stays_within_its_byte_bound(monkeypatch):
    monkeypatch.setattr(slp, "_JUNCTION_CACHE_BYTES", 300)
    builder = slp.SlpBuilder()
    x, y = word(builder, "001"), word(builder, "011")
    mids = [builder.concat([(x, 2 + i), (y, 1), (x, 1)]) for i in range(6)]
    cleared = False
    seen = set()  # keys of the pattern cuts the memo has held

    def is_cut(key):  # (pattern, ell, h)
        return len(key) == 3 and isinstance(key[0], str)

    for size in (6, 9, 12):
        for mid in mids:
            expr = builder.concat([(mid, 3), (y, 2), (mid, 1)])
            text = materialize(expr)
            for end in range(len(text), len(text) - 3, -1):  # every offset
                pattern = text[end - size : end]
                before = builder._memo_bytes
                assert builder.count_occurrences(pattern, expr) == scan_count(pattern, text)
                assert 0 < builder._memo_bytes <= 300
                # the pattern cuts share the memo and its byte count
                cuts = {k: v for k, v in builder._memo.items() if is_cut(k)}
                assert sum(3 * (len(v[1]) + 1) for v in cuts.values()) <= builder._memo_bytes
                cleared = cleared or builder._memo_bytes < before
                seen |= cuts.keys()
    assert cleared and seen - builder._memo.keys()
    # a cut is paid for by its runs and its head and tail: one that does
    # not fit in what is left clears the memo
    pattern = "001011" * 40
    assert builder._memo_bytes > 300 - 3 * 80
    cut = builder._cut(pattern, slp._chunk_runs(pattern, 3), 3, 1)
    assert len(cut[1]) == 79
    assert builder._memo == {(pattern, 3, 1): cut}
    assert builder._memo_bytes == 3 * 80


@given(
    chunks=st.lists(st.sampled_from(["01", "10", "11"]), min_size=1, max_size=40),
)
def test_chunk_runs_are_the_run_length_chunks(chunks):
    expected = tuple((chunk, len(list(run))) for chunk, run in itertools.groupby(chunks))
    assert slp._chunk_runs("".join(chunks), 2) == expected


def test_grain_reads_block_length_from_structure(builder):
    a3 = a3_expr(builder)
    assert slp._grain(builder.atom("0")) == 0
    assert slp._grain(a2_expr(builder)) == 9  # a block: a word of atoms
    assert slp._grain(a3) == 9
    assert slp._grain(builder.concat([(a3, 2), (a2_expr(builder), 5)])) == 9
    # blocks of two lengths: no single grain
    assert slp._grain(builder.concat([(a3, 1), (word(builder, "01"), 1)])) == 0


# -- minimal period ----------------------------------------------------------


def test_minimal_period_examples(builder):
    assert slp.minimal_period("0000") == 1
    assert slp.minimal_period("0101") == 2
    a2a2 = materialize(builder.concat([(a2_expr(builder), 2)]))
    assert slp.minimal_period(a2a2) == 9


@given(word=WORDS)
@settings(max_examples=250, deadline=None)
def test_minimal_period_brute_force(word):
    brute = next(
        p for p in range(1, len(word) + 1) if all(word[i] == word[i + p] for i in range(len(word) - p))
    )
    assert slp.minimal_period(word) == brute


@given(base=WORDS, copies=st.integers(2, 4), extra=st.integers(0, 47))
@settings(max_examples=150, deadline=None)
def test_minimal_period_of_repeated_words(base, copies, extra):
    # a period <= n/2: the prefix-search branch
    word = base * copies + base[: extra % len(base)]
    brute = next(
        p for p in range(1, len(word) + 1) if all(word[i] == word[i + p] for i in range(len(word) - p))
    )
    assert slp.minimal_period(word) == brute


@pytest.mark.parametrize("level", [2, 3])
def test_minimal_period_of_doubled_level_words(builder, level):
    a_k = a2_expr(builder) if level == 2 else a3_expr(builder, n3=3)
    text = materialize(a_k)
    word = text + text
    brute = next(
        p for p in range(1, len(word) + 1) if all(word[i] == word[i + p] for i in range(len(word) - p))
    )
    assert slp.minimal_period(word) == brute == len(text)


def test_minimal_period_rejects_empty():
    with refused("minimal_period needs a nonempty word"):
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
    with refused("repeat must be a positive integer, got 0"):
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
        assert materialize(built[ids[expr.uid]]) == materialize(expr)
