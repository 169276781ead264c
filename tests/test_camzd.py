import collections
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from camzd_oracles import (
    array_to_obj_cells,
    certify_materialized,
    count_occurrences_windowed,
    period_lattice_scan,
    patchwork_cell,
    postcard_cell,
    self_concat,
    transitive_config_window_cells,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from refusal import refused

from camshift import cam1d, camzd, cli, hierarchy
from camshift.budgets import Budgets
from camshift.errors import BudgetExceeded, MalformedFamily


def cube(data):
    return np.array(data, dtype=np.uint8)


# -- self-concatenation ---------------------------------------------------------


def test_self_concat_examples():
    assert self_concat(cube([[1]]), (2, 2)).tolist() == [[1, 1], [1, 1]]
    assert self_concat(cube([0, 1]), (3,)).tolist() == [0, 1, 0, 1, 0, 1]


def test_self_concat_mod_positions():
    n = 12
    a2 = np.zeros((n, n), dtype=np.uint8)
    a2[2, 2] = 1  # cell (3, 3), 1-based
    ext = self_concat(a2, (2, 2))
    ones = {(int(x) + 1, int(y) + 1) for x, y in zip(*np.nonzero(ext))}
    assert ones == {(3, 3), (15, 3), (3, 15), (15, 15)}


def test_self_concat_budget_falls_back_to_patchwork():
    w = np.zeros((4, 4), dtype=np.uint8)
    out = self_concat(w, (100, 100), max_cells=1000)
    assert isinstance(out, camzd.PatchworkExpr)
    assert out.patches == ()
    assert patchwork_cell(out, (1, 1)) == 0


def test_patchwork_cells_are_exact():
    # (2**27 + 1)**2 needs 55 bits: a product of floats reads one cell short
    side = 2**27 + 1
    word = camzd.PatchworkExpr(base=camzd.make_cube(2, 1), extents=(side, side), patches=())
    assert word.cells == side * side


@pytest.mark.parametrize("dim", [2, 3])
def test_every_word_is_a_patchwork_of_its_cells(dim):
    # levels 1-2 are grids of one-cell blocks, level 3 a postcard of level-2
    # blocks; the array, where the cell budget keeps one, is the patchwork's cells
    rng = np.random.default_rng(dim)
    for budgets, kept in ((None, {1, 2, 3}), (Budgets(cells=1000), {1, 2})):
        family = camzd.build_family_d(dim=dim, levels=2, budgets=budgets)
        camzd.build_level_d(family, 12)
        for k in (1, 2, 3):
            for name in family.names(k):
                word = family.word(k, name)
                cells = word.patchwork.to_array()
                assert cells.shape == (word.side,) * dim
                assert (word.array is not None) == (k in kept)
                if word.array is not None:
                    assert np.array_equal(word.array, cells)
                n = word.patchwork.base.shape[0]
                # random cells, and one cell of every stamp
                sample = list(rng.integers(0, word.side, size=(64, dim)))
                for anchor, _ in word.patchwork.patches:
                    sample.append(np.array(anchor) * n + rng.integers(0, n, size=dim))
                for at in sample:
                    assert patchwork_cell(word.patchwork, tuple(at + 1)) == cells[tuple(at)]


def test_self_concat_agrees_with_direct_formula(rng):
    for _ in range(100):
        d = rng.choice([1, 2, 3])
        n = rng.randint(1, 4)
        w = np.array(
            [rng.randint(0, 1) for _ in range(n**d)], dtype=np.uint8
        ).reshape((n,) * d)
        extents = tuple(rng.randint(1, 3) for _ in range(d))
        out = self_concat(w, extents)
        for coords in np.ndindex(*out.shape):
            one_based = tuple(c + 1 for c in coords)
            direct = w[tuple(((x - 1) % n) for x in one_based)]
            assert out[coords] == direct


# -- postcards --------------------------------------------------------------------


def test_postcard_figure_one_layout():
    # one-dimensional postcard with two stamps: 13 blocks, stamps at 3 and 5
    base = cube([0, 0])
    u1, u2 = cube([1, 0]), cube([1, 1])
    arr = camzd.postcard([u1, u2], base, 6).to_array()
    assert arr.shape == (26,)
    blocks = [arr[2 * i : 2 * i + 2].tolist() for i in range(13)]
    assert blocks[2] == [1, 0] and blocks[4] == [1, 1]
    assert all(b == [0, 0] for i, b in enumerate(blocks) if i not in (2, 4))


def test_postcard_figure_two_layout():
    base = np.zeros((2, 2), dtype=np.uint8)
    s1, s2 = np.ones((2, 2), dtype=np.uint8), cube([[1, 0], [0, 1]])
    arr = camzd.postcard([s1, s2], base, 4).to_array()
    assert arr.shape == (18, 18)
    for bx in range(9):
        for by in range(9):
            seg = arr[2 * bx : 2 * bx + 2, 2 * by : 2 * by + 2]
            if (bx, by) == (2, 2):
                assert np.array_equal(seg, s1)
            elif (bx, by) == (4, 2):
                assert np.array_equal(seg, s2)
            else:
                assert not seg.any()


def test_postcard_no_stamps_is_self_concat():
    base = cube([[0, 1], [1, 0]])
    arr = camzd.postcard([], base, 3).to_array()
    assert np.array_equal(arr, self_concat(base, 7))


def test_postcard_agrees_with_two_case_formula(rng):
    for _ in range(100):
        d = rng.choice([1, 2])
        n = rng.randint(1, 3)
        k = rng.randint(0, 2)
        e = rng.randint(max(k, 1), k + 5)
        shape = (n,) * d

        def rand_cube():
            return np.array(
                [rng.randint(0, 1) for _ in range(n**d)], dtype=np.uint8
            ).reshape(shape)

        base = rand_cube()
        stamps = [rand_cube() for _ in range(k)]
        pc = camzd.postcard(stamps, base, e)
        arr = pc.to_array()
        for _ in range(20):
            coords = tuple(rng.randint(1, (2 * e + 1) * n) for _ in range(d))
            want = postcard_cell(stamps, base, e, coords)
            assert arr[tuple(c - 1 for c in coords)] == want
            assert patchwork_cell(pc, coords) == want


def test_postcard_corner_blocks_equal_base_randomized(rng):
    # with the layout margin in force, no stamp reaches any of the 2^d corners
    for _ in range(30):
        d = rng.choice([1, 2])
        n = rng.randint(1, 3)
        k = rng.randint(0, 2)
        e = 2 * k + 4 + rng.randint(0, 2)
        shape = (n,) * d
        base = np.array(
            [rng.randint(0, 1) for _ in range(n**d)], dtype=np.uint8
        ).reshape(shape)
        stamps = [1 - base for _ in range(k)]
        arr = camzd.postcard(stamps, base, e, require_margin=True).to_array()
        side = (2 * e + 1) * n
        for corner in np.ndindex(*(2,) * d):
            slices = tuple(
                slice(0, n) if c == 0 else slice(side - n, side) for c in corner
            )
            assert np.array_equal(arr[slices], base)


def test_postcard_corner_blocks_equal_base(family_d2_structural3):
    a3 = family_d2_structural3.word(3, "a3")
    base = family_d2_structural3.word(2, "a2").array
    n = base.shape[0]
    side = a3.side
    arr = a3.array
    for cx in (0, side - n):
        for cy in (0, side - n):
            assert np.array_equal(arr[cx : cx + n, cy : cy + n], base)


def test_postcard_errors():
    base = cube([[0, 0], [0, 0]])
    stamps = [np.ones((2, 2), dtype=np.uint8)] * 3
    with refused("^3 stamps need e >= 3 first-axis blocks, got e = 2$"):
        camzd.postcard(stamps, base, 2)  # stamps do not even fit
    with refused(r"^postcard margin needs e >= 2k\+4 = 10, got e = 9$"):
        camzd.postcard(stamps, base, 9, require_margin=True)
    with refused("stamps must have the same cube shape as the base"):
        camzd.postcard([np.ones((3, 3), dtype=np.uint8)], base, 6)


# -- counting ----------------------------------------------------------------------


def test_count_d_examples():
    assert camzd.count_occurrences_d(cube([[1]]), np.ones((2, 2), dtype=np.uint8)) == 4
    t = np.ones((3, 3), dtype=np.uint8)
    assert camzd.count_occurrences_d(t, t) == 1
    with refused("pattern does not fit inside text"):
        camzd.count_occurrences_d(np.ones((4, 4), dtype=np.uint8), t)


def test_count_d_rejects_cells_outside_01():
    ones = np.ones((2, 2), dtype=np.uint8)
    bad = [
        (cube([[0]]), np.array([[256, 1], [0, 257]], dtype=np.int16)),
        (np.array([[0.5]]), ones),
        (np.array([[-255]], dtype=np.int64), ones),
        (np.array([[np.nan]]), ones),
        (np.array([["1"]]), ones),
    ]
    for pattern, text in bad:
        with refused("array word cells must be 0 or 1"):
            camzd.count_occurrences_d(pattern, text)
    with refused("array word cells must be 0 or 1"):
        camzd.period_lattice(np.array([[0, 2], [0, 0]], dtype=np.int64))
    # exact 0/1 values of any numeric type are cells
    assert camzd.count_occurrences_d(np.array([[1.0]]), np.array([[True, True]])) == 2
    with refused("pattern has no cells"):
        camzd.count_occurrences_d(np.zeros((0, 1), dtype=np.uint8), ones)


@st.composite
def count_cases(draw):
    """A text, and a pattern cut from it (maybe with one cell flipped) or drawn at random.

    Last-axis widths sit on both sides of the 63-cell pack width; texts run
    from all zeros to all ones, so near-miss placements are common.
    """
    d = draw(st.sampled_from([1, 2, 3]))
    wide = 200 if d == 1 else 130
    w = draw(st.sampled_from([1, 2, 62, 63, 64, 126, 127]) | st.integers(1, wide))
    pattern_lead = tuple(draw(st.integers(1, 3)) for _ in range(d - 1))
    text_shape = tuple(p + draw(st.integers(0, 3)) for p in pattern_lead)
    text_shape += (w + draw(st.integers(0, 70)),)
    pattern_shape = pattern_lead + (w,)
    density = draw(st.sampled_from([0.0, 0.02, 0.5, 0.98, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    text = (rng.random(text_shape) < density).astype(np.uint8)
    if draw(st.booleans()):
        offsets = [draw(st.integers(0, t - p)) for t, p in zip(text_shape, pattern_shape)]
        pattern = text[tuple(slice(o, o + p) for o, p in zip(offsets, pattern_shape))].copy()
        if draw(st.booleans()):
            lead = tuple(draw(st.integers(0, p - 1)) for p in pattern_lead)
            edges = sorted({0, w - 1, min(w, 63) - 1, min(w, 64) - 1})
            column = draw(st.sampled_from(edges) | st.integers(0, w - 1))
            pattern[lead + (column,)] ^= 1
    else:
        pattern = (rng.random(pattern_shape) < density).astype(np.uint8)
    return pattern, text


@given(case=count_cases())
@settings(max_examples=300, deadline=None)
def test_count_d_matches_windowed_oracle(case):
    pattern, text = case
    assert camzd.count_occurrences_d(pattern, text) == count_occurrences_windowed(pattern, text)


@given(
    shape=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.0, 0.3, 1.0]),
    view=st.sampled_from(["array", "transposed", "strided"]),
)
@settings(max_examples=100, deadline=None)
def test_array_file_form_matches_the_cell_by_cell_writer(shape, seed, density, view):
    rng = np.random.default_rng(seed)
    arr = (rng.random(shape) < density).astype(np.uint8)
    if view == "transposed":
        arr = arr.T
    elif view == "strided":
        arr = arr[..., ::2]
    assert camzd.array_to_obj(arr) == array_to_obj_cells(arr)


def test_count_d_compares_every_column():
    # one 1 in an all-zero pattern, at every column: a column the packed
    # chunks skip would count the all-zero placements
    for w in (1, 62, 63, 64, 126, 127, 128, 190):
        for shape in ((w,), (2, w)):
            text = np.zeros(shape[:-1] + (w + 5,), dtype=np.uint8)
            assert camzd.count_occurrences_d(np.zeros(shape, dtype=np.uint8), text) == 6
            for column in range(w):
                pattern = np.zeros(shape, dtype=np.uint8)
                pattern.reshape(-1, w)[-1, column] = 1
                assert camzd.count_occurrences_d(pattern, text) == 0, (shape, column)


def test_count_d_slabs_add_up(monkeypatch):
    # texts larger than a slab are packed in several slabs of first-axis rows
    rng = np.random.default_rng(7)
    for slab_cells in (1, 5, 64):
        monkeypatch.setattr(camzd, "_SLAB_CELLS", slab_cells)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            text_shape = tuple(int(x) for x in rng.integers(1, 9, size=d))
            shape = tuple(int(rng.integers(1, t + 1)) for t in text_shape)
            text = (rng.random(text_shape) < 0.2).astype(np.uint8)
            pattern = np.zeros(shape, dtype=np.uint8)
            assert camzd.count_occurrences_d(pattern, text) == count_occurrences_windowed(
                pattern, text
            )


def test_count_d_matches_python_loop(rng):
    for _ in range(60):
        d = rng.choice([1, 2])
        tshape = tuple(rng.randint(2, 7) for _ in range(d))
        pshape = tuple(rng.randint(1, t) for t in tshape)
        text = np.array(
            [rng.randint(0, 1) for _ in range(int(np.prod(tshape)))], dtype=np.uint8
        ).reshape(tshape)
        pattern = np.array(
            [rng.randint(0, 1) for _ in range(int(np.prod(pshape)))], dtype=np.uint8
        ).reshape(pshape)
        brute = 0
        for offs in np.ndindex(*(t - p + 1 for t, p in zip(tshape, pshape))):
            view = text[tuple(slice(o, o + p) for o, p in zip(offs, pshape))]
            brute += int(np.array_equal(view, pattern))
        assert camzd.count_occurrences_d(pattern, text) == brute


def test_multiplicity_sandwich_for_level2(family_d2):
    a2 = family_d2.word(2, "a2").array
    n = a2.shape[0]
    lattice = camzd.period_lattice(a2)
    count = camzd.count_occurrences_d(a2, self_concat(a2, 2))
    low = Fraction(n**2, lattice.index)
    high = Fraction(n**2) * (Fraction(1, lattice.index) + Fraction(2, n))
    assert low <= count <= high


# -- counting on the block grid of a doubled word -------------------------------------


@st.composite
def doubled_grids(draw):
    """A patchwork and 1-4 patterns of one shape no larger than its blocks.

    Half the patchworks are postcards with the layout margin (d <= 3), the
    others have stamps at any blocks, the far edge and neighbouring blocks
    included.  Some stamps equal the base.  Half the shapes have t = s on
    some axis, where a far-edge corner block leaves one placement.  Each
    pattern is cut from the doubled word (maybe with one cell flipped) or
    drawn at random.
    """
    d = draw(st.sampled_from([1, 2, 3, 4]))
    s = draw(st.integers(1, {1: 6, 2: 4}.get(d, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))

    def block():
        return (rng.random((s,) * d) < density).astype(np.uint8)

    base = block()
    k = draw(st.integers(0, 3))
    stamps = [block() for _ in range(k)]
    if stamps and draw(st.booleans()):
        stamps[0] = base.copy()
    if d <= 3 and draw(st.booleans()):
        word = camzd.postcard(stamps, base, 2 * k + 4 + draw(st.integers(0, 2)), True)
    else:
        extents = tuple(draw(st.integers(1, 5 if d <= 3 else 3)) for _ in range(d))
        cells = list(np.ndindex(*extents))
        anchors = draw(st.lists(st.sampled_from(cells), max_size=k, unique=True))
        word = camzd.PatchworkExpr(base, extents, tuple(zip(anchors, stamps)))
    text = np.tile(word.to_array(), (2,) * d)
    shape = [draw(st.integers(1, s)) for _ in range(d)]
    if draw(st.booleans()):
        shape[draw(st.integers(0, d - 1))] = s
    patterns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            offsets = [draw(st.integers(0, t - p)) for t, p in zip(text.shape, shape)]
            pattern = text[tuple(slice(o, o + p) for o, p in zip(offsets, shape))].copy()
            if draw(st.booleans()):
                pattern[tuple(draw(st.integers(0, p - 1)) for p in shape)] ^= 1
        else:
            pattern = (rng.random(shape) < density).astype(np.uint8)
        patterns.append(pattern)
    return word, text, patterns


@given(case=doubled_grids())
@settings(max_examples=200, deadline=None)
def test_block_grid_count_matches_the_doubled_word(case):
    # the patterns and their complements, counted in one pass over the windows
    word, text, patterns = case
    patterns += [1 - p for p in patterns]
    want = [camzd.count_occurrences_d(p, text) for p in patterns]
    assert camzd.DoubledGrid(word).counts(patterns) == want


def test_block_grid_slabs_add_up(monkeypatch):
    # window stacks larger than a slab are packed and passed slab by slab
    rng = np.random.default_rng(11)
    kernel = camzd._count_packed
    split = []

    def recording(pattern, code, valid, mults):
        split.append(len(code) < len(grid.mults))
        return kernel(pattern, code, valid, mults)

    for slab_cells in (1, 20, 300):
        for _ in range(15):
            d = int(rng.integers(1, 4))
            s = int(rng.integers(1, 4))
            base = (rng.random((s,) * d) < 0.3).astype(np.uint8)
            stamps = [(rng.random((s,) * d) < 0.5).astype(np.uint8) for _ in range(2)]
            word = camzd.postcard(stamps, base, 8, True)
            text = np.tile(word.to_array(), (2,) * d)
            shape = tuple(int(rng.integers(1, s + 1)) for _ in range(d))
            start = [int(rng.integers(0, t - p + 1)) for t, p in zip(text.shape, shape)]
            pattern = text[tuple(slice(o, o + p) for o, p in zip(start, shape))]
            patterns = [pattern, 1 - pattern, np.zeros(shape, dtype=np.uint8)]
            want = [camzd.count_occurrences_d(p, text) for p in patterns]
            grid = camzd.DoubledGrid(word)
            with monkeypatch.context() as patch:
                patch.setattr(camzd, "_SLAB_CELLS", slab_cells)
                patch.setattr(camzd, "_count_packed", recording)
                assert grid.counts(patterns) == want
    assert any(split)


def test_block_grid_gathers_its_windows_slab_by_slab(monkeypatch):
    # d = 4, level-3 density word: 64 neighbourhoods, whose 2s-cell windows
    # hold 64 x 12^4 = 1.3e6 cells; a slab of 65536 cells takes four 11^4-cell
    # windows, whose codes take one byte a cell.  numpy reports its buffers
    # to tracemalloc, and the counting peak stays under 8 bytes a slab cell
    family = camzd.build_family_d(dim=4, levels=2)
    word = family._density_words(2, 12)["a"]
    patterns = [family.word(2, name).array for name in ("w1_2", "w2_2", "b2")]
    want = camzd.DoubledGrid(word).counts(patterns)
    slab_cells = 1 << 16
    monkeypatch.setattr(camzd, "_SLAB_CELLS", slab_cells)
    grid = camzd.DoubledGrid(word)
    assert len(grid.mults) == 64
    tracemalloc.start()
    try:
        got = grid.counts(patterns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want == [20736, 16, 16]
    assert peak < 8 * slab_cells


def test_block_grid_rejects_patterns_larger_than_a_block():
    word = camzd.postcard([], np.zeros((2, 2), dtype=np.uint8), 3)
    with refused(r"pattern \(3, 1\) does not fit in a block of side"):
        camzd.DoubledGrid(word).counts([np.zeros((3, 1), dtype=np.uint8)])
    with refused("block-grid patterns must share one shape"):
        camzd.DoubledGrid(word).counts([np.zeros((1, 1)), np.zeros((1, 2))])
    with refused("pattern has no cells"):
        camzd.DoubledGrid(word).counts([np.zeros((0, 1), dtype=np.uint8)])


def _row_parts(report):
    return [(r.ident, r.lhs, r.rhs, r.status, r.note, r.parts) for r in report.rows]


@pytest.mark.parametrize("n", [12, 24, 48, 96])
def test_level3_rows_match_the_materialized_certifier(family_d2, n):
    report = camzd.certify_candidate_d(family_d2, n)
    assert _row_parts(report) == _row_parts(certify_materialized(family_d2, 2, n))


def test_level2_rows_match_the_materialized_certifier():
    # level 2 is the same grid with one-cell blocks; d = 1 and d = 3 too
    for dim, values in ((1, range(6, 12)), (2, range(3, 12)), (3, range(6, 9))):
        family = camzd.ZdFamily(dim=dim)
        for n in values:
            report = camzd.certify_candidate_d(family, n)
            assert _row_parts(report) == _row_parts(certify_materialized(family, 1, n))


def test_block_grid_windows_are_held_to_the_cell_budget():
    # level-3 windows: 6x6 cells for the level-1 words, 11x11 for the level-2 ones
    family = camzd.build_family_d(dim=2, levels=2, budgets=Budgets(cells=100))
    report = camzd.certify_candidate_d(family, 12)
    unverifiable = {r.ident for r in report.unverifiable_rows}
    assert unverifiable == {r.ident for r in report.rows if "-freq[m=2," in r.ident}
    assert {r.note for r in report.unverifiable_rows} == {
        "unverifiable at budget: cell budget exceeded"
    }
    assert {r.status for r in report.rows if "-freq[m=1," in r.ident} == {"pass"}


def test_certificate_work_does_not_grow_with_n(family_d2, monkeypatch):
    # each side and pattern shape packs the stack of its neighbourhood
    # windows once, and each pattern takes one early-exit pass over it
    pack, kernel = camzd._pack, camzd._count_packed
    calls = {}

    def recording_pack(arr, width):
        calls[n].append(("pack", arr.shape))
        return pack(arr, width)

    def recording_kernel(pattern, code, valid, mults):
        calls[n].append(("pass", pattern.shape, code.shape))
        return kernel(pattern, code, valid, mults)

    monkeypatch.setattr(camzd, "_pack", recording_pack)
    monkeypatch.setattr(camzd, "_count_packed", recording_kernel)
    for n in (48, 2087, 10**6, 10**12):
        calls[n] = []
        # n = 2087 is the certified level-3 parameter
        assert camzd.certify_candidate_d(family_d2, n).passed == (n >= 2087)
    assert calls[48] == calls[2087] == calls[10**6] == calls[10**12]
    # per side: the 16 neighbourhood windows, cropped to 11x11 cells for
    # the three 6x6 words; the 1x1 word is counted from the densities
    stacks = sorted(c[1] for c in calls[2087] if c[0] == "pack" and len(c[1]) == 3)
    assert stacks == [(16, 11, 11)] * 2
    # 3872 text cells, where counting the 1x1 word on 6x6 windows too took
    # 5024, and the 40 distinct windows packed one at a time 3770
    assert sum(np.prod(shape) for shape in stacks) == 3872
    # one pass per pattern, where one pass per (pattern, window) made 104
    passes = sorted(c[1] for c in calls[2087] if c[0] == "pass")
    assert passes == [(6, 6)] * 6


def test_level3_candidate_packs_each_pattern_and_window_once(family_d2, monkeypatch):
    pack = camzd._pack
    packed = []

    def recording(arr, width):
        packed.append(arr.shape)
        return pack(arr, width)

    monkeypatch.setattr(camzd, "_pack", recording)
    camzd.certify_candidate_d(family_d2, 2087)
    # per side: the three 6x6 words and one window stack; counting the 1x1
    # word on the grid too took 12 calls, packing each distinct window on
    # its own 48, and one count_occurrences_d call per (pattern, window) 208
    assert len(packed) == 8


def test_d4_level3_build_packs_each_pattern_and_stack_once(tmp_path, monkeypatch):
    pack, counts = camzd._pack, camzd.DoubledGrid.counts
    calls = collections.Counter()

    def recording_pack(arr, width):
        calls["_pack"] += 1
        return pack(arr, width)

    def recording_counts(grid, patterns):
        calls["counts"] += 1
        return counts(grid, patterns)

    monkeypatch.setattr(camzd, "_pack", recording_pack)
    monkeypatch.setattr(camzd.DoubledGrid, "counts", recording_counts)
    family = camzd.build_family_d(dim=4, levels=3)
    assert family.params == [6, 42142]
    # counting the one-cell words on the grid too took 104 _pack calls and
    # 38 counts, packing each distinct window on its own 1038 _pack calls
    assert calls == {"_pack": 56, "counts": 14}
    path = tmp_path / "d4.json"
    path.write_text(cli.canonical_json(cam1d.family_to_obj(family)))
    calls.clear()
    assert cli.main(["certify", "--family", str(path), "--out", str(tmp_path / "cert.json")]) == 0
    # levels 2 and 3 once each: level 2 counts on no grid; counting the
    # one-cell words on the grid took 16 and 6, the one-window packing 150
    assert calls == {"_pack": 8, "counts": 2}


def test_pair_scan_packs_each_word_once(family_d2, monkeypatch):
    pack = camzd._pack
    packed = []

    def recording(arr, width):
        packed.append(arr.shape)
        return pack(arr, width)

    monkeypatch.setattr(camzd, "_pack", recording)
    report = cam1d.verify_distinct_subwords(family_d2, 2)
    assert len(report.pairs) == 12
    # four words as patterns, four doubled words as texts
    assert sorted(packed) == [(6, 6)] * 4 + [(12, 12)] * 4


def test_pair_scan_counts_every_pair():
    # level-2 words that occur in each other: cyclic shifts of one cube, and
    # a constant cube that occurs in none of them
    rng = np.random.default_rng(3)
    cube0 = (rng.random((4, 4)) < 0.5).astype(np.uint8)
    arrays = [cube0, np.roll(cube0, 1, axis=0), np.roll(cube0, (2, 3), axis=(0, 1))]
    arrays.append(np.zeros((4, 4), dtype=np.uint8))
    family = camzd.ZdFamily(dim=2)
    names = hierarchy.level_names(2)
    family.levels.append({n: camzd.ZdWord(4, a, None) for n, a in zip(names, arrays)})
    report = cam1d.verify_distinct_subwords(family, 2)
    words = dict(zip(names, arrays))
    for pair in report.pairs:
        text = np.tile(words[pair.v], (2, 2))
        assert pair.count == count_occurrences_windowed(words[pair.u], text), pair
    assert len({p.count for p in report.pairs}) > 1


# -- period lattice ------------------------------------------------------------------


def test_period_lattice_examples():
    const = np.ones((4, 4), dtype=np.uint8)
    assert camzd.period_lattice(const).index == 1
    a2 = np.zeros((6, 6), dtype=np.uint8)
    a2[2, 2] = 1
    lattice = camzd.period_lattice(a2)
    assert lattice.index == 36 and lattice.residues.tolist() == [[0, 0]]
    word = cube([0, 1, 0, 1])
    lattice = camzd.period_lattice(word)
    assert lattice.residues.tolist() == [[0], [2]] and lattice.index == 2


def test_period_lattice_soundness(rng):
    for _ in range(40):
        d = rng.choice([1, 2])
        n = rng.randint(1, 5)
        w = np.array(
            [rng.randint(0, 1) for _ in range(n**d)], dtype=np.uint8
        ).reshape((n,) * d)
        lattice = camzd.period_lattice(w)
        assert lattice.index * len(lattice.residues) == n**d
        for gen in lattice.generators:
            assert np.array_equal(np.roll(w, gen, axis=tuple(range(d))), w)
        for res in lattice.residues:
            assert np.array_equal(np.roll(w, res, axis=tuple(range(d))), w)


@st.composite
def lattice_cubes(draw):
    """Random cubes, and periodic cubes tiled from a smaller random base."""
    d = draw(st.sampled_from([1, 2, 3]))
    side = draw(st.integers(1, {1: 40, 2: 12, 3: 6}[d]))
    base = draw(st.sampled_from([b for b in range(1, side + 1) if side % b == 0]))
    density = draw(st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cell = (rng.random((base,) * d) < density).astype(np.uint8)
    return np.tile(cell, (side // base,) * d)


# 1 fails in full, then period 4 is found; then 5, which passes the filter
# (the probes are every other rare cell, the first 1 of each block 1100),
# fails in full and rejects its whole coset 5 + {0, 4, ..., 124}
@example(w=np.tile(np.array([1, 1, 0, 0], dtype=np.uint8), 32))
@given(w=lattice_cubes())
@settings(max_examples=200, deadline=None)
def test_period_lattice_matches_scan_oracle(w):
    got, want = camzd.period_lattice(w), period_lattice_scan(w)
    assert got.residues.tolist() == want.residues.tolist()
    assert got.generators == want.generators
    assert got.index == want.index


@st.composite
def rare_cell_cubes(draw):
    """Cubes the rare-cell candidates must get right: postcards of small
    hierarchy words (as a3 and w3_3 are built), half-density cubes (the tie
    between the symbols), cubes with exactly one rare cell, and long words
    in one dimension."""
    kind = draw(st.sampled_from(["postcard", "half", "one", "long"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([1, 2, 3]))
    if kind == "postcard":
        n = draw(st.integers(3, 6)) if d == 1 else 3
        words = [w.array for w in camzd.ZdFamily(dim=d)._words(1, n).values()]
        k = draw(st.integers(0, 1 if d == 3 else 3))
        stamps = [words[i] for i in draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))]
        e = k if d == 3 else draw(st.integers(k, k + 1))
        return camzd.postcard(stamps, words[draw(st.integers(0, 3))], e).to_array()
    if kind == "half":
        side = draw(st.sampled_from({1: [2, 4, 8, 20], 2: [2, 4, 6], 3: [2]}[d]))
        cells = np.zeros(side**d, dtype=np.uint8)
        cells[: side**d // 2] = 1
        base = rng.permutation(cells).reshape((side,) * d)
        reps = draw(st.integers(1, {1: 40, 2: 12, 3: 6}[d] // side))
        return np.tile(base, (reps,) * d)
    if kind == "one":
        side = draw(st.integers(1, {1: 40, 2: 12, 3: 6}[d]))
        fill = draw(st.integers(0, 1))
        w = np.full((side,) * d, fill, dtype=np.uint8)
        w[tuple(draw(st.integers(0, side - 1)) for _ in range(d))] ^= 1
        return w
    period = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.05, 0.5, 0.95]))
    base = (rng.random(period) < density).astype(np.uint8)
    w = np.tile(base, draw(st.integers(10, 600 // period)))
    if draw(st.booleans()):
        w[draw(st.integers(0, len(w) - 1))] ^= 1
    return w


@given(w=rare_cell_cubes())
@settings(max_examples=200, deadline=None)
def test_period_lattice_matches_scan_oracle_on_rare_cell_cases(w):
    got, want = camzd.period_lattice(w), period_lattice_scan(w)
    assert got.residues.tolist() == want.residues.tolist()
    assert got.generators == want.generators
    assert got.index == want.index


def test_period_lattice_tests_rare_cells_without_rolling(family_d2_structural3, monkeypatch):
    a3 = family_d2_structural3.word(3, "a3").array

    def no_roll(*args, **kwargs):
        raise AssertionError("period_lattice rolled the cube")

    with monkeypatch.context() as patch:
        patch.setattr(np, "roll", no_roll)
        got = camzd.period_lattice(a3)
    want = period_lattice_scan(a3)
    assert got.residues.tolist() == want.residues.tolist() == [[0, 0]]
    assert got.generators == want.generators == ()
    assert got.index == want.index == 22500


def test_period_lattice_gathers_per_round_generator_or_rejection(
    family_d2_structural3, monkeypatch
):
    # six filter rounds (1, 2, 4, 8, 16 and the last of 32 probe cells) and
    # one flattening of the survivors; then three gathers per generator (the
    # full test, the order of v, the new span) and two per rejection.  A
    # constant cube has no probe: its 2 generators take 6
    family = family_d2_structural3
    cubes = {
        "a3": family.word(3, "a3").array,
        "w3_3": family.word(3, "w3_3").array,
        "constant-30": np.zeros((30, 30), dtype=np.uint8),
        "constant-150": np.zeros((150, 150), dtype=np.uint8),
    }
    ravel = np.ravel_multi_index
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return ravel(*args, **kwargs)

    counts = {}
    for name, w in cubes.items():
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np, "ravel_multi_index", counted)
            camzd.period_lattice(w)
        counts[name] = len(calls)
    assert counts == {"a3": 7, "w3_3": 13, "constant-30": 6, "constant-150": 6}


def _half_density(rng, side: int) -> np.ndarray:
    cells = np.zeros(side * side, dtype=np.uint8)
    cells[: side * side // 2] = 1
    return rng.permutation(cells).reshape(side, side)


def test_period_lattice_peak_memory_per_cell():
    # numpy reports its buffers to tracemalloc.  A filter round reads at most
    # max(survivors, 2^16) cells, so no round holds more than the first,
    # which reads one probe for each of the 500 000 rare cells.  A constant
    # cube has every cell as a residue: its span, its mask and the (r, d)
    # residue array, with no Python object per residue
    rng = np.random.default_rng(20261020)
    cubes = [
        (_half_density(rng, 1000), (), 1, 40),
        (np.tile(_half_density(rng, 10), (100, 100)), ((0, 10), (10, 0)), 100, 40),
        (np.zeros((1000, 1000), dtype=np.uint8), ((0, 1), (1, 0)), 1000, 64),
    ]
    for w, generators, step, bound in cubes:
        tracemalloc.start()
        try:
            lattice = camzd.period_lattice(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lattice.generators == generators
        assert lattice.index == w.size // step**len(generators)
        assert len(lattice.residues) == step**len(generators)
        assert peak < bound * w.size


def test_period_lattice_constant_150():
    lattice = camzd.period_lattice(np.zeros((150, 150), dtype=np.uint8))
    assert lattice.index == 1
    assert len(lattice.residues) == 22500
    assert lattice.generators == ((0, 1), (1, 0))


# -- families -------------------------------------------------------------------------


def test_d2_level2_parameter(family_d2):
    assert family_d2.params == [6]
    assert family_d2.is_certified()
    a2 = family_d2.word(2, "a2").array
    assert a2[2, 2] == 1 and int(a2.sum()) == 1
    b2 = family_d2.word(2, "b2").array
    assert b2[2, 2] == 0 and int((b2 == 0).sum()) == 1


def test_d2_level2_boundary():
    family = camzd.ZdFamily(dim=2)
    assert camzd.certify_candidate_d(family, 6).passed
    report = camzd.certify_candidate_d(family, 5)
    assert not report.passed  # 1/25 < 1/24 holds but the stamp margin fails
    assert any(r.ident.startswith("stamp-fit") and r.status == "fail" for r in report.rows)


def test_level2_certificate_refuses_cubes_over_the_cell_budget(monkeypatch):
    # the chosen level-2 parameter is 6, and a 6^3 = 216-cell cube exceeds
    # 200 cells, so the build refuses, and no certificate builds a grid
    built = []
    monkeypatch.setattr(camzd, "DoubledGrid", lambda word: built.append(word))
    with pytest.raises(BudgetExceeded, match="cubes of 216 cells exceed the cell budget 200"):
        cam1d.build_family(levels=2, dim=3, budgets=Budgets(cells=200))
    assert built == []


@pytest.mark.parametrize("dim", range(1, 9))
def test_level2_certificate_builds_no_grid(dim, monkeypatch):
    # level 2 inherits only one-cell words, counted from the densities
    built = []
    monkeypatch.setattr(camzd, "DoubledGrid", lambda word: built.append(word))
    report = camzd.certify_candidate_d(camzd.ZdFamily(dim), 6)
    decided = [r.status for r in report.rows if "-freq[m=1," in r.ident]
    assert len(decided) == 2 and set(decided) <= {"pass", "fail"}
    assert report.passed == (dim > 1)  # d = 1 takes n = 9
    assert built == []


def test_no_level3_candidate_packs_a_one_cell_pattern(family_d2, monkeypatch):
    pack_pattern = camzd._pack_pattern
    shapes = []

    def recording(pattern):
        shapes.append(pattern.shape)
        return pack_pattern(pattern)

    monkeypatch.setattr(camzd, "_pack_pattern", recording)
    for n in (12, 2086, 2087):
        camzd.certify_candidate_d(family_d2, n)
    assert shapes == [(6, 6)] * 18


def test_certification_is_pure_d(monkeypatch):
    # certifying a built level reads levels 1..k in place (level 3, where
    # patterns are still counted); the family keeps all its levels
    family = camzd.build_family_d(dim=2, levels=3)
    levels = family.levels
    seen = []
    kernel = camzd._count_packed

    def recording(pattern, code, valid, mults):
        seen.append(family.top_level)
        return kernel(pattern, code, valid, mults)

    monkeypatch.setattr(camzd, "_count_packed", recording)
    assert cam1d.certify_level(family, 3).passed
    assert seen and set(seen) == {3}
    assert family.levels is levels and family.top_level == 3


def test_d1_family_level3():
    # the d-dimensional construction at d = 1 (build_family builds LevelFamily there)
    family = cam1d.build_levels(camzd.ZdFamily(dim=1), 3)
    assert family.params[0] == 9  # smallest n with 1/n < 1/8 and n >= 6
    assert family.is_certified()
    report = cam1d.verify_distinct_subwords(family, 3)
    assert len(report.pairs) == 30 and not report.violations
    # stamp layout of the level-3 postcard: first-axis blocks 3, 5, 7, 9
    anchors = [anchor[0] + 1 for anchor, _ in family.word(3, "a3").patchwork.patches]
    assert anchors == [3, 5, 7, 9]


def test_d2_level2_pair_scans(family_d2):
    report = cam1d.verify_distinct_subwords(family_d2, 2)
    assert len(report.pairs) == 12
    assert all(p.status == "verified" and p.count == 0 for p in report.pairs)


def test_d2_structural_level3_scans(family_d2_structural3):
    report = cam1d.verify_distinct_subwords(family_d2_structural3, 3)
    assert len(report.pairs) == 30
    assert all(p.status == "verified" and p.count == 0 for p in report.pairs)


def test_symbol_mismatch_pair_is_trivially_zero(family_d2):
    a2 = family_d2.word(2, "a2").array
    w12_doubled = self_concat(family_d2.word(2, "w1_2").array, 2)
    assert camzd.count_occurrences_d(a2, w12_doubled) == 0


def test_build_level_rejects_invalid():
    family = camzd.ZdFamily(dim=2)
    with refused("level parameter must be > 1"):
        camzd.build_level_d(family, 1)
    with refused("level-2 parameter must be >= 3 to place the deviant cell"):
        camzd.build_level_d(family, 2)


# -- transitive configuration -----------------------------------------------------------


def window_cells(family, starts, sides):
    """The cells of the window the family prints as a JSON array object."""
    obj = json.loads(family.window(starts, sides))
    assert obj["dim"] == family.dim
    return np.array([int(c) for c in obj["data"]], dtype=np.uint8).reshape(obj["sides"])


def test_transitive_config_full_cube(family_d2):
    side = family_d2.side(2)
    full = window_cells(family_d2, (1 - side, 1 - side), (2 * side, 2 * side))
    doubled = self_concat(family_d2.word(2, "a2").array, 2)
    assert np.array_equal(full, doubled)


def test_transitive_config_corner_is_base(family_d2_structural3):
    n = family_d2_structural3.side(2)
    corner = window_cells(family_d2_structural3, (1, 1), (n, n))
    assert np.array_equal(corner, family_d2_structural3.word(2, "a2").array)
    mirror = window_cells(family_d2_structural3, (1 - n, 1 - n), (n, n))
    assert np.array_equal(mirror, family_d2_structural3.word(2, "a2").array)


def test_transitive_config_matches_cell_by_cell(family_d2_structural3):
    # d = 3 under a budget that leaves its level-3 words as patchworks
    d3 = camzd.build_family_d(dim=3, levels=2, budgets=Budgets(cells=10**6))
    camzd.build_level_d(d3, 12)
    assert d3.word(3, "a3").array is None
    rng = np.random.default_rng(11)
    for family in (family_d2_structural3, d3):
        span, s, d = family.side(3), family.side(2), family.dim
        stamps = [
            tuple(a * s for a in anchor)
            for anchor, _ in family.word(3, "a3").patchwork.patches
        ]
        for _ in range(40):
            sides = tuple(int(x) for x in rng.integers(1, 3 * s, size=d))
            if rng.random() < 0.5:  # near a stamp of one of the 2^d copies
                low = stamps[rng.integers(len(stamps))]
                copy = rng.integers(0, 2, size=d) * span
                corner = low + copy + rng.integers(-s, s, size=d)
            else:
                corner = rng.integers(0, 2 * span, size=d)
            corner = np.clip(corner, 0, 2 * span - np.array(sides))
            starts = tuple(int(c) - span + 1 for c in corner)
            got = window_cells(family, starts, sides)
            assert np.array_equal(got, transitive_config_window_cells(family, starts, sides))


def test_transitive_config_out_of_range(family_d2):
    side = family_d2.side(2)
    with refused(r"rectangle \[\d+, \d+\] outside built range"):
        family_d2.window((side, side), (2, 2))


# -- measures -----------------------------------------------------------------------------


def test_measure_report_d2(family_d2):
    lines, rows = family_d2.measure(2, None, None)
    assert lines == ["level 2: freq(1|a)=1/36 freq(0|b)=1/36 gap=17/18 gap>1/3=True"]
    row = rows[0]
    a_one = Fraction(row["freq(1|a)"])
    assert a_one == Fraction(1, 36)
    # both deviant-symbol frequencies below the eps prefix sum 1/24
    assert a_one < family_d2.eps.partial(1, 1) == Fraction(1, 24)
    assert Fraction(row["freq(0|b)"]) < Fraction(1, 24)
    assert a_one + Fraction(int((family_d2.word(2, "a2").array == 0).sum()), 36) == 1
    assert row["gap>1/3"]


def test_measure_report_d_matches_arrays(family_d2_structural3):
    _, rows = family_d2_structural3.measure(3, None, None)
    assert [row["level"] for row in rows] == [2, 3]
    for row in rows:
        k = row["level"]
        a, b = (family_d2_structural3.word(k, f"{side}{k}").array for side in "ab")
        a_zero, b_zero = (Fraction(int((w == 0).sum()), w.size) for w in (a, b))
        assert Fraction(row["freq(1|a)"]) == Fraction(int(a.sum()), a.size)
        assert Fraction(row["freq(0|b)"]) == b_zero
        assert Fraction(row["gap"]) == abs(a_zero - b_zero)


# -- serialization --------------------------------------------------------------------------


def test_family_d_round_trip(family_d2):
    obj = cam1d.family_to_obj(family_d2)
    data = json.loads(json.dumps(obj))
    loaded = cam1d.family_from_obj(data)
    assert loaded.params == family_d2.params
    assert cam1d.family_to_obj(loaded) == obj


def test_family_d_rejects_tampering(family_d2):
    data = json.loads(json.dumps(cam1d.family_to_obj(family_d2)))
    data["levels"][1]["words"]["a2"]["array"]["data"] = "0" * 36
    with pytest.raises(MalformedFamily):
        cam1d.family_from_obj(data)


def test_family_d_checks_certificate_rows(family_d2):
    data = json.loads(json.dumps(cam1d.family_to_obj(family_d2)))
    row = next(r for r in data["certificates"][0]["rows"] if r["id"] == "a-freq[m=1,u=w2_1]")
    assert row["status"] == "pass"
    row["lhs"] = {"num": "1", "den": "1"}
    with pytest.raises(MalformedFamily):
        cam1d.family_from_obj(data)
