import json
from fractions import Fraction

import numpy as np
import pytest
from camzd_oracles import (
    count_occurrences_windowed,
    period_lattice_scan,
    postcard_cell,
    self_concat,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from camshift import cam1d, camzd
from camshift.errors import (
    EmptyPattern,
    InvalidParameter,
    MalformedFamily,
    OutOfBuiltRange,
    ShapeMismatch,
    StampCountTooLarge,
)


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
    assert out.cell((1, 1)) == 0


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
            assert pc.cell(coords) == want


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
    with pytest.raises(StampCountTooLarge):
        camzd.postcard(stamps, base, 2)  # stamps do not even fit
    with pytest.raises(StampCountTooLarge):
        camzd.postcard(stamps, base, 9, require_margin=True)  # 2k+4 = 10
    with pytest.raises(ShapeMismatch):
        camzd.postcard([np.ones((3, 3), dtype=np.uint8)], base, 6)


# -- counting ----------------------------------------------------------------------


def test_count_d_examples():
    assert camzd.count_occurrences_d(cube([[1]]), np.ones((2, 2), dtype=np.uint8)) == 4
    t = np.ones((3, 3), dtype=np.uint8)
    assert camzd.count_occurrences_d(t, t) == 1
    with pytest.raises(ShapeMismatch):
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
        with pytest.raises(InvalidParameter):
            camzd.count_occurrences_d(pattern, text)
    with pytest.raises(InvalidParameter):
        camzd.period_lattice(np.array([[0, 2], [0, 0]], dtype=np.int64))
    # exact 0/1 values of any numeric type are cells
    assert camzd.count_occurrences_d(np.array([[1.0]]), np.array([[True, True]])) == 2
    with pytest.raises(EmptyPattern):
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


# -- period lattice ------------------------------------------------------------------


def test_period_lattice_examples():
    const = np.ones((4, 4), dtype=np.uint8)
    assert camzd.period_lattice(const).index == 1
    a2 = np.zeros((6, 6), dtype=np.uint8)
    a2[2, 2] = 1
    lattice = camzd.period_lattice(a2)
    assert lattice.index == 36 and lattice.residues == ((0, 0),)
    word = cube([0, 1, 0, 1])
    lattice = camzd.period_lattice(word)
    assert set(lattice.residues) == {(0,), (2,)} and lattice.index == 2


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


@given(w=lattice_cubes())
@settings(max_examples=200, deadline=None)
def test_period_lattice_matches_scan_oracle(w):
    got, want = camzd.period_lattice(w), period_lattice_scan(w)
    assert got.residues == want.residues
    assert got.generators == want.generators
    assert got.index == want.index


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


def test_certification_is_pure_d(family_d2, monkeypatch):
    levels = family_d2.levels
    seen = []
    count = camzd.count_occurrences_d

    def recording(pattern, text):
        seen.append(family_d2.top_level)
        return count(pattern, text)

    monkeypatch.setattr(camzd, "count_occurrences_d", recording)
    assert cam1d.certify_level(family_d2, 2).passed
    assert seen and set(seen) == {2}
    assert family_d2.levels is levels and family_d2.top_level == 2


def test_d1_family_level3():
    family = camzd.build_family_d(dim=1, levels=3)
    assert family.params[0] == 9  # smallest n with 1/n < 1/8 and n >= 6
    assert family.is_certified()
    report = camzd.verify_distinct_subwords_d(family, 3)
    assert len(report.pairs) == 30 and not report.violations
    # stamp layout of the level-3 postcard: first-axis blocks 3, 5, 7, 9
    anchors = [anchor[0] + 1 for anchor, _ in family.word(3, "a3").patchwork.patches]
    assert anchors == [3, 5, 7, 9]


def test_d2_level2_pair_scans(family_d2):
    report = camzd.verify_distinct_subwords_d(family_d2, 2)
    assert len(report.pairs) == 12
    assert all(p.status == "verified" and p.count == 0 for p in report.pairs)


def test_d2_structural_level3_scans(family_d2_structural3):
    report = camzd.verify_distinct_subwords_d(family_d2_structural3, 3)
    assert len(report.pairs) == 30
    assert all(p.status == "verified" and p.count == 0 for p in report.pairs)


def test_symbol_mismatch_pair_is_trivially_zero(family_d2):
    a2 = family_d2.word(2, "a2").array
    w12_doubled = self_concat(family_d2.word(2, "w1_2").array, 2)
    assert camzd.count_occurrences_d(a2, w12_doubled) == 0


def test_build_level_rejects_invalid():
    family = camzd.ZdFamily(dim=2)
    with pytest.raises(InvalidParameter):
        camzd.build_level_d(family, 1)
    with pytest.raises(InvalidParameter):
        camzd.build_level_d(family, 2)  # cannot place the deviant cell at (3, 3)


# -- transitive configuration -----------------------------------------------------------


def test_transitive_config_full_cube(family_d2):
    side = family_d2.side(2)
    full = camzd.transitive_config_window(family_d2, (1 - side, 1 - side), (2 * side, 2 * side))
    doubled = self_concat(family_d2.word(2, "a2").array, 2)
    assert np.array_equal(full, doubled)


def test_transitive_config_corner_is_base(family_d2_structural3):
    n = family_d2_structural3.side(2)
    corner = camzd.transitive_config_window(family_d2_structural3, (1, 1), (n, n))
    assert np.array_equal(corner, family_d2_structural3.word(2, "a2").array)
    mirror = camzd.transitive_config_window(family_d2_structural3, (1 - n, 1 - n), (n, n))
    assert np.array_equal(mirror, family_d2_structural3.word(2, "a2").array)


def test_transitive_config_out_of_range(family_d2):
    side = family_d2.side(2)
    with pytest.raises(OutOfBuiltRange):
        camzd.transitive_config_window(family_d2, (side, side), (2, 2))


# -- measures -----------------------------------------------------------------------------


def test_measure_report_d2(family_d2):
    rows = camzd.measure_report_d(family_d2, 2)
    row = rows[0]
    assert row.a_one == Fraction(1, 36)
    assert row.eps_bound == Fraction(1, 24)
    assert row.a_one_below_bound and row.b_zero_below_bound
    assert row.a_one + Fraction(int((family_d2.word(2, "a2").array == 0).sum()), 36) == 1
    assert row.gap_above_third


# -- serialization --------------------------------------------------------------------------


def test_family_d_round_trip(family_d2):
    obj = camzd.family_to_obj_d(family_d2)
    data = json.loads(json.dumps(obj))
    loaded = camzd.family_from_obj_d(data)
    assert loaded.params == family_d2.params
    assert camzd.family_to_obj_d(loaded) == obj


def test_family_d_rejects_tampering(family_d2):
    data = json.loads(json.dumps(camzd.family_to_obj_d(family_d2)))
    data["levels"][1]["words"]["a2"]["array"]["data"] = "0" * 36
    with pytest.raises(MalformedFamily):
        camzd.family_from_obj_d(data)


def test_family_d_checks_certificate_rows(family_d2):
    data = json.loads(json.dumps(camzd.family_to_obj_d(family_d2)))
    row = next(r for r in data["certificates"][0]["rows"] if r["id"] == "a-freq[m=1,u=w2_1]")
    assert row["status"] == "pass"
    row["lhs"] = {"num": "1", "den": "1"}
    with pytest.raises(MalformedFamily):
        camzd.family_from_obj_d(data)
