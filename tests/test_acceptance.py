"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time
from fractions import Fraction

import numpy as np

from camshift import cam1d, camzd, hierarchy, sft, slp
from camshift.cli import canonical_json
from camzd_oracles import self_concat
from sft_oracles import divisors, tr_n
from slp_oracles import materialize, scan_count
from conftest import random_expression, random_pattern
from test_sft import CATALOG, random_catalog


def _announce(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_level4_build_and_certificates(family4_timed):
    family, seconds = family4_timed
    assert seconds < 600, f"level-4 build took {seconds:.1f}s"
    assert family.top_level == 4
    assert family.is_certified()
    for report in family.certificates:
        for row in report.rows:
            if row.status == "info":
                continue
            assert row.status == "pass"
            assert isinstance(row.lhs, Fraction) and isinstance(row.rhs, Fraction)
            assert row.lhs < row.rhs  # strict
    # the chooser's n-1 fails at least one row per level
    for level in (2, 3, 4):
        n = family.params[level - 2]
        probe = family._certify(level - 1, n - 1)
        assert probe.failed_rows, f"level {level}: n-1 unexpectedly passes"
    _announce(
        1,
        f"level-4 build in {seconds:.1f}s (< 600s), params {family.params}, "
        "all rows strict, n-1 fails per level",
    )


def test_criterion_2_distinct_subwords_levels_2_and_3(family4):
    totals = {}
    for level in (2, 3):
        report = hierarchy.verify_distinct_subwords(family4, level)
        assert all(p.status == "verified" for p in report.pairs)
        assert all(p.count == 0 for p in report.pairs)
        totals[level] = len(report.pairs)
    assert totals == {2: 12, 3: 30}
    _announce(2, "12 + 30 ordered distinct pairs scanned, zero occurrences")


def test_criterion_3_compressed_counting_oracle(rng):
    builder = slp.SlpBuilder()
    checked = 0
    while checked < 200:
        expr = random_expression(builder, rng)
        if expr.length > 1_000_000:
            continue
        text = materialize(expr)
        pattern = random_pattern(rng, text, max_len=min(64, expr.length))
        assert builder.count_occurrences(pattern, expr) == scan_count(pattern, text), (
            pattern,
            expr,
        )
        checked += 1
    _announce(3, f"{checked} randomized pattern/expression pairs match the naive scan exactly")


def test_criterion_4_measures(family4):
    third = Fraction(1, 3)
    rows = cam1d.measure_report(family4, 4)
    assert [row.level for row in rows] == [2, 3, 4]
    for row in rows:
        assert row.a_zero < third
        assert row.b_one < third
        assert row.gap > third
    assert rows[0].a_zero == Fraction(1, 9)
    assert rows[0].b_zero == Fraction(8, 9)
    _announce(4, "all built levels: a-side zeros < 1/3, b-side ones < 1/3, gap > 1/3; level 2 exact")


def test_criterion_5_structure_parse_full_level3_extent(family4):
    block = family4.word_length(2)
    extent = family4.word_length(3)
    num_blocks = 2 * extent // block
    result = cam1d.parse_structure(family4, 2, 1 - extent, num_blocks)
    assert len(result.blocks) == num_blocks
    assert not result.violations
    allowed = {"equal", "a-w", "w-a", "b-w", "w-b", "ab", "ba"}
    assert set(result.pair_kinds) <= allowed
    _announce(5, f"{num_blocks} aligned blocks over the level-3 extent, zero violations")


def test_criterion_6_d2_build_and_layouts(family_d2, family_d2_structural3):
    assert family_d2.params == [6]
    assert family_d2.is_certified()

    # figure layouts: 1-d postcard has stamps at blocks 3 and 5 of 13
    base = np.zeros(2, dtype=np.uint8)
    u1 = np.array([1, 0], dtype=np.uint8)
    u2 = np.array([1, 1], dtype=np.uint8)
    arr = camzd.postcard([u1, u2], base, 6).to_array()
    blocks = [arr[2 * i : 2 * i + 2].tolist() for i in range(13)]
    assert blocks[2] == [1, 0] and blocks[4] == [1, 1]
    assert all(b == [0, 0] for i, b in enumerate(blocks) if i not in (2, 4))

    # 2-d postcard: stamps at (block 3, row 3) and (block 5, row 3) of 9x9
    base2 = np.zeros((2, 2), dtype=np.uint8)
    s1 = np.ones((2, 2), dtype=np.uint8)
    s2 = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    arr2 = camzd.postcard([s1, s2], base2, 4).to_array()
    for bx in range(9):
        for by in range(9):
            seg = arr2[2 * bx : 2 * bx + 2, 2 * by : 2 * by + 2]
            if (bx, by) == (2, 2):
                assert np.array_equal(seg, s1)
            elif (bx, by) == (4, 2):
                assert np.array_equal(seg, s2)
            else:
                assert not seg.any()

    # level-2 distinct-pair scans
    report = hierarchy.verify_distinct_subwords(family_d2, 2)
    assert len(report.pairs) == 12
    assert all(p.count == 0 for p in report.pairs)

    # multiplicity sandwich for a2 inside its doubled extension, exactly
    a2 = family_d2.word(2, "a2").array
    n = a2.shape[0]
    p = camzd.period_lattice(a2).index
    count = camzd.count_occurrences_d(a2, self_concat(a2, 2))
    assert Fraction(n**2, p) <= count <= Fraction(n**2) * (Fraction(1, p) + Fraction(2, n))

    # level 3 within the cell budget: postcard layout and scans
    fam3 = family_d2_structural3
    assert fam3.volume(3) <= 100_000_000
    anchors = [tuple(a + 1 for a in anchor) for anchor, _ in fam3.word(3, "a3").patchwork.patches]
    assert anchors == [(3, 3), (5, 3), (7, 3), (9, 3)]
    report3 = hierarchy.verify_distinct_subwords(fam3, 3)
    assert len(report3.pairs) == 30 and all(p.count == 0 for p in report3.pairs)
    _announce(6, "d=2: n2=6 certified, figure layouts match, scans zero, sandwich exact")


def test_criterion_7_sft_census():
    matrices = CATALOG + random_catalog(50)
    for matrix in matrices:
        for n in range(1, 11):
            assert tr_n(matrix, n) == sft.brute_periodic_points(matrix, n), (matrix, n)
    assert sft.census([[1, 1], [1, 0]], 3) == {1: 1, 2: 2, 3: 3}
    for matrix in matrices:
        for n in range(1, 13):
            assert sum(tr_n(matrix, d) for d in divisors(n)) == sft.trace_power(
                matrix, n
            )
    _announce(
        7,
        f"census equals brute force on {len(matrices)} matrices (n <= 10); "
        "golden-mean 1,2,3; round-trip n <= 12",
    )


def test_criterion_8_embedding_feasibility():
    start = time.time()
    fail_report = sft.embedding_feasibility([[1, 1], [1, 0]], 1, 12)
    pass_report = sft.embedding_feasibility([[1, 1], [1, 0]], 2, 12)
    elapsed = time.time() - start
    assert fail_report.entropy_status == "fail"
    assert pass_report.entropy_status == "pass"
    assert elapsed < 1.0, f"feasibility check took {elapsed:.3f}s"
    _announce(8, f"entropy condition: m=1 fail, m=2 pass (exact), {elapsed * 1000:.0f}ms")


def test_criterion_9_determinism():
    first = hierarchy.build_family(levels=3)
    second = hierarchy.build_family(levels=3)
    fam_bytes = canonical_json(hierarchy.family_to_obj(first))
    assert fam_bytes == canonical_json(hierarchy.family_to_obj(second))
    cert_bytes = canonical_json([hierarchy.report_to_obj(r) for r in first.certificates])
    assert cert_bytes == canonical_json([hierarchy.report_to_obj(r) for r in second.certificates])

    # round trip through the file form re-certifies to identical bytes
    loaded = hierarchy.family_from_obj(json.loads(fam_bytes))
    recert = canonical_json(
        [hierarchy.report_to_obj(hierarchy.certify_level(loaded, k)) for k in (2, 3)]
    )
    assert recert == cert_bytes

    d2_first = camzd.build_family_d(dim=2, levels=2)
    d2_second = camzd.build_family_d(dim=2, levels=2)
    assert canonical_json(hierarchy.family_to_obj(d2_first)) == canonical_json(
        hierarchy.family_to_obj(d2_second)
    )
    _announce(9, "byte-identical families and certificate reports across rebuilds")
