"""d-dimensional cube-word hierarchy: self-concatenation and postcards.

The d-dimensional levels mirror the one-dimensional ones.  Level 2 words
are n-cubes: two constant cubes plus the density cubes that deviate from a
constant in the single cell (3, ..., 3).  From level k >= 2, periodic words
are (2n+1)-fold self-concatenations and the density words are postcards:
the (2n+1)^d-block self-concatenation of the base with the other 2k
level-k words stamped along the first axis at blocks 3, 5, 7, ... in block
row 3 of every other axis.  All level-(k+1) words therefore share one cube
domain; the displayed periodic/postcard forms only make sense together
with that equal-domain convention.

Counting materializes the words under a cell budget and compares packed
cells: runs of up to 63 last-axis cells become one ``uint64`` code, so a
placement is checked with one integer comparison per pattern row chunk.
Period lattices filter their candidates at a few cells and test the rest
by cosets of the span found so far.  Both are exact.  The compressed form
(base + patches) is kept for layout queries and cell evaluation.

The level accessors, the parameter search, the eps-tail rows, the
inherited-word loop, the frequency and period-gap row formulas and the
pair-scan skeleton are shared with the one-dimensional hierarchy and live
in :mod:`camshift.cam1d`; this module keeps the cube words, their numpy
counting and the rows only the d-dimensional certificate has (the stamp
fit and the side-length variants).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .budgets import Budgets
from .cam1d import (
    EPS_SCHEME,
    CertificateReport,
    CertRow,
    Hierarchy,
    SubwordReport,
    _certificates_from_obj,
    _check_scheme,
    _eps_tail_rows,
    _frequency_row,
    _inherited_words,
    _json_int,
    _pair_report,
    _params_from_obj,
    _period_gap_row,
    _row,
    _unverifiable,
    default_frequency_sequence,
    level_names,
    report_to_obj,
    search_parameter,
)
from .errors import (
    BudgetExceeded,
    EmptyPattern,
    InvalidParameter,
    MalformedFamily,
    OutOfBuiltRange,
    ShapeMismatch,
    StampCountTooLarge,
)

__all__ = [
    "ArrayWord",
    "PatchworkExpr",
    "PeriodLattice",
    "ZdFamily",
    "postcard",
    "count_occurrences_d",
    "period_lattice",
    "build_level_d",
    "certify_candidate_d",
    "certify_level_d",
    "choose_parameter_d",
    "build_family_d",
    "verify_distinct_subwords_d",
    "transitive_config_window",
    "measure_report_d",
]

ArrayWord = np.ndarray  # d-dimensional uint8 array over {0, 1}


def make_cube(dim: int, side: int, fill: int = 0) -> ArrayWord:
    return np.full((side,) * dim, fill, dtype=np.uint8)


def _check_word(w) -> ArrayWord:
    # check the values as given: a cast first would wrap 256 to 0 and cut 0.5 to 0
    arr = np.asarray(w)
    if arr.ndim < 1:
        raise ShapeMismatch("array words must have at least one axis")
    if arr.dtype.kind not in "biuf" or not ((arr == 0) | (arr == 1)).all():
        raise InvalidParameter("array word cells must be 0 or 1")
    return arr.astype(np.uint8, copy=False)


def _check_cube(w) -> ArrayWord:
    arr = _check_word(w)
    if len(set(arr.shape)) != 1:
        raise ShapeMismatch(f"expected a cube, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class PatchworkExpr:
    """Compressed cube word: a periodic base overwritten by block-aligned stamps."""

    base: ArrayWord
    extents: tuple  # blocks per axis
    patches: tuple  # ((block_anchor per axis, 0-based), stamp array)

    @property
    def dim(self) -> int:
        return self.base.ndim

    @property
    def side(self) -> tuple:
        n = self.base.shape[0]
        return tuple(e * n for e in self.extents)

    @property
    def cells(self) -> int:
        return int(np.prod([float(s) for s in self.side]))

    def cell(self, coords) -> int:
        """Value at 1-based coordinates."""
        n = self.base.shape[0]
        if len(coords) != self.dim:
            raise ShapeMismatch("coordinate arity mismatch")
        if any(not (1 <= x <= s) for x, s in zip(coords, self.side)):
            raise OutOfBuiltRange(f"coordinates {coords} outside {self.side}")
        block = tuple((x - 1) // n for x in coords)
        for anchor, stamp in self.patches:
            if block == tuple(anchor):
                rel = tuple((x - 1) % n for x in coords)
                return int(stamp[rel])
        return int(self.base[tuple((x - 1) % n for x in coords)])

    def to_array(self) -> ArrayWord:
        out = np.tile(self.base, self.extents)
        n = self.base.shape[0]
        for anchor, stamp in self.patches:
            slices = tuple(slice(a * n, (a + 1) * n) for a in anchor)
            out[slices] = stamp
        return out


def postcard(stamps, base, e: int, require_margin: bool = False) -> PatchworkExpr:
    """Postcard layout: (2e+1)^d blocks of ``base`` with ``stamps`` stamped in.

    Stamp m occupies first-axis block 2m+1 and block row 3 on every other
    axis (1-based blocks).  Placement needs e >= k; the level hierarchy
    additionally demands the margin e >= 2k+4 (``require_margin``) so the
    stamps stay clear of the far edge.
    """
    base = _check_cube(base)
    stamps = [np.asarray(s, dtype=np.uint8) for s in stamps]
    k = len(stamps)
    if e < k:
        raise StampCountTooLarge(f"{k} stamps need e >= {k} first-axis blocks, got e = {e}")
    if require_margin and e < 2 * k + 4:
        raise StampCountTooLarge(f"postcard margin needs e >= 2k+4 = {2 * k + 4}, got e = {e}")
    for s in stamps:
        if s.shape != base.shape:
            raise ShapeMismatch("stamps must have the same cube shape as the base")
    d = base.ndim
    patches = tuple(
        ((2 * m,) + (2,) * (d - 1), stamp) for m, stamp in enumerate(stamps, start=1)
    )
    return PatchworkExpr(base=base, extents=(2 * e + 1,) * d, patches=patches)


# Cells per packed code: one uint64 holds them, and the map from windows of
# this many cells to codes is injective.
_PACK_WIDTH = 63
# Text cells packed at a time; their codes take 8 bytes a cell.
_SLAB_CELLS = 1 << 22


def _pack(arr: ArrayWord, width: int) -> np.ndarray:
    """Code of the ``width`` last-axis cells from every start: bit b is cell start+b."""
    length = arr.shape[-1] - width + 1
    code = arr[..., :length].astype(np.uint64)
    shifted = np.empty_like(code)
    for b in range(1, width):
        np.left_shift(arr[..., b : b + length], b, out=shifted, dtype=np.uint64)
        code |= shifted
    return code


def _count_packed(shape, pattern_code, starts, text_code, placements) -> int:
    mask = np.ones(placements, dtype=bool)
    equal = np.empty_like(mask)
    for lead in np.ndindex(*shape[:-1]):
        rows = tuple(slice(i, i + r) for i, r in zip(lead, placements))
        for c0 in starts:
            window = text_code[rows + (slice(c0, c0 + placements[-1]),)]
            np.equal(window, pattern_code[lead + (c0,)], out=equal)
            mask &= equal
            if not mask.any():
                return 0
    return int(np.count_nonzero(mask))


def count_occurrences_d(pattern, text, max_cells: int | None = None) -> int:
    """Exact count of axis-aligned placements of ``pattern`` inside ``text``.

    Both arrays are packed along the last axis, ``B = min(63, w)`` cells to
    a ``uint64`` (w the pattern's last-axis width).  A placement matches iff
    for every leading-axis pattern index and every chunk start c0 in
    0, B, 2B, ... and w - B (the last chunk overlaps the one before it, so
    every chunk is full width) the text code equals the pattern code.  The
    packing is injective, so this is integer equality of the cells
    themselves.  The text is packed in slabs of placements along the first
    axis, and a slab stops as soon as no placement is left.
    """
    pattern = _check_word(pattern)
    text = _check_word(text)
    if pattern.ndim != text.ndim:
        raise ShapeMismatch("pattern and text dimension mismatch")
    if pattern.size == 0:
        raise EmptyPattern("pattern has no cells")
    if any(p > t for p, t in zip(pattern.shape, text.shape)):
        raise ShapeMismatch("pattern does not fit inside text")
    if max_cells is not None and text.size > max_cells:
        raise BudgetExceeded(f"text of {text.size} cells exceeds the cell budget {max_cells}")
    w = pattern.shape[-1]
    width = min(_PACK_WIDTH, w)
    starts = list(range(0, w - width, width)) + [w - width]
    pattern_code = _pack(pattern, width)
    first = text.shape[0] - pattern.shape[0] + 1
    rows = max(1, _SLAB_CELLS * text.shape[0] // text.size)
    total = 0
    for r in range(0, first, rows):
        slab = text[r : r + rows + pattern.shape[0] - 1]
        placements = tuple(t - p + 1 for t, p in zip(slab.shape, pattern.shape))
        total += _count_packed(pattern.shape, pattern_code, starts, _pack(slab, width), placements)
    return total


@dataclass(frozen=True)
class PeriodLattice:
    """Translation symmetries of the infinite periodic extension of a cube."""

    modulus: int
    dim: int
    residues: tuple        # all residue vectors in {0..n-1}^d fixing the extension
    generators: tuple      # greedy generating set of the residue group
    index: int             # index of the full symmetry lattice in the integer grid

    def contains(self, vector) -> bool:
        return tuple(x % self.modulus for x in vector) in set(self.residues)


# Cells of the rarer symbol used to filter the period candidates.
_FILTER_CELLS = 8
# Most residues (cells of the cube) a lattice is computed for.
_MAX_RESIDUES = 1_000_000


def period_lattice(w) -> PeriodLattice:
    """All residues v with w-extended(x + v) = w-extended(x), plus their index.

    The symmetry lattice is residues + (n Z)^d; its index in the grid is
    n^d divided by the residue count.  A v can only be a period if
    w[(x + v) mod n] = w[x] at a few cells x of the rarer symbol; those
    tests only reject.  The survivors are walked in lexicographic order:
    one inside the span of the generators found so far is a period, one
    inside a coset v' + span of a rejected v' is not, and any other gets
    one full comparison.  It then becomes a generator, and the span grows
    by its multiples, or its coset is marked rejected.  The residues are
    the final span; the generators are the greedy ones of the full scan.
    """
    arr = _check_cube(w)
    n = arr.shape[0]
    d = arr.ndim
    if n**d > _MAX_RESIDUES:
        raise BudgetExceeded(f"{n**d} residues exceed the enumeration cap")
    axes = tuple(range(d))
    rare = int(2 * int(arr.sum()) <= arr.size)
    cells = np.flatnonzero(arr == rare)
    candidates = np.ones(arr.shape, dtype=bool)
    for x in cells[:: max(1, len(cells) // _FILTER_CELLS)][:_FILTER_CELLS]:
        shift = tuple(-int(i) for i in np.unravel_index(x, arr.shape))
        candidates &= np.roll(arr, shift, axis=axes) == rare

    in_span = np.zeros(arr.size, dtype=bool)
    rejected = np.zeros(arr.size, dtype=bool)
    in_span[0] = True
    span = np.zeros((1, d), dtype=np.int64)  # members, the zero vector first
    generators = []
    for flat in np.flatnonzero(candidates):
        if in_span[flat] or rejected[flat]:
            continue
        v = np.unravel_index(flat, arr.shape)
        if not np.array_equal(np.roll(arr, v, axis=axes), arr):
            rejected[np.ravel_multi_index(((span + v) % n).T, arr.shape)] = True
            continue
        generators.append(tuple(int(i) for i in v))
        cosets = [span]
        coset = (span + v) % n
        while not in_span[np.ravel_multi_index(tuple(coset[0]), arr.shape)]:
            in_span[np.ravel_multi_index(coset.T, arr.shape)] = True
            cosets.append(coset)
            coset = (coset + v) % n
        span = np.concatenate(cosets)
    residues = tuple(map(tuple, np.argwhere(in_span.reshape(arr.shape)).tolist()))
    return PeriodLattice(
        modulus=n,
        dim=d,
        residues=residues,
        generators=tuple(generators),
        index=n**d // len(residues),
    )


# -- the level hierarchy -----------------------------------------------------


@dataclass
class ZdWord:
    name: str
    side: int
    array: ArrayWord | None          # None when over the cell budget
    patchwork: PatchworkExpr | None  # layout form of every word above level 2

    @property
    def cells_available(self) -> bool:
        return self.array is not None


class ZdFamily(Hierarchy):
    """Levels of equal-shape cube words with parameters and certificates."""

    def __init__(self, dim: int, budgets: Budgets | None = None):
        if dim < 1:
            raise InvalidParameter("dimension must be >= 1")
        self.dim = dim
        self.budgets = budgets or Budgets()
        self.eps = default_frequency_sequence(dim)
        zero = ZdWord("w1_1", 1, make_cube(dim, 1, 0), None)
        one = ZdWord("w2_1", 1, make_cube(dim, 1, 1), None)
        self.levels: list[dict] = [{"w1_1": zero, "w2_1": one}]
        self.params: list[int] = []
        self.certificates: list[CertificateReport] = []

    def side(self, k: int) -> int:
        self._check_level(k)
        return next(iter(self.levels[k - 1].values())).side

    def volume(self, k: int) -> int:
        return self.side(k) ** self.dim


def excluded_a_d(m: int) -> str:
    """a-side skip at level m; the d-dimensional density words are mostly 0."""
    return "w1_1" if m == 1 else f"a{m}"


def excluded_b_d(m: int) -> str:
    return "w2_1" if m == 1 else f"b{m}"


def _level_words_d(family: ZdFamily, k: int, n: int) -> dict:
    """Candidate words of level k+1 at parameter n, from levels 1..k (structure only)."""
    if n <= 1:
        raise InvalidParameter("level parameter must be > 1")
    d = family.dim
    cell_cap = family.budgets.cells

    def wrap(name, obj):
        if isinstance(obj, PatchworkExpr):
            side = obj.side[0]
            arr = obj.to_array() if obj.cells <= cell_cap else None
            return ZdWord(name, side, arr, obj)
        return ZdWord(name, obj.shape[0], obj, None)

    if k == 1:
        if n < 3:
            raise InvalidParameter("level-2 parameter must be >= 3 to place the deviant cell")
        if n**d > cell_cap:
            raise BudgetExceeded(f"level-2 cubes of {n**d} cells exceed the cell budget {cell_cap}")
        center = (2,) * d  # cell (3, ..., 3), 0-based
        a2 = make_cube(d, n, 0)
        a2[center] = 1
        b2 = make_cube(d, n, 1)
        b2[center] = 0
        return {
            "w1_2": wrap("w1_2", make_cube(d, n, 0)),
            "w2_2": wrap("w2_2", make_cube(d, n, 1)),
            "a2": wrap("a2", a2),
            "b2": wrap("b2", b2),
        }

    prev = family.levels[k - 1]
    stamps = [prev[name].array for name in level_names(k)]
    if any(stamp is None for stamp in stamps):
        raise BudgetExceeded(f"level-{k} words exceed the cell budget")
    # the periodic words are stamp-less postcards, so every word above level
    # 2 has the same file form whatever the cell budget
    words = {
        f"w{i}_{k + 1}": wrap(f"w{i}_{k + 1}", postcard([], stamp, n))
        for i, stamp in enumerate(stamps, start=1)
    }
    words[f"a{k + 1}"] = wrap(f"a{k + 1}", postcard(stamps, stamps[-2], n, require_margin=True))
    words[f"b{k + 1}"] = wrap(f"b{k + 1}", postcard(stamps, stamps[-1], n, require_margin=True))
    return words


def build_level_d(family: ZdFamily, n_next: int) -> ZdFamily:
    """Append level top+1 at the given parameter; no inequality checking."""
    words = _level_words_d(family, family.top_level, n_next)
    family.levels.append(words)
    family.params.append(n_next)
    return family


def _doubled(word: ZdWord, cell_cap: int) -> ArrayWord | None:
    if word.array is None:
        return None
    if 2**word.array.ndim * word.array.size > cell_cap:
        return None
    return np.tile(word.array, (2,) * word.array.ndim)


def _certify_d(family: ZdFamily, k: int, n: int) -> CertificateReport:
    """Exact certification of level k+1 at parameter n against levels 1..k.

    Rows: the postcard fit precondition; for every m <= k and inherited
    word u the frequency of u in the doubled density word below
    (eps_m + ... + eps_k) / (|u| (2|u|-1)^d) with |u| the cell count
    (the printed denominator; the side-length variant is reported as an
    informational row); the period-index length-ratio bound; and the
    deviant-symbol densities below the eps prefix sum.
    """
    d = family.dim
    new_level = k + 1
    report = CertificateReport(level=new_level, param=n)
    stamp_count = 1 if k == 1 else 2 * k
    fit_rhs = 2 * stamp_count + 4
    report.rows += _eps_tail_rows(family.eps, new_level)
    fit_row = _row(f"stamp-fit[k={stamp_count}]", Fraction(fit_rhs), Fraction(n + 1))
    fit_row.note = "layout precondition n >= 2k+4 (pass iff 2k+4 < n+1)"
    report.rows.append(fit_row)
    if n < max(fit_rhs, 3):
        return report  # cannot even place stamps; frequency rows are moot

    words = _level_words_d(family, k, n)
    a_next, b_next = words[f"a{new_level}"], words[f"b{new_level}"]
    cell_cap = family.budgets.cells
    doubles = {"a": _doubled(a_next, cell_cap), "b": _doubled(b_next, cell_cap)}
    vol_next = a_next.side**d

    for ident, side, m, name, bound in _inherited_words(family.eps, k, excluded_a_d, excluded_b_d):
        doubled = doubles[side]
        u = family.word(m, name)
        if doubled is None or u.array is None:
            report.rows.append(_unverifiable(ident, "unverifiable at budget: cell budget exceeded"))
            continue
        count = count_occurrences_d(u.array, doubled, max_cells=cell_cap)
        volume = u.array.size
        row = _frequency_row(ident, count, volume, vol_next, bound, d)
        info = CertRow(
            ident=f"{side}-freq-sidelen[m={m},u={name}]",
            lhs=row.lhs,
            rhs=bound / (volume * (2 * u.side - 1) ** d),
            status="info",
            note="informational variant with geometric overlap count",
        )
        report.rows += [row, info]

    if k >= 2:
        base = family.word(k, f"a{k}")
        if base.array is None:
            report.rows.append(
                _unverifiable("period-gap", "unverifiable at budget: cell budget exceeded")
            )
        else:
            p_k = period_lattice(base.array).index
            report.rows.append(_period_gap_row(k, p_k, family.volume(k), vol_next))

    prefix = family.eps.partial(1, k)
    for ident, word, symbol in (("a-density[1]", a_next, 1), ("b-density[0]", b_next, 0)):
        if word.array is None:
            report.rows.append(
                _unverifiable(ident, "unverifiable at budget: cell budget exceeded")
            )
            continue
        count = int((word.array == symbol).sum())
        report.rows.append(_row(ident, Fraction(count, vol_next), prefix))
    return report


def certify_candidate_d(family: ZdFamily, n: int) -> CertificateReport:
    """Exact certification of the candidate next level at parameter n."""
    return _certify_d(family, family.top_level, n)


def certify_level_d(family: ZdFamily, k: int | None = None) -> CertificateReport:
    """Re-run the certifier for a built level (default: the top level)."""
    k = family.top_level if k is None else k
    if k < 2 or k > family.top_level:
        raise OutOfBuiltRange(f"no built level {k} to certify")
    return _certify_d(family, k - 1, family.params[k - 2])


def choose_parameter_d(family: ZdFamily) -> int:
    """Smallest n > 1 whose candidate next level passes certification."""
    return search_parameter(family, lambda n: certify_candidate_d(family, n))


def build_family_d(dim: int, levels: int, budgets: Budgets | None = None) -> ZdFamily:
    """Build and certify a d-dimensional family through the requested level."""
    if levels < 2:
        raise InvalidParameter("a family needs at least 2 levels")
    family = ZdFamily(dim=dim, budgets=budgets)
    for _ in range(levels - 1):
        n = choose_parameter_d(family)
        report = certify_candidate_d(family, n)
        build_level_d(family, n)
        family.certificates.append(report)
    return family


def verify_distinct_subwords_d(family: ZdFamily, k: int) -> SubwordReport:
    """Scan ordered distinct level-k pairs (u, v) for u inside the doubled v.

    Pairs whose doubled word exceeds the cell budget are reported as
    certified-by-inequalities.
    """
    cell_cap = family.budgets.cells
    names = family.names(k)
    arrays = {name: family.word(k, name).array for name in names}
    d = family.dim
    scannable = all(a is not None for a in arrays.values()) and (
        2**d * family.volume(k) <= cell_cap
    )
    if not scannable:
        return _pair_report(k, names, None)
    doubles = {name: np.tile(arr, (2,) * d) for name, arr in arrays.items()}
    return _pair_report(
        k, names, lambda u, v: count_occurrences_d(arrays[u], doubles[v], max_cells=cell_cap)
    )


def transitive_config_window(family: ZdFamily, starts, sides) -> ArrayWord:
    """Restriction of the transitive configuration to a rectangle.

    The configuration restricted to the cube (1-S .. S)^d, S the top side,
    equals the doubled top density word; coordinates recenter at the origin.
    """
    if family.top_level < 2:
        raise OutOfBuiltRange("family has no built level >= 2")
    d = family.dim
    starts = tuple(int(x) for x in starts)
    sides = tuple(int(x) for x in sides)
    if len(starts) != d or len(sides) != d or any(s < 1 for s in sides):
        raise InvalidParameter("rectangle must have d starts and d positive sides")
    top = family.top_level
    span = family.side(top)
    for lo, size in zip(starts, sides):
        if lo <= -span or lo + size - 1 > span:
            raise OutOfBuiltRange(
                f"rectangle [{lo}, {lo + size - 1}] outside built range ({-span}, {span}]"
            )
    cells = int(np.prod([float(s) for s in sides]))
    if cells > family.budgets.cells:
        raise BudgetExceeded("rectangle exceeds the cell budget")
    word = family.word(top, f"a{top}")
    out = np.empty(sides, dtype=np.uint8)
    for offset in np.ndindex(*sides):
        coords = tuple(lo + o for lo, o in zip(starts, offset))
        base_index = tuple((c + span - 1) % span for c in coords)
        if word.array is not None:
            out[offset] = word.array[base_index]
        elif word.patchwork is not None:
            out[offset] = word.patchwork.cell(tuple(i + 1 for i in base_index))
        else:
            raise BudgetExceeded("top density word is not materializable")
    return out


@dataclass
class MeasureRowD:
    level: int
    a_one: Fraction       # frequency of symbol 1 in the a-side word
    b_zero: Fraction      # frequency of symbol 0 in the b-side word
    origin_zero_a: Fraction
    origin_zero_b: Fraction
    gap: Fraction
    eps_bound: Fraction
    a_one_below_bound: bool
    b_zero_below_bound: bool
    gap_above_third: bool


def measure_report_d(family: ZdFamily, k_max: int | None = None) -> list:
    """Deviant-symbol frequencies per level plus the origin-cylinder gap."""
    k_max = family.top_level if k_max is None else min(k_max, family.top_level)
    rows = []
    third = Fraction(1, 3)
    for k in range(2, k_max + 1):
        a_word = family.word(k, f"a{k}")
        b_word = family.word(k, f"b{k}")
        if a_word.array is None or b_word.array is None:
            raise BudgetExceeded(f"level-{k} words exceed the cell budget")
        vol = family.volume(k)
        a_one = Fraction(int(a_word.array.sum()), vol)
        b_zero = Fraction(int((b_word.array == 0).sum()), vol)
        origin_a = Fraction(int((a_word.array == 0).sum()), vol)
        origin_b = Fraction(int((b_word.array == 0).sum()), vol)
        gap = abs(origin_a - origin_b)
        bound = family.eps.partial(1, k - 1)
        rows.append(
            MeasureRowD(
                level=k,
                a_one=a_one,
                b_zero=b_zero,
                origin_zero_a=origin_a,
                origin_zero_b=origin_b,
                gap=gap,
                eps_bound=bound,
                a_one_below_bound=a_one < bound,
                b_zero_below_bound=b_zero < bound,
                gap_above_third=gap > third,
            )
        )
    return rows


# -- serialization -----------------------------------------------------------


def array_to_obj(arr: ArrayWord) -> dict:
    return {
        "dim": arr.ndim,
        "sides": list(arr.shape),
        "data": "".join("1" if x else "0" for x in arr.reshape(-1)),
    }


def array_from_obj(obj) -> ArrayWord:
    sides = tuple(int(s) for s in obj["sides"])
    data = np.frombuffer(obj["data"].encode("ascii"), dtype=np.uint8) - ord("0")
    if data.size != int(np.prod(sides)):
        raise MalformedFamily("array data length mismatch")
    return data.reshape(sides).astype(np.uint8)


def patchwork_to_obj(p: PatchworkExpr) -> dict:
    return {
        "base": array_to_obj(p.base),
        "extents": list(p.extents),
        "patches": [
            {"block_anchor": list(anchor), "stamp": array_to_obj(stamp)}
            for anchor, stamp in p.patches
        ],
    }


def patchwork_from_obj(obj) -> PatchworkExpr:
    return PatchworkExpr(
        base=array_from_obj(obj["base"]),
        extents=tuple(int(e) for e in obj["extents"]),
        patches=tuple(
            (tuple(int(a) for a in patch["block_anchor"]), array_from_obj(patch["stamp"]))
            for patch in obj["patches"]
        ),
    )


def family_to_obj_d(family: ZdFamily) -> dict:
    levels = []
    for k in range(1, family.top_level + 1):
        words = {}
        for name in family.names(k):
            word = family.word(k, name)
            entry: dict = {"side": word.side}
            if word.patchwork is not None:
                entry["patchwork"] = patchwork_to_obj(word.patchwork)
            elif word.array is not None:
                entry["array"] = array_to_obj(word.array)
            words[name] = entry
        levels.append({"level": k, "words": words})
    return {
        "dim": family.dim,
        "K": family.top_level,
        "eps_scheme": EPS_SCHEME,
        "params": [str(n) for n in family.params],
        "levels": levels,
        "certificates": [report_to_obj(r) for r in family.certificates],
    }


def family_from_obj_d(obj, budgets: Budgets | None = None) -> ZdFamily:
    try:
        dim = _json_int(obj["dim"], "dim")
        if dim < 1:
            raise MalformedFamily("bad dimension")
        params = _params_from_obj(obj)
        _check_scheme(obj)
        if len(params) != _json_int(obj["K"], "K") - 1:
            raise MalformedFamily("parameter count does not match K")
        family = ZdFamily(dim=dim, budgets=budgets)
        for n in params:
            build_level_d(family, n)
        family.certificates = _certificates_from_obj(obj["certificates"], params)
        rebuilt = family_to_obj_d(family)
        if rebuilt["levels"] != obj["levels"]:
            raise MalformedFamily("serialized words do not match their parameters")
        return family
    except MalformedFamily:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError, InvalidParameter) as exc:
        raise MalformedFamily(f"malformed family file: {exc}") from exc
