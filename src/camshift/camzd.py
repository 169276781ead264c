"""d-dimensional cube-word hierarchy: self-concatenation and postcards.

The d-dimensional levels mirror the one-dimensional ones.  Level 2 words
are n-cubes: two constant cubes plus the density cubes that deviate from a
constant in the single cell (3, ..., 3).  From level k >= 2, periodic words
are (2n+1)-fold self-concatenations and the density words are postcards:
the (2n+1)^d-block self-concatenation of the base with the other 2k
level-k words stamped along the first axis at blocks 3, 5, 7, ... in block
row 3 of every other axis.  All level-(k+1) words therefore share one cube
domain; the displayed periodic/postcard forms only make sense together
with that equal-domain convention.  Every word is stored as one such
patchwork, a base cube tiled over a grid of blocks with stamps: levels 1
and 2 are grids of one-cell blocks.  Its cells, where the cell budget
allows them, come from the one cell reader that also slices the
configuration windows.

The counting kernel compares packed cells: runs of up to 63 last-axis
cells become one unsigned code, as narrow as the run allows, so a
placement is checked with one integer comparison per pattern row chunk.
The kernel takes a stack of windows, the batch axis first, and stops as
soon as no placement in any window is left.  A certificate never builds
the doubled density word it counts in.  That word is a grid of level-k
blocks, the base everywhere but at the stamp copies, and every inherited
word fits in one block; so :class:`DoubledGrid` counts it in one small
window per distinct neighbourhood of 2^d blocks, times the number of
corner blocks with that neighbourhood, which is a closed form in the
grid size (the d-dimensional form of the run formula of
:mod:`camshift.slp`).  A pattern shape gathers its windows slab by slab,
each neighbour's block cropped to the cells the window reads, a far edge
is a mask of the placements, not a smaller window, and each slab is
packed once for one early-exit pass per pattern.  The symbol densities
come from the base and the stamps alone, and so do the level-1 rows (a
level-1 word is one symbol), so a level-2 certificate builds no grid.  The
configuration windows are sliced from the tiled base with the stamps
copied in.  Only the distinct-pair scan builds doubled words, under the
cell budget.  A period lattice takes as candidates the
residues that carry the first rare-symbol cell onto a rare cell;
translation is a bijection of the torus, so a candidate is a period iff
it maps the rare cells into themselves, a test that reads only those
cells.  The candidates are filtered at a few rare cells in rounds on the
survivors, and the rest walked one generator or rejected coset at a time,
each step a whole-array gather.  All of it is exact.

:class:`ZdFamily` keeps the family contract of :mod:`camshift.hierarchy`,
which assembles its certificate, and whose level driver builds,
certifies, loads and pair-scans it.  This module keeps the cube words,
their numpy counting, the family's layout row (the stamp fit) and variant
rows (the side-length frequencies) and the commands ``window`` and
``measure``.
``build_family_d``, ``build_level_d`` and ``certify_candidate_d`` are
one-line aliases of the shared functions, kept only for the benchmark,
which calls them by these names.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .budgets import Budgets
from .errors import BudgetExceeded, CamshiftError
from .hierarchy import CertRow, Hierarchy, level_names, row
from .hierarchy import build_family, build_level, certify_candidate
from .output import canonical_json, frac_str

__all__ = [
    "ArrayWord",
    "PatchworkExpr",
    "PeriodLattice",
    "ZdFamily",
    "postcard",
    "count_occurrences_d",
    "DoubledGrid",
    "period_lattice",
    "build_level_d",
    "certify_candidate_d",
    "build_family_d",
]

ArrayWord = np.ndarray  # d-dimensional uint8 array over {0, 1}


def make_cube(dim: int, side: int, fill: int = 0) -> ArrayWord:
    return np.full((side,) * dim, fill, dtype=np.uint8)


def _check_word(w) -> ArrayWord:
    # check the values as given: a cast first would wrap 256 to 0 and cut 0.5 to 0
    arr = np.asarray(w)
    if arr.ndim < 1:
        raise CamshiftError("array words must have at least one axis")
    if arr.dtype.kind not in "biuf" or not ((arr == 0) | (arr == 1)).all():
        raise CamshiftError("array word cells must be 0 or 1")
    return arr.astype(np.uint8, copy=False)


def _check_cube(w) -> ArrayWord:
    arr = _check_word(w)
    if len(set(arr.shape)) != 1:
        raise CamshiftError(f"expected a cube, got shape {arr.shape}")
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
        return math.prod(self.side)

    def to_array(self) -> ArrayWord:
        return _doubled_window(self, (0,) * self.dim, self.side)


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
        raise CamshiftError(f"{k} stamps need e >= {k} first-axis blocks, got e = {e}")
    if require_margin and e < 2 * k + 4:
        raise CamshiftError(f"postcard margin needs e >= 2k+4 = {2 * k + 4}, got e = {e}")
    for s in stamps:
        if s.shape != base.shape:
            raise CamshiftError("stamps must have the same cube shape as the base")
    d = base.ndim
    patches = tuple(
        ((2 * m,) + (2,) * (d - 1), stamp) for m, stamp in enumerate(stamps, start=1)
    )
    return PatchworkExpr(base=base, extents=(2 * e + 1,) * d, patches=patches)


# Cells per packed code: one uint64 holds them, and the map from windows of
# this many cells to codes is injective.
_PACK_WIDTH = 63
# Text cells packed at a time; their codes take at most 8 bytes a cell.
_SLAB_CELLS = 1 << 22
# Code types by width: the first that holds the cells of a code.
_CODE_TYPES = (np.uint8, np.uint16, np.uint32, np.uint64)


def _pack(arr: ArrayWord, width: int) -> np.ndarray:
    """Code of the ``width`` last-axis cells from every start: bit b is cell
    start+b, in the narrowest unsigned type that holds ``width`` bits."""
    dtype = next(t for t in _CODE_TYPES if np.iinfo(t).bits >= width)
    length = arr.shape[-1] - width + 1
    code = arr[..., :length].astype(dtype)
    shifted = np.empty_like(code)
    for b in range(1, width):
        np.left_shift(arr[..., b : b + length], b, out=shifted, dtype=dtype)
        code |= shifted
    return code


@dataclass(frozen=True)
class _PackedPattern:
    shape: tuple
    width: int    # cells per code
    starts: list  # last-axis chunk starts
    code: np.ndarray


def _pack_pattern(pattern: ArrayWord) -> _PackedPattern:
    w = pattern.shape[-1]
    width = min(_PACK_WIDTH, w)
    starts = list(range(0, w - width, width)) + [w - width]
    return _PackedPattern(pattern.shape, width, starts, _pack(pattern, width))


def _count_packed(pattern: _PackedPattern, code, valid, mults) -> int:
    """Sum over the windows i of a packed stack ``code`` (the batch axis
    first) of ``mults[i]`` x the placements of ``pattern`` in window i among
    those ``valid`` marks; stops as soon as no placement in any window is left."""
    mask = valid.copy()
    equal = np.empty_like(mask)
    placements = mask.shape[1:]
    for lead in np.ndindex(*pattern.shape[:-1]):
        rows = (slice(None),) + tuple(slice(i, i + r) for i, r in zip(lead, placements))
        for c0 in pattern.starts:
            window = code[rows + (slice(c0, c0 + placements[-1]),)]
            np.equal(window, pattern.code[lead + (c0,)], out=equal)
            mask &= equal
            if not mask.any():
                return 0
    found = np.count_nonzero(mask.reshape(len(mask), -1), axis=1)
    return sum(m * int(c) for m, c in zip(mults, found))


def _count_patterns(patterns: list, text: ArrayWord) -> list:
    """Counts of packed patterns, all of one shape, in ``text``: each slab
    of the text is packed once for all of them, a stack of one window."""
    shape, width = patterns[0].shape, patterns[0].width
    first = text.shape[0] - shape[0] + 1
    rows = max(1, _SLAB_CELLS * text.shape[0] // text.size)
    totals = [0] * len(patterns)
    for r in range(0, first, rows):
        slab = text[r : r + rows + shape[0] - 1]
        valid = np.ones((1,) + tuple(t - p + 1 for t, p in zip(slab.shape, shape)), bool)
        code = _pack(slab, width)[None]
        for i, pattern in enumerate(patterns):
            totals[i] += _count_packed(pattern, code, valid, (1,))
    return totals


def count_occurrences_d(pattern, text) -> int:
    """Exact count of axis-aligned placements of ``pattern`` inside ``text``.

    Both arrays are packed along the last axis, ``B = min(63, w)`` cells to
    an unsigned code (w the pattern's last-axis width).  A placement matches iff
    for every leading-axis pattern index and every chunk start c0 in
    0, B, 2B, ... and w - B (the last chunk overlaps the one before it, so
    every chunk is full width) the text code equals the pattern code.  The
    packing is injective, so this is integer equality of the cells
    themselves.  The text is packed in slabs of placements along the first
    axis, and a slab stops as soon as no placement is left.  Callers check
    the cell budget before they build the text.
    """
    pattern = _check_word(pattern)
    text = _check_word(text)
    if pattern.ndim != text.ndim:
        raise CamshiftError("pattern and text dimension mismatch")
    if pattern.size == 0:
        raise CamshiftError("pattern has no cells")
    if any(p > t for p, t in zip(pattern.shape, text.shape)):
        raise CamshiftError("pattern does not fit inside text")
    return _count_patterns([_pack_pattern(pattern)], text)[0]


# -- the doubled word as a grid of blocks ---------------------------------------


def _ones(word: PatchworkExpr) -> int:
    """Cells of ``word`` equal to 1, from its base and stamps alone."""
    base = int(word.base.sum())
    stamps = sum(int(stamp.sum()) - base for _, stamp in word.patches)
    return math.prod(word.extents) * base + stamps


class DoubledGrid:
    """Counts in the doubled word of a patchwork (2^d copies of it), on its
    grid of G = 2 * extent blocks per axis, without building it.

    Every block is the base except the stamp copies.  A pattern that fits in
    one block (side t <= s per axis) has the corner of each placement in
    exactly one block b, so it meets only b and its neighbours b + delta,
    delta in {0, 1}^d.  The placements with corner in b are those of the
    pattern in the window that starts at b and runs s + t - 1 cells per
    axis, at the s - t + 1 first starts on an axis where b is the last block.
    So the count is the sum over the distinct neighbourhoods of multiplicity
    x the count in their window.  Only the corners next to a stamp copy are
    listed one by one; the others have an all-base neighbourhood, and their
    number is a product of (G - 1) factors per set of far-edge axes less the
    listed ones.

    A pattern shape needs windows of s + t - 1 cells per axis.  They are
    gathered slab by slab, each neighbour's block cropped to its part of the
    window, a neighbour past the far edge read as the base; the far edge is
    a placement mask, so those cells are never compared.  Each slab is
    packed once, and each pattern then takes one early-exit pass over it.
    A certificate builds a grid only for the words of level 2 and up: a
    level-1 word is one symbol, counted from the densities.
    """

    def __init__(self, word: PatchworkExpr):
        self.dim = word.dim
        self.side = word.base.shape[0]
        grid = tuple(2 * e for e in word.extents)
        ids = {word.base.tobytes(): 0}
        blocks = [word.base]
        stamps = {}  # grid position -> index into blocks
        for anchor, stamp in word.patches:
            name = ids.setdefault(stamp.tobytes(), len(ids))
            if name == len(blocks):
                blocks.append(stamp)
            if name:  # a stamp equal to the base is base
                for copy in itertools.product((0, 1), repeat=self.dim):
                    at = tuple(a + c * e for a, c, e in zip(anchor, copy, word.extents))
                    stamps[at] = name
        self.blocks = np.stack(blocks)
        every = list(itertools.product((0, 1), repeat=self.dim))
        # the corners next to a stamp copy, with the block index of each
        # neighbour; a neighbour past the far edge holds no stamp, so it is
        # the base
        hoods = {}
        for at, name in stamps.items():
            for i, off in enumerate(every):
                corner = tuple(x - o for x, o in zip(at, off))
                if min(corner) >= 0:
                    hoods.setdefault(corner, [0] * len(every))[i] = name
        groups, listed = {}, {}
        for corner, names in hoods.items():
            edge = tuple(x == g - 1 for x, g in zip(corner, grid))
            key = (edge, tuple(names))
            groups[key] = groups.get(key, 0) + 1
            listed[edge] = listed.get(edge, 0) + 1
        for edge in itertools.product((False, True), repeat=self.dim):
            plain = math.prod(g - 1 for g, e in zip(grid, edge) if not e) - listed.get(edge, 0)
            if plain:
                key = (edge, (0,) * len(every))
                groups[key] = groups.get(key, 0) + plain
        # per neighbourhood: its multiplicity, its far-edge axes and the
        # block index of each neighbour, offsets in {0, 1}^d in order
        self.mults = list(groups.values())
        self.edges = np.array([edge for edge, _ in groups], dtype=bool).reshape(-1, self.dim)
        self.names = np.array([names for _, names in groups], dtype=np.intp)

    def _slab(self, part: slice, shape) -> tuple:
        """The windows of the neighbourhoods ``part`` for patterns of
        ``shape``, each neighbour's block cropped to the s + t - 1 cells per
        axis the window reads (the one at offset 1 to its first t - 1), and
        the placements to test in them: the s - t + 1 first starts on a
        far-edge axis, all s elsewhere."""
        d, s = self.dim, self.side
        names, edges = self.names[part], self.edges[part]
        windows = np.empty((len(names),) + tuple(s + t - 1 for t in shape), dtype=np.uint8)
        for i, offset in enumerate(itertools.product((0, 1), repeat=d)):
            sizes = [t - 1 if o else s for o, t in zip(offset, shape)]
            crop = tuple(slice(0, size) for size in sizes)
            place = tuple(slice(o * s, o * s + size) for o, size in zip(offset, sizes))
            windows[(slice(None),) + place] = self.blocks[(names[:, i],) + crop]
        valid = np.ones((len(names),) + (s,) * d, dtype=bool)
        for axis, t in enumerate(shape):
            past = (np.arange(s) > s - t).reshape((1,) * (axis + 1) + (s,) + (1,) * (d - axis - 1))
            valid &= ~(edges[:, axis].reshape((-1,) + (1,) * d) & past)
        return windows, valid

    def counts(self, patterns) -> list:
        """Placements of each of ``patterns``, all of one shape, in the doubled
        word: each pattern is packed once, and the windows of the shape are
        gathered and packed once, slab by slab, for all of them."""
        patterns = [_check_word(p) for p in patterns]
        shape = patterns[0].shape if patterns else ()
        if any(p.shape != shape for p in patterns):
            raise CamshiftError("block-grid patterns must share one shape")
        if len(shape) != self.dim or any(t > self.side for t in shape):
            raise CamshiftError(f"pattern {shape} does not fit in a block of side {self.side}")
        if math.prod(shape) == 0:
            raise CamshiftError("pattern has no cells")
        packed = [_pack_pattern(p) for p in patterns]
        per = max(1, _SLAB_CELLS // math.prod(self.side + t - 1 for t in shape))
        totals = [0] * len(packed)
        for lo in range(0, len(self.mults), per):
            part = slice(lo, lo + per)
            windows, valid = self._slab(part, shape)
            code = _pack(windows, packed[0].width)
            for i, pattern in enumerate(packed):
                totals[i] += _count_packed(pattern, code, valid, self.mults[part])
        return totals


def _doubled_window(word: PatchworkExpr, corner, sides) -> ArrayWord:
    """Cells corner .. corner + sides - 1 (0-based) of the doubled word: the
    tiled base, overwritten by each stamp copy that meets the rectangle.

    The base is tiled and cut one axis at a time, the shortest side first,
    so no step holds more than three times the larger of the rectangle and
    the base; np.tile copies, so the stamps never write into the base."""
    s = word.base.shape[0]
    out = word.base
    for axis in sorted(range(word.dim), key=lambda a: sides[a]):
        head, size = corner[axis] % s, sides[axis]
        reps = [1] * word.dim
        reps[axis] = -(-(head + size) // s)
        out = np.tile(out, reps)[(slice(None),) * axis + (slice(head, head + size),)]
    for anchor, stamp in word.patches:
        for copy in itertools.product((0, 1), repeat=word.dim):
            lows = [(a + c * e) * s for a, c, e in zip(anchor, copy, word.extents)]
            starts = [max(lo, c) for lo, c in zip(lows, corner)]
            stops = [min(lo + s, c + size) for lo, c, size in zip(lows, corner, sides)]
            if all(a < b for a, b in zip(starts, stops)):
                target = tuple(slice(a - c, b - c) for a, b, c in zip(starts, stops, corner))
                cut = tuple(slice(a - lo, b - lo) for a, b, lo in zip(starts, stops, lows))
                out[target] = stamp[cut]
    return out


@dataclass(frozen=True, eq=False)
class PeriodLattice:
    """Translation symmetries of the infinite periodic extension of a cube."""

    residues: np.ndarray   # (r, d): the residue vectors in {0..n-1}^d fixing it, in order
    generators: tuple      # greedy generating set of the residue group
    index: int             # index of the full symmetry lattice in the integer grid


# Cells of the rarer symbol used to filter the period candidates.
_FILTER_CELLS = 32
# Most residues (cells of the cube) a lattice is computed for.
_MAX_RESIDUES = 1_000_000


def period_lattice(w) -> PeriodLattice:
    """All residues v with w-extended(x + v) = w-extended(x), plus their index.

    The symmetry lattice is residues + (n Z)^d; its index in the grid is
    n^d divided by the residue count.  Let R be the cells of the rarer
    symbol and r0 the first of them.  A period maps r0 onto a cell of R, so
    the candidates are the |R| residues (R - r0) mod n; and translation is
    a bijection of the torus, so v is a period iff (R + v) mod n lies in R,
    a test that reads the |R| cells R + v.  A cube without a rare cell is
    constant, and every residue is a period.  The candidates are first
    filtered at a few cells x of R (w[(x + v) mod n] must be rare), in
    rounds of 1, 2, 4, ... cells, each round on the candidates left by the
    ones before and gathering at most max(left, 2^16) cells; those tests
    only reject.  Then the walk takes the first candidate left, in
    lexicographic order, and tests it in full.  A period becomes a
    generator: its order m modulo the span of the generators so far is
    the first k in 1..n with k v in the span, read in one gather, and the
    span grows to span + j v for j < m in one broadcast.  A non-period
    marks its coset v + span rejected.  Every candidate now in the span (a
    period) or in a rejected coset (not one, as the span holds periods
    only) is dropped in one mask.  So the numpy steps follow the filter
    rounds, generators and rejections, not the candidates or cosets.  The
    residues are the final span, one (r, d) array in lexicographic order;
    the generators are the greedy ones of the full scan.
    """
    arr = _check_cube(w)
    n = arr.shape[0]
    d = arr.ndim
    if n**d > _MAX_RESIDUES:
        raise BudgetExceeded(f"{n**d} residues exceed the enumeration cap")
    rare = int(2 * int(arr.sum()) <= arr.size)
    values = arr.reshape(-1)

    def cells(mask) -> tuple:
        """The coordinate arrays of the cells a flat mask sets, in lexicographic
        order (nonzero on the cube itself is several times slower)."""
        return np.unravel_index(np.flatnonzero(mask), arr.shape)

    def flat(points) -> np.ndarray:
        """Flat cube indices of points (coordinates on the last axis) mod n."""
        return np.ravel_multi_index(points.T, arr.shape, mode="wrap").T

    def rare_at(points) -> np.ndarray:
        return values[flat(points)] == rare

    rare_cells = np.stack(cells(values == rare), axis=-1)  # R, in lexicographic order
    if len(rare_cells):
        offsets = rare_cells - rare_cells[0]
        probes = rare_cells[:: max(1, len(rare_cells) // _FILTER_CELLS)][:_FILTER_CELLS]
        batch = 1
        while len(probes):  # a round reads at most max(left, 2^16) cells
            size = min(batch, max(len(offsets), 1 << 16) // len(offsets))
            offsets = offsets[rare_at(offsets + probes[:size, None]).all(axis=0)]
            probes, batch = probes[size:], 2 * batch
        candidates = np.sort(flat(offsets))
    else:  # a constant cube: every residue is a period
        candidates = np.arange(arr.size)

    in_span = np.zeros(arr.size, dtype=bool)
    rejected = np.zeros(arr.size, dtype=bool)
    in_span[0] = True
    span = np.zeros((1, d), dtype=np.int64)  # members, unreduced, the zero vector first
    multiples = np.arange(1, n + 1)[:, None]
    generators = []
    while True:
        candidates = candidates[~(in_span[candidates] | rejected[candidates])]
        if not len(candidates):
            break
        v = np.array(np.unravel_index(candidates[0], arr.shape))
        if not rare_at(rare_cells + v).all():
            rejected[flat(span + v)] = True
            continue
        generators.append(tuple(v.tolist()))
        order = int(np.argmax(in_span[flat(multiples * v)])) + 1
        span = (span + (multiples[:order, None] - 1) * v).reshape(-1, d)
        in_span[flat(span)] = True
    residues = np.stack(cells(in_span), axis=-1)
    return PeriodLattice(residues, tuple(generators), n**d // len(residues))


# -- the level hierarchy -----------------------------------------------------


@dataclass
class ZdWord:
    side: int
    array: ArrayWord | None   # the patchwork's cells; None when over the cell budget
    patchwork: PatchworkExpr  # every word, a grid of one-cell blocks at levels 1-2


class ZdFamily(Hierarchy):
    """Levels of equal-shape cube words with parameters and certificates."""

    # the density words deviate from a constant cube: a-words mostly 0, b-words mostly 1
    rare = {"a": "1", "b": "0"}
    word_note = period_note = "cell budget exceeded"

    def __init__(self, dim: int, budgets: Budgets | None = None):
        super().__init__(dim, budgets)
        try:
            cells = [PatchworkExpr(make_cube(dim, 1, fill), (1,) * dim, ()) for fill in (0, 1)]
        except ValueError as exc:  # more axes than a numpy array holds
            raise CamshiftError(str(exc)) from None
        self.levels.append(dict(zip(level_names(1), map(self._wrap, cells))))

    def side(self, k: int) -> int:
        self._check_level(k)
        return next(iter(self.levels[k - 1].values())).side

    def volume(self, k: int) -> int:
        return self.side(k) ** self.dim

    _size = volume

    def _wrap(self, patchwork: PatchworkExpr) -> ZdWord:
        """The word of a patchwork, with its cells when they fit the cell budget."""
        array = patchwork.to_array() if patchwork.cells <= self.budgets.cells else None
        return ZdWord(patchwork.side[0], array, patchwork)

    # -- what the level driver and the certificate need -------------------

    def _words(self, k: int, n: int) -> dict:
        """Candidate words of level k+1 at parameter n, from levels 1..k (structure only)."""
        if n <= 1:
            raise CamshiftError("level parameter must be > 1")
        d = self.dim
        if k == 1:
            if n < 3:
                raise CamshiftError("level-2 parameter must be >= 3 to place the deviant cell")
            self._check_cube_cells(n)
            # the constant cubes: n^d one-cell blocks
            periodic = [PatchworkExpr(make_cube(d, 1, fill), (n,) * d, ()) for fill in (0, 1)]
        else:
            # stamp-less postcards of the level-k words
            periodic = [postcard([], stamp, n) for stamp in self._stamps(k)]
        words = periodic + list(self._density_words(k, n).values())
        return {name: self._wrap(word) for name, word in zip(level_names(k + 1), words)}

    def _stamps(self, k: int) -> list:
        """The level-k words as arrays, in name order."""
        stamps = [self.levels[k - 1][name].array for name in level_names(k)]
        if any(stamp is None for stamp in stamps):
            raise BudgetExceeded(f"level-{k} words exceed the cell budget")
        return stamps

    def _density_words(self, k: int, n: int) -> dict:
        """The density words of level k+1 at parameter n, as grids of level-k
        blocks: at level 2, n^d cells with the deviant cell (3, ..., 3)
        stamped in; above it the postcards of the level-k words."""
        d = self.dim
        if k == 1:
            zero, one = make_cube(d, 1, 0), make_cube(d, 1, 1)
            center = (2,) * d  # block (3, ..., 3), 0-based
            return {
                "a": PatchworkExpr(zero, (n,) * d, ((center, one),)),
                "b": PatchworkExpr(one, (n,) * d, ((center, zero),)),
            }
        stamps = self._stamps(k)
        return {
            "a": postcard(stamps, stamps[-2], n, require_margin=True),
            "b": postcard(stamps, stamps[-1], n, require_margin=True),
        }

    def _fit_start(self, k: int) -> int:
        """The postcard margin 2k+4 for k stamps (one at level 2, which also
        leaves room for the deviant cell at n >= 3).  Below it the report is
        the eps tails and a failing stamp-fit row; from it on, every row is a
        polynomial in n.  No smaller level-2 parameter passes, so level-2
        cubes of this side over the cell budget are refused here, before the
        chooser certifies a candidate."""
        start = 2 * _stamp_count(k) + 4
        if k == 1:
            self._check_cube_cells(start)
        return start

    def _check_cube_cells(self, n: int):
        """Refuse level-2 cubes of n^d cells over the cell budget."""
        if n**self.dim > self.budgets.cells:
            raise BudgetExceeded(
                f"level-2 cubes of {n**self.dim} cells exceed the cell budget {self.budgets.cells}"
            )

    def _words_to_obj(self) -> dict:
        """The file field that stores the words: arrays at levels 1-2, whose
        cells always fit the budget, and postcards above."""
        levels = []
        for k, level in enumerate(self.levels, start=1):
            words = {}
            for name, word in level.items():
                entry: dict = {"side": word.side}
                if k <= 2:
                    entry["array"] = array_to_obj(word.array)
                else:
                    entry["patchwork"] = patchwork_to_obj(word.patchwork)
                words[name] = entry
            levels.append({"level": k, "words": words})
        return {"levels": levels}

    def _layout(self, k: int, n: int) -> list:
        """The stamp-fit row: the postcard margin n >= 2k+4 (one stamp at
        level 2), without which no density word can be laid out."""
        fit = row(f"stamp-fit[k={_stamp_count(k)}]", (self._fit_start(k), 1), (n + 1, 1))
        fit.note = "layout precondition n >= 2k+4 (pass iff 2k+4 < n+1)"
        return [fit]

    def _tally(self, k: int, n: int, inherited: list) -> tuple:
        """The counts of the level-(k+1) certificate at parameter n: the
        densities from the base and stamps, and each word of level 2 and up
        on the block grid of the doubled density word (:class:`DoubledGrid`).
        The grids are built first: a word of side t is counted only when the
        stack of its grid's neighbourhood windows, each of (s + t - 1)^d
        cells, fits the cell budget, since that stack is what its count
        gathers and scans.  No word of level k+1 is built."""
        d = self.dim
        density = self._density_words(k, n)
        vol_next = density["a"].cells
        rare_counts = {}
        for side, symbol in self.rare.items():
            ones = _ones(density[side])
            rare_counts[side] = ones if symbol == "1" else vol_next - ones

        # the verifiable words of one side and one shape are counted together
        s = self.side(k)
        patterns = [
            (ident, side, u)
            for ident, side, m, name, _ in inherited
            if m > 1 and (u := self.word(m, name)).array is not None
        ]
        grids = {side: DoubledGrid(density[side]) for side in {side for _, side, _ in patterns}}
        groups = {}
        for ident, side, u in patterns:
            if len(grids[side].mults) * (s + u.side - 1) ** d <= self.budgets.cells:
                groups.setdefault((side, u.side), []).append((ident, u.array))
        counts = {}
        for (side, _), words in groups.items():
            found = grids[side].counts([u for _, u in words])
            counts.update((ident, c) for (ident, _), c in zip(words, found))
        return vol_next, rare_counts, counts

    def period(self, k: int) -> int | None:
        """Index of the period lattice of a_k, or None when a_k is over the
        cell budget."""
        base = self.word(k, f"a{k}")
        return None if base.array is None else period_lattice(base.array).index

    def _variants(self, side: str, m: int, name: str, bound: Fraction, freq: CertRow) -> list:
        """The side-length variant of a frequency row, for information: its
        overlap count is (2 side - 1)^d with the side of u, not its cells."""
        t = self.side(m)
        rhs = bound.numerator, bound.denominator * t**self.dim * (2 * t - 1) ** self.dim
        note = "informational variant with geometric overlap count"
        return [CertRow(f"{side}-freq-sidelen[m={m},u={name}]", freq.left, rhs, "info", note)]

    def _pair_counts(self, k: int) -> dict | None:
        """(u, v) -> placements of u in the doubled v for the distinct
        level-k words; None when a doubled word exceeds the cell budget.

        The words share one shape: each is packed once as a pattern, and
        each doubled word once as the text of all the others.
        """
        names = self.names(k)
        if 2**self.dim * self.volume(k) > self.budgets.cells:
            return None
        # under the budget, every word keeps its array
        arrays = {name: self.word(k, name).array for name in names}
        packed = {name: _pack_pattern(arr) for name, arr in arrays.items()}
        counts = {}
        for v in names:
            others = [u for u in names if u != v]
            doubled = np.tile(arrays[v], (2,) * self.dim)
            found = _count_patterns([packed[u] for u in others], doubled)
            counts.update(((u, v), c) for u, c in zip(others, found))
        return counts

    # -- the commands ----------------------------------------------------

    def window(self, starts: list, sides: list) -> str:
        """The transitive configuration on the rectangle of ``sides`` from
        ``starts``, as a line of canonical JSON (the array's file form).

        The configuration restricted to the cube (1-S .. S)^d, S the top
        side, equals the doubled top density word; coordinates recenter at
        the origin.  The rectangle is sliced from the tiled base, and the
        stamps that meet it are copied in.
        """
        if self.top_level < 2:
            raise CamshiftError("family has no built level >= 2")
        if len(starts) != self.dim or len(sides) != self.dim or any(s < 1 for s in sides):
            raise CamshiftError("rectangle must have d starts and d positive sides")
        top = self.top_level
        span = self.side(top)
        for lo, size in zip(starts, sides):
            if lo <= -span or lo + size - 1 > span:
                raise CamshiftError(
                    f"rectangle [{lo}, {lo + size - 1}] outside built range ({-span}, {span}]"
                )
        if math.prod(sides) > self.budgets.cells:
            raise BudgetExceeded("rectangle exceeds the cell budget")
        word = self.word(top, f"a{top}").patchwork
        cells = _doubled_window(word, tuple(lo + span - 1 for lo in starts), sides)
        return canonical_json(array_to_obj(cells))

    def measure(self, k: int, side: str | None, cylinders: list | None) -> tuple:
        """The printed lines and the rows of the deviant-symbol frequencies
        per level 2..k and the gap between the sides' origin cylinders [0]."""
        if cylinders is not None or side is not None:
            raise CamshiftError("--cylinders and --side are defined for one-dimensional families")
        self._check_measure_level(k)
        rows = []
        for m in range(2, k + 1):
            vol = self.volume(m)
            ones_a, ones_b = (_ones(self.word(m, f"{s}{m}").patchwork) for s in "ab")
            a_one, b_zero = Fraction(ones_a, vol), Fraction(vol - ones_b, vol)
            gap = abs(1 - a_one - b_zero)  # freq(0|a) - freq(0|b)
            rows.append(
                {
                    "level": m,
                    "freq(1|a)": frac_str(a_one),
                    "freq(0|b)": frac_str(b_zero),
                    "gap": frac_str(gap),
                    "gap>1/3": gap > Fraction(1, 3),
                }
            )
        lines = [
            f"level {row['level']}: "
            + " ".join(f"{key}={value}" for key, value in row.items() if key != "level")
            for row in rows
        ]
        return lines, rows

    def parse(self, k: int, start: int, blocks: int):
        raise CamshiftError("parse is defined for one-dimensional families")

    def complexity(self, n_max: int, window_length: int):
        raise CamshiftError("complexity is defined for one-dimensional families")


def _stamp_count(k: int) -> int:
    """Stamps on a level-(k+1) postcard: the deviant cell at level 2, else
    the 2k other level-k words."""
    return 1 if k == 1 else 2 * k


# the shared driver under the names the benchmark calls (see the module docstring)
build_level_d = build_level
certify_candidate_d = certify_candidate
build_family_d = build_family


# -- serialization -----------------------------------------------------------


def array_to_obj(arr: ArrayWord) -> dict:
    return {
        "dim": arr.ndim,
        "sides": list(arr.shape),
        "data": (arr.reshape(-1) + 48).astype(np.uint8).tobytes().decode("ascii"),
    }


def patchwork_to_obj(p: PatchworkExpr) -> dict:
    return {
        "base": array_to_obj(p.base),
        "extents": list(p.extents),
        "patches": [
            {"block_anchor": list(anchor), "stamp": array_to_obj(stamp)}
            for anchor, stamp in p.patches
        ],
    }
