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
:mod:`camshift.slp`).  All the windows come from one gather of the
stacked blocks, a far edge is a mask of the placements, not a smaller
window, and a pattern shape packs the stack once for one early-exit pass
per pattern.  The symbol densities come from the base and the stamps
alone, and the configuration windows are sliced from the tiled base with
the stamps copied in.  Only the distinct-pair scan builds doubled words,
under the cell budget.  A period lattice takes as candidates the
residues that carry the first rare-symbol cell onto a rare cell;
translation is a bijection of the torus, so a candidate is a period iff
it maps the rare cells into themselves, a test that reads only those
cells.  The candidates are filtered at a few rare cells, and the rest
tested by cosets of the span found so far.  All of it is exact.

:class:`ZdFamily` keeps the family contract of :mod:`camshift.hierarchy`,
and the level driver of :mod:`camshift.cam1d` builds, certifies, loads and
pair-scans it.  This module keeps the cube words, their numpy counting,
the certificate rows only d > 1 has (the stamp fit and the side-length
variants) and the commands ``window`` and ``measure``.
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
from .cam1d import build_family, build_level, certify_candidate
from .errors import BudgetExceeded, CamshiftError
from .hierarchy import (
    CertificateReport,
    CertRow,
    Hierarchy,
    canonical_json,
    eps_tail_rows,
    frac_str,
    frequency_row,
    inherited_words,
    level_names,
    period_gap_row,
    ratio,
    row,
    unverifiable,
)

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

    The windows of all neighbourhoods come from one gather of the stacked
    blocks by the neighbourhood names, a neighbour past the far edge read
    as the base; the far edge is a placement mask, so those cells are never
    compared.  A pattern shape crops the stack to s + t - 1 cells per axis
    and packs it once, in slabs of windows; each of its patterns then takes
    one early-exit pass over the packed stack.
    """

    def __init__(self, word: PatchworkExpr):
        self.dim = word.dim
        self.side = word.base.shape[0]
        grid = tuple(2 * e for e in word.extents)
        ids = {word.base.tobytes(): 0}
        self.blocks = [word.base]
        stamps = {}  # grid position -> index into blocks
        for anchor, stamp in word.patches:
            name = ids.setdefault(stamp.tobytes(), len(ids))
            if name == len(self.blocks):
                self.blocks.append(stamp)
            if name:  # a stamp equal to the base is base
                for copy in itertools.product((0, 1), repeat=self.dim):
                    at = tuple(a + c * e for a, c, e in zip(anchor, copy, word.extents))
                    stamps[at] = name
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
        self._stack = None

    def window_cells(self, shape) -> int:
        """Cells of the window a pattern of ``shape`` is counted in."""
        return math.prod(self.side + t - 1 for t in shape)

    def _windows(self) -> ArrayWord:
        """The 2s-cell windows of every neighbourhood, gathered once."""
        if self._stack is None:
            d, s = self.dim, self.side
            count = len(self.mults)
            cubes = np.stack(self.blocks)[self.names.reshape((count,) + (2,) * d)]
            # (count, 2, ..., 2, s, ..., s) -> (count, 2, s, 2, s, ...) -> (count, 2s, ...)
            axes = [0] + [i for a in range(1, d + 1) for i in (a, a + d)]
            self._stack = cubes.transpose(axes).reshape((count,) + (2 * s,) * d)
        return self._stack

    def _valid(self, shape) -> np.ndarray:
        """Placements to test in each window: the s - t + 1 first starts on a
        far-edge axis, all s elsewhere."""
        d, s = self.dim, self.side
        valid = np.ones((len(self.mults),) + (s,) * d, dtype=bool)
        for axis, t in enumerate(shape):
            past = (np.arange(s) > s - t).reshape((1,) * (axis + 1) + (s,) + (1,) * (d - axis - 1))
            valid &= ~(self.edges[:, axis].reshape((-1,) + (1,) * d) & past)
        return valid

    def counts(self, patterns) -> list:
        """Placements of each of ``patterns``, all of one shape, in the doubled
        word: each pattern is packed once, and the window stack of the shape
        once, slab by slab, for all of them."""
        patterns = [_check_word(p) for p in patterns]
        shape = patterns[0].shape if patterns else ()
        if any(p.shape != shape for p in patterns):
            raise CamshiftError("block-grid patterns must share one shape")
        if len(shape) != self.dim or any(t > self.side for t in shape):
            raise CamshiftError(f"pattern {shape} does not fit in a block of side {self.side}")
        if math.prod(shape) == 0:
            raise CamshiftError("pattern has no cells")
        packed = [_pack_pattern(p) for p in patterns]
        stack = self._windows()[(slice(None),) + tuple(slice(0, self.side + t - 1) for t in shape)]
        valid = self._valid(shape)
        per = max(1, _SLAB_CELLS // self.window_cells(shape))
        totals = [0] * len(packed)
        for lo in range(0, len(stack), per):
            part = slice(lo, lo + per)
            code = _pack(stack[part], packed[0].width)
            for i, pattern in enumerate(packed):
                totals[i] += _count_packed(pattern, code, valid[part], self.mults[part])
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


@dataclass(frozen=True)
class PeriodLattice:
    """Translation symmetries of the infinite periodic extension of a cube."""

    modulus: int
    dim: int
    residues: tuple        # all residue vectors in {0..n-1}^d fixing the extension
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
    filtered at a few cells x of R (w[(x + v) mod n] must be rare); those
    tests only reject.  The survivors are walked in lexicographic order:
    one inside the span of the generators found so far is a period, one
    inside a coset v' + span of a rejected v' is not, and any other gets
    the full test.  It then becomes a generator, and the span grows by its
    multiples, or its coset is marked rejected.  The residues are the final
    span; the generators are the greedy ones of the full scan.
    """
    arr = _check_cube(w)
    n = arr.shape[0]
    d = arr.ndim
    if n**d > _MAX_RESIDUES:
        raise BudgetExceeded(f"{n**d} residues exceed the enumeration cap")
    rare = int(2 * int(arr.sum()) <= arr.size)
    values = arr.reshape(-1)
    rare_cells = np.argwhere(arr == rare)  # R, in lexicographic order

    def rare_at(points) -> np.ndarray:
        return values[np.ravel_multi_index((points % n).T, arr.shape)] == rare

    if len(rare_cells):
        offsets = (rare_cells - rare_cells[0]) % n
        keep = np.ones(len(offsets), dtype=bool)
        for x in rare_cells[:: max(1, len(rare_cells) // _FILTER_CELLS)][:_FILTER_CELLS]:
            keep &= rare_at(offsets + x)
        candidates = np.sort(np.ravel_multi_index(offsets[keep].T, arr.shape))
    else:  # a constant cube: every residue is a period
        candidates = np.arange(arr.size)

    in_span = np.zeros(arr.size, dtype=bool)
    rejected = np.zeros(arr.size, dtype=bool)
    in_span[0] = True
    span = np.zeros((1, d), dtype=np.int64)  # members, the zero vector first
    generators = []
    for flat in candidates:
        if in_span[flat] or rejected[flat]:
            continue
        v = np.unravel_index(flat, arr.shape)
        if not rare_at(rare_cells + v).all():
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
    side: int
    array: ArrayWord | None   # the patchwork's cells; None when over the cell budget
    patchwork: PatchworkExpr  # every word, a grid of one-cell blocks at levels 1-2


class ZdFamily(Hierarchy):
    """Levels of equal-shape cube words with parameters and certificates."""

    # the density words deviate from a constant cube: a-words mostly 0, b-words mostly 1
    rare = {"a": "1", "b": "0"}

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

    def _wrap(self, patchwork: PatchworkExpr) -> ZdWord:
        """The word of a patchwork, with its cells when they fit the cell budget."""
        array = patchwork.to_array() if patchwork.cells <= self.budgets.cells else None
        return ZdWord(patchwork.side[0], array, patchwork)

    # -- the two things the level driver needs ---------------------------

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

    def _check_cube_cells(self, n: int):
        """Level-2 cubes of side n must fit the cell budget."""
        if n**self.dim > self.budgets.cells:
            raise BudgetExceeded(
                f"level-2 cubes of {n**self.dim} cells exceed the cell budget {self.budgets.cells}"
            )

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
        polynomial in n."""
        return 2 * _stamp_count(k) + 4

    def _words_to_obj(self) -> dict:
        """The file field that stores the words: arrays at levels 1-2, whose
        cells always fit the budget, and postcards above."""
        levels = []
        for k in range(1, self.top_level + 1):
            words = {}
            for name in self.names(k):
                word = self.word(k, name)
                entry: dict = {"side": word.side}
                if k <= 2:
                    entry["array"] = array_to_obj(word.array)
                else:
                    entry["patchwork"] = patchwork_to_obj(word.patchwork)
                words[name] = entry
            levels.append({"level": k, "words": words})
        return {"levels": levels}

    def _certify(self, k: int, n: int) -> CertificateReport:
        """Exact certification of level k+1 at parameter n against levels 1..k.

        Rows: the postcard fit precondition; for every m <= k and inherited
        word u the frequency of u in the doubled density word below
        (eps_m + ... + eps_k) / (|u| (2|u|-1)^d) with |u| the cell count
        (the printed denominator; the side-length variant is reported as an
        informational row); the period-index length-ratio bound; and the
        deviant-symbol densities below the eps prefix sum.  The counts are
        taken on the block grid of the doubled density word
        (:class:`DoubledGrid`), a row unverifiable when its largest window
        exceeds the cell budget; no word of level k+1 is built.
        """
        d = self.dim
        new_level = k + 1
        report = CertificateReport(level=new_level, param=n)
        fit_rhs = self._fit_start(k)
        report.rows += eps_tail_rows(self.eps, new_level)
        fit_row = row(f"stamp-fit[k={_stamp_count(k)}]", (fit_rhs, 1), (n + 1, 1))
        fit_row.note = "layout precondition n >= 2k+4 (pass iff 2k+4 < n+1)"
        report.rows.append(fit_row)
        if n < fit_rhs:
            return report  # cannot even place stamps; frequency rows are moot
        if k == 1:
            # no level-2 cube from the fit start on fits: refuse before the grid
            self._check_cube_cells(fit_rhs)

        density = self._density_words(k, n)
        vol_next = density["a"].cells
        grids = {side: DoubledGrid(word) for side, word in density.items()}
        cell_cap = self.budgets.cells

        inherited = list(inherited_words(self.eps, k, self.rare))
        # the verifiable words of one side and one shape are counted together
        groups = {}
        for ident, side, m, name, _ in inherited:
            u = self.word(m, name).array
            if u is not None and grids[side].window_cells(u.shape) <= cell_cap:
                groups.setdefault((side, u.shape), []).append((ident, u))
        counts = {}
        for (side, _), words in groups.items():
            found = grids[side].counts([u for _, u in words])
            counts.update((ident, c) for (ident, _), c in zip(words, found))
        for ident, side, m, name, bound in inherited:
            if ident not in counts:
                report.rows.append(
                    unverifiable(ident, "unverifiable at budget: cell budget exceeded")
                )
                continue
            u = self.word(m, name)
            count = counts[ident]
            volume = u.array.size
            freq = frequency_row(ident, count, volume, vol_next, bound, d)
            info = CertRow(
                ident=f"{side}-freq-sidelen[m={m},u={name}]",
                lhs=freq.lhs,
                rhs=bound / (volume * (2 * u.side - 1) ** d),
                status="info",
                note="informational variant with geometric overlap count",
            )
            report.rows += [freq, info]

        if k >= 2:
            base = self.word(k, f"a{k}")
            if base.array is None:
                report.rows.append(
                    unverifiable("period-gap", "unverifiable at budget: cell budget exceeded")
                )
            else:
                p_k = period_lattice(base.array).index
                report.rows.append(period_gap_row(k, p_k, self.volume(k), vol_next))

        prefix = ratio(self.eps.partial(1, k))
        for side, symbol in self.rare.items():
            ones = _ones(density[side])
            count = ones if symbol == "1" else vol_next - ones
            report.rows.append(row(f"{side}-density[{symbol}]", (count, vol_next), prefix))
        return report

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
        "data": "".join("1" if x else "0" for x in arr.reshape(-1)),
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
