"""Reference implementations of the camzd kernels and layouts.

These are the direct algorithms: every placement compared cell by cell,
every residue tested by a full roll with the span closed by pairwise sums,
the periodic extension as a plain tile, the postcard read cell by cell
from its two-case definition, a patchwork read one cell at a time, the
certificate counted in the built doubled density words, the transitive
configuration read cell by cell and an array's file form written cell by
cell.  The tests compare ``camzd.count_occurrences_d``,
``camzd.period_lattice``, ``camzd.postcard``, ``PatchworkExpr.to_array``,
the block-grid certifier, ``ZdFamily.window`` and ``camzd.array_to_obj``
against them.
"""

import math
from itertools import product

import numpy as np

from camshift import camzd, hierarchy
from camshift.errors import CamshiftError


def count_occurrences_windowed(pattern, text) -> int:
    """Placements of ``pattern`` in ``text``, compared cell by cell."""
    pattern = np.asarray(pattern, dtype=np.uint8)
    text = np.asarray(text, dtype=np.uint8)
    windows = np.lib.stride_tricks.sliding_window_view(text, pattern.shape)
    lead = windows.shape[0]
    per_lead = int(np.prod(windows.shape[1:]))
    chunk = max(1, 30_000_000 // max(per_lead, 1))
    total = 0
    for i in range(0, lead, chunk):
        eq = windows[i : i + chunk] == pattern
        total += int(eq.reshape(-1, pattern.size).all(axis=1).sum())
    return total


def period_lattice_scan(w) -> camzd.PeriodLattice:
    """Roll the cube once per residue; greedy generators by span closure."""
    arr = np.asarray(w, dtype=np.uint8)
    n = arr.shape[0]
    d = arr.ndim
    residues = []
    for v in product(range(n), repeat=d):
        if np.array_equal(np.roll(arr, v, axis=tuple(range(d))), arr):
            residues.append(v)
    index = n**d // len(residues)

    def close(points):
        points = set(points)
        frontier = list(points)
        while frontier:
            p = frontier.pop()
            for q in list(points):
                s = tuple((a + b) % n for a, b in zip(p, q))
                if s not in points:
                    points.add(s)
                    frontier.append(s)
        return points

    generators = []
    span = {(0,) * d}
    for v in residues:
        if v not in span:
            generators.append(v)
            span = close(span | {v})
    return camzd.PeriodLattice(np.array(residues), tuple(generators), index)


def self_concat(w, extents, max_cells: int | None = None):
    """Periodic extension of a cube to ``extents`` blocks per axis.

    Returns the explicit array when it fits in ``max_cells``, otherwise a
    :class:`PatchworkExpr` with no patches.
    """
    arr = camzd._check_cube(w)
    d = arr.ndim
    if isinstance(extents, int):
        extents = (extents,) * d
    extents = tuple(int(e) for e in extents)
    if len(extents) != d or any(e < 1 for e in extents):
        raise CamshiftError(f"extents must be {d} positive integers")
    cells = arr.size * math.prod(extents)
    if max_cells is not None and cells > max_cells:
        return camzd.PatchworkExpr(base=arr, extents=extents, patches=())
    return np.tile(arr, extents)


def postcard_cell(stamps, base, e: int, coords) -> int:
    """Direct two-case evaluation of the postcard at 1-based ``coords``.

    Case 1: coordinates inside the m-th stamp block (first axis blocks
    2m+1, block row 3 elsewhere) read the stamp; Case 2: everything else
    reads the periodic extension of the base.
    """
    base = camzd._check_cube(base)
    n = base.shape[0]
    d = base.ndim
    for m, stamp in enumerate(stamps, start=1):
        if (
            2 * m * n + 1 <= coords[0] <= (2 * m + 1) * n
            and all(2 * n + 1 <= x <= 3 * n for x in coords[1:])
        ):
            rel = (coords[0] - 2 * m * n,) + tuple(x - 2 * n for x in coords[1:])
            return int(stamp[tuple(r - 1 for r in rel)])
    return int(base[tuple(((x - 1) % n) for x in coords)])


def patchwork_cell(patchwork, coords) -> int:
    """The value of a ``camzd.PatchworkExpr`` at 1-based ``coords``: its stamp
    when the cell's block has one, else the periodic base."""
    n = patchwork.base.shape[0]
    block = tuple((x - 1) // n for x in coords)
    rel = tuple((x - 1) % n for x in coords)
    for anchor, stamp in patchwork.patches:
        if block == tuple(anchor):
            return int(stamp[rel])
    return int(patchwork.base[rel])


def certify_materialized(family, k: int, n: int) -> hierarchy.CertificateReport:
    """The level-(k+1) report at parameter n, every count taken in a built word.

    Each inherited word is counted in the tile of 2^d copies of the built
    density word, and the densities are cell sums of the built words.  Rows
    whose doubled word exceeds the cell budget are unverifiable.
    """
    d = family.dim
    new_level = k + 1
    report = hierarchy.CertificateReport(level=new_level, param=n)
    fit_rhs = family._fit_start(k)
    report.rows += hierarchy.eps_tail_rows(family.eps, new_level)
    fit_row = hierarchy.row(f"stamp-fit[k={camzd._stamp_count(k)}]", (fit_rhs, 1), (n + 1, 1))
    fit_row.note = "layout precondition n >= 2k+4 (pass iff 2k+4 < n+1)"
    report.rows.append(fit_row)
    if n < fit_rhs:
        return report

    words = family._words(k, n)
    a_next, b_next = words[f"a{new_level}"], words[f"b{new_level}"]
    cell_cap = family.budgets.cells

    def doubled(word):
        if word.array is None or 2**d * word.array.size > cell_cap:
            return None
        return np.tile(word.array, (2,) * d)

    doubles = {"a": doubled(a_next), "b": doubled(b_next)}
    vol_next = a_next.side**d
    unverifiable = "unverifiable at budget: cell budget exceeded"
    inherited = hierarchy.inherited_words(family.eps, k, family.rare)
    for ident, side, m, name, bound in inherited:
        u = family.word(m, name)
        if doubles[side] is None or u.array is None:
            report.rows.append(hierarchy.unverifiable(ident, unverifiable))
            continue
        count = camzd.count_occurrences_d(u.array, doubles[side])
        volume = u.array.size
        row = hierarchy.frequency_row(ident, count, volume, vol_next, bound, d)
        info = hierarchy.CertRow(
            ident=f"{side}-freq-sidelen[m={m},u={name}]",
            left=row.left,
            right=(bound.numerator, bound.denominator * volume * (2 * u.side - 1) ** d),
            status="info",
            note="informational variant with geometric overlap count",
        )
        report.rows += [row, info]

    if k >= 2:
        base = family.word(k, f"a{k}")
        if base.array is None:
            report.rows.append(hierarchy.unverifiable("period-gap", unverifiable))
        else:
            p_k = camzd.period_lattice(base.array).index
            report.rows.append(hierarchy.period_gap_row(k, p_k, family.volume(k), vol_next))

    prefix = family.eps.partial(1, k).as_integer_ratio()
    for ident, word, symbol in (("a-density[1]", a_next, 1), ("b-density[0]", b_next, 0)):
        if word.array is None:
            report.rows.append(hierarchy.unverifiable(ident, unverifiable))
            continue
        count = int((word.array == symbol).sum())
        report.rows.append(hierarchy.row(ident, (count, vol_next), prefix))
    return report


def array_to_obj_cells(arr) -> dict:
    """The file form of an array word, its data written one cell at a time."""
    data = "".join("1" if x else "0" for x in arr.reshape(-1))
    return {"dim": arr.ndim, "sides": list(arr.shape), "data": data}


def transitive_config_window_cells(family, starts, sides):
    """The transitive configuration on a rectangle, read one cell at a time
    from the top density word: its array, or else its patchwork."""
    top = family.top_level
    span = family.side(top)
    word = family.word(top, f"a{top}")
    out = np.empty(sides, dtype=np.uint8)
    for offset in np.ndindex(*sides):
        base_index = tuple((lo + o + span - 1) % span for lo, o in zip(starts, offset))
        if word.array is not None:
            out[offset] = word.array[base_index]
        else:
            out[offset] = patchwork_cell(word.patchwork, tuple(i + 1 for i in base_index))
    return out
