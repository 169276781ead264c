"""Reference implementations of the camzd kernels and layouts.

These are the direct algorithms: every placement compared cell by cell,
every residue tested by a full roll with the span closed by pairwise sums,
the periodic extension as a plain tile and the postcard read cell by cell
from its two-case definition.  The tests compare ``camzd.count_occurrences_d``,
``camzd.period_lattice`` and ``camzd.postcard`` against them.
"""

import math
from itertools import product

import numpy as np

from camshift import camzd
from camshift.errors import InvalidParameter


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
    return camzd.PeriodLattice(
        modulus=n, dim=d, residues=tuple(residues), generators=tuple(generators), index=index
    )


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
        raise InvalidParameter(f"extents must be {d} positive integers")
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
