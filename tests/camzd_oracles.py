"""Reference implementations of the two camzd kernels.

These are the direct algorithms: every placement compared cell by cell, and
every residue tested by a full roll with the span closed by pairwise sums.
The tests compare ``camzd.count_occurrences_d`` and ``camzd.period_lattice``
against them.
"""

from itertools import product

import numpy as np

from camshift import camzd


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
