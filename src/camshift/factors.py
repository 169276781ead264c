"""Factor complexity on numpy-packed prefixes (:func:`distinct_factor_counts`),
imported by :mod:`camshift.cam1d` on the first complexity profile only."""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded


def _uint(bits: int):
    """The narrowest unsigned numpy dtype of at least ``bits`` bits."""
    return next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if np.iinfo(t).bits >= bits)


def _packed_prefixes(text: str):
    """``(key, bits, per)``: key[i] packs the first ``per`` symbols from i.

    The s distinct symbols get codes 1..s and "past the end" gets 0; with
    bits = s.bit_length(), per = 64 // bits codes fit one uint64 as
    base-2**bits digits, first symbol highest.  key has len(text) + 1
    entries; the last one, 0, stands for the empty suffix.

    Chunks of ``width`` symbols are doubled in the narrowest dtype that
    holds them, while 2 * width symbols fit 32 bits; the uint64 key is then
    assembled in place from per / width chunks, the last one cut short by
    a right shift when width does not divide per.
    """
    size = len(text)
    points = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    seen = np.zeros(int(points.max()) + 1, dtype=bool)
    seen[points] = True
    bits = int(np.count_nonzero(seen)).bit_length()
    per = 64 // bits
    chunk = np.zeros(size + 2 * per, dtype=_uint(bits))
    np.take(np.cumsum(seen, dtype=chunk.dtype), points, out=chunk[:size])
    width = 1
    while 2 * width <= per and 2 * width * bits <= 32:
        doubled = np.left_shift(chunk[:-width], bits * width, dtype=_uint(2 * width * bits))
        doubled |= chunk[width:]
        chunk, width = doubled, 2 * width
    key = chunk[: size + 1].astype(np.uint64)
    for start in range(width, per, width):
        take = min(width, per - start)
        key <<= np.uint64(bits * take)
        piece = chunk[start : start + size + 1]
        key |= piece >> (bits * (width - take)) if take < width else piece
    return key, bits, per


def _packed_lcp(x, y, bits: int, per: int):
    """Common leading symbols of packed keys ``x`` and ``y`` (at most ``per``).

    The highest set bit of x ^ y lies in the first differing symbol, so
    one search against the symbol boundaries 1 << (bits * t) reads it off.
    """
    boundaries = np.uint64(1) << (np.arange(per, dtype=np.uint64) * np.uint64(bits))
    return per - np.searchsorted(boundaries, x ^ y, side="right")


def _stable_order(values, shift: int):
    """Positions sorted by ``values`` (ints below 2**(64-shift)), ties by position."""
    positions = np.arange(len(values), dtype=np.uint64)
    packed = np.sort((values.astype(np.uint64) << np.uint64(shift)) | positions)
    return (packed & np.uint64((1 << shift) - 1)).astype(np.intp)


_STRIDE = 256  # a full window of the deduplicated text keeps this many starts (n_max if more)


def _distinct_windows(text: str, n_max: int):
    """``(joined, kept, tail)``: each distinct window of ``text`` once, then the tail.

    Windows of stride + n_max - 1 symbols start every stride = max(_STRIDE,
    n_max) symbols while they fit in ``text``, and the tail is the rest,
    fewer than a window's symbols.  ``joined`` holds each distinct window
    once, in order of first occurrence, and the tail last; windows are equal
    when their strings are (a dict of the slices: the hash only buckets
    them).  ``kept`` marks the starts whose factors stand for the text: the
    first stride starts of each window, which have n_max symbols of it ahead,
    and every start of the tail, which ends where the text ends.  ``tail`` is
    the tail's length.  When the distinct windows and the tail would be no
    shorter than the text, the text is one tail and every start is kept.
    """
    stride = max(_STRIDE, n_max)
    length = stride + n_max - 1
    full = max((len(text) - length) // stride + 1, 0)
    tail = text[full * stride :]
    windows = {}
    for start in range(0, full * stride, stride):
        windows.setdefault(text[start : start + length])
        if len(windows) * length + len(tail) >= len(text):
            windows, tail = {}, text
            break
    joined = "".join([*windows, tail])
    kept = np.ones(len(joined), dtype=bool)
    kept[: len(windows) * length].reshape(len(windows), length)[:, stride:] = False
    return joined, kept, len(tail)


def distinct_factor_counts(text: str, n_max: int) -> list[int]:
    """Number of distinct length-n factors of ``text`` for n = 1..n_max.

    Every factor of ``text`` of length n <= n_max starts at a kept start of
    the deduplicated text of :func:`_distinct_windows` and lies in its
    window, so only kept starts are counted.  They fall into U groups: the
    starts of a group share their first n_max symbols, and a start of the
    tail with fewer symbols ahead is a group of its own.  With the groups
    sorted lexicographically,

        p(n) = #{groups with >= n symbols ahead}
               - #{adjacent groups whose longest common prefix (LCP) is >= n},

    and U - min(n - 1, tail) groups have n symbols ahead: the t-th start
    from the end of the tail has t, every other kept start at least n_max.
    Past n_max symbols a full window's start reads on into the next window;
    every LCP is capped at n_max, which drops those symbols.

    Each start's first per symbols are packed into one uint64 key (per =
    32 for binary text, see :func:`_packed_prefixes`).  The packing is
    injective and numeric order is lexicographic order: every code is
    below 2**bits, and a suffix's 0 codes past the end sit where any
    longer suffix has a nonzero code, so two suffixes never agree on a
    position past the end of either.  For n_max <= per the groups are the
    kept starts' keys cut to n_max symbols, and the sorted keys are all the
    order needed.  Longer prefixes take ceil(log2(n_max / per))
    prefix-doubling rounds over every start of the joined text (fewer once
    all are told apart): each ranks the pairs (rank[i], rank[i + h]) of the
    last round, which stand for the first 2h symbols.  The groups are then
    the kept starts of equal final rank.  Only the U - 1 pairs across groups
    need an LCP: a greedy descent over the rank levels, largest h first,
    finished by the XOR of the packed keys.  Every comparison is an integer
    or string equality: no hash or fingerprint decides anything, and
    nothing is sampled.

    Cost: O(N) to cut the N-symbol text: the windows overlap by n_max - 1
    <= stride symbols, so their slices copy fewer than 2N, and the joined
    text's length M never exceeds N.  Then a few O(M) passes in 8- to
    32-bit words pack the keys, one O(M log M) sort orders them (only the
    kept starts' keys when n_max <= per), and the LCPs cost O(U) when
    n_max <= per.  Each doubling round adds one more O(M log M) sort and
    one kept O(M) rank array, and the descent costs O(U) per round.  The
    500 000-symbol probe-1d window joins 48 distinct windows and its tail
    into 13 808 symbols at n_max = 32.
    """
    if n_max < 1:
        return []
    if len(text) >= 1 << 32:
        raise BudgetExceeded("text too long to rank its positions in 32 bits")
    if not text:
        return [0] * n_max
    joined, kept, tail = _distinct_windows(text, n_max)
    size = len(joined)
    key, bits, per = _packed_prefixes(joined)
    if n_max <= per:
        # a full window's key runs on into the next window after n_max symbols
        cut = np.uint64(((1 << 64) - 1) ^ ((1 << bits * (per - n_max)) - 1))
        ordered = np.sort(key[:size][kept] & cut)
    else:
        ordered = np.sort(key[:size])
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    groups, lcp, ahead, behind = len(distinct), 0, distinct[:-1], distinct[1:]
    if n_max > per:
        h = per
        rank = np.zeros(size + 1, dtype=np.uint32)  # rank[size] == 0: the empty suffix
        rank[:size] = np.searchsorted(distinct, key[:size]) + 1
        shift = size.bit_length()
        order = _stable_order(rank[:size], shift)
        levels = [key]  # levels[j] tells apart the first per * 2**j symbols
        while h < n_max and groups < size:
            # all positions in order of rank[i + h], which is 0 past the end
            later = order[order >= h]
            ends = np.arange(max(size - h, 0), size)
            by_second = np.concatenate((ends, later - h))
            second = np.concatenate((np.zeros(len(ends), np.uint32), rank[later]))
            pick = _stable_order(rank[by_second], shift)
            order = by_second[pick]
            first, second = rank[order], second[pick]
            fresh = (first[1:] != first[:-1]) | (second[1:] != second[:-1])
            rank = np.zeros(size + 1, dtype=np.uint32)
            rank[order] = np.cumsum(np.concatenate(([True], fresh)))
            groups = int(rank[order[-1]])
            levels.append(rank)
            h *= 2
        order = order[kept[order]]
        fresh = rank[order[1:]] != rank[order[:-1]]
        groups = int(np.count_nonzero(fresh)) + 1
        # neighbours across groups differ in the last level, so the descent starts below it
        left, right = order[:-1][fresh], order[1:][fresh]
        lcp = np.zeros(len(left), dtype=np.intp)
        for j in reversed(range(len(levels) - 1)):
            same = levels[j][left + lcp] == levels[j][right + lcp]
            lcp += same * (per << j)
        ahead, behind = key[left + lcp], key[right + lcp]
    lcp = lcp + _packed_lcp(ahead, behind, bits, per)
    at_least = np.cumsum(np.bincount(np.minimum(lcp, n_max), minlength=n_max + 1)[::-1])[::-1]
    return [groups - min(n, tail) - int(pairs) for n, pairs in enumerate(at_least[1:])]
