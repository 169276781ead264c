"""Factor complexity of separate texts on numpy-packed prefixes
(:func:`distinct_factor_counts`), imported by :mod:`camshift.cam1d` on the
first complexity profile only, which passes it the factor texts of its
window (:meth:`camshift.slp.SlpBuilder.factor_texts`)."""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded


def _uint(bits: int):
    """The narrowest unsigned numpy dtype of at least ``bits`` bits."""
    return next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if np.iinfo(t).bits >= bits)


def _packed_prefixes(texts, most: int):
    """``(key, ahead, bits, per)`` over the texts laid end to end, each
    followed by a past-the-end slot: ahead[i] counts the symbols from slot i
    to the end of its text, and key[i] packs the first min(ahead[i], most,
    per) of them.

    The s distinct symbols get codes 1..s, and 0 is past the end; with
    bits = s.bit_length(), per = 64 // bits codes fit one uint64 as
    base-2**bits digits, first symbol highest.

    Chunks of ``width`` symbols are doubled in the narrowest dtype that
    holds them, while 2 * width symbols fit 32 bits; the uint64 key is then
    assembled in place from per / width chunks, the last one cut short by
    a right shift when width does not divide per, and cut where it reads
    on into the next text.
    """
    lengths = np.array([len(text) + 1 for text in texts])
    size = int(lengths.sum())
    ahead = np.repeat(np.cumsum(lengths), lengths) - np.arange(1, size + 1)
    points = np.frombuffer("".join(texts).encode("utf-32-le"), dtype=np.uint32)
    seen = np.zeros(int(points.max()) + 1, dtype=bool)
    seen[points] = True
    bits = int(np.count_nonzero(seen)).bit_length()
    per = 64 // bits
    chunk = np.zeros(size + 2 * per, dtype=_uint(bits))
    chunk[:size][ahead > 0] = np.cumsum(seen, dtype=chunk.dtype)[points]
    width = 1
    while 2 * width <= per and 2 * width * bits <= 32:
        doubled = np.left_shift(chunk[:-width], bits * width, dtype=_uint(2 * width * bits))
        doubled |= chunk[width:]
        chunk, width = doubled, 2 * width
    key = chunk[:size].astype(np.uint64)
    for start in range(width, per, width):
        take = min(width, per - start)
        key <<= np.uint64(bits * take)
        piece = chunk[start : start + size]
        key |= piece >> (bits * (width - take)) if take < width else piece
    cap, full = min(most, per), (1 << bits * per) - 1
    cuts = np.array([full ^ ((1 << bits * (per - t)) - 1) for t in range(cap + 1)], np.uint64)
    key &= cuts[np.minimum(ahead, cap)]
    return key, ahead, bits, per


def _boundaries(bits: int, per: int):
    """The symbol boundaries 1 << (bits * t) of a packed key, t < ``per``."""
    return np.uint64(1) << (np.arange(per, dtype=np.uint64) * np.uint64(bits))


def _packed_lcp(x, y, bits: int, per: int):
    """Common leading symbols of packed keys ``x`` and ``y`` (at most ``per``).

    The highest set bit of x ^ y lies in the first differing symbol, so
    one search against the symbol boundaries reads it off.
    """
    return per - np.searchsorted(_boundaries(bits, per), x ^ y, side="right")


def _stable_order(values, shift: int):
    """Positions sorted by ``values`` (ints below 2**(64-shift)), ties by position."""
    positions = np.arange(len(values), dtype=np.uint64)
    packed = np.sort((values.astype(np.uint64) << np.uint64(shift)) | positions)
    return (packed & np.uint64((1 << shift) - 1)).astype(np.intp)


def _packed_length(x, bits: int, per: int):
    """Symbols of cut keys ``x``, each nonzero: its codes up to the first 0.

    The lowest set bit of x, x & -x, lies in its last nonzero code, so one
    search against the symbol boundaries reads off the 0 codes after it.
    """
    return per + 1 - np.searchsorted(_boundaries(bits, per), x & (~x + np.uint64(1)), side="right")


def distinct_factor_counts(texts, n_max: int) -> list[int]:
    """Number of distinct length-n words that are a factor of one of the
    ``texts``, a sequence of strings, for n = 1..n_max.

    The texts are laid end to end, each followed by a past-the-end slot
    (:func:`_packed_prefixes`), and every start of a text is counted: the
    starts fall into U groups of equal prefixes, each cut at n_max symbols
    and at the end of its own text.  With the groups sorted
    lexicographically,

        p(n) = #{groups with >= n symbols}
               - #{adjacent groups whose longest common prefix (LCP) is >= n}.

    Each start's first per symbols are packed into one uint64 key (per =
    32 for binary text), cut after the symbols it has ahead in its text.
    The packing is injective and numeric order is lexicographic order:
    every code is below 2**bits, and a cut key's 0 codes sit where any
    longer prefix has a nonzero code, so two prefixes never agree on a
    position past the end of either.  For n_max <= per the groups are the
    distinct keys, cut to n_max symbols too, and the sorted keys are all
    the order needed.  Longer prefixes take ceil(log2(n_max / per))
    prefix-doubling rounds over the slots (fewer once all starts are told
    apart): each ranks the pairs (rank[i], rank[i + h]) of the last round,
    which stand for the first 2h symbols, rank[i + h] read as the empty
    prefix when i has no more than h symbols ahead.  The past-the-end slots
    rank below every start.  Only the U - 1 pairs across groups need an
    LCP: a greedy descent over the rank levels, largest h first, finished
    by the XOR of the packed keys.  Every comparison is an integer or
    string equality: no hash or fingerprint decides anything, and nothing
    is sampled.

    Cost for M slots: a few O(M) passes in 8- to 32-bit words pack the
    keys, one O(M log M) sort orders them, and the LCPs cost O(U) when
    n_max <= per.  Each doubling round adds one more O(M log M) sort and
    one kept O(M) rank array, and the descent costs O(U) per round.  The
    500 000-symbol probe-1d window reaches this function as the 12 texts of
    541 symbols that :meth:`camshift.slp.SlpBuilder.factor_texts` reads
    off the compressed word at n_max = 32.
    """
    if n_max < 1:
        return []
    texts = [text for text in texts if text]
    size = sum(len(text) + 1 for text in texts)
    if size >= 1 << 32:
        raise BudgetExceeded("text too long to rank its positions in 32 bits")
    if not texts:
        return [0] * n_max
    key, ahead, bits, per = _packed_prefixes(texts, n_max)
    ordered = np.sort(key)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    if n_max <= per:  # distinct[0] == 0 is the past-the-end slots
        symbols = _packed_length(distinct[1:], bits, per)
        lcp = _packed_lcp(distinct[1:-1], distinct[2:], bits, per)
    else:
        h = per
        rank = np.searchsorted(distinct, key).astype(np.uint32)
        shift = size.bit_length()
        order = _stable_order(rank, shift)
        levels = [key]  # levels[j] tells apart the first per * 2**j symbols
        groups = len(distinct)
        while h < n_max and groups < size - len(texts) + 1:
            # all slots in order of rank[i + h], the empty prefix's 0 when i
            # has no more than h symbols ahead
            ends = np.flatnonzero(ahead <= h)
            later = order[order >= h]
            later = later[ahead[later - h] > h]
            by_second = np.concatenate((ends, later - h))
            second = np.concatenate((np.zeros(len(ends), np.uint32), rank[later]))
            pick = _stable_order(rank[by_second], shift)
            order = by_second[pick]
            first, second = rank[order], second[pick]
            fresh = (first[1:] != first[:-1]) | (second[1:] != second[:-1])
            rank = np.zeros(size, dtype=np.uint32)
            rank[order] = np.cumsum(np.concatenate(([True], fresh)))
            groups = int(rank[order[-1]])
            levels.append(rank)
            h *= 2
        order = order[ahead[order] > 0]
        fresh = rank[order[1:]] != rank[order[:-1]]
        symbols = np.minimum(ahead[order[np.concatenate(([True], fresh))]], n_max)
        # neighbours across groups differ in the last level, so the descent starts below it
        left, right = order[:-1][fresh], order[1:][fresh]
        lcp = np.zeros(len(left), dtype=np.intp)
        for j in reversed(range(len(levels) - 1)):
            same = levels[j][left + lcp] == levels[j][right + lcp]
            lcp += same * (per << j)
        lcp += _packed_lcp(key[left + lcp], key[right + lcp], bits, per)
    tally = np.bincount(symbols, minlength=n_max + 1)
    tally -= np.bincount(np.minimum(lcp, n_max), minlength=n_max + 1)
    return np.cumsum(tally[::-1])[::-1][1:].tolist()
