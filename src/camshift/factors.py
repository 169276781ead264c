"""Factor complexity of separate binary texts on numpy-packed prefixes
(:func:`distinct_factor_counts`), imported by :mod:`camshift.cam1d` on the
first complexity profile only, which passes it the factor texts of its
window (:meth:`camshift.slp.SlpBuilder.factor_texts`)."""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded
from .slp import SYMBOLS, check_symbols

# SYMBOLS[j] has the 2-bit code j + 1, and 0 is past the end of a text;
# a uint64 key packs 32 codes, first symbol highest
_PER = 32
_CODES = str.maketrans({symbol: chr(j) for j, symbol in enumerate(SYMBOLS, 1)})
# the symbol boundaries 1 << 2t of a key, t < 32, and the masks that keep
# its first t symbols, t <= 32
_BOUNDARIES = np.uint64(1) << np.arange(0, 64, 2, dtype=np.uint64)
_CUTS = np.array([(1 << 64) - (1 << 64 - 2 * t) for t in range(_PER + 1)], dtype=np.uint64)


def _packed_prefixes(texts, most: int):
    """``(key, ahead)`` over the texts laid end to end, each followed by a
    past-the-end slot: ahead[i] counts the symbols from slot i to the end
    of its text, and key[i] packs the first min(ahead[i], most, 32) of them.

    Each of five doublings puts the codes of the next width slots below
    those of the slot, width 1, 2, 4, 8 and 16; the keys are then cut
    where they read on into the next text.
    """
    lengths = np.array([len(text) + 1 for text in texts])
    size = int(lengths.sum())
    ahead = np.repeat(np.cumsum(lengths), lengths) - np.arange(1, size + 1)
    key = np.zeros(size + _PER - 1, dtype=np.uint64)
    coded = ("\0".join(texts) + "\0").translate(_CODES).encode("ascii")
    key[:size] = np.frombuffer(coded, dtype=np.uint8)
    for width in (1, 2, 4, 8, 16):
        key[:-width] = (key[:-width] << np.uint64(2 * width)) | key[width:]
    return key[:size] & _CUTS[np.minimum(ahead, min(most, _PER))], ahead


def _packed_lcp(x, y):
    """Common leading symbols of packed keys ``x`` and ``y`` (at most 32).

    The highest set bit of x ^ y lies in the first differing symbol, so
    one search against the symbol boundaries reads it off.
    """
    return _PER - np.searchsorted(_BOUNDARIES, x ^ y, side="right")


def _stable_order(values, shift: int):
    """Positions sorted by ``values`` (ints below 2**(64-shift)), ties by position."""
    positions = np.arange(len(values), dtype=np.uint64)
    packed = np.sort((values.astype(np.uint64) << np.uint64(shift)) | positions)
    return (packed & np.uint64((1 << shift) - 1)).astype(np.intp)


def distinct_factor_counts(texts, n_max: int) -> list[int]:
    """Number of distinct length-n words that are a factor of one of the
    ``texts``, a sequence of strings over :data:`camshift.slp.SYMBOLS`, for
    n = 1..n_max; any other symbol is refused.

    The texts are laid end to end, each followed by a past-the-end slot
    (:func:`_packed_prefixes`), and every start of a text is counted: the
    starts fall into U groups of equal prefixes, each cut at n_max symbols
    and at the end of its own text.  With the groups sorted
    lexicographically,

        p(n) = #{groups with >= n symbols}
               - #{adjacent groups whose longest common prefix (LCP) is >= n}.

    Each start's first 32 symbols are packed into one uint64 key, 2 bits a
    symbol, cut after min(n_max, 32) symbols and after the symbols it has
    ahead in its text.  The packing is injective and numeric order is
    lexicographic order: a cut key's 0 codes sit where any longer prefix
    has a nonzero code, so two prefixes never agree on a position past the
    end of either.  Every n_max takes the same steps: the keys are sorted
    and ranked, and while h < n_max (h = 32, 64, ...) a prefix-doubling
    round over the slots (Manber and Myers 1993; none once all starts are
    told apart) ranks the pairs (rank[i], rank[i + h]) of the last round,
    which stand for the first 2h symbols, rank[i + h] read as the empty
    prefix when i has no more than h symbols ahead.  The past-the-end slots
    rank below every start.  Only the U - 1 pairs across groups need an
    LCP: a greedy descent over the rank levels, largest h first, finished
    by the XOR of the packed keys.  Every comparison is an integer
    equality: no hash or fingerprint decides anything, and nothing is
    sampled.

    Cost for M slots: five O(M) doublings pack the keys, two O(M log M)
    sorts order and rank them, and the LCPs cost O(U).  Each doubling
    round adds one more O(M log M) sort and one kept O(M) rank array, and
    the descent costs O(U) per round.  The 500 000-symbol probe-1d window
    reaches this function as the 12 texts of 541 symbols that
    :meth:`camshift.slp.SlpBuilder.factor_texts` reads off the compressed
    word at n_max = 32.
    """
    if n_max < 1:
        return []
    texts = [text for text in texts if text]
    for text in texts:
        check_symbols(text)
    size = sum(len(text) + 1 for text in texts)
    if size >= 1 << 32:
        raise BudgetExceeded("text too long to rank its positions in 32 bits")
    if not texts:
        return [0] * n_max
    key, ahead = _packed_prefixes(texts, n_max)
    ordered = np.sort(key)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    rank = np.searchsorted(distinct, key).astype(np.uint32)  # 0 past the end
    shift = size.bit_length()
    order = _stable_order(rank, shift)
    levels = [key]  # levels[j] tells apart the first 32 * 2**j symbols
    h, groups = _PER, len(distinct)
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
        lcp += same * (_PER << j)
    lcp += _packed_lcp(key[left + lcp], key[right + lcp])
    tally = np.bincount(symbols, minlength=n_max + 1)
    tally -= np.bincount(np.minimum(lcp, n_max), minlength=n_max + 1)
    return np.cumsum(tally[::-1])[::-1][1:].tolist()
