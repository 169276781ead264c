"""Grammar-compressed binary words with exact occurrence counting.

A word over {0,1} is represented as a DAG: leaves are the two atoms and
every internal node is a concatenation of (child, repeat) runs, so words
of astronomical length stay a few dozen nodes.  Random access, windowed
materialization and occurrence counting are all computed from the DAG.

Counting never materializes the word.  For a pattern of length L the
count in a node is the sum of the counts in its runs c^r plus, at each
boundary where a run ends, the occurrences that start in that run and
end after it; an occurrence that crosses several run boundaries is
counted at the first one.  Inside a run,

    count(c^r) = r count(c) + (r-1) seam(c)   if |c| >= L-1

with seam(c) the occurrences in c c that cross its middle, and for a
shorter c, count(c^r) is affine in r from m = ceil((L-1)/|c|) + 1 on, so
it follows from the counts in c^(m-1) and c^m, both shorter than 3L
symbols.

These places where pieces of the word meet are its junctions: a run
boundary, the seam of c c, and a short run c^r.  One method reads them
all, ``SlpBuilder._across``, given the (child, repeat) parts on each
side: on block names when the pattern is whole chunks of the blocks that
both sides are made of (below), and otherwise as a text, the last L-1
symbols before the junction and the first L-1 after it (all of c^r for a
short run), taken from prefix and suffix snippets cached per node.
Counts are memoized per (node, pattern), snippets per node, and text
counts per (snippet, snippet, pattern), so repeated sub-blocks are paid
for once.  Materialization appends a whole child string times the number
of whole copies a range covers.

A junction of block sequences is read on block names instead of a text
(Mosse 1992, recognizability; Jez 2015, recompression).  A block is a
node whose parts are atoms (an explicit word, such as a level-2 word of
the hierarchy), and a node whose children are all blocks or block
sequences of one length ell is a sequence of ell-symbol blocks; levels 3
and up are sequences of 9-symbol level-2 blocks.  When both sides of a
junction are such a sequence and L is a multiple q ell with q >= 2, the
pattern is read as its run-length sequence of ell-symbol chunks.  The
last q blocks before the junction and the first q after it (all blocks
of a short run) become a run-length sequence of block names, the blocks'
contents.  The pattern is cut instead of the names: an occurrence that
starts h symbols before a block boundary reads its first h symbols at
the end of one block, then whole blocks, the chunk runs of the pattern
from h on, and its last ell - h symbols at the start of the next block
(h = 0 reads whole blocks only).  Each cut is built once per pattern and
offset and matched against the names themselves, restricted to the
starts that cross the junction, and only when a run of the names holds
its first run of whole chunks.  A word of the pattern's length holds it only if it is the
pattern, one comparison of run-length names.  Every test is an equality
of ell-symbol strings or of run counts, or a block that ends or starts
with a piece of the pattern, and no junction text is built: a level-3
word of 44 091 symbols meets a level-4 junction as a dozen runs of
level-2 names on each side.  The block names of a node's ends (by node)
and of each run boundary and seam (by node, boundary and q), the chunk
runs and cuts (by pattern) and the name counts (by names, starts and
pattern) share one memo with the text counts, bounded by bytes.

A text count (:func:`count_occurrences_naive`) serves every other
junction: symbols, level-2 words, and cylinders that are not whole
chunks.  It reads the occurrences one window of L start positions at a
time.  Occurrences that start less than L apart lie in a text shorter
than 2L, and there they form an arithmetic progression (the periodicity
lemma of Fine and Wilf), so a window costs two searches and a bisection
however many occurrences overlap in it.

The same junctions give a window's factors of length <= n without
spelling it (:meth:`SlpBuilder.factor_texts`): a few distinct texts, the
snippets of n - 1 symbols on either side of each junction, the first
|c| + n - 1 symbols of each short run and the short nodes, which together
hold every factor of the window and no other (cf. Goto, Bannai, Inenaga
and Takeda, "Fast q-gram mining on SLP compressed strings", J. Discrete
Algorithms 2013).  The 500 000-symbol window of a level-4 family that
probe-1d profiles is 12 texts of 541 symbols at n = 32.
"""

from __future__ import annotations

import itertools
import weakref

from .errors import CamshiftError

SYMBOLS = ("0", "1")
# bytes the builder memo keeps, one per symbol of the snippets, block names
# and pattern an entry holds; the level-4 build holds ~4.8M and never clears it
_JUNCTION_CACHE_BYTES = 1 << 25
_DROP_SYMBOLS = dict.fromkeys(map(ord, SYMBOLS))


class SlpExpr:
    """One node of a compressed word: an atom or a repeated concatenation.

    Immutable after construction; always create through :class:`SlpBuilder`
    so that identical sub-expressions are shared.
    """

    __slots__ = (
        "uid",
        "kind",
        "symbol",
        "parts",
        "length",
        "_cum",
        "_pre",
        "_suf",
        "_counts",
        "_grain",
        "__weakref__",
    )

    def __init__(self, uid, kind, symbol=None, parts=None):
        self.uid = uid
        self.kind = kind
        self.symbol = symbol
        self.parts = parts
        if kind == "atom":
            self.length = 1
        else:
            self.length = sum(rep * child.length for child, rep in parts)
        self._cum = None
        self._pre = {}
        self._suf = {}
        self._counts = {}
        self._grain = None

    def __repr__(self):
        if self.kind == "atom":
            return f"SlpExpr(atom {self.symbol!r})"
        return f"SlpExpr(concat of {len(self.parts)} parts, length {self.length})"


def _check_symbol(symbol):
    if symbol not in SYMBOLS:
        raise CamshiftError(f"symbol must be one of {SYMBOLS}, got {symbol!r}")


def check_symbols(pattern):
    """Refuse a pattern or text with a symbol outside SYMBOLS: one scan at C speed."""
    stray = pattern.translate(_DROP_SYMBOLS)
    if stray:
        _check_symbol(stray[0])


class SlpBuilder:
    """Hash-consing factory and counting context for :class:`SlpExpr` DAGs.

    A count of a pattern of length L adds up the node's runs c^r, each from
    count(c) and the seam of c c (for |c| < L-1, from the counts in
    c^(m-1) and c^m), and the occurrences across each part boundary.  One
    junction reader, :meth:`_across`, counts every seam, short run and
    boundary: on block names when both sides are block sequences and the
    pattern is whole chunks of their blocks, and otherwise on a text of at
    most 2(L-1) symbols read by :meth:`_end` from prefix and suffix
    snippets cached per node.  The builder sets no limit on L: a caller
    counts only patterns it has materialized, under its own budget.
    """

    def __init__(self):
        self._uid = itertools.count()
        self._exprs = weakref.WeakValueDictionary()
        self._atoms = {s: SlpExpr(next(self._uid), "atom", symbol=s) for s in SYMBOLS}
        # text counts keyed by content (many nodes share the same cached
        # snippets, so the heavy scans run once per content), and the
        # block-name path's chunk runs and cuts (by pattern), names (by node
        # uid), junctions and seams (by node uid and boundary) and counts (by
        # content).  Keys never collide: a text count's 4-tuple starts with
        # a str and a name count's with a tuple, a pattern's chunk runs
        # (pattern, ell) and cuts (pattern, ell, h) start with the pattern,
        # a node's end names (uid, "prefix" or "suffix", limit) and factor
        # texts (uid, "texts", n) with its uid, and a junction's with a tuple
        self._memo: dict = {}
        self._memo_bytes = 0
        # patterns whose symbols are all in SYMBOLS: those counted so far and
        # the whole words the builder spelled from its own atoms
        self._checked: set = set()

    # -- construction -------------------------------------------------

    def atom(self, symbol: str) -> SlpExpr:
        _check_symbol(symbol)
        return self._atoms[symbol]

    def concat(self, parts) -> SlpExpr:
        """Concatenation of (child, repeat) parts; adjacent equal children merge."""
        merged = []
        for child, rep in parts:
            if not isinstance(child, SlpExpr):
                raise CamshiftError("concat child must be an SlpExpr")
            if not isinstance(rep, int) or rep < 1:
                raise CamshiftError(f"repeat must be a positive integer, got {rep!r}")
            if merged and merged[-1][0] is child:
                merged[-1] = (child, merged[-1][1] + rep)
            else:
                merged.append((child, rep))
        if not merged:
            raise CamshiftError("concat needs at least one part")
        if len(merged) == 1 and merged[0][1] == 1:
            return merged[0][0]
        key = tuple((child.uid, rep) for child, rep in merged)
        node = self._exprs.get(key)
        if node is None:
            node = SlpExpr(next(self._uid), "concat", parts=tuple(merged))
            self._exprs[key] = node
        return node

    def power(self, expr: SlpExpr, n: int) -> SlpExpr:
        return self.concat([(expr, n)])

    # -- snippets ------------------------------------------------------

    def prefix_snippet(self, node, k: int) -> str:
        """First min(k, length) symbols of the node's word, cached per length."""
        need = min(k, node.length)
        if need <= 0:
            return ""
        out = node._pre.get(need)
        if out is None:
            out = node.symbol if node.kind == "atom" else self._end(node.parts, need, False)
            node._pre[need] = out
            if need == node.length:  # spelled from the atoms: no symbol check as a pattern
                self._checked.add(out)
        return out

    def suffix_snippet(self, node, k: int) -> str:
        """Last min(k, length) symbols of the node's word, cached per length."""
        need = min(k, node.length)
        if need <= 0:
            return ""
        out = node._suf.get(need)
        if out is None:
            out = node.symbol if node.kind == "atom" else self._end(node.parts, need, True)
            node._suf[need] = out
        return out

    # -- counting ------------------------------------------------------

    def count_occurrences(self, pattern: str, expr: SlpExpr) -> int:
        """Number of (possibly overlapping) occurrences of ``pattern`` in the word.

        Equivalent to :func:`count_occurrences_naive` on the materialization,
        computed without materializing.
        """
        if not pattern:
            raise CamshiftError("pattern must be nonempty")
        if pattern not in self._checked:
            check_symbols(pattern)
            self._checked.add(pattern)
        return self._count(expr, pattern)

    def _count(self, node, pattern):
        value = node._counts.get(pattern)
        if value is not None:
            return value
        if node.length < len(pattern):
            value = 0
        elif node.kind == "atom":
            value = 1 if pattern == node.symbol else 0
        else:
            ell, chunks = self._blocking(node, pattern)
            if chunks is not None and node.length == len(pattern):
                # an occurrence in a word of the pattern's length is the word itself
                value = int(self._side(node, ell, len(pattern) // ell, False) == chunks)
            else:
                parts = node.parts
                value = sum(self._count_run(child, rep, pattern) for child, rep in parts)
                for j in range(len(parts) - 1):
                    value += self._across(
                        pattern, ell, chunks, parts[j : j + 1], parts[j + 1 :], (node.uid, j)
                    )
        node._counts[pattern] = value
        return value

    def _count_run(self, child, rep, pattern):
        """Occurrences inside child^rep."""
        reach, clen = len(pattern) - 1, child.length
        if rep == 1:
            return self._count(child, pattern)
        ell, chunks = self._blocking(child, pattern)
        if clen >= reach:
            one = ((child, 1),)
            seam = self._across(pattern, ell, chunks, one, one, (child.uid, "seam"))
            return rep * self._count(child, pattern) + (rep - 1) * seam

        def copies(r):  # occurrences in child^r
            return self._across(pattern, ell, chunks, ((child, r),), (), None)

        # affine in rep from m on; child^m is shorter than 3L symbols
        m = -(-reach // clen) + 1
        if rep <= m:
            return copies(rep)
        top = copies(m)
        return top + (rep - m) * (top - copies(m - 1))

    def _across(self, pattern, ell, chunks, left, right, key):
        """Occurrences in the word the (child, repeat) parts left + right
        spell that start in left and end in right; every occurrence in
        left, a single run, when right is empty.

        With ``chunks`` the two sides are read as run-length names of their
        ell-symbol blocks, the last q = L / ell of left and the first q of
        right, memoized under (key, q).  Otherwise they are read as texts,
        the last L - 1 symbols of left and the first L - 1 of right.
        """
        if chunks is None:
            if not right:
                ((child, copies),) = left
                return self._naive(pattern, self.prefix_snippet(child, child.length), copies=copies)
            reach = len(pattern) - 1
            left, right = self._end(left, reach, True), self._end(right, reach, False)
            return self._naive(pattern, left, right)
        if not right:
            blocks = sum(rep * child.length for child, rep in left) // ell
            names = self._names(left, ell, blocks, False)
            return self._name_count(pattern, chunks, ell, names, 0, blocks * ell)
        q = len(pattern) // ell
        found = self._memo.get((key, q))
        if found is None:
            left, right = self._names(left, ell, q, True), self._names(right, ell, q, False)
            size = ell * (len(left) + len(right))
            found = self._keep((key, q), _junction(left, right, ell, q), size)
        return self._name_count(pattern, chunks, ell, *found)

    def _end(self, parts, size, from_end):
        """First ``size`` symbols of the word the (child, repeat) parts
        spell, or the last ``size`` when ``from_end`` (all of a shorter
        word).  When the end child holds them they are its snippet, read
        from its cache first, so the many nodes that end in one child share
        one string."""
        child = parts[-1 if from_end else 0][0]
        if child.length >= size:
            out = (child._suf if from_end else child._pre).get(size)
            if out is None:
                out = (self.suffix_snippet if from_end else self.prefix_snippet)(child, size)
            return out
        total = sum(rep * child.length for child, rep in parts)
        return _spell(parts, max(total - size, 0) if from_end else 0, size)

    def _naive(self, pattern, left, right="", copies=1):
        """Text count in left * copies + right, memoized on the (shared) snippets."""
        if len(left) * copies + len(right) < len(pattern):
            return 0
        key = (left, copies, right, pattern)
        value = self._memo.get(key)
        if value is None:
            value = self._keep(
                key,
                count_occurrences_naive(pattern, left * copies + right),
                len(left) + len(right) + len(pattern),
            )
        return value

    # -- counting on block names -----------------------------------------

    def _blocking(self, node, pattern):
        """(ell, chunk runs of the pattern) when the node's word is a
        sequence of ell-symbol blocks and the pattern is two or more whole
        chunks of ell symbols; (0, None) otherwise."""
        ell = _grain(node)
        if not ell or len(pattern) % ell or len(pattern) < 2 * ell:
            return 0, None
        key = (pattern, ell)
        chunks = self._memo.get(key)
        if chunks is None:
            chunks = _chunk_runs(pattern, ell)
            self._keep(key, chunks, len(pattern) + ell * len(chunks))
        return ell, chunks

    def _names(self, parts, ell, limit, from_end):
        """Run-length names ((content, count), ...) of the first ``limit``
        blocks of the word the parts spell (the last ones when
        ``from_end``); every child is an ell-symbol block or a sequence of
        them."""
        runs = []
        for child, rep in reversed(parts) if from_end else parts:
            if limit <= 0:
                break
            blocks = child.length // ell
            if blocks == 1:
                _push(runs, self.prefix_snippet(child, ell), min(rep, limit))
                limit -= rep
                continue
            for _ in range(min(rep, -(-limit // blocks))):
                names = self._side(child, ell, limit, from_end)
                for name, count in reversed(names) if from_end else names:
                    _push(runs, name, count)
                limit -= blocks
        if from_end:
            runs.reverse()
        return tuple(runs)

    def _side(self, node, ell, limit, from_end):
        """:meth:`_names` of the first (last) ``limit`` blocks of a block
        sequence node, memoized."""
        key = (node.uid, "suffix" if from_end else "prefix", min(limit, node.length // ell))
        names = self._memo.get(key)
        if names is None:
            names = self._names(node.parts, ell, key[2], from_end)
            self._keep(key, names, ell * len(names))
        return names

    def _name_count(self, pattern, chunks, ell, seq, lo, hi):
        """Occurrences that start at a symbol in [lo, hi) of the word the
        run-length block names ``seq`` spell.

        An occurrence that starts h symbols before the block boundary
        j ell reads the pattern's cut at h (:meth:`_cut`): its whole
        chunks are blocks j, j + 1, ..., the block before them ends with
        its head and the block after them starts with its tail.  A cut is
        matched (:func:`_match`) at the j with j ell - h in [lo, hi), and
        only when a run of ``seq`` holds its first run: a cut is built only
        for an h at which the pattern's next ell symbols are a name.
        """
        key = (seq, lo, hi, pattern)
        value = self._memo.get(key)
        if value is None:
            value = 0
            if sum(count for _, count in seq) * ell >= len(pattern):
                most = {}  # the longest run of each name
                for name, count in seq:
                    if most.get(name, 0) < count:
                        most[name] = count
                for h in range(ell):
                    if pattern[h : h + ell] not in most:
                        continue
                    head, runs, tail = self._cut(pattern, chunks, ell, h)
                    if most[runs[0][0]] >= runs[0][1]:
                        first, last = -(-(lo + h) // ell), -(-(hi + h) // ell)
                        value += _match(seq, head, runs, tail, first, last)
            self._keep(key, value, ell * len(seq) + len(pattern))
        return value

    def _cut(self, pattern, chunks, ell, h):
        """The pattern cut h symbols into its first chunk, h in 0..ell-1:
        (head, runs, tail) with head its first h symbols, runs the chunk
        runs of the whole chunks after them and tail the rest, memoized per
        (pattern, ell, h).  At h = 0 the head and tail are empty."""
        if not h:
            return "", chunks, ""
        key = (pattern, ell, h)
        cut = self._memo.get(key)
        if cut is None:
            runs = _shifted(chunks, h)
            cut = (pattern[:h], runs, pattern[len(pattern) - ell + h :])
            self._keep(key, cut, ell * (len(runs) + 1))
        return cut

    # -- factor texts ----------------------------------------------------

    def factor_texts(self, expr: SlpExpr, start: int, size: int, n: int) -> tuple:
        """Distinct texts, each a factor of the window expr[start, start +
        size), whose factors of length <= n are exactly the window's; they
        hold at most ``size`` symbols in all.

        A factor of length <= n of a node lies in one copy of a child, or
        starts in the n - 1 symbols before a junction and ends in the n - 1
        after it.  A node covered whole gives its texts, memoized per (node,
        n): the node spelled when it has at most 2n - 1 symbols; else per
        run c^r the texts of c and the seam of c c, the last and first n - 1
        symbols of c, or for |c| < n - 1 the first |c| + n - 1 symbols of
        the run, which by periodicity hold each of its factors; and the
        junction at each part boundary, clipped to the node.  A node covered
        in part takes the texts of the copies it covers whole, recurses into
        those it covers in part and clips every junction and short run to
        the window.  A piece whose texts would hold more symbols than the
        piece is spelled whole instead.
        """
        if n < 1:
            raise CamshiftError("factor length must be positive")
        _check_window(expr, start, size)
        return self._texts(expr, start, start + size, n) if size else ()

    def _texts(self, node, lo, hi, n):
        """:meth:`factor_texts` of node[lo:hi], a tuple, memoized for the whole node."""
        whole = hi - lo == node.length
        key = (node.uid, "texts", n)
        texts = self._memo.get(key) if whole else None
        if texts is not None:
            return texts
        if hi - lo >= 2 * n:
            found = dict.fromkeys(self._pieces(node, lo, hi, n))
            found.pop("", None)
            if sum(map(len, found)) <= hi - lo:
                texts = tuple(found)
        if texts is None:
            texts = (_slice(node, lo, hi - lo),)
        if whole:
            self._keep(key, texts, sum(map(len, texts)))
        return texts

    def _pieces(self, node, lo, hi, n):
        """The texts of node[lo:hi], a concat node, per run and part
        boundary, each clipped to [lo, hi): a junction is read from the
        snippets of n - 1 symbols on either side, a short run from its
        child's word."""
        reach = n - 1
        parts, offset = node.parts, 0
        for j, (child, rep) in enumerate(parts):
            clen = child.length
            end = offset + clen * rep
            a, b = max(lo, offset), min(hi, end)
            if a < b and clen < reach:
                word, h = self.prefix_snippet(child, clen), (a - offset) % clen
                size = min(b - a, clen + reach)
                yield (word * -(-(h + size) // clen))[h : h + size]
            elif a < b:
                first, last = (a - offset) // clen, (b - 1 - offset) // clen
                for i in {first, last}:
                    at = offset + i * clen
                    yield from self._texts(child, max(a, at) - at, min(b, at + clen) - at, n)
                if last - first > 1:
                    yield from self._texts(child, 0, clen, n)
                if last > first:
                    # the seams: all but the first and the last read the same text
                    left, right = self.suffix_snippet(child, reach), self.prefix_snippet(child, reach)
                    for i in {first + 1, min(first + 2, last), last}:
                        seam = offset + i * clen
                        yield left[max(reach - (seam - a), 0) :] + right[: b - seam]
            if lo < end < hi:
                left = self._end(parts[: j + 1], reach, True)
                right = self._end(parts[j + 1 :], reach, False)
                yield left[max(len(left) - (end - lo), 0) :] + right[: hi - end]
            offset = end

    def _keep(self, key, value, size):
        """Put a value of ``size`` bytes in the memo, first clearing it when
        the entry would take it past _JUNCTION_CACHE_BYTES; the value."""
        if self._memo_bytes + size > _JUNCTION_CACHE_BYTES:
            self._memo.clear()
            self._memo_bytes = 0
        if size <= _JUNCTION_CACHE_BYTES:
            self._memo[key] = value
            self._memo_bytes += size
        return value


def _junction(left, right, ell, q):
    """(names, lo, hi): the names of left + right, and the starts [lo, hi)
    in that word of the occurrences of a q-chunk pattern that start in
    left and end in right."""
    if left[-1][0] == right[0][0]:
        names = left[:-1] + ((left[-1][0], left[-1][1] + right[0][1]),) + right[1:]
    else:
        names = left + right
    end = sum(count for _, count in left) * ell
    return names, max(end - q * ell + 1, 0), end


def _push(runs, name, count):
    if runs and runs[-1][0] == name:
        runs[-1] = (name, runs[-1][1] + count)
    else:
        runs.append((name, count))


def _grain(node):
    """Length ell of the blocks the node's word is a sequence of, or 0.

    A block is a concat node whose parts are atoms, an explicit word; a
    concat node whose children are blocks or block sequences of one length
    ell is a sequence of ell-symbol blocks.  Level-2 words are blocks, and
    each level above is a sequence of level-2 blocks.
    """
    if node._grain is None:
        if node.kind == "atom":
            node._grain = 0
        elif all(child.kind == "atom" for child, _ in node.parts):
            node._grain = node.length
        else:
            grains = {_grain(child) for child, _ in node.parts}
            node._grain = grains.pop() if len(grains) == 1 else 0
    return node._grain


def _chunk_runs(pattern, ell):
    """The pattern cut into ell-symbol chunks, as (chunk, count) runs, each
    run's length found by :func:`run_length`."""
    runs, p, size = [], 0, len(pattern)
    while p < size:
        chunk = pattern[p : p + ell]
        runs.append((chunk, run_length(pattern, chunk, p, (size - p) // ell)))
        p += runs[-1][1] * ell
    return tuple(runs)


def _shifted(chunks, rho):
    """Run-length chunks shifted by rho: entry i reads the last ell - rho
    symbols of chunk i and the first rho of chunk i + 1.  Inside a run of s
    that is the rotation s[rho:] + s[:rho]."""
    out = []
    for t, (name, count) in enumerate(chunks):
        if count > 1:
            _push(out, name[rho:] + name[:rho], count - 1)
        if t + 1 < len(chunks):
            _push(out, name[rho:] + chunks[t + 1][0][:rho], 1)
    return tuple(out)


def _match(seq, head, runs, tail, first, last):
    """Block indices i in [first, last) at which the runs ``runs`` occur in
    the runs ``seq``, block i - 1 ending with ``head`` and the block after
    them starting with ``tail``.  Both are maximal runs, so a match of
    several runs ends its first run on a run end of ``seq`` and matches the
    inner runs exactly, and a match of one run may start anywhere in a run
    of ``seq`` long enough: there every start but the first and last has
    that run's own blocks on both sides.  A missing neighbour reads as "",
    which ends or starts with no head or tail but the empty one."""
    (name0, need), inner, (name1, need1), span = runs[0], runs[1:-1], runs[-1], len(runs)
    count = at = 0
    for t in range(len(seq) - span + 1):
        name, reps = seq[t]
        at += reps  # the end of run t
        end, end_reps = seq[t + span - 1]
        if (
            name != name0
            or reps < need
            or end != name1
            or end_reps < need1
            or seq[t + 1 : t + span - 1] != inner
        ):
            continue
        stop = at - need  # the last start in run t
        start, spare = (stop, end_reps - need1) if span > 1 else (at - reps, 0)
        a, b = max(start, first), min(stop, last - 1)
        if a > b:
            continue
        prev = seq[t - 1][0] if t else ""
        after = seq[t + span][0] if t + span < len(seq) else ""
        for i in {a, b}:
            before = name if i > at - reps else prev
            count += before.endswith(head) and (end if i < stop + spare else after).startswith(tail)
        if b - a > 1:
            count += (b - a - 1) * (name.endswith(head) and name.startswith(tail))
    return count


# -- structure-only operations (no builder needed) ----------------------


def _cumulative(expr):
    if expr._cum is None:
        acc = []
        total = 0
        for child, rep in expr.parts:
            total += child.length * rep
            acc.append(total)
        expr._cum = acc
    return expr._cum


def run_length(text: str, segment: str, pos: int, most: int) -> int:
    """How many copies of ``segment`` (at least one, at most ``most``)
    follow one another in ``text`` from ``pos``, the first one known to be
    there: galloping, then bisection, on ``startswith``, so O(log e)
    comparisons of at most 2e copies for a run of e."""
    low, high = 1, 2
    while high <= most and text.startswith(segment * high, pos):
        low, high = high, 2 * high
    high = min(high, most + 1)  # low copies are there, high are not
    while high - low > 1:
        mid = (low + high) // 2
        if text.startswith(segment * mid, pos):
            low = mid
        else:
            high = mid
    return low


def char_at(expr: SlpExpr, i: int) -> str:
    """Symbol at 0-based position ``i`` of the materialization."""
    if i < 0 or i >= expr.length:
        raise CamshiftError(f"index {i} out of range for word of length {expr.length}")
    node = expr
    while True:
        if node.kind == "atom":
            return node.symbol
        cum = _cumulative(node)
        lo, hi = 0, len(cum) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if i < cum[mid]:
                hi = mid
            else:
                lo = mid + 1
        offset = cum[lo - 1] if lo else 0
        child, _rep = node.parts[lo]
        node, i = child, (i - offset) % child.length


def window(expr: SlpExpr, start: int, size: int) -> str:
    """Materialize ``size`` symbols starting at 0-based ``start``; the
    caller checks ``size`` against its symbol budget."""
    _check_window(expr, start, size)
    if size == 0:
        return ""
    return _slice(expr, start, size)


def _check_window(expr, start, size):
    if size < 0:
        raise CamshiftError("window length must be nonnegative")
    if start < 0 or start + size > expr.length:
        raise CamshiftError(
            f"window [{start}, {start + size}) out of range for length {expr.length}"
        )


def _slice(node, start, size):
    """Symbols [start, start + size) of the node's word, 0 < size."""
    return node.symbol if node.kind == "atom" else _spell(node.parts, start, size)


def _spell(parts, start, size):
    """Symbols [start, start + size) of the word the (child, repeat) parts
    spell, 0 < size; fewer when the word ends first.

    Each run contributes a partial copy at either end of the range and one
    whole child string repeated for the copies in between, so a child is
    materialized in full only when a whole copy of it lies in the range.
    """
    pieces = []
    end = start + size
    offset = 0
    for child, rep in parts:
        clen = child.length
        block_end = offset + clen * rep
        if block_end > start:
            first, head = divmod(max(start, offset) - offset, clen)
            last, tail = divmod(min(end, block_end) - offset, clen)
            if first == last:
                pieces.append(_slice(child, head, tail - head))
            else:
                if head:
                    pieces.append(_slice(child, head, clen - head))
                    first += 1
                if last > first:
                    pieces.append(_slice(child, 0, clen) * (last - first))
                if tail:
                    pieces.append(_slice(child, 0, tail))
            if block_end >= end:
                break
        offset = block_end
    return "".join(pieces)


def count_occurrences_naive(pattern: str, text: str) -> int:
    """Exact number of (possibly overlapping) occurrences of ``pattern`` in ``text``.

    Reads the occurrences one window of L = len(pattern) start positions at
    a time.  From an occurrence at i, every occurrence starting in
    [i, i + L) lies inside text[i : i + 2L - 1], a text shorter than 2L, and
    there the occurrences of the pattern form an arithmetic progression
    (the periodicity lemma of Fine and Wilf).  One search for the second
    occurrence gives the step q; the progression i, i + q, ... has no gaps,
    so bisecting ``startswith`` tests over its at most L/q slots in the
    window finds the last one.  The next window starts at the first
    occurrence at or after i + L.  Windows start at least L apart, so a
    text of N symbols costs at most 2 ceil((N - L + 1) / L) + 1 searches
    plus ceil(log2 L) comparisons of L symbols per window, however many
    occurrences overlap.  (``str.rfind`` would find the last occurrence in
    one call, but CPython's reverse search is not linear: one such call on
    a level-4 junction text took 20 ms, the bisection 0.03 ms.)
    """
    if not pattern:
        raise CamshiftError("pattern must be nonempty")
    size = len(pattern)
    count = 0
    i = text.find(pattern)
    while i != -1:
        second = text.find(pattern, i + 1, i + 2 * size - 1)
        if second == -1:
            count += 1
        else:
            step = second - i
            low, high = 1, (size - 1) // step  # slots i + low*step .. i + high*step
            while low < high:
                mid = (low + high + 1) // 2
                if text.startswith(pattern, i + mid * step):
                    low = mid
                else:
                    high = mid - 1
            count += low + 1
        i = text.find(pattern, i + size)
    return count


def minimal_period(word: str) -> int:
    """Smallest p >= 1 with word[i] == word[i+p] for all valid i.

    A period p <= n/2 puts the first h = ceil(n/2) symbols again at p.  So
    if the minimal period p is <= n/2, the first occurrence q > 0 of that
    prefix has q <= p, and the prefix of length q + h has the periods q and
    p with q + h >= p + q - gcd(p, q): by Fine and Wilf's lemma it has the
    period gcd(p, q), a divisor of p and thus a period of the word, so
    q = p.  A q checked to be a period is minimal for the same reason.
    Every doubled word a a is decided by these two C-speed calls; only a
    word with no period <= n/2 goes on to the border (KMP) scan.
    """
    n = len(word)
    if n == 0:
        raise CamshiftError("minimal_period needs a nonempty word")
    q = word.find(word[: (n + 1) // 2], 1)
    if q != -1 and word.startswith(word[q:]):
        return q
    border = [0] * n
    k = 0
    for i in range(1, n):
        while k and word[i] != word[k]:
            k = border[k - 1]
        if word[i] == word[k]:
            k += 1
        border[i] = k
    return n - border[-1]


# -- serialization -------------------------------------------------------


def collect_nodes(roots) -> tuple[list, dict]:
    """Postorder node list over the given roots plus a node -> id map."""
    order = []
    ids = {}

    def visit(node):
        if node.uid in ids:
            return
        if node.kind == "concat":
            for child, _rep in node.parts:
                visit(child)
        ids[node.uid] = len(order)
        order.append(node)

    for root in roots:
        visit(root)
    return order, ids


def nodes_to_obj(order, ids) -> list:
    out = []
    for node in order:
        if node.kind == "atom":
            out.append({"kind": "atom", "symbol": node.symbol})
        else:
            out.append(
                {
                    "kind": "concat",
                    "children": [[ids[child.uid], str(rep)] for child, rep in node.parts],
                }
            )
    return out
