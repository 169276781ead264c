"""Grammar-compressed binary words with exact occurrence counting.

A word over {0,1} is represented as a DAG: leaves are the two atoms and
every internal node is a concatenation of (child, repeat) runs, so words
of astronomical length stay a few dozen nodes.  Random access, windowed
materialization and occurrence counting are all computed from the DAG.

Counting never materializes the word.  For a pattern of length L the
count in a node is the sum of the counts in its runs c^r plus, at each
boundary o where a run ends, a naive count in the text from
max(o - (L-1), start of that run) to min(o + L-1, length): every
occurrence found there starts in that run and crosses o, and every
occurrence that crosses a run boundary is found at the first one it
crosses.  Inside a run,

    count(c^r) = r count(c) + (r-1) naive(suffix(c, L-1) + prefix(c, L-1))   if |c| >= L-1

and for a shorter c, count(c^r) is affine in r from m = ceil((L-1)/|c|) + 1
on, so it follows from naive counts in c^(m-1) and c^m, both shorter than
3L symbols.  Counts are memoized per (node, pattern), prefix/suffix
snippets per node, and naive counts per (snippet, snippet, pattern), so
repeated sub-blocks are paid for once.  Materialization appends a whole
child string times the number of whole copies a range covers.
"""

from __future__ import annotations

import itertools
import weakref

from .errors import (
    BudgetExceeded,
    EmptyPattern,
    IndexOutOfRange,
    InvalidParameter,
    PatternTooLong,
)

SYMBOLS = ("0", "1")
DEFAULT_MATERIALIZE_CAP = 1_000_000
DEFAULT_SNIPPET_CAP = 1_048_576
# bytes of snippet text (left + right + pattern, one byte per symbol) the
# junction memo keeps; the level-4 build peaks at ~15.6M and never clears it
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

    def __repr__(self):
        if self.kind == "atom":
            return f"SlpExpr(atom {self.symbol!r})"
        return f"SlpExpr(concat of {len(self.parts)} parts, length {self.length})"


def _check_symbol(symbol):
    if symbol not in SYMBOLS:
        raise InvalidParameter(f"symbol must be one of {SYMBOLS}, got {symbol!r}")


class SlpBuilder:
    """Hash-consing factory and counting context for :class:`SlpExpr` DAGs.

    ``snippet_cap`` is the maximum pattern length L accepted by compressed
    counting.  A count adds up the node's runs c^r, each from count(c) and
    one seam scan of suffix(c, L-1) + prefix(c, L-1) (for |c| < L-1, from
    scans of c^(m-1) and c^m), and one scan of at most 2(L-1) symbols at
    each part boundary; the texts are built from prefix and suffix
    snippets of up to ``snippet_cap - 1`` symbols cached per node.
    """

    def __init__(self, snippet_cap: int = DEFAULT_SNIPPET_CAP):
        if snippet_cap < 1:
            raise InvalidParameter("snippet_cap must be at least 1")
        self.snippet_cap = snippet_cap
        self._uid = itertools.count()
        self._exprs = weakref.WeakValueDictionary()
        self._atoms = {s: SlpExpr(next(self._uid), "atom", symbol=s) for s in SYMBOLS}
        # naive scans keyed by content: many nodes share the same cached
        # suffix/prefix snippets, so the heavy scans run once per content
        self._junction_counts: dict = {}
        self._junction_bytes = 0

    # -- construction -------------------------------------------------

    def atom(self, symbol: str) -> SlpExpr:
        _check_symbol(symbol)
        return self._atoms[symbol]

    def concat(self, parts) -> SlpExpr:
        """Concatenation of (child, repeat) parts; adjacent equal children merge."""
        merged = []
        for child, rep in parts:
            if not isinstance(child, SlpExpr):
                raise InvalidParameter("concat child must be an SlpExpr")
            if not isinstance(rep, int) or rep < 1:
                raise InvalidParameter(f"repeat must be a positive integer, got {rep!r}")
            if merged and merged[-1][0] is child:
                merged[-1] = (child, merged[-1][1] + rep)
            else:
                merged.append((child, rep))
        if not merged:
            raise InvalidParameter("concat needs at least one part")
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

    def word(self, text: str) -> SlpExpr:
        """Expression for an explicit word (run-length encoded)."""
        if not text:
            raise InvalidParameter("cannot build an expression for the empty word")
        parts = []
        for symbol, run in itertools.groupby(text):
            parts.append((self.atom(symbol), sum(1 for _ in run)))
        if len(parts) == 1 and parts[0][1] == 1:
            return parts[0][0]
        return self.concat(parts)

    # -- snippets ------------------------------------------------------

    def prefix_snippet(self, node, k: int) -> str:
        """First min(k, length) symbols of the node's word."""
        need = min(k, node.length)
        if need <= 0:
            return ""
        out = node._pre.get(need)
        if out is None:
            if node.kind == "concat" and node.parts[0][0].length >= need:
                out = self.prefix_snippet(node.parts[0][0], need)  # shares the child's string
            else:
                out = _slice(node, 0, need)
            node._pre[need] = out
        return out

    def suffix_snippet(self, node, k: int) -> str:
        """Last min(k, length) symbols of the node's word."""
        need = min(k, node.length)
        if need <= 0:
            return ""
        out = node._suf.get(need)
        if out is None:
            if node.kind == "concat" and node.parts[-1][0].length >= need:
                out = self.suffix_snippet(node.parts[-1][0], need)  # shares the child's string
            else:
                out = _slice(node, node.length - need, need)
            node._suf[need] = out
        return out

    # -- counting ------------------------------------------------------

    def count_occurrences(self, pattern: str, expr: SlpExpr) -> int:
        """Number of (possibly overlapping) occurrences of ``pattern`` in the word.

        Equivalent to :func:`count_occurrences_naive` on the materialization,
        computed without materializing.
        """
        if not pattern:
            raise EmptyPattern("pattern must be nonempty")
        if len(pattern) > self.snippet_cap:
            raise PatternTooLong(
                f"pattern length {len(pattern)} exceeds snippet cap {self.snippet_cap}"
            )
        # one scan at C speed: a check per symbol cost ~30M calls per level-4 build
        stray = pattern.translate(_DROP_SYMBOLS)
        if stray:
            _check_symbol(stray[0])
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
            value = sum(self._count_run(child, rep, pattern) for child, rep in node.parts)
            value += sum(self._crossing(node, j, pattern) for j in range(len(node.parts) - 1))
        node._counts[pattern] = value
        return value

    def _count_run(self, child, rep, pattern):
        """Occurrences inside child^rep."""
        reach, clen = len(pattern) - 1, child.length
        if rep == 1:
            return self._count(child, pattern)
        if clen >= reach:
            seam = self._naive(
                pattern, self.suffix_snippet(child, reach), self.prefix_snippet(child, reach)
            )
            return rep * self._count(child, pattern) + (rep - 1) * seam
        # affine in rep from m on; child^m is shorter than 3L symbols
        m = -(-reach // clen) + 1
        whole = self.prefix_snippet(child, clen)
        if rep <= m:
            return self._naive(pattern, whole, copies=rep)
        top = self._naive(pattern, whole, copies=m)
        return top + (rep - m) * (top - self._naive(pattern, whole, copies=m - 1))

    def _crossing(self, node, j, pattern):
        """Occurrences that start in run j of the node and cross its right end."""
        reach = len(pattern) - 1
        end = _cumulative(node)[j]
        child, rep = node.parts[j]
        after = node.parts[j + 1][0]
        if child.length >= reach:
            left = self.suffix_snippet(child, reach)
        else:
            start = end - min(reach, child.length * rep)
            left = _slice(node, start, end - start)
        if after.length >= reach:
            right = self.prefix_snippet(after, reach)
        else:
            right = _slice(node, end, min(reach, node.length - end))
        return self._naive(pattern, left, right)

    def _naive(self, pattern, left, right="", copies=1):
        """Naive count in left * copies + right, memoized on the (shared) snippets."""
        if len(left) * copies + len(right) < len(pattern):
            return 0
        key = (left, copies, right, pattern)
        value = self._junction_counts.get(key)
        if value is None:
            value = count_occurrences_naive(pattern, left * copies + right)
            size = len(left) + len(right) + len(pattern)
            if self._junction_bytes + size > _JUNCTION_CACHE_BYTES:
                self._junction_counts.clear()
                self._junction_bytes = 0
            if size <= _JUNCTION_CACHE_BYTES:
                self._junction_counts[key] = value
                self._junction_bytes += size
        return value


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


def char_at(expr: SlpExpr, i: int) -> str:
    """Symbol at 0-based position ``i`` of the materialization."""
    if i < 0 or i >= expr.length:
        raise IndexOutOfRange(f"index {i} out of range for word of length {expr.length}")
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


def window(expr: SlpExpr, start: int, size: int, cap: int = DEFAULT_MATERIALIZE_CAP) -> str:
    """Materialize ``size`` symbols starting at 0-based ``start``."""
    if size < 0:
        raise InvalidParameter("window length must be nonnegative")
    if size > cap:
        raise BudgetExceeded(f"window of {size} symbols exceeds materialization budget {cap}")
    if start < 0 or start + size > expr.length:
        raise IndexOutOfRange(
            f"window [{start}, {start + size}) out of range for length {expr.length}"
        )
    if size == 0:
        return ""
    return _slice(expr, start, size)


def _slice(node, start, size):
    """Symbols [start, start + size) of the node's word, 0 < size.

    Each run contributes a partial copy at either end of the range and one
    whole child string repeated for the copies in between, so a child is
    materialized in full only when a whole copy of it lies in the range.
    """
    if node.kind == "atom":
        return node.symbol
    pieces = []
    end = start + size
    offset = 0
    for child, rep in node.parts:
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


def materialize(expr: SlpExpr, cap: int = DEFAULT_MATERIALIZE_CAP) -> str:
    return window(expr, 0, expr.length, cap=cap)


def count_occurrences_naive(pattern: str, text: str) -> int:
    """Sliding-window exact count; the oracle for the compressed counter."""
    if not pattern:
        raise EmptyPattern("pattern must be nonempty")
    count = 0
    i = text.find(pattern)
    while i != -1:
        count += 1
        i = text.find(pattern, i + 1)
    return count


def minimal_period(word: str) -> int:
    """Smallest p >= 1 with word[i] == word[i+p] for all valid i."""
    n = len(word)
    if n == 0:
        raise InvalidParameter("minimal_period needs a nonempty word")
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
