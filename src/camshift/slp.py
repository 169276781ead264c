"""Grammar-compressed binary words with exact occurrence counting.

A word over {0,1} is represented as a DAG: leaves are the two atoms and
every internal node is a concatenation of (child, repeat) parts, so words
of astronomical length stay a few dozen nodes.  Random access, windowed
materialization and occurrence counting are all computed from the DAG.

Counting never materializes the word.  Internally each concatenation is
lowered to a binary tree (repeats via squaring), and for a pattern of
length L the count at a junction node is

    count(left) + count(right) + naive count in suffix(left, L-1) + prefix(right, L-1)

which is exact because any occurrence inside that 2(L-1)-symbol window
must straddle the junction.  Counts are memoized per (node, pattern) and
prefix/suffix snippets are cached per node, so repeated sub-blocks are
paid for once.
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
DEFAULT_WINDOW = 4096
DEFAULT_MATERIALIZE_CAP = 1_000_000
DEFAULT_SNIPPET_CAP = 1_048_576


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
        "_lowered",
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
        self._lowered = None
        self._pre = None
        self._suf = None
        self._counts = None

    def __repr__(self):
        if self.kind == "atom":
            return f"SlpExpr(atom {self.symbol!r})"
        return f"SlpExpr(concat of {len(self.parts)} parts, length {self.length})"


class _Pair:
    """Binary junction node used only by the counting machinery."""

    __slots__ = ("uid", "left", "right", "length", "_pre", "_suf", "_counts", "__weakref__")

    def __init__(self, uid, left, right):
        self.uid = uid
        self.left = left
        self.right = right
        self.length = left.length + right.length
        self._pre = None
        self._suf = None
        self._counts = None


def _check_symbol(symbol):
    if symbol not in SYMBOLS:
        raise InvalidParameter(f"symbol must be one of {SYMBOLS}, got {symbol!r}")


class SlpBuilder:
    """Hash-consing factory and counting context for :class:`SlpExpr` DAGs.

    ``window`` is the maximum pattern length accepted by compressed
    counting; junction snippets grow up to ``window - 1`` symbols per node.
    ``materialize_cap`` bounds explicit windows, ``snippet_cap`` is the hard
    ceiling to which ``window`` may be raised later via :meth:`widen_window`.

    Expressions are immutable once built and safe for concurrent reads.
    The count/snippet memos are per-node dicts written with single
    idempotent stores, so concurrent insertion at worst recomputes a value;
    construction itself should stay on one thread.
    """

    def __init__(
        self,
        window: int = DEFAULT_WINDOW,
        materialize_cap: int = DEFAULT_MATERIALIZE_CAP,
        snippet_cap: int = DEFAULT_SNIPPET_CAP,
    ):
        if window < 2:
            raise InvalidParameter("window must be at least 2")
        self.window = window
        self.materialize_cap = materialize_cap
        self.snippet_cap = max(snippet_cap, window)
        self._uid = itertools.count()
        self._exprs = weakref.WeakValueDictionary()
        self._pairs = weakref.WeakValueDictionary()
        self._atoms = {s: SlpExpr(next(self._uid), "atom", symbol=s) for s in SYMBOLS}
        # junction scans keyed by content: many nodes share the same
        # suffix/prefix snippets, so the heavy scans run once per content
        self._junction_counts: dict = {}

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

    def widen_window(self, window: int) -> bool:
        """Raise the counting window up to ``snippet_cap``; True on success."""
        if window <= self.window:
            return True
        if window > self.snippet_cap:
            return False
        self.window = window
        return True

    # -- binary lowering ----------------------------------------------

    def _pair(self, left, right):
        key = (left.uid, right.uid)
        node = self._pairs.get(key)
        if node is None:
            node = _Pair(next(self._uid), left, right)
            self._pairs[key] = node
        return node

    def _pow(self, node, rep):
        if rep == 1:
            return node
        half = self._pow(node, rep // 2)
        sq = self._pair(half, half)
        return sq if rep % 2 == 0 else self._pair(sq, node)

    def _lowered(self, expr):
        if expr._lowered is None:
            units = [self._pow(child, rep) for child, rep in expr.parts]
            while len(units) > 1:
                nxt = [
                    self._pair(units[i], units[i + 1]) if i + 1 < len(units) else units[i]
                    for i in range(0, len(units), 2)
                ]
                units = nxt
            expr._lowered = units[0]
        return expr._lowered

    # -- snippets ------------------------------------------------------

    def prefix_snippet(self, node, k: int) -> str:
        """First min(k, length) symbols of the node's word."""
        need = min(k, node.length)
        if need <= 0:
            return ""
        cache = node._pre
        if cache is None:
            cache = node._pre = {}
        hit = cache.get(need)
        if hit is not None:
            return hit
        longest = max(cache, default=0)
        if longest >= need:
            out = cache[longest][:need]
            cache[need] = out
            return out
        if isinstance(node, SlpExpr) and node.kind == "atom":
            return node.symbol
        if isinstance(node, _Pair):
            left, right = node.left, node.right
            if left.length >= need:
                out = self.prefix_snippet(left, need)
            else:
                out = self.prefix_snippet(left, left.length) + self.prefix_snippet(
                    right, need - left.length
                )
        else:
            pieces = []
            rem = need
            for child, rep in node.parts:
                clen = child.length
                if clen >= rem:
                    pieces.append(self.prefix_snippet(child, rem))
                    rem = 0
                else:
                    take = min(rem, clen * rep)
                    full = self.prefix_snippet(child, clen)
                    copies = -(-take // clen)
                    pieces.append((full * copies)[:take])
                    rem -= take
                if rem == 0:
                    break
            out = "".join(pieces)
        cache[need] = out
        return out

    def suffix_snippet(self, node, k: int) -> str:
        """Last min(k, length) symbols of the node's word."""
        need = min(k, node.length)
        if need <= 0:
            return ""
        cache = node._suf
        if cache is None:
            cache = node._suf = {}
        hit = cache.get(need)
        if hit is not None:
            return hit
        longest = max(cache, default=0)
        if longest >= need:
            out = cache[longest][len(cache[longest]) - need :]
            cache[need] = out
            return out
        if isinstance(node, SlpExpr) and node.kind == "atom":
            return node.symbol
        if isinstance(node, _Pair):
            left, right = node.left, node.right
            if right.length >= need:
                out = self.suffix_snippet(right, need)
            else:
                out = self.suffix_snippet(left, need - right.length) + self.suffix_snippet(
                    right, right.length
                )
        else:
            pieces = []
            rem = need
            for child, rep in reversed(node.parts):
                clen = child.length
                if clen >= rem:
                    pieces.append(self.suffix_snippet(child, rem))
                    rem = 0
                else:
                    take = min(rem, clen * rep)
                    full = self.suffix_snippet(child, clen)
                    copies = -(-take // clen)
                    pieces.append((full * copies)[len(full) * copies - take :])
                    rem -= take
                if rem == 0:
                    break
            out = "".join(reversed(pieces))
        cache[need] = out
        return out

    # -- counting ------------------------------------------------------

    def count_occurrences(self, pattern: str, expr: SlpExpr) -> int:
        """Number of (possibly overlapping) occurrences of ``pattern`` in the word.

        Equivalent to :func:`count_occurrences_naive` on the materialization,
        computed without materializing.
        """
        if not pattern:
            raise EmptyPattern("pattern must be nonempty")
        if len(pattern) > self.window:
            raise PatternTooLong(
                f"pattern length {len(pattern)} exceeds counting window {self.window}"
            )
        # one scan at C speed: a check per symbol cost ~30M calls per level-4 build
        stray = pattern.lstrip("".join(SYMBOLS))
        if stray:
            _check_symbol(stray[0])
        return self._count(expr, pattern)

    def _count(self, node, pattern):
        memo = node._counts
        if memo is None:
            memo = node._counts = {}
        hit = memo.get(pattern)
        if hit is not None:
            return hit
        L = len(pattern)
        if isinstance(node, SlpExpr) and node.kind == "atom":
            value = 1 if L == 1 and pattern == node.symbol else 0
        elif node.length < L:
            value = 0
        elif isinstance(node, SlpExpr):
            value = self._count(self._lowered(node), pattern)
        else:
            left_tail = self.suffix_snippet(node.left, L - 1)
            right_head = self.prefix_snippet(node.right, L - 1)
            key = (left_tail, right_head, pattern)
            straddle = self._junction_counts.get(key)
            if straddle is None:
                straddle = count_occurrences_naive(pattern, left_tail + right_head)
                if len(self._junction_counts) > 100_000:
                    self._junction_counts.clear()
                self._junction_counts[key] = straddle
            value = self._count(node.left, pattern) + self._count(node.right, pattern) + straddle
        memo[pattern] = value
        return value


# -- structure-only operations (no builder needed) ----------------------


def length(expr: SlpExpr) -> int:
    return expr.length


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
    out = []
    _emit(expr, start, size, out)
    return "".join(out)


def _emit(node, start, size, out):
    if node.kind == "atom":
        out.append(node.symbol)
        return
    offset = 0
    end = start + size
    for child, rep in node.parts:
        block = child.length * rep
        if offset + block <= start:
            offset += block
            continue
        if offset >= end:
            break
        clen = child.length
        first = max(start - offset, 0) // clen
        last = (min(end, offset + block) - 1 - offset) // clen
        for copy in range(first, last + 1):
            base = offset + copy * clen
            lo = max(start, base)
            hi = min(end, base + clen)
            _emit(child, lo - base, hi - lo, out)
        offset += block


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


def expr_to_obj(expr: SlpExpr) -> dict:
    order, ids = collect_nodes([expr])
    return {"nodes": nodes_to_obj(order, ids), "root": ids[expr.uid]}


def nodes_from_obj(builder: SlpBuilder, nodes_obj) -> list:
    built = []
    for entry in nodes_obj:
        if entry["kind"] == "atom":
            built.append(builder.atom(entry["symbol"]))
        elif entry["kind"] == "concat":
            parts = [(built[child_id], int(rep)) for child_id, rep in entry["children"]]
            built.append(builder.concat(parts))
        else:
            raise InvalidParameter(f"unknown node kind {entry['kind']!r}")
    return built


def expr_from_obj(builder: SlpBuilder, obj) -> SlpExpr:
    built = nodes_from_obj(builder, obj["nodes"])
    return built[obj["root"]]
