"""Reference implementations for ``camshift.cam1d``.

The suffix automaton below is the direct per-symbol construction.  The
tests compare ``cam1d.distinct_factor_counts`` (one sort of packed
prefixes plus the LCP of neighbouring distinct keys) against it and against
brute-force sets of slices.

``doubling_search`` finds each level's parameter by certifying candidates
only: doubling until one passes, then bisection.  The tests compare
``cam1d.choose_parameter``, which solves the fitted row polynomials, with
it.
"""

from camshift import cam1d
from camshift.errors import BudgetExceeded


def distinct_factor_counts_automaton(text: str, n_max: int) -> list[int]:
    """Number of distinct length-n factors of ``text`` for n = 1..n_max.

    Built on a suffix automaton: a state with link length l and length h
    contributes one distinct factor for every n in (l, h].
    """
    sa_len = [0]
    sa_link = [-1]
    sa_next = [{}]
    last = 0
    for ch in text:
        cur = len(sa_len)
        sa_len.append(sa_len[last] + 1)
        sa_link.append(-1)
        sa_next.append({})
        p = last
        while p != -1 and ch not in sa_next[p]:
            sa_next[p][ch] = cur
            p = sa_link[p]
        if p == -1:
            sa_link[cur] = 0
        else:
            q = sa_next[p][ch]
            if sa_len[p] + 1 == sa_len[q]:
                sa_link[cur] = q
            else:
                clone = len(sa_len)
                sa_len.append(sa_len[p] + 1)
                sa_link.append(sa_link[q])
                sa_next.append(dict(sa_next[q]))
                while p != -1 and sa_next[p].get(ch) == q:
                    sa_next[p][ch] = clone
                    p = sa_link[p]
                sa_link[q] = clone
                sa_link[cur] = clone
        last = cur
    diff = [0] * (n_max + 2)
    for v in range(1, len(sa_len)):
        lo = sa_len[sa_link[v]] + 1
        hi = min(sa_len[v], n_max)
        if lo <= hi:
            diff[lo] += 1
            diff[hi + 1] -= 1
    counts = []
    acc = 0
    for n in range(1, n_max + 1):
        acc += diff[n]
        counts.append(acc)
    return counts


def doubling_search(family, cap: int = 10**12):
    """The passing report of the smallest n > 1 whose candidate level passes.

    Doubles n from 2 until a candidate passes, then bisects between the
    last failing n and it; a report with unverifiable rows and no failed
    row, or doubling past ``cap``, raises BudgetExceeded.
    """

    def decide(n):
        report = cam1d.certify_candidate(family, n)
        if report.unverifiable_rows and not report.failed_rows:
            raise BudgetExceeded(f"certification of level {report.level} undecidable at budget")
        return report

    report = decide(2)
    if report.passed:
        return report
    lo, hi = 2, 4
    best = decide(hi)
    while not best.passed:
        lo = hi
        hi *= 2
        if hi > cap:
            raise BudgetExceeded(f"no passing parameter found up to cap {cap}")
        best = decide(hi)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        report = decide(mid)
        if report.passed:
            hi, best = mid, report
        else:
            lo = mid
    return best


def build_by_doubling(family, levels: int):
    """``cam1d.build_levels`` with each parameter from ``doubling_search``."""
    for _ in range(levels - 1):
        report = doubling_search(family)
        cam1d.build_level(family, report.param)
        family.certificates.append(report)
    return family
