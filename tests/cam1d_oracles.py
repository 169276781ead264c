"""Reference implementation of the one-dimensional complexity counter.

The suffix automaton below is the direct per-symbol construction.  The
tests compare ``cam1d.distinct_factor_counts`` (one sort of packed
prefixes plus the LCP of sorted neighbours) against it and against
brute-force sets of slices.
"""


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
