"""Reference implementations for ``camshift.cam1d``, ``camshift.factors``
and the level driver of ``camshift.hierarchy``.

The suffix automaton below is the direct per-symbol construction.  The
tests compare ``factors.distinct_factor_counts`` (one sort of the packed
prefixes of the text's distinct windows plus the LCP of neighbouring
distinct keys) against it and against brute-force sets of slices.

``parse_structure_scan`` parses a window block by block: one slice and
one lookup per block, and ``classify_pair`` on every adjacent pair.  The
tests compare ``cam1d.parse_structure``, which reads the window run by run,
with it.

``report_from_obj_fractions`` reads a stored certificate report in
``Fraction`` arithmetic: every stored side and margin becomes a Fraction,
and the row checks compare Fractions.  The tests compare
``hierarchy.report_from_obj``, which checks the rows in integers, with it.

``doubling_search`` finds each level's parameter by certifying candidates
only: doubling until one passes, then bisection.  The tests compare
``hierarchy.choose_parameter``, which solves the fitted row polynomials,
with it.

``certify_materialized`` assembles a certificate from the materialized
words: every inherited word and rare symbol counted by ``scan_count`` in
the spelled density words, the period of a_k a_k found by trying every
shift.  The tests compare ``hierarchy.certify_candidate``, which counts on
the compressed words through the shared certificate of
``camshift.hierarchy``, with it, row for row.

``empirical_measure_edge`` counts a cylinder over the 2|a_k| shifts as
the count in the doubled word, less a hit at its first symbol, plus a
text scan of the edge where windows continue into the next copy of the
base word.  ``empirical_measure_scan`` finds every occurrence of a
cylinder of any length in the materialized text the 2|a_k| shifts read.
The tests compare ``cam1d.empirical_measure``, which takes
count(base^(2+r)) - count(base^r), with both.
"""

import re
from fractions import Fraction

from slp_oracles import materialize, scan_count

from camshift import cam1d, factors, hierarchy, slp
from camshift.errors import BudgetExceeded, MalformedFamily


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
        report = hierarchy.certify_candidate(family, n)
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
    """``hierarchy.build_levels`` with each parameter from ``doubling_search``."""
    for _ in range(levels - 1):
        report = doubling_search(family)
        hierarchy.build_level(family, report.param)
        family.certificates.append(report)
    return family


def parse_structure_scan(family, k: int, start: int, num_blocks: int):
    """``cam1d.parse_structure`` for k >= 2, one block at a time."""
    word_len = family.word_length(k)
    strings = {family.string(k, name): name for name in family.names(k)}
    window_text = cam1d.transitive_point_window(family, start, num_blocks * word_len)
    blocks = []
    violations = []
    for i in range(num_blocks):
        segment = window_text[i * word_len : (i + 1) * word_len]
        name = strings.get(segment)
        if name is None:
            violations.append(("block", i, "not a level-%d word" % k))
            name = "?"
        blocks.append(name)
    pair_kinds = []
    for i in range(num_blocks - 1):
        kind = cam1d.classify_pair(blocks[i], blocks[i + 1], k)
        if kind == "violation":
            violations.append(("pair", i, f"{blocks[i]}|{blocks[i + 1]}"))
        pair_kinds.append(kind)
    return cam1d.StructureParse(
        level=k, start=start, blocks=blocks, pair_kinds=pair_kinds, violations=violations
    )


def certify_materialized(family, k: int, n: int) -> hierarchy.CertificateReport:
    """The level-(k+1) report at parameter n, every count taken in a spelled word.

    Each inherited word and each rare symbol is counted in the spelled
    doubled density word, and the period of a_k a_k is its first shift p
    with (a_k a_k)[p:] equal to its prefix.  A word, or a_k a_k, over the
    ``symbols`` budget makes its row unverifiable.
    """
    symbols = family.budgets.symbols
    words = family._words(k, n)
    texts = {side: materialize(words[f"{side}{k + 1}"]) for side in family.rare}
    size_next = len(texts["a"])
    report = hierarchy.CertificateReport(level=k + 1, param=n)
    report.rows += hierarchy.eps_tail_rows(family.eps, k + 1)
    for ident, side, m, name, bound in hierarchy.inherited_words(family.eps, k, family.rare):
        u = materialize(family.word(m, name))
        if len(u) > symbols:
            note = "unverifiable at budget: word exceeds symbol budget"
            report.rows.append(hierarchy.unverifiable(ident, note))
            continue
        count = scan_count(u, texts[side] * 2)
        report.rows.append(hierarchy.frequency_row(ident, count, len(u), size_next, bound, 1))
    if k >= 2:
        doubled = materialize(family.a(k)) * 2
        if len(doubled) > symbols:
            note = "unverifiable at budget: a_k a_k exceeds symbol budget"
            report.rows.append(hierarchy.unverifiable("period-gap", note))
        else:
            period = next(p for p in range(1, len(doubled)) if doubled[p:] == doubled[:-p])
            size_k = len(doubled) // 2
            report.rows.append(hierarchy.period_gap_row(k, period, size_k, size_next))
    prefix = hierarchy.ratio(family.eps.partial(1, k))
    for side, symbol in family.rare.items():
        count = scan_count(symbol, texts[side])
        report.rows.append(hierarchy.row(f"{side}-density[{symbol}]", (count, size_next), prefix))
    return report


_DECIMAL = re.compile("[0-9]+")
_SIGNED_DECIMAL = re.compile("-?[0-9]+")


def _decimal(text, signed=False) -> int:
    pattern = _SIGNED_DECIMAL if signed else _DECIMAL
    if not isinstance(text, str) or pattern.fullmatch(text) is None:
        raise MalformedFamily(f"not a decimal string: {text!r}")
    return int(text)


def _fraction_from(obj):
    if obj is None:
        return None
    try:
        return Fraction(_decimal(obj["num"], signed=True), _decimal(obj["den"]))
    except ZeroDivisionError as exc:  # the loader reports it as a malformed file
        raise MalformedFamily(str(exc)) from exc


def report_from_obj_fractions(obj):
    """``hierarchy.report_from_obj`` on Fractions, without its string-type checks
    on a row's id, status and note."""
    report = hierarchy.CertificateReport(
        level=hierarchy._json_int(obj["level"], "certificate level"), param=_decimal(obj["param"])
    )
    for row in obj["rows"]:
        cert = hierarchy.CertRow(
            ident=row["id"],
            lhs=_fraction_from(row["lhs"]),
            rhs=_fraction_from(row["rhs"]),
            status=row["status"],
            note=row.get("note", ""),
        )
        if cert.status not in ("pass", "fail", "unverifiable", "info"):
            raise MalformedFamily(f"row {cert.ident}: unknown status {cert.status!r}")
        margin = cert.margin
        if cert.status in ("pass", "fail") and (
            margin is None or (cert.status == "pass") != (margin > 0)
        ):
            raise MalformedFamily(f"row {cert.ident}: status {cert.status} contradicts lhs < rhs")
        if _fraction_from(row["margin"]) != margin:
            raise MalformedFamily(f"row {cert.ident}: stored margin is not rhs - lhs")
        report.rows.append(cert)
    return report


def empirical_measure_edge(family, k: int, side: str, cylinder: str) -> Fraction:
    """``cam1d.empirical_measure`` for a cylinder no longer than the base
    word, from the doubled word and a text scan of its far edge."""
    base = family.a(k) if side == "a" else family.b(k)
    span, size = base.length, len(cylinder)
    doubled = family.builder.concat([(base, 2)])
    inner = family.builder.count_occurrences(cylinder, doubled)
    prefix_hit = 1 if slp.window(doubled, 0, size) == cylinder else 0
    tail = slp.window(doubled, 2 * span - (size - 1), size - 1) if size > 1 else ""
    continuation = slp.window(base, 0, size)
    edge = slp.count_occurrences_naive(cylinder, tail + continuation)
    return Fraction(inner - prefix_hit + edge, 2 * span)


def empirical_measure_scan(family, k: int, side: str, cylinder: str) -> Fraction:
    """``cam1d.empirical_measure`` for a cylinder of any length: every
    occurrence, one ``str.find`` each, in the materialized text that the
    windows of the 2|a_k| shifts cover, a prefix of base base base ..."""
    base = family.string(k, f"{side}{k}")
    span = len(base)
    text = (base * (3 + len(cylinder) // span))[: 2 * span + len(cylinder) - 1]
    return Fraction(scan_count(cylinder, text), 2 * span)
