"""Spans and work counts taken from outside the program.

A :class:`Tracer` replaces public functions of the camshift modules (module
attributes, and methods on their classes) with wrappers that record one span
per call (name, start, end, parent span, pass id) and add work counts at the
same boundary.  Internal helpers are never wrapped, so a span always covers
one call into a layer's public surface.  Calls between modules go through
module attributes, so callers inside the program reach the wrappers too.

Spans stay in memory until :meth:`Tracer.dump` writes them out.  Nothing is
wrapped outside ``with tracer.installed():``, so untraced passes run the
program unchanged.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from math import prod


def _count_pattern(counts, args, kwargs, result):
    # SlpBuilder.count_occurrences(self, pattern, expr)
    counts["slp.pattern_symbols"] += len(args[1])


def _count_naive(counts, args, kwargs, result):
    counts["slp.naive_bytes"] += len(args[1])


def _count_window(counts, args, kwargs, result):
    counts["slp.window_symbols"] += len(result)


def _count_factor(counts, args, kwargs, result):
    counts["cam1d.factor_symbols"] += len(args[0])


def _count_cells(counts, args, kwargs, result):
    pattern, text = args[0].shape, args[1].shape
    placements = prod(t - p + 1 for p, t in zip(pattern, text))
    counts["camzd.cells_compared"] += placements * prod(pattern)


def _count_lattice(counts, args, kwargs, result):
    counts["camzd.lattice_candidates"] += prod(args[0].shape)
    counts["camzd.lattice_residues"] += len(result.residues)


def _count_to_array(counts, args, kwargs, result):
    counts["camzd.to_array_cells"] += int(result.size)


def _count_perron(counts, args, kwargs, result):
    counts["sft.perron_iterations"] += result.iterations


def _count_serialized(counts, args, kwargs, result):
    # family files are JSON objects; certificate payloads are JSON lists
    if isinstance(args[0], dict):
        counts["cli.family_bytes"] += len(result)


def _targets(cli, cam1d, camzd, sft, slp):
    """(owner, attribute, span name, count-call metric, extra counter)."""
    return [
        (cli, "main", "cli.main", None, None),
        (cli, "canonical_json", "cli.serialize", None, _count_serialized),
        (slp.SlpBuilder, "count_occurrences", "slp.count", "slp.count_calls", _count_pattern),
        (slp, "count_occurrences_naive", "slp.naive", "slp.naive_calls", _count_naive),
        (slp, "window", "slp.window", None, _count_window),
        (slp, "minimal_period", "slp.minimal_period", None, None),
        (cam1d, "choose_parameter", "cam1d.choose", None, None),
        (cam1d, "certify_candidate", "cam1d.certify", "cam1d.certify_calls", None),
        (cam1d, "certify_level", "cam1d.certify_level", None, None),
        (cam1d, "family_from_obj", "cam1d.load", None, None),
        (cam1d, "transitive_point_window", "cam1d.window", None, None),
        (cam1d, "distinct_factor_counts", "cam1d.factor", None, _count_factor),
        (cam1d, "verify_distinct_subwords", "cam1d.verify", None, None),
        (cam1d, "parse_structure", "cam1d.parse", None, None),
        (cam1d, "measure_report", "cam1d.measure", None, None),
        (camzd, "count_occurrences_d", "camzd.count", "camzd.count_calls", _count_cells),
        (camzd, "period_lattice", "camzd.lattice", None, _count_lattice),
        (camzd, "certify_candidate_d", "camzd.certify", None, None),
        (camzd.PatchworkExpr, "to_array", "camzd.to_array", None, _count_to_array),
        (sft, "trace_power", "sft.trace_power", "sft.trace_power_calls", None),
        (sft, "census", "sft.census", None, None),
        (sft, "perron_eigenvalue", "sft.perron", None, _count_perron),
        (sft, "embedding_feasibility", "sft.embed", None, None),
        (sft, "smallest_feasible_height", "sft.smallest_height", None, None),
    ]


class Tracer:
    def __init__(self, modules):
        self._targets = _targets(*modules)
        self.origin = time.perf_counter()
        self.spans: list = []  # [name, start, end, parent index, pass id]
        self.counts: dict = defaultdict(lambda: defaultdict(int))  # pass id -> metric -> n
        self.pass_id = None
        self._stack: list = []

    def _wrap(self, func, name, call_metric, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            span = [name, time.perf_counter() - self.origin, None, parent, self.pass_id]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter() - self.origin
                stack.pop()
            counts = self.counts[self.pass_id]
            if call_metric:
                counts[call_metric] += 1
            if counter:
                counter(counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, pass_id):
        """Wrap every target for the duration of one pass."""
        self.pass_id = pass_id
        saved = []
        try:
            for owner, attr, name, call_metric, counter in self._targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, call_metric, counter))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.pass_id = None

    def self_times(self, pass_id) -> dict:
        """Span name -> summed self time (duration minus child spans) in one pass."""
        child_time = defaultdict(float)
        for name, start, end, parent, pid in self.spans:
            if pid == pass_id and parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, parent, pid) in enumerate(self.spans):
            if pid == pass_id:
                totals[name] += (end - start) - child_time[index]
        return totals

    def inclusive_times(self, pass_id) -> dict:
        totals = defaultdict(float)
        for name, start, end, parent, pid in self.spans:
            if pid == pass_id:
                totals[name] += end - start
        return totals

    def span_count(self, pass_id) -> int:
        return sum(1 for span in self.spans if span[4] == pass_id)

    def dump(self, path):
        with open(path, "w", encoding="ascii") as handle:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "pass"],
                    "spans": self.spans,
                    "counts": {str(k): dict(v) for k, v in self.counts.items()},
                },
                handle,
            )
