"""The four benchmark workloads: set-up, one timed pass, and output checks.

Every workload is a closed loop with one client: each call into camshift
starts only when the previous one has returned, on one thread, with
``jobs=1``.  A pass returns the seconds of its named stages; the checks
compare every output against values recorded in ``expected.json`` and feed
the failure count.  See README.md in this directory for why each workload
exists and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="ascii"))


def import_program():
    """Import the camshift modules the workloads drive (part of set-up)."""
    from camshift import cam1d, camzd, cli, sft, slp

    return cli, cam1d, camzd, sft, slp


class Recorder:
    """Counts attempted and failed operations and keeps each one's latency,
    timed by ``clock`` (the benchmark sets a calibrated one)."""

    def __init__(self):
        self.clock = time.perf_counter
        self.attempted = 0
        self.failed = 0
        self.latencies = defaultdict(list)
        self.problems: list = []

    def fail(self, name, detail):
        self.failed += 1
        if len(self.problems) < 50:
            self.problems.append(f"{name}: {detail}")
        print(f"FAILED {name}: {detail}", file=sys.stderr)

    def op(self, name, call, check=None):
        """Time ``call()``; a raise or a non-empty list from ``check`` is a failure."""
        self.attempted += 1
        start = self.clock()
        try:
            result = call()
        except Exception:  # counted as a failed operation; the loop keeps going
            elapsed = self.clock() - start
            self.fail(name, traceback.format_exc())
            return None, elapsed
        elapsed = self.clock() - start
        self.latencies[name].append(elapsed)
        if check is not None:
            try:
                problems = check(result)
            except Exception:  # an output the check cannot read is a wrong output
                problems = [traceback.format_exc()]
            if problems:
                self.fail(name, "; ".join(problems))
        return result, elapsed

    def expect(self, name, problems):
        """A check made outside any timed call, counted as one operation."""
        self.attempted += 1
        if problems:
            self.fail(name, "; ".join(problems))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _frac(text):
    return None if text is None else Fraction(text)


class Workload:
    name = ""
    # the workload's two stage timings, reported as stage1_s and stage2_s
    stages: tuple = ()

    def setup(self, seed: int, rec: Recorder, workdir: Path):
        raise NotImplementedError

    def run_pass(self, rec: Recorder) -> dict:
        """One timed pass; returns stage name -> seconds."""
        raise NotImplementedError

    def final_checks(self, rec: Recorder):
        """Checks kept out of the timed passes."""


class Build1d(Workload):
    """``camshift build --dim 1 --levels 4`` then ``certify`` on the result.

    The seed changes nothing: the build has no generated input.
    """

    name = "build-1d"
    stages = ("build1d_s", "recertify1d_s")

    def setup(self, seed, rec, workdir):
        self.cli = import_program()[0]
        self.expected = EXPECTED["build-1d"]
        self.family_path = workdir / "family.json"
        self.cert_path = workdir / "certificate.json"

    def _main(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def _check_rows(self, reports) -> list:
        return [
            f"level {r['level']} row {row['id']} is {row['status']}"
            for r in reports
            for row in r["rows"]
            if row["status"] not in ("pass", "info")
        ]

    def _check_build(self, code) -> list:
        if code != 0:
            return [f"build exited {code}"]
        data = self.family_path.read_bytes()
        problems = []
        if _sha256(data) != self.expected["family_sha256"]:
            problems.append("family bytes differ from the recorded sha256")
        family = json.loads(data)
        params = [int(p) for p in family["params"]]
        if params != self.expected["params"]:
            problems.append(f"params {params}")
        return problems + self._check_rows(family["certificates"])

    def _check_certify(self, code) -> list:
        if code != 0:
            return [f"certify exited {code}"]
        data = self.cert_path.read_bytes()
        problems = []
        if _sha256(data) != self.expected["certificate_sha256"]:
            problems.append("certificate bytes differ from the recorded sha256")
        return problems + self._check_rows(json.loads(data))

    def run_pass(self, rec):
        for path in (self.family_path, self.cert_path):
            path.unlink(missing_ok=True)
        family, cert = str(self.family_path), str(self.cert_path)
        _, build_s = rec.op(
            "build",
            lambda: self._main(["build", "--dim", "1", "--levels", "4", "--out", family]),
            self._check_build,
        )
        _, cert_s = rec.op(
            "certify",
            lambda: self._main(["certify", "--family", family, "--out", cert]),
            self._check_certify,
        )
        return {"build1d_s": build_s, "recertify1d_s": cert_s}


class Probe1d(Workload):
    """Windows, complexity, parse, pair scans and measures on the level-4 family.

    The seed picks the window positions and the positions sampled to check
    them.  Every call loads a fresh family from the file bytes, as each CLI
    invocation does, so no memo or materialized word carries over.
    """

    name = "probe-1d"
    stages = ("window1d_s", "complexity1d_s")
    WINDOWS = 8
    WINDOW_SIZE = 125_000  # 8 x 125000 = 10^6 symbols per pass
    SAMPLES = 32
    COMPLEXITY_WINDOW = 500_000
    COMPLEXITY_N_MAX = 32

    def setup(self, seed, rec, workdir):
        _, self.cam1d, _, _, self.slp = import_program()
        self.expected = EXPECTED["probe-1d"]
        self.family_bytes = (HERE / "data" / "family-l4.json").read_bytes()
        rec.expect(
            "fixture",
            []
            if _sha256(self.family_bytes) == EXPECTED["build-1d"]["family_sha256"]
            else ["family fixture differs from the recorded sha256"],
        )
        family = self._load()
        top = family.top_level
        self.span = family.word_length(top)
        self.doubled = family.builder.concat([(family.a(top), 2)])
        rng = random.Random(seed)
        self.windows = []
        for _ in range(self.WINDOWS):
            start = rng.randint(1 - self.span, self.span + 1 - self.WINDOW_SIZE)
            offsets = sorted(rng.sample(range(self.WINDOW_SIZE), self.SAMPLES))
            self.windows.append((start, offsets))

    def _load(self):
        return self.cam1d.family_from_obj(json.loads(self.family_bytes))

    def _check_window(self, text, start, offsets) -> list:
        if len(text) != self.WINDOW_SIZE:
            return [f"window length {len(text)}"]
        base = start + self.span - 1
        wrong = [i for i in offsets if text[i] != self.slp.char_at(self.doubled, base + i)]
        return [f"window at {start}: symbols differ from char_at at {wrong}"] if wrong else []

    def _check_pairs(self, report, pairs) -> list:
        problems = []
        if len(report.pairs) != pairs or len(report.verified) != pairs:
            problems.append(f"level {report.level}: {len(report.verified)}/{pairs} pairs scanned")
        if report.violations:
            problems.append(f"level {report.level}: {len(report.violations)} pairs occur")
        return problems

    def _check_measure(self, rows) -> list:
        if [row.level for row in rows] != [2, 3, 4]:
            return [f"measure levels {[row.level for row in rows]}"]
        return [
            f"level {row.level}: separation flags fail"
            for row in rows
            if not (row.a_zero_below_third and row.b_one_below_third and row.gap_above_third)
        ]

    def _parse(self):
        family = self._load()
        extent, block = family.word_length(3), family.word_length(2)
        return self.cam1d.parse_structure(family, 2, 1 - extent, 2 * extent // block)

    def run_pass(self, rec):
        cam1d = self.cam1d
        window_s = 0.0
        for start, offsets in self.windows:
            _, seconds = rec.op(
                "window",
                lambda s=start: cam1d.transitive_point_window(self._load(), s, self.WINDOW_SIZE),
                lambda text, s=start, o=offsets: self._check_window(text, s, o),
            )
            window_s += seconds
        _, complexity_s = rec.op(
            "complexity",
            lambda: cam1d.complexity_profile(
                self._load(), self.COMPLEXITY_N_MAX, self.COMPLEXITY_WINDOW
            ),
            lambda p: []
            if p.counts == self.expected["complexity_counts"]
            else [f"complexity counts {p.counts}"],
        )
        rec.op(
            "parse",
            self._parse,
            lambda r: [f"{len(r.violations)} violations, {len(r.blocks)} blocks"]
            if r.violations or len(r.blocks) != self.expected["parse_blocks"]
            else [],
        )
        for level, pairs in ((2, 12), (3, 30)):
            rec.op(
                f"verify-{level}",
                lambda k=level: cam1d.verify_distinct_subwords(self._load(), k),
                lambda r, p=pairs: self._check_pairs(r, p),
            )
        rec.op("measure", lambda: cam1d.measure_report(self._load()), self._check_measure)
        return {"window1d_s": window_s, "complexity1d_s": complexity_s}


class Cells2d(Workload):
    """Level-3 candidates and period lattices in dimension 2.

    The seed changes nothing: every input is fixed.  The camzd calls keep no
    memo between calls, so the families built at set-up are reused.  The
    level-3 pair scan (``verify_distinct_subwords_d``) is left out: its
    scans of 30 MB chunks slow down with the cache the core shares with
    other tenants, and on a shared host no calibration held its ten-run
    spread within 0.25 (see README.md).
    """

    name = "cells-2d"
    stages = ("certify2d_s", "lattice2d_s")
    CANDIDATES = (12, 24, 48)
    STRUCTURAL_N = 12
    # every residue of a constant cube is a period, and the closure over
    # them grows superlinearly: about 1 s at side 30, 14.8 s at side 60,
    # 651 s at side 150
    CONSTANT_SIDE = 30

    def setup(self, seed, rec, workdir):
        import numpy as np

        _, _, self.camzd, _, _ = import_program()
        self.expected = EXPECTED["cells-2d"]
        self.family2 = self.camzd.build_family_d(dim=2, levels=2)
        rec.expect(
            "level-2",
            []
            if self.family2.params == [6] and self.family2.is_certified()
            else [f"level-2 params {self.family2.params}"],
        )
        self.family3 = self.camzd.build_family_d(dim=2, levels=2)
        self.camzd.build_level_d(self.family3, self.STRUCTURAL_N)
        self.lattice_inputs = [
            ("a3", self.family3.word(3, "a3").array),
            ("w3_3", self.family3.word(3, "w3_3").array),
            ("constant", np.zeros((self.CONSTANT_SIDE,) * 2, dtype=np.uint8)),
        ]

    def _check_candidate(self, report, n) -> list:
        got = [[row.ident, row.lhs, row.rhs, row.status] for row in report.rows]
        want = [
            [ident, _frac(lhs), _frac(rhs), status]
            for ident, lhs, rhs, status in self.expected["candidate_rows"][str(n)]
        ]
        return [] if got == want else [f"level-3 rows at n={n} differ from the recorded rows"]

    def _check_lattice(self, lattice, name, cells) -> list:
        want = self.expected["lattice_index"][name]
        problems = [] if lattice.index == want else [f"{name}: index {lattice.index}"]
        if lattice.index * len(lattice.residues) != cells:
            problems.append(f"{name}: {len(lattice.residues)} residues")
        return problems

    def run_pass(self, rec):
        camzd = self.camzd
        certify_s = 0.0
        for n in self.CANDIDATES:
            _, seconds = rec.op(
                f"certify-{n}",
                lambda n=n: camzd.certify_candidate_d(self.family2, n),
                lambda r, n=n: self._check_candidate(r, n),
            )
            certify_s += seconds
        lattice_s = 0.0
        for name, array in self.lattice_inputs:
            _, seconds = rec.op(
                f"lattice-{name}",
                lambda a=array: camzd.period_lattice(a),
                lambda lat, name=name, a=array: self._check_lattice(lat, name, a.size),
            )
            lattice_s += seconds
        return {"certify2d_s": certify_s, "lattice2d_s": lattice_s}


# dimension <= 4, entries <= 2, small enough for the enumeration oracle
FIXED_MATRICES = [
    [[1]],
    [[2]],
    [[1, 1], [1, 0]],
    [[0, 1], [1, 0]],
    [[1, 1], [1, 1]],
    [[0, 2], [1, 0]],
    [[1, 2], [1, 0]],
    [[2, 1], [1, 1]],
    [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
    [[0, 1, 0], [0, 0, 2], [1, 0, 0]],
    [[1, 1, 0], [0, 0, 1], [1, 0, 0]],
    [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
    [[0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1], [1, 1, 0, 0]],
]


class ArithSft(Workload):
    """Census, embedding feasibility and smallest tower height on a catalog.

    The seed draws 100 random matrices (entries <= 2) beside the 13 fixed
    ones.  Their dimensions cycle through 2, 3, 4 and every other one is
    irreducible, so each seed gives the same mix of work; only matrices the
    enumeration oracle can check are kept.
    """

    name = "arith-sft"
    stages = ("census_s", "embed_s")
    RANDOM_MATRICES = 100
    N_MAX = 60
    EMBED_HEIGHT = 2
    EMBED_N_MAX = 30
    HEIGHT_CAP = 8
    ORACLE_N_MAX = 8

    def setup(self, seed, rec, workdir):
        _, _, _, self.sft, _ = import_program()
        self.expected = EXPECTED["arith-sft"]
        rng = random.Random(seed)
        matrices = [tuple(map(tuple, m)) for m in FIXED_MATRICES]
        for index in range(self.RANDOM_MATRICES):
            matrices.append(self._draw(rng, dim=2 + index % 3, irreducible=index % 2 == 0))
        self.matrices = matrices
        self.irreducible = [m for m in matrices if self.sft.is_irreducible(m)]
        self.census = {}

    def _draw(self, rng, dim, irreducible):
        while True:
            rows = tuple(
                tuple(rng.choices((0, 1, 2), weights=(11, 7, 2))[0] for _ in range(dim))
                for _ in range(dim)
            )
            if (
                self.sft.trace_power(rows, 10) <= 20_000
                and self.sft.is_irreducible(rows) == irreducible
            ):
                return rows

    def _check_embed(self, result, matrix) -> list:
        report, height = result
        census = self.census.get(matrix)
        problems = []
        if census is not None:
            wrong = [n for n, _, target, _ in report.periodic_rows if target != census[n]]
            if wrong:
                problems.append(f"{matrix}: target counts differ from the census at n={wrong}")
        recorded = self.expected["fixed_embed"].get(json.dumps([list(r) for r in matrix]))
        if recorded is not None:
            got = [report.feasible, height]
            if got != recorded:
                problems.append(f"{matrix}: {got} != recorded {recorded}")
        return problems

    def _embed(self, matrix):
        sft = self.sft
        report = sft.embedding_feasibility(matrix, self.EMBED_HEIGHT, self.EMBED_N_MAX)
        return report, sft.smallest_feasible_height(matrix, self.EMBED_N_MAX, cap=self.HEIGHT_CAP)

    def run_pass(self, rec):
        sft = self.sft
        census_s = 0.0
        for matrix in self.matrices:
            table, seconds = rec.op("census", lambda m=matrix: sft.census(m, self.N_MAX))
            self.census[matrix] = table
            census_s += seconds
        embed_s = 0.0
        for matrix in self.irreducible:
            _, seconds = rec.op(
                "embed",
                lambda m=matrix: self._embed(m),
                lambda result, m=matrix: self._check_embed(result, m),
            )
            embed_s += seconds
        return {"census_s": census_s, "embed_s": embed_s}

    def final_checks(self, rec):
        for matrix in self.matrices:
            table = self.census.get(matrix)
            if table is None:
                continue
            wrong = [
                n
                for n in range(1, self.ORACLE_N_MAX + 1)
                if table[n] != self.sft.brute_periodic_points(matrix, n)
            ]
            rec.expect(
                "census-oracle",
                [f"{matrix}: census differs from enumeration at n={wrong}"] if wrong else [],
            )


WORKLOADS = {w.name: w for w in (Build1d, Probe1d, Cells2d, ArithSft)}
