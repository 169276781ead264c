"""Command-line front end.

Subcommands: build, certify, verify, window, parse, measure, complexity,
and sft {qn, perron, embed}.  Families are stored as canonical JSON and all
reports are emitted as JSON or CSV with big integers as decimal strings.
Runs are deterministic: the same configuration produces byte-identical
family files and certificate reports.

Exit codes: 0 success; 2 certification failure or violated property (also
usage errors); 3 budget exhaustion; 4 malformed family file.

Limits come only from the CAMSHIFT_BUDGET environment variable (see
:mod:`camshift.budgets`); no option sets one.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import cam1d, camzd, sft
from .budgets import Budgets, budgets_from_env
from .errors import (
    BudgetExceeded,
    CamshiftError,
    EnumerationTooLarge,
    MalformedFamily,
    PatternTooLong,
)

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_BUDGET = 3
EXIT_MALFORMED = 4


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _frac_str(x: Fraction | None) -> str:
    if x is None:
        return ""
    return f"{x.numerator}/{x.denominator}"


def _load_family(path: str, budgets: Budgets):
    try:
        with open(path, "r", encoding="ascii") as handle:
            obj = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedFamily(f"cannot read family file {path}: {exc}") from exc
    if not isinstance(obj, dict) or "dim" not in obj:
        raise MalformedFamily(f"{path} is not a family file")
    # each loader checks that dim is a JSON integer
    if obj["dim"] == 1:
        return cam1d.family_from_obj(obj, budgets=budgets)
    return camzd.family_from_obj_d(obj, budgets=budgets)


def _write_out(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _reports_csv(reports) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_ALL)
    writer.writerow(["level", "param", "id", "lhs", "rhs", "margin", "status", "note"])
    for report in reports:
        for row in report.rows:
            writer.writerow(
                [
                    str(report.level),
                    str(report.param),
                    row.ident,
                    _frac_str(row.lhs),
                    _frac_str(row.rhs),
                    _frac_str(row.margin),
                    row.status,
                    row.note,
                ]
            )
    return buffer.getvalue()


def _reports_payload(reports, fmt: str) -> str:
    if fmt == "csv":
        return _reports_csv(reports)
    return canonical_json([cam1d.report_to_obj(r) for r in reports])


# -- build ------------------------------------------------------------------


def cmd_build(args) -> int:
    budgets = budgets_from_env()
    if args.dim == 1:
        family = cam1d.build_family(levels=args.levels, budgets=budgets)
        payload = canonical_json(cam1d.family_to_obj(family))
    else:
        family = camzd.build_family_d(dim=args.dim, levels=args.levels, budgets=budgets)
        payload = canonical_json(camzd.family_to_obj_d(family))
    with open(args.out, "w", encoding="ascii") as handle:
        handle.write(payload)
    for report in family.certificates:
        checked = [r for r in report.rows if r.status != "info"]
        print(
            f"level {report.level}: n={report.param}, rows={len(checked)}, "
            f"{'pass' if report.passed else 'FAIL'}"
        )
    print(f"family written to {args.out}")
    return EXIT_OK if family.is_certified() else EXIT_VIOLATION


def cmd_certify(args) -> int:
    budgets = budgets_from_env()
    family = _load_family(args.family, budgets)
    levels = [args.level] if args.level else range(2, family.top_level + 1)
    reports = [cam1d.certify_level(family, k) for k in levels]
    _write_out(_reports_payload(reports, args.format), args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VIOLATION


def cmd_verify(args) -> int:
    budgets = budgets_from_env()
    family = _load_family(args.family, budgets)
    verify = (
        cam1d.verify_distinct_subwords if family.dim == 1 else camzd.verify_distinct_subwords_d
    )
    report = verify(family, args.level)
    occurrences = sum(p.count or 0 for p in report.pairs)
    print(
        f"{len(report.pairs)} pairs, {occurrences} occurrences "
        f"({len(report.verified)} scanned, {len(report.deferred)} certified-by-inequalities)"
    )
    return EXIT_OK if not report.violations else EXIT_VIOLATION


def cmd_window(args) -> int:
    budgets = budgets_from_env()
    family = _load_family(args.family, budgets)
    if family.dim == 1:
        print(cam1d.transitive_point_window(family, int(args.start), int(args.len)))
    else:
        starts = [int(x) for x in str(args.start).split(",")]
        sides = [int(x) for x in str(args.len).split(",")]
        arr = camzd.transitive_config_window(family, starts, sides)
        print(canonical_json(camzd.array_to_obj(arr)), end="")
    return EXIT_OK


def cmd_parse(args) -> int:
    budgets = budgets_from_env()
    family = _load_family(args.family, budgets)
    if family.dim != 1:
        raise CamshiftError("parse is defined for one-dimensional families")
    result = cam1d.parse_structure(family, args.level, args.start, args.blocks)
    print("blocks:", " ".join(result.blocks))
    print("pairs:", " ".join(result.pair_kinds))
    for violation in result.violations:
        print("violation:", violation)
    print(f"{len(result.blocks)} blocks, {len(result.violations)} violations")
    return EXIT_OK if not result.violations else EXIT_VIOLATION


def cmd_measure(args) -> int:
    budgets = budgets_from_env()
    family = _load_family(args.family, budgets)
    if family.dim == 1:
        sides = ["a", "b"] if args.side == "both" else [args.side]
        cylinders = args.cylinders.split(",")
        rows = []
        for side in sides:
            for cylinder in cylinders:
                value = cam1d.empirical_measure(family, args.k, side, cylinder)
                rows.append({"side": side, "cylinder": cylinder, "value": _frac_str(value)})
                print(f"side {side} [{cylinder}] = {_frac_str(value)}")
        if args.out:
            _write_out(canonical_json(rows), args.out)
        return EXIT_OK
    rows = camzd.measure_report_d(family, args.k)
    for row in rows:
        print(
            f"level {row.level}: freq(1|a)={_frac_str(row.a_one)} "
            f"freq(0|b)={_frac_str(row.b_zero)} gap={_frac_str(row.gap)} "
            f"gap>1/3={row.gap_above_third}"
        )
    return EXIT_OK


def cmd_complexity(args) -> int:
    budgets = budgets_from_env()
    family = _load_family(args.family, budgets)
    if family.dim != 1:
        raise CamshiftError("complexity is defined for one-dimensional families")
    profile = cam1d.complexity_profile(family, args.n_max, args.window_len)
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, quoting=csv.QUOTE_ALL)
        writer.writerow(["n", "count", "window_length"])
        for n, count in enumerate(profile.counts, start=1):
            writer.writerow([str(n), str(count), str(profile.window_length)])
        _write_out(buffer.getvalue(), args.out)
    else:
        _write_out(
            canonical_json(
                {
                    "window_length": profile.window_length,
                    "counts": {str(n): str(c) for n, c in enumerate(profile.counts, start=1)},
                }
            ),
            args.out,
        )
    return EXIT_OK


# -- sft --------------------------------------------------------------------


def _parse_matrix(text: str):
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CamshiftError(f"matrix must be JSON array-of-arrays: {exc}") from exc
    return sft.SftMatrix(rows)


def cmd_sft(args) -> int:
    matrix = _parse_matrix(args.matrix)
    if args.sft_cmd == "qn":
        table = sft.census(matrix, args.n)
        print(canonical_json({str(n): str(q) for n, q in table.items()}), end="")
        return EXIT_OK
    if args.sft_cmd == "perron":
        result = sft.perron_eigenvalue(matrix)
        print(
            canonical_json(
                {
                    "lower": _frac_str(result.lower),
                    "upper": _frac_str(result.upper),
                    "iterations": result.iterations,
                    "primitive": result.primitive,
                }
            ),
            end="",
        )
        return EXIT_OK
    if args.find_smallest < 0:
        raise CamshiftError("--find-smallest must be a nonnegative height cap (0 skips the search)")
    report = sft.embedding_feasibility(matrix, args.height, args.n_max)
    payload = {
        "height": report.height,
        "entropy_lhs": report.entropy_lhs,
        "entropy_status": report.entropy_status,
        "periodic_rows": [
            {"n": n, "tower": str(tower), "target": str(target), "ok": ok}
            for n, tower, target, ok in report.periodic_rows
        ],
        "feasible": report.feasible,
    }
    if args.find_smallest:
        payload["smallest_feasible_height"] = sft.smallest_feasible_height(
            matrix, args.n_max, cap=args.find_smallest
        )
    print(canonical_json(payload), end="")
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="camshift",
        description="build, certify and probe hierarchical binary subshift families",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build", help="build and certify a family")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--out", default="family.json")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("certify", help="re-run the certifier on a family file")
    p.add_argument("--family", required=True)
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="scan distinct word pairs for occurrences")
    p.add_argument("--family", required=True)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("window", help="extract a window of the transitive point")
    p.add_argument("--family", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--len", required=True)
    p.set_defaults(func=cmd_window)

    p = sub.add_parser("parse", help="parse an aligned window into level words")
    p.add_argument("--family", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--blocks", type=int, required=True)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("measure", help="empirical cylinder frequencies")
    p.add_argument("--family", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cylinders", default="0,1")
    p.add_argument("--side", choices=("a", "b", "both"), default="a")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("complexity", help="distinct-factor counts of a central window")
    p.add_argument("--family", required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--window-len", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("sft", help="shift-of-finite-type arithmetic")
    sft_sub = p.add_subparsers(dest="sft_cmd", required=True)
    q = sft_sub.add_parser("qn", help="least-period point census")
    q.add_argument("--matrix", required=True)
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=cmd_sft)
    q = sft_sub.add_parser("perron", help="exact rational bracket of the Perron eigenvalue")
    q.add_argument("--matrix", required=True)
    q.set_defaults(func=cmd_sft)
    q = sft_sub.add_parser("embed", help="tower embedding feasibility")
    q.add_argument("--matrix", required=True)
    q.add_argument("--height", type=int, required=True)
    q.add_argument("--n-max", type=int, required=True)
    q.add_argument("--find-smallest", type=int, default=0)
    q.set_defaults(func=cmd_sft)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MalformedFamily as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except (BudgetExceeded, PatternTooLong, EnumerationTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CamshiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
