"""Command-line front end.

Subcommands: build, certify, verify, window, parse, measure, complexity,
and sft {qn, perron, embed}.  Families are stored as canonical JSON and all
reports are emitted as JSON or CSV with big integers as decimal strings.
Runs are deterministic: the same configuration produces byte-identical
family files and certificate reports.  This module parses arguments and
prints: :mod:`camshift.hierarchy` builds and loads a family of any
dimension, and a command calls the family's own methods, which refuse what
its type does not define, so no command asks for the dimension.  The family
commands import :mod:`camshift.hierarchy` when they run; an ``sft`` command
prints through :mod:`camshift.output` alone and never loads it.  A call
builds only the parser of the command it runs (two parsers, three for
``sft``), from the one table ``COMMANDS``; with no command named it builds
the whole tree.

Exit codes: 0 success; 2 certification failure or violated property (also
usage errors); 3 budget exhaustion; 4 malformed family file.  Each error
exit code has one exception type (see :mod:`camshift.errors`).

Limits come only from the CAMSHIFT_BUDGET environment variable (see
:mod:`camshift.budgets`); no option sets one.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import sft
from .budgets import budgets_from_env
from .errors import BudgetExceeded, CamshiftError, MalformedFamily
from .output import canonical_json, frac_str

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_BUDGET = 3
EXIT_MALFORMED = 4


def _load_family(path: str):
    from . import hierarchy

    # the budgets are read first, so a bad CAMSHIFT_BUDGET is a usage error
    # whatever the file holds
    budgets = budgets_from_env()
    try:
        with open(path, "r", encoding="ascii") as handle:
            obj = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedFamily(f"cannot read family file {path}: {exc}") from exc
    return hierarchy.family_from_obj(obj, budgets=budgets)


def _write_out(text: str, out: str | None):
    if out is not None:
        with open(out, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _int(text: str, option: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CamshiftError(f"{option} must be an integer, got {text!r}") from None


def _csv(header: list, rows) -> str:
    """The header and the rows as CSV, every field quoted."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_ALL)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _reports_payload(reports, fmt: str) -> str:
    from . import hierarchy

    if fmt == "json":
        return canonical_json([hierarchy.report_to_obj(r) for r in reports])
    return _csv(
        ["level", "param", "id", "lhs", "rhs", "margin", "status", "note"],
        (
            [str(report.level), str(report.param), row.ident]
            + [frac_str(x) for x in (row.lhs, row.rhs, row.margin)]
            + [row.status, row.note]
            for report in reports
            for row in report.rows
        ),
    )


# -- build ------------------------------------------------------------------


def cmd_build(args) -> int:
    from . import hierarchy

    family = hierarchy.build_family(levels=args.levels, budgets=budgets_from_env(), dim=args.dim)
    _write_out(canonical_json(hierarchy.family_to_obj(family)), args.out)
    for report in family.certificates:
        checked = [r for r in report.rows if r.status != "info"]
        print(
            f"level {report.level}: n={report.param}, rows={len(checked)}, "
            f"{'pass' if report.passed else 'FAIL'}"
        )
        binding = report.binding
        row = f"{binding.ident}, margin {frac_str(binding.margin)}" if binding else "none (n=2)"
        print(f"level {report.level}: binding row {row}", file=sys.stderr)
    print(f"family written to {args.out}")
    return EXIT_OK if family.is_certified() else EXIT_VIOLATION


def cmd_certify(args) -> int:
    from . import hierarchy

    family = _load_family(args.family)
    levels = [args.level] if args.level else range(2, family.top_level + 1)
    reports = [hierarchy.certify_level(family, k) for k in levels]
    _write_out(_reports_payload(reports, args.format), args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VIOLATION


def cmd_verify(args) -> int:
    from . import hierarchy

    family = _load_family(args.family)
    report = hierarchy.verify_distinct_subwords(family, args.level)
    occurrences = sum(p.count or 0 for p in report.pairs)
    print(
        f"{len(report.pairs)} pairs, {occurrences} occurrences "
        f"({len(report.verified)} scanned, {len(report.deferred)} certified-by-inequalities)"
    )
    return EXIT_OK if not report.violations else EXIT_VIOLATION


def cmd_window(args) -> int:
    family = _load_family(args.family)
    starts = [_int(x, "--start") for x in args.start.split(",")]
    sides = [_int(x, "--len") for x in args.len.split(",")]
    sys.stdout.write(family.window(starts, sides))
    return EXIT_OK


def cmd_parse(args) -> int:
    family = _load_family(args.family)
    result = family.parse(args.level, args.start, args.blocks)
    print("blocks:", " ".join(result.blocks))
    print("pairs:", " ".join(result.pair_kinds))
    for violation in result.violations:
        print("violation:", violation)
    print(f"{len(result.blocks)} blocks, {len(result.violations)} violations")
    return EXIT_OK if not result.violations else EXIT_VIOLATION


def cmd_measure(args) -> int:
    family = _load_family(args.family)
    cylinders = None if args.cylinders is None else args.cylinders.split(",")
    lines, rows = family.measure(args.k, args.side, cylinders)
    for line in lines:
        print(line)
    if args.out is not None:
        _write_out(canonical_json(rows), args.out)
    return EXIT_OK


def cmd_complexity(args) -> int:
    profile = _load_family(args.family).complexity(args.n_max, args.window_len)
    if args.format == "csv":
        counts = enumerate(profile.counts, start=1)
        rows = ([str(n), str(c), str(profile.window_length)] for n, c in counts)
        _write_out(_csv(["n", "count", "window_length"], rows), args.out)
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
    # a census value may pass CPython's 4 300-digit limit on int-to-str
    # conversion: lift it for this output only, so family files keep it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        print(canonical_json(_sft_payload(args, matrix)), end="")
    finally:
        sys.set_int_max_str_digits(limit)
    return EXIT_OK


def _check_census_length(what: str, length: int):
    """Refuse a census longer than the symbols budget before any trace is drawn."""
    budget = budgets_from_env().symbols
    if length > budget:
        raise BudgetExceeded(f"{what} exceeds the symbols budget {budget}")


def _sft_payload(args, matrix) -> dict:
    if args.sft_cmd == "qn":
        _check_census_length(f"--n {args.n}", args.n)
        return {str(n): str(q) for n, q in sft.census(matrix, args.n).items()}
    if args.sft_cmd == "perron":
        result = sft.perron_eigenvalue(matrix)
        return {
            "lower": frac_str(result.lower),
            "upper": frac_str(result.upper),
            "iterations": result.iterations,
            "primitive": result.primitive,
        }
    if args.find_smallest < 0:
        raise CamshiftError("--find-smallest must be a nonnegative height cap (0 skips the search)")
    _check_census_length(f"--n-max {args.n_max}", args.n_max)
    if args.find_smallest:
        # the search draws the traces up to max(d * cap, n_max)
        traces = matrix.dim * args.find_smallest
        _check_census_length(f"--find-smallest {args.find_smallest} ({traces} traces)", traces)
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
    return payload


# -- argument parsing ---------------------------------------------------------


# name: (help, handler, options) for a command, (help, dest, subcommands) for
# a command group; an option is (flag, add_argument keywords)
COMMANDS = {
    "build": ("build and certify a family", cmd_build, [
        ("--dim", dict(type=int, default=1)),
        ("--levels", dict(type=int, required=True)),
        ("--out", dict(default="family.json")),
    ]),
    "certify": ("re-run the certifier on a family file", cmd_certify, [
        ("--family", dict(required=True)),
        ("--level", dict(type=int, default=0)),
        ("--format", dict(choices=("json", "csv"), default="json")),
        ("--out", dict(default=None)),
    ]),
    "verify": ("scan distinct word pairs for occurrences", cmd_verify, [
        ("--family", dict(required=True)),
        ("--level", dict(type=int, required=True)),
    ]),
    "window": ("extract a window of the transitive point", cmd_window, [
        ("--family", dict(required=True)),
        ("--start", dict(
            required=True,
            help="the window's first cell, one coordinate per axis, comma-separated; "
            "a negative first coordinate needs the = form: --start=-3,1,2",
        )),
        ("--len", dict(required=True, help="its positive length on each axis, comma-separated")),
    ]),
    "parse": ("parse an aligned window into level words", cmd_parse, [
        ("--family", dict(required=True)),
        ("--level", dict(type=int, required=True)),
        ("--start", dict(type=int, required=True)),
        ("--blocks", dict(type=int, required=True)),
    ]),
    "measure": ("empirical cylinder frequencies", cmd_measure, [
        ("--family", dict(required=True)),
        ("--k", dict(type=int, required=True)),
        # one-dimensional only; unset means 0,1 and side a
        ("--cylinders", dict(default=None)),
        ("--side", dict(choices=("a", "b", "both"), default=None)),
        ("--out", dict(default=None)),
    ]),
    "complexity": ("distinct-factor counts of a central window", cmd_complexity, [
        ("--family", dict(required=True)),
        ("--n-max", dict(type=int, required=True)),
        ("--window-len", dict(type=int, required=True)),
        ("--format", dict(choices=("json", "csv"), default="json")),
        ("--out", dict(default=None)),
    ]),
    "sft": ("shift-of-finite-type arithmetic", "sft_cmd", {
        "qn": ("least-period point census", cmd_sft, [
            ("--matrix", dict(required=True)),
            ("--n", dict(type=int, required=True)),
        ]),
        "perron": ("exact rational bracket of the Perron eigenvalue", cmd_sft, [
            ("--matrix", dict(required=True)),
        ]),
        "embed": ("tower embedding feasibility", cmd_sft, [
            ("--matrix", dict(required=True)),
            ("--height", dict(type=int, required=True)),
            ("--n-max", dict(type=int, required=True)),
            ("--find-smallest", dict(type=int, default=0)),
        ]),
    }),
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The top parser and the one branch of :data:`COMMANDS` that `argv`
    names, or the whole tree when it names none (no argv, ``-h``, a typo)."""
    parser = argparse.ArgumentParser(
        prog="camshift",
        description="build, certify and probe hierarchical binary subshift families",
    )
    _add_commands(parser, "cmd", COMMANDS, argv)
    return parser


def _add_commands(parser, dest: str, commands: dict, argv):
    keywords = {}
    if argv and argv[0] in commands:
        # the usage line still lists every command; the full tree gets no
        # metavar, which would rename "cmd" in its missing-command error
        keywords["metavar"] = "{" + ",".join(commands) + "}"
        commands, argv = {argv[0]: commands[argv[0]]}, argv[1:]
    else:
        argv = ()
    sub = parser.add_subparsers(dest=dest, required=True, **keywords)
    for name, (help_text, target, options) in commands.items():
        p = sub.add_parser(name, help=help_text)
        if isinstance(options, dict):
            _add_commands(p, target, options, argv)
            continue
        for flag, option in options:
            p.add_argument(flag, **option)
        p.set_defaults(func=target)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except MalformedFamily as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CamshiftError, OSError) as exc:  # OSError: an --out the CLI cannot write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
