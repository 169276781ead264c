import argparse
import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from refusal import refused

from camshift import cli, hierarchy, sft
from camshift.budgets import Budgets, budgets_from_env

SRC = Path(__file__).resolve().parents[1] / "src"


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def family_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fam") / "family.json"
    assert run("build", "--dim", "1", "--levels", "3", "--out", str(path)) == 0
    return path


@pytest.fixture(scope="module")
def family_d2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("famd") / "family2.json"
    assert run("build", "--dim", "2", "--levels", "2", "--out", str(path)) == 0
    return path


def test_build_writes_deterministic_file(tmp_path, family_file):
    again = tmp_path / "again.json"
    assert run("build", "--dim", "1", "--levels", "3", "--out", str(again)) == 0
    assert again.read_bytes() == family_file.read_bytes()


def test_build_usage_error(tmp_path, monkeypatch, capsys):
    assert run("build", "--dim", "1", "--levels", "1", "--out", str(tmp_path / "x.json")) == 2
    capsys.readouterr()
    for budget in ("symbols=abc", "symbols=inf", "symbols=nan", "symbols=1.00000000000000001e8"):
        monkeypatch.setenv("CAMSHIFT_BUDGET", budget)
        assert run("build", "--dim", "1", "--levels", "2", "--out", str(tmp_path / "x.json")) == 2
        assert capsys.readouterr().err.startswith("error: budget value")


def test_removed_budget_key_is_a_usage_error(tmp_path, monkeypatch, capsys):
    for key in ("snippet_cap", "search_cap"):
        monkeypatch.setenv("CAMSHIFT_BUDGET", f"{key}=8")
        assert run("build", "--dim", "1", "--levels", "2", "--out", str(tmp_path / "x.json")) == 2
        assert capsys.readouterr().err == f"error: unknown budget '{key}' in CAMSHIFT_BUDGET\n"


def test_dimension_past_numpy_arrays_is_refused(tmp_path, capsys):
    # a build is a usage error (2); a family file that stores the dimension
    # stays malformed (4); neither is a traceback
    out = tmp_path / "d65.json"
    assert run("build", "--dim", "65", "--levels", "2", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and re.fullmatch(r"error: [^\n]*dimension[^\n]*65\n", captured.err)
    assert not out.exists()
    out.write_text('{"dim": 65}')
    assert run("certify", "--family", str(out)) == 4
    assert capsys.readouterr().err.startswith("error: malformed family file: ")


def test_build_undecidable_at_budget_writes_no_file(tmp_path, capsys):
    # the level-5 rows count level-4 words, which exceed the symbol budget
    out = tmp_path / "l5.json"
    assert run("build", "--dim", "1", "--levels", "5", "--out", str(out)) == 3
    assert "certification of level 5 undecidable at budget" in capsys.readouterr().err
    assert not out.exists()  # nothing partially written


def _build_level3(dim, tmp_path, capsys):
    """The captured output and the file of ``build --dim dim --levels 3``, once
    a rebuild is byte-identical and ``certify`` reproduces its certificates."""
    out, again = tmp_path / "l3.json", tmp_path / "again.json"
    assert run("build", "--dim", str(dim), "--levels", "3", "--out", str(out)) == 0
    captured = capsys.readouterr()
    assert run("build", "--dim", str(dim), "--levels", "3", "--out", str(again)) == 0
    assert again.read_bytes() == out.read_bytes()
    capsys.readouterr()
    assert run("certify", "--family", str(out)) == 0
    assert capsys.readouterr().out == cli.canonical_json(json.loads(out.read_text())["certificates"])
    return captured, out


def test_build_d2_level3(tmp_path, capsys):
    captured, out = _build_level3(2, tmp_path, capsys)
    assert "level 3: n=2087, rows=15, pass" in captured.out
    assert "level 3: binding row a-freq[m=2,u=w1_2], margin 8929/303671049840000" in captured.err
    assert json.loads(out.read_text())["params"] == ["6", "2087"]
    # the level-3 words are patchworks over the cell budget: the densities
    # are read off them, the window is sliced from them
    assert run("measure", "--family", str(out), "--k", "3") == 0
    assert "level 3: freq(1|a)=5810231/209167500" in capsys.readouterr().out
    assert run("window", "--family", str(out), "--start", "1,1", "--len", "4,4") == 0
    assert '"data":"0000000000100000"' in capsys.readouterr().out


def test_build_d3_level3(tmp_path, capsys):
    captured, out = _build_level3(3, tmp_path, capsys)
    assert "level 3: n=8539, rows=15, pass" in captured.out
    assert (
        "level 3: binding row a-freq[m=2,u=w1_2], margin 46416293/918970564675296155095296"
        in captured.err
    )
    assert json.loads(out.read_text())["params"] == ["6", "8539"]


def test_build_d4_level3(tmp_path, capsys):
    captured, out = _build_level3(4, tmp_path, capsys)
    assert "level 3: n=42142, rows=15, pass" in captured.out
    assert (
        "level 3: binding row a-freq[m=2,u=w1_2], "
        "margin 678432301843/1164503444616680060605936782899520000" in captured.err
    )
    assert json.loads(out.read_text())["params"] == ["6", "42142"]


def test_build_prints_binding_rows_on_stderr(tmp_path, family_file, capsys):
    out = tmp_path / "again.json"
    assert run("build", "--dim", "1", "--levels", "3", "--out", str(out)) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "level 2: n=8, rows=6, pass\n"
        "level 3: n=979, rows=14, pass\n"
        f"family written to {out}\n"
    )
    assert captured.err == (
        "level 2: binding row a-freq[m=1,u=w1_1], margin 1/72\n"
        "level 3: binding row a-freq[m=2,u=w2_2], margin 1/7995168\n"
    )
    assert out.read_bytes() == family_file.read_bytes()


def test_certify_round_trip_bytes(family_file, tmp_path, capsys):
    assert run("certify", "--family", str(family_file)) == 0
    recomputed = capsys.readouterr().out
    stored = json.loads(family_file.read_text())["certificates"]
    assert recomputed == cli.canonical_json(stored)


def test_certify_csv_quotes_integers(family_file, capsys):
    assert run("certify", "--family", str(family_file), "--format", "csv") == 0
    out = capsys.readouterr().out
    assert '"979"' in out and '"pass"' in out


def test_verify_summary(family_file, capsys):
    assert run("verify", "--family", str(family_file), "--level", "2") == 0
    assert "12 pairs, 0 occurrences" in capsys.readouterr().out
    assert run("verify", "--family", str(family_file), "--level", "3") == 0
    assert "30 pairs, 0 occurrences" in capsys.readouterr().out


def test_window_command(family_file, capsys):
    assert run("window", "--family", str(family_file), "--start", "1", "--len", "9") == 0
    assert capsys.readouterr().out.strip() == "011111111"
    assert run("window", "--family", str(family_file), "--start", "-8", "--len", "9") == 0
    assert capsys.readouterr().out.strip() == "011111111"


def test_window_out_of_range(family_file):
    assert run("window", "--family", str(family_file), "--start", "10000000000", "--len", "2") == 2


def test_parse_command(family_file, capsys):
    assert run("parse", "--family", str(family_file), "--level", "2", "--start", "1", "--blocks", "8") == 0
    assert "0 violations" in capsys.readouterr().out


def test_parse_refuses_level_1(family_file, capsys):
    # level 1 has no density words: every mixed pair there would read as a violation
    family = str(family_file)
    code = run("parse", "--family", family, "--level", "1", "--start", "1", "--blocks", "8")
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: level 1")


def test_measure_command(family_file, capsys):
    assert run("measure", "--family", str(family_file), "--k", "2", "--cylinders", "0,1") == 0
    out = capsys.readouterr().out
    assert "side a [0] = 1/9" in out and "side a [1] = 8/9" in out


def test_measure_cylinder_longer_than_the_base(family_file, capsys):
    # a_2 = 0 1^8: the windows of length 10 continue into the next copy
    code = run("measure", "--family", str(family_file), "--k", "2", "--cylinders", "0111111110")
    assert (code, capsys.readouterr().out) == (0, "side a [0111111110] = 1/9\n")


@pytest.mark.parametrize("cylinders", ["0,,1", "0,1,"])
def test_measure_bad_cylinder_prints_no_row(family_file, cylinders, capsys):
    # the good cylinders before the empty one print nothing either
    code = run("measure", "--family", str(family_file), "--k", "3", "--cylinders", cylinders)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: cylinder word must be nonempty\n"


def test_measure_stray_symbol_cylinder_exits_2(family_file, capsys):
    # a cylinder comes from outside the builder, so its symbols are checked
    code = run("measure", "--family", str(family_file), "--k", "3", "--cylinders", "0,012")
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: symbol must be one of ('0', '1'), got '2'\n"


def test_measure_command_d2(family_d2_file, capsys):
    assert run("measure", "--family", str(family_d2_file), "--k", "2") == 0
    assert "freq(1|a)=1/36" in capsys.readouterr().out


def test_measure_d2_out_writes_the_printed_rows(family_d2_file, tmp_path, capsys):
    out = tmp_path / "measure.json"
    assert run("measure", "--family", str(family_d2_file), "--k", "2", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert printed == "level 2: freq(1|a)=1/36 freq(0|b)=1/36 gap=17/18 gap>1/3=True\n"
    row = {"level": 2, "freq(1|a)": "1/36", "freq(0|b)": "1/36", "gap": "17/18", "gap>1/3": True}
    assert out.read_text() == cli.canonical_json([row])


@pytest.mark.parametrize(
    "option", [("--cylinders", "0,,1"), ("--cylinders", "0,1"), ("--side", "b"), ("--side", "a")]
)
def test_measure_d2_refuses_one_dimensional_options(option, family_d2_file, capsys):
    code = run("measure", "--family", str(family_d2_file), "--k", "2", *option)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    message = "--cylinders and --side are defined for one-dimensional families"
    assert captured.err == f"error: {message}\n"


def test_measure_defaults_to_side_a_and_both_symbols(family_file, capsys):
    assert run("measure", "--family", str(family_file), "--k", "2") == 0
    assert capsys.readouterr().out == "side a [0] = 1/9\nside a [1] = 8/9\n"


def test_complexity_command(family_file, capsys):
    assert run(
        "complexity", "--family", str(family_file), "--n-max", "4", "--window-len", "2000"
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["1"] == "2"


def test_complexity_csv_bytes(family_file, capsys):
    argv = ("complexity", "--family", str(family_file), "--n-max", "4", "--window-len", "2000")
    assert run(*argv, "--format", "csv") == 0
    assert capsys.readouterr().out == (
        '"n","count","window_length"\r\n"1","2","2000"\r\n"2","3","2000"\r\n'
        '"3","4","2000"\r\n"4","5","2000"\r\n'
    )


@pytest.mark.parametrize("which, size", [("d1", "0"), ("d1", "-3"), ("d2", "0,2")])
def test_window_must_be_nonempty(which, size, family_file, family_d2_file):
    # a 1-d window refuses a zero length as the d-dim one refuses a zero side
    path = family_file if which == "d1" else family_d2_file
    start = "1" if which == "d1" else "1,1"
    code, err = _run_quiet("window", "--family", str(path), "--start", start, "--len", size)
    message = "window length must be positive" if which == "d1" else "positive sides"
    assert code == 2 and err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "which, start, size",
    [("d1", "abc", "9"), ("d1", "1", "x"), ("d2", "1,x", "2,2"), ("d2", "1,1", "2,")],
)
def test_window_non_integer_exits_2(which, start, size, family_file, family_d2_file):
    path = family_file if which == "d1" else family_d2_file
    code, err = _run_quiet("window", "--family", str(path), "--start", start, "--len", size)
    assert code == 2 and err.startswith("error: --") and "must be an integer" in err


@pytest.mark.parametrize("command", ["certify", "measure", "measure-d2", "build"])
@pytest.mark.parametrize("missing", [True, False])
def test_unwritable_out_exits_2(command, missing, family_file, family_d2_file, tmp_path):
    out = tmp_path / "missing" / "out.json" if missing else ""  # "" is not stdout
    argv = {
        "certify": ("certify", "--family", str(family_file)),
        "measure": ("measure", "--family", str(family_file), "--k", "2"),
        "measure-d2": ("measure", "--family", str(family_d2_file), "--k", "2"),
        "build": ("build", "--dim", "1", "--levels", "2"),
    }[command]
    code, err = _run_quiet(*argv, "--out", str(out))
    assert code == 2 and err.startswith("error: [Errno") and repr(str(out)) in err


@pytest.mark.parametrize("k", ["1", "-5", "9"])
def test_measure_d2_level_out_of_range(family_d2_file, k):
    # as in one dimension, where empirical_measure rejects the level
    code, err = _run_quiet("measure", "--family", str(family_d2_file), "--k", k)
    assert (code, err) == (2, f"error: measure is defined for levels 2..2, got {k}\n")


@pytest.mark.parametrize("k", ["1", "-5", "4"])
def test_measure_level_out_of_range(family_file, k):
    # level 1 is built, but has no measure
    code, err = _run_quiet("measure", "--family", str(family_file), "--k", k)
    assert (code, err) == (2, f"error: measure is defined for levels 2..3, got {k}\n")


def test_window_start_help_names_the_equals_form(family_d2_file, monkeypatch, capsys):
    # argparse reads a separate "-3,1,2" as an option, not as the value of --start
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        run("window", "--help")
    assert "--start=-3,1,2" in capsys.readouterr().out
    assert run("window", "--family", str(family_d2_file), "--start=-2,1", "--len", "2,2") == 0
    assert capsys.readouterr().out == '{"data":"0000","dim":2,"sides":[2,2]}\n'


@pytest.fixture
def parsers_built(monkeypatch):
    """A list that gains one entry for each ArgumentParser built."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


@pytest.mark.parametrize(
    "command",
    [["build"], ["certify"], ["verify"], ["window"], ["parse"], ["measure"], ["complexity"]]
    + [["sft", name] for name in ("qn", "perron", "embed")],
    ids=" ".join,
)
def test_a_command_builds_only_its_own_parser(command, parsers_built, capsys):
    with pytest.raises(SystemExit):
        run(*command, "--help")
    assert len(parsers_built) == 1 + len(command)
    assert "usage: camshift " + " ".join(command) in capsys.readouterr().out


@pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["qn"], ["bogus", "sft", "qn"]])
def test_no_command_builds_the_whole_tree(argv, parsers_built, capsys):
    with pytest.raises(SystemExit):
        run(*argv)
    capsys.readouterr()
    assert len(parsers_built) == 12


def test_a_missing_command_is_named_cmd(capsys):
    # a metavar on the whole tree would name it {build,...,sft} here
    with pytest.raises(SystemExit):
        run()
    assert capsys.readouterr().err.endswith("error: the following arguments are required: cmd\n")


def test_every_call_builds_its_parser_afresh(family_file, parsers_built, capsys):
    # a cached parser would build nothing on the second call
    for _ in range(2):
        parsers_built.clear()
        assert run("window", "--family", str(family_file), "--start", "0", "--len", "4") == 0
        assert len(parsers_built) == 2
        parsers_built.clear()
        assert run("sft", "qn", "--matrix", "[[1,1],[1,0]]", "--n", "3") == 0
        assert len(parsers_built) == 3
    capsys.readouterr()


def test_the_entry_point_reads_sys_argv(monkeypatch, parsers_built, capsys):
    # the console script calls main() with no argument
    argv = ["sft", "qn", "--matrix", "[[1,1],[1,0]]", "--n", "5"]
    assert run(*argv) == 0
    expected = capsys.readouterr().out
    parsers_built.clear()
    monkeypatch.setattr(sys, "argv", ["camshift", *argv])
    assert cli.main() == 0
    assert capsys.readouterr().out == expected
    assert len(parsers_built) == 3


# each command with its required options, led by an integer option where it
# has one (certify's --level is optional)
COMMAND_OPTIONS = [
    (["build"], [("--levels", "4")]),
    (["certify"], [("--level", "2"), ("--family", "f.json")]),
    (["verify"], [("--level", "2"), ("--family", "f.json")]),
    (["window"], [("--family", "f.json"), ("--start", "0"), ("--len", "4")]),
    (["parse"], [("--level", "2"), ("--start", "0"), ("--blocks", "2"), ("--family", "f.json")]),
    (["measure"], [("--k", "2"), ("--family", "f.json")]),
    (["complexity"], [("--n-max", "4"), ("--window-len", "16"), ("--family", "f.json")]),
    (["sft", "qn"], [("--n", "3"), ("--matrix", "[[1]]")]),
    (["sft", "perron"], [("--matrix", "[[1]]")]),
    (["sft", "embed"], [("--height", "2"), ("--n-max", "8"), ("--matrix", "[[1]]")]),
]


def _flat(options, abbreviate=False):
    return [
        part
        for flag, value in options
        for part in (flag[:5] if abbreviate and len(flag) > 5 else flag, value)
    ]


def _valid_argvs():
    for command, options in COMMAND_OPTIONS:
        yield command + _flat(options)
        yield command + _flat(options, abbreviate=True)


def _usage_argvs():
    """Argument lists that argparse refuses or answers with help."""
    yield from ([], ["-h"], ["bogus"], ["sft"], ["sft", "-h"], ["sft", "bogus"])
    for command, options in COMMAND_OPTIONS:
        yield command + ["--help"]
        yield command + _flat(options[:-1])
        if options[0][1].isdigit():
            yield command + [options[0][0], "x"] + _flat(options[1:])
        yield command + _flat(options, abbreviate=True) + ["extra"]
        yield command + _flat(options) + ["extra"]


def _exit(call, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exit_:
            call(argv)
    return exit_.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", list(_usage_argvs()), ids=" ".join)
def test_usage_text_matches_the_whole_tree(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    assert _exit(cli.main, argv) == _exit(lambda a: cli.build_parser().parse_args(a), argv)


@pytest.mark.parametrize("argv", list(_valid_argvs()), ids=" ".join)
def test_one_branch_parses_as_the_whole_tree(argv):
    assert cli.build_parser(argv).parse_args(argv) == cli.build_parser().parse_args(argv)


def test_one_dimensional_runs_never_load_camzd(tmp_path):
    # the driver imports camzd only for a family of d > 1, and cam1d only for
    # d = 1; numpy is loaded by camzd and by the complexity kernel alone
    script = (
        "import contextlib, io, json, sys\n"
        "from camshift import cli\n"
        "watched = ['numpy', 'camshift.cam1d', 'camshift.camzd', 'camshift.slp']\n"
        "for batch in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes = [cli.main(argv) for argv in batch]\n"
        "    print(codes, [name for name in watched if name in sys.modules])\n"
    )
    one, two = str(tmp_path / "one.json"), str(tmp_path / "two.json")
    fib = "[[1,1],[1,0]]"
    one_dimensional = [
        [
            ["sft", "qn", "--matrix", fib, "--n", "3"],
            ["sft", "perron", "--matrix", fib],
            ["sft", "embed", "--matrix", fib, "--height", "2", "--n-max", "12"],
        ],
        [
            ["build", "--dim", "1", "--levels", "3", "--out", one],
            ["certify", "--family", one],
            ["verify", "--family", one, "--level", "3"],
            ["window", "--family", one, "--start", "-8", "--len", "9"],
            ["parse", "--family", one, "--level", "2", "--start", "1", "--blocks", "3"],
            ["measure", "--family", one, "--k", "2"],
        ],
        [["complexity", "--family", one, "--n-max", "4", "--window-len", "64"]],
    ]
    two_dimensional = [[["build", "--dim", "2", "--levels", "2", "--out", two]]]
    path = os.pathsep.join([str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script, json.dumps(batches)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            check=True,
        ).stdout.splitlines()
        for batches in (one_dimensional, two_dimensional)
    ]
    one_d = "'camshift.cam1d', 'camshift.slp'"
    assert outputs == [
        ["[0, 0, 0] []", f"[0, 0, 0, 0, 0, 0] [{one_d}]", f"[0] ['numpy', {one_d}]"],
        # and the check sees camzd and numpy once a d = 2 family is built
        ["[0] ['numpy', 'camshift.camzd']"],
    ]


# (argv after --family, exit code, stdout, stderr) on the level-2 families
# of d = 3 and 4, which only `build` reaches otherwise: each command is
# answered or refused by the family type, byte for byte
REFUSALS = [
    (("measure", "--k", "3"), 2, "", "error: measure is defined for levels 2..2, got 3\n"),
    (("measure", "--k", "2", "--side", "a"), 2, "",
     "error: --cylinders and --side are defined for one-dimensional families\n"),
    (("measure", "--k", "2", "--cylinders", "0"), 2, "",
     "error: --cylinders and --side are defined for one-dimensional families\n"),
    (("parse", "--level", "2", "--start", "1", "--blocks", "2"), 2, "",
     "error: parse is defined for one-dimensional families\n"),
    (("complexity", "--n-max", "2", "--window-len", "10"), 2, "",
     "error: complexity is defined for one-dimensional families\n"),
    (("window", "--start=-2,1", "--len", "2,2"), 2, "",
     "error: rectangle must have d starts and d positive sides\n"),
]
HIGHER_DIMENSION_RUNS = {
    3: [
        (("verify", "--level", "1"), 0,
         "2 pairs, 0 occurrences (2 scanned, 0 certified-by-inequalities)\n", ""),
        (("verify", "--level", "2"), 0,
         "12 pairs, 0 occurrences (12 scanned, 0 certified-by-inequalities)\n", ""),
        (("window", "--start", "2,2,2", "--len", "2,2,2"), 0,
         '{"data":"00000001","dim":3,"sides":[2,2,2]}\n', ""),
        (("window", "--start=-3,2,2", "--len", "2,2,2"), 0,
         '{"data":"00010000","dim":3,"sides":[2,2,2]}\n', ""),
        (("window", "--start", "6,6,6", "--len", "2,2,2"), 2, "",
         "error: rectangle [6, 7] outside built range (-6, 6]\n"),
        (("measure", "--k", "2"), 0,
         "level 2: freq(1|a)=1/216 freq(0|b)=1/216 gap=107/108 gap>1/3=True\n", ""),
    ]
    + REFUSALS,
    4: [
        (("verify", "--level", "1"), 0,
         "2 pairs, 0 occurrences (2 scanned, 0 certified-by-inequalities)\n", ""),
        (("verify", "--level", "2"), 0,
         "12 pairs, 0 occurrences (12 scanned, 0 certified-by-inequalities)\n", ""),
        (("window", "--start", "2,2,2,2", "--len", "2,2,2,2"), 0,
         '{"data":"0000000000000001","dim":4,"sides":[2,2,2,2]}\n', ""),
        (("window", "--start=-3,2,2,2", "--len", "2,2,2,2"), 0,
         '{"data":"0000000100000000","dim":4,"sides":[2,2,2,2]}\n', ""),
        (("window", "--start", "6,6,6,6", "--len", "2,2,2,2"), 2, "",
         "error: rectangle [6, 7] outside built range (-6, 6]\n"),
        (("measure", "--k", "2"), 0,
         "level 2: freq(1|a)=1/1296 freq(0|b)=1/1296 gap=647/648 gap>1/3=True\n", ""),
    ]
    + REFUSALS,
}


@pytest.mark.parametrize("dim", sorted(HIGHER_DIMENSION_RUNS))
def test_commands_on_higher_dimensions(dim, tmp_path, capsys):
    path = tmp_path / f"d{dim}.json"
    assert run("build", "--dim", str(dim), "--levels", "2", "--out", str(path)) == 0
    capsys.readouterr()
    for argv, code, out, err in HIGHER_DIMENSION_RUNS[dim]:
        assert run(argv[0], "--family", str(path), *argv[1:]) == code, argv
        assert capsys.readouterr() == (out, err), argv


def test_window_d2(family_d2_file, capsys):
    assert run("window", "--family", str(family_d2_file), "--start", "1,1", "--len", "6,6") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sides"] == [6, 6]
    assert payload["data"].count("1") == 1


def test_sft_qn(capsys):
    assert run("sft", "qn", "--matrix", "[[1,1],[1,0]]", "--n", "3") == 0
    assert json.loads(capsys.readouterr().out) == {"1": "1", "2": "2", "3": "3"}
    for matrix in ("[1,2]", '{"a":1}', "[[1.5]]", "[[true]]", '[[1,"2"],[1,0]]'):
        assert run("sft", "qn", "--matrix", matrix, "--n", "2") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: matrix")


def test_sft_qn_prints_values_past_the_digit_limit(capsys):
    # q_20700 has 4 327 digits, past CPython's default 4 300-digit str() limit
    limit = sys.get_int_max_str_digits()
    assert run("sft", "qn", "--matrix", "[[1,1],[1,0]]", "--n", "20700") == 0
    assert sys.get_int_max_str_digits() == limit  # lifted for the output only
    out = capsys.readouterr().out
    start = out.index('"20700":"') + len('"20700":"')
    value = out[start : out.index('"', start)]
    assert value.isdigit() and len(value) == 4327


def test_sft_census_length_is_held_to_the_symbols_budget(monkeypatch, capsys):
    # refused with exit 3 before any trace is drawn
    drawn = []
    traces = sft._traces
    monkeypatch.setattr(sft, "_traces", lambda rows: drawn.append(1) or traces(rows))
    monkeypatch.setenv("CAMSHIFT_BUDGET", "symbols=100")
    for argv in (("qn", "--n"), ("embed", "--height", "2", "--n-max")):
        assert run("sft", *argv[:1], "--matrix", "[[1,1],[1,0]]", *argv[1:], "100") == 0
        assert drawn and capsys.readouterr().err == ""
        drawn.clear()
        assert run("sft", *argv[:1], "--matrix", "[[1,1],[1,0]]", *argv[1:], "101") == 3
        captured = capsys.readouterr()
        assert captured.out == "" and not drawn
        assert captured.err == f"error: {argv[-1]} 101 exceeds the symbols budget 100\n"
    monkeypatch.delenv("CAMSHIFT_BUDGET")
    assert run("sft", "qn", "--matrix", "[[1]]", "--n", "100000000000") == 3
    assert capsys.readouterr().err == (
        "error: --n 100000000000 exceeds the symbols budget 1000000\n"
    )
    assert not drawn



def test_sft_find_smallest_is_held_to_the_symbols_budget(monkeypatch, capsys):
    # the search draws d * cap traces of a d x d matrix: refused with exit 3
    # before any trace is drawn
    drawn = []
    traces = sft._traces
    monkeypatch.setattr(sft, "_traces", lambda rows: drawn.append(1) or traces(rows))
    monkeypatch.setenv("CAMSHIFT_BUDGET", "symbols=100")
    argv = ("sft", "embed", "--matrix", "[[1,1],[1,0]]", "--height", "2", "--n-max", "4")
    assert run(*argv, "--find-smallest", "50") == 0
    assert drawn and json.loads(capsys.readouterr().out)["smallest_feasible_height"] == 5
    drawn.clear()
    assert run(*argv, "--find-smallest", "51") == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not drawn
    assert captured.err == "error: --find-smallest 51 (102 traces) exceeds the symbols budget 100\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
MATRICES = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d), min_size=d, max_size=d)
)


@given(value=MATRICES | JSON_VALUES, n=st.integers(-1, 6))
@settings(max_examples=200, deadline=None)
def test_sft_qn_fuzz_exit_codes(value, n):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run("sft", "qn", f"--matrix={json.dumps(value)}", f"--n={n}")
    assert code in (0, 2)
    assert (code == 2) == err.getvalue().startswith("error:")
    if n <= 0:
        assert code == 2


def _paths(obj, prefix=()):
    """Every key path into a JSON value, the root included."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _perturbed(value, draw):
    """A nearby value of the same kind: small steps keep rebuilt words small."""
    if isinstance(value, str) and value.lstrip("-").isdigit():
        n = int(value)
        return str(draw(st.sampled_from([n - 2, n - 1, n + 1, n + 2, 2 * n, -n, 0, 10**6])))
    if isinstance(value, str):
        i = draw(st.integers(0, len(value)))
        return draw(
            st.sampled_from(
                [value[:i] + value[i + 1 :], value[:i] + "2" + value[i:], value[::-1], value + "0"]
            )
        )
    if isinstance(value, bool) or not isinstance(value, int):
        return draw(JSON_VALUES)
    return draw(st.sampled_from([value - 1, value + 1, 2 * value, -value, 0]))


@st.composite
def mutated_families(draw, family):
    """A family object with one key dropped, retyped or perturbed."""
    obj = copy.deepcopy(family)
    path = draw(st.sampled_from(list(_paths(obj))[1:]))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    action = draw(st.sampled_from(["drop", "retype", "perturb"]))
    if action == "drop":
        del parent[path[-1]]
    elif action == "retype":
        parent[path[-1]] = draw(JSON_VALUES)
    else:
        parent[path[-1]] = _perturbed(parent[path[-1]], draw)
    return obj


BUDGET_VALUES = (
    st.integers(-2, 10**7).map(str)
    | st.sampled_from(["1e6", "2.5", "-0", "inf", "nan", "abc", "", "1e400", "0x10"])
)
BUDGET_STRINGS = st.lists(
    st.tuples(
        st.sampled_from(["symbols", "cells", "snippet_cap", "search_cap", "bogus"]),
        BUDGET_VALUES,
    ).map("=".join)
    | st.sampled_from(["", "cells", "=5", ",", "cells=1=2"]),
    max_size=3,
).map(",".join)


def _run_quiet(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(*argv)
    return code, err.getvalue()


# edits that int() alone would read as a valid file: a parameter string with
# an underscore, a bare string for the params array, and a first
# certificate moved to another param or level
CERTIFICATE_MUTATIONS = [(("certificates", 0, "param"), "5"), (("certificates", 0, "level"), 7)]
LOADER_MUTATIONS = {
    "d1": [(("params", 1), "9_79")] + CERTIFICATE_MUTATIONS,
    "d2": [(("params", 0), "0_6"), (("params",), "6")] + CERTIFICATE_MUTATIONS,
}


@pytest.mark.parametrize("which", ["d1", "d2"])
def test_family_file_fuzz_exit_codes(which, family_file, family_d2_file, tmp_path_factory):
    source = family_file if which == "d1" else family_d2_file
    family = json.loads(source.read_text())
    path = tmp_path_factory.mktemp("fuzz") / "family.json"

    for keys, value in LOADER_MUTATIONS[which]:
        obj = copy.deepcopy(family)
        parent = obj
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        path.write_text(json.dumps(obj))
        for argv in (
            ("verify", "--family", str(path), "--level", "2"),
            ("certify", "--family", str(path)),
        ):
            code, err = _run_quiet(*argv)
            assert code == 4 and err.startswith("error:"), (keys, value, argv, code, err)

    # one small perturbation keeps every rebuilt word small (a parameter of
    # 10^6 is refused by the cell budget), and budget values stay <= 10^7
    @given(
        obj=mutated_families(family) | st.just(family),
        budget=st.none() | BUDGET_STRINGS,
        level=st.integers(0, 4),
    )
    @settings(max_examples=40, deadline=None)
    def check(obj, budget, level):
        path.write_text(json.dumps(obj))
        env = {} if budget is None else {"CAMSHIFT_BUDGET": budget}
        with mock.patch.dict(os.environ, env):
            for argv in (
                ("verify", "--family", str(path), "--level", str(level)),
                ("certify", "--family", str(path)),
            ):
                code, err = _run_quiet(*argv)
                assert code in (0, 2, 3, 4), (argv, code, err)
                assert "Traceback" not in err
                assert (err == "") if code == 0 else (code == 2 or err.startswith("error:"))

    check()


def test_sft_perron(capsys):
    assert run("sft", "perron", "--matrix", "[[2]]") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"lower": "2/1", "upper": "2/1", "iterations": 0, "primitive": True}
    assert run("sft", "perron", "--matrix", "[[1,1],[1,0]]") == 0
    payload = json.loads(capsys.readouterr().out)
    lower, upper = Fraction(payload["lower"]), Fraction(payload["upper"])
    assert lower < (1 + 5**0.5) / 2 < upper and payload["iterations"] > 0


def test_sft_zero_matrix_is_not_irreducible():
    for argv in (
        ("perron",),
        ("embed", "--height", "1", "--n-max", "4"),
        ("embed", "--height", "1", "--n-max", "4", "--find-smallest", "8"),
    ):
        code, err = _run_quiet("sft", argv[0], "--matrix", "[[0]]", *argv[1:])
        assert code == 2 and err == "error: matrix is not irreducible\n"


def test_sft_embed(capsys):
    assert run("sft", "embed", "--matrix", "[[1,1],[1,0]]", "--height", "2", "--n-max", "8") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entropy_status"] == "pass"
    assert payload["feasible"] is False  # the n=2 tower count exceeds the target
    assert run(
        "sft", "embed", "--matrix", "[[1,1],[1,0]]", "--height", "5", "--n-max", "20",
        "--find-smallest", "8",
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is True
    assert payload["smallest_feasible_height"] == 5


@pytest.mark.parametrize(
    "argv",
    [
        ("qn", "--n", "0"),
        ("qn", "--n", "-1"),
        ("embed", "--height", "0", "--n-max", "8"),
        ("embed", "--height", "3", "--n-max", "2"),
        ("embed", "--height", "2", "--n-max", "8", "--find-smallest", "-3"),
    ],
)
def test_sft_rejects_bad_limits(argv):
    code, err = _run_quiet("sft", argv[0], "--matrix", "[[1,1],[1,0]]", *argv[1:])
    assert code == 2 and err.startswith("error:") and "Traceback" not in err


def test_malformed_family_exit_code(tmp_path, family_file):
    bad = tmp_path / "bad.json"
    for text in ('{"bad": true}', '{"dim": "x"}', '{"dim": null}'):
        bad.write_text(text)
        assert run("verify", "--family", str(bad), "--level", "2") == 4
        assert run("certify", "--family", str(bad)) == 4
    # a stored pass row whose lhs no longer passes
    obj = json.loads(family_file.read_text())
    row = next(r for r in obj["certificates"][0]["rows"] if r["id"] == "b-freq[m=1,u=w2_1]")
    row["lhs"] = {"num": "1", "den": "1"}
    bad.write_text(json.dumps(obj))
    assert run("certify", "--family", str(bad)) == 4
    # JSON numbers that int() would truncate, and bools, are not integers
    good = json.loads(family_file.read_text())
    fractional = dict(good, dim=1.9, K=3.7)
    boolean = dict(good, dim=True)
    level = copy.deepcopy(good)
    level["certificates"][1]["level"] = 2.9
    for obj in (fractional, boolean, level):
        bad.write_text(json.dumps(obj))
        assert run("verify", "--family", str(bad), "--level", "2") == 4
        assert run("certify", "--family", str(bad)) == 4
    missing = tmp_path / "missing.json"
    assert run("verify", "--family", str(missing), "--level", "2") == 4


def test_family_params_the_builder_refuses_are_malformed(tmp_path, capsys):
    # a stored parameter below the postcard margin, or too small to hold the
    # stamps, is a malformed file (exit 4), not a refused build (exit 2)
    path = tmp_path / "d2l3.json"
    assert run("build", "--dim", "2", "--levels", "3", "--out", str(path)) == 0
    good = json.loads(path.read_text())
    for params, reason in (
        (["3", "4"], "postcard margin needs e >= 2k+4 = 12, got e = 4"),
        (["6", "3"], "4 stamps need e >= 4 first-axis blocks, got e = 3"),
    ):
        path.write_text(cli.canonical_json(dict(good, params=params)))
        capsys.readouterr()
        assert run("certify", "--family", str(path)) == 4
        assert capsys.readouterr().err == f"error: malformed family file: {reason}\n"


def test_family_param_over_cell_budget(tmp_path, family_d2_file, capsys):
    # the level-2 cubes of a stored parameter are checked against the cell
    # budget before they are allocated
    obj = json.loads(family_d2_file.read_text())
    obj["params"] = ["1000000"]
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps(obj))
    assert run("verify", "--family", str(bad), "--level", "2") == 3
    assert run("certify", "--family", str(bad)) == 3
    assert "exceed the cell budget" in capsys.readouterr().err


@pytest.mark.parametrize("dim", [11, 33, 64])
def test_level2_cubes_over_the_cell_budget_are_refused_before_certifying(
    dim, tmp_path, monkeypatch, capsys
):
    # no level-2 parameter below 6 passes, and 6^d cells exceed the default
    # budget from d = 11 on, so the build refuses before any candidate
    monkeypatch.delenv("CAMSHIFT_BUDGET", raising=False)
    calls = []
    monkeypatch.setattr(hierarchy, "certify_candidate", lambda *args: calls.append(args))
    out = tmp_path / "big.json"
    assert run("build", "--dim", str(dim), "--levels", "2", "--out", str(out)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: level-2 cubes of {6**dim} cells exceed the cell budget 100000000\n"
    )
    assert calls == [] and not out.exists()


def test_d2_level3_file_form_independent_of_cell_budget(
    tmp_path, family_d2_structural3, monkeypatch, capsys
):
    # level-3 words of 22500 cells: arrays at the default budget, not at
    # cells=10000, and the file must read the same under both
    obj = hierarchy.family_to_obj(family_d2_structural3)
    obj["certificates"].append(
        hierarchy.report_to_obj(hierarchy.certify_level(family_d2_structural3, 3))
    )
    path = tmp_path / "d2l3.json"
    path.write_text(cli.canonical_json(obj))
    outputs = []
    for budget in ("", "cells=10000"):
        monkeypatch.setenv("CAMSHIFT_BUDGET", budget)
        assert run("verify", "--family", str(path), "--level", "2") == 0
        assert run("certify", "--family", str(path), "--level", "2") == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "12 pairs, 0 occurrences" in outputs[0]


def test_budget_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("CAMSHIFT_BUDGET", "cells=5e6")
    assert budgets_from_env().cells == 5_000_000
    for key in ("nope", "window"):
        monkeypatch.setenv("CAMSHIFT_BUDGET", f"cells=5e6, {key}=512")
        with refused(f"^unknown budget '{key}' in CAMSHIFT_BUDGET$"):
            budgets_from_env()
    monkeypatch.setenv("CAMSHIFT_BUDGET", "cells=-2")
    with refused("^budget cells must be positive$"):
        budgets_from_env()
    for value in ("abc", "inf", "nan", "1.5", "1.00000000000000001e8", "1e999999999"):
        monkeypatch.setenv("CAMSHIFT_BUDGET", f"cells={value}")
        with refused(f"^budget value {re.escape(repr(value))} is not an integer$"):
            budgets_from_env()
    # read before the family file is opened: a usage error (exit 2), where
    # the missing file alone would exit 4
    code, err = _run_quiet("certify", "--family", str(tmp_path / "missing.json"))
    assert (code, err) == (2, "error: budget value '1e999999999' is not an integer\n")
    # read exactly, not through a float (which gives 9007199254740992)
    monkeypatch.setenv("CAMSHIFT_BUDGET", "symbols=9007199254740993.0")
    assert budgets_from_env().symbols == 9_007_199_254_740_993


def test_budget_defaults_are_positive():
    assert Budgets().validate() == Budgets()
