import contextlib
import copy
import io
import json
import os
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camshift import cam1d, camzd, cli
from camshift.budgets import Budgets, budgets_from_env
from camshift.errors import InvalidParameter


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
    for budget in ("symbols=abc", "symbols=inf", "symbols=nan"):
        monkeypatch.setenv("CAMSHIFT_BUDGET", budget)
        assert run("build", "--dim", "1", "--levels", "2", "--out", str(tmp_path / "x.json")) == 2
        assert capsys.readouterr().err.startswith("error: budget value")


def test_build_d2_level3_exceeds_budget(tmp_path, monkeypatch):
    # a certified d=2 level 3 needs far more cells than any sane budget;
    # shrink the budget so the search hits the wall quickly
    monkeypatch.setenv("CAMSHIFT_BUDGET", "cells=2000000")
    out = tmp_path / "d2l3.json"
    assert run("build", "--dim", "2", "--levels", "3", "--out", str(out)) == 3
    assert not out.exists()  # nothing partially written


def test_build_search_cap_exhaustion(tmp_path, monkeypatch, capsys):
    # level 2 first passes at n = 8; doubling tries 2, 4 and then 8
    out = tmp_path / "capped.json"
    monkeypatch.setenv("CAMSHIFT_BUDGET", "search_cap=7")
    assert run("build", "--dim", "1", "--levels", "2", "--out", str(out)) == 3
    assert "no passing parameter found up to cap 7" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.setenv("CAMSHIFT_BUDGET", "search_cap=8")
    assert run("build", "--dim", "1", "--levels", "2", "--out", str(out)) == 0
    assert "level 2: n=8, rows=6, pass" in capsys.readouterr().out


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


def test_measure_command(family_file, capsys):
    assert run("measure", "--family", str(family_file), "--k", "2", "--cylinders", "0,1") == 0
    out = capsys.readouterr().out
    assert "side a [0] = 1/9" in out and "side a [1] = 8/9" in out


def test_measure_command_d2(family_d2_file, capsys):
    assert run("measure", "--family", str(family_d2_file), "--k", "2") == 0
    assert "freq(1|a)=1/36" in capsys.readouterr().out


def test_complexity_command(family_file, capsys):
    assert run(
        "complexity", "--family", str(family_file), "--n-max", "4", "--window-len", "2000"
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["1"] == "2"


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


def test_d2_level3_file_form_independent_of_cell_budget(
    tmp_path, family_d2_structural3, monkeypatch, capsys
):
    # level-3 words of 22500 cells: arrays at the default budget, not at
    # cells=10000, and the file must read the same under both
    obj = camzd.family_to_obj_d(family_d2_structural3)
    obj["certificates"].append(
        cam1d.report_to_obj(cam1d.certify_level(family_d2_structural3, 3))
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


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("CAMSHIFT_BUDGET", "cells=5e6")
    assert budgets_from_env().cells == 5_000_000
    for key in ("nope", "window"):
        monkeypatch.setenv("CAMSHIFT_BUDGET", f"cells=5e6, {key}=512")
        with pytest.raises(InvalidParameter):
            budgets_from_env()
    for value in ("-2", "abc", "inf", "nan", "1.5"):
        monkeypatch.setenv("CAMSHIFT_BUDGET", f"cells={value}")
        with pytest.raises(InvalidParameter):
            budgets_from_env()


def test_budget_defaults_are_positive():
    assert Budgets().validate() == Budgets()
