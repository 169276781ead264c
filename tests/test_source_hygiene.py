"""Static checks of the package source that need no linter: stdlib ast only."""

import ast
import builtins
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "camshift").glob("*.py"))
# the benchmark drives the package from outside, partly by attribute name
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree):
    """(name bound in the module, line) for every import outside __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _used(tree):
    """Names the module reads, plus its __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def _defined(tree):
    """(name, line) for every function, class and method, dunder methods aside."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno


def _read(tree):
    """Names the module reads: loaded names and attributes, and string
    constants (``__all__`` and attribute names passed as strings)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = _parse(path)
    used = _used(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in _imported(tree) if name not in used]
    assert not unused, unused


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom .errors import A, B\n__all__ = ['B']\n")
    used = _used(tree)
    assert [name for name, _ in _imported(tree) if name not in used] == ["os", "A"]


def test_every_definition_is_read():
    # a definition that only tests reach belongs with the tests
    read = {name for path in SOURCES + PERFBENCH for name in _read(_parse(path))}
    unread = [
        f"{path.name}:{line} {name}"
        for path in SOURCES
        for name, line in _defined(_parse(path))
        if name not in read
    ]
    assert not unread, unread


def test_the_check_sees_an_unread_definition():
    tree = ast.parse(
        "class A:\n"
        "    def __init__(self): pass\n"
        "    def m(self): pass\n"
        "    def n(self): pass\n"
        "def f(): pass\n"
        "def g(): pass\n"
        "A().n()\n"
        "TARGETS = ['g']\n"
    )
    read = set(_read(tree))
    assert [name for name, _ in _defined(tree) if name not in read] == ["f", "m"]


def _exception_classes(tree, known=frozenset()):
    """Classes the module defines on a builtin exception, on a class in
    `known`, or on one defined before them in the module."""
    found = set(known)

    def is_exception(base):
        builtin = getattr(builtins, base.id, None) if isinstance(base, ast.Name) else None
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return isinstance(base, ast.Name) and base.id in found

    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(map(is_exception, node.bases)):
            found.add(node.name)
    return found - set(known)


def _caught_by(tree, function):
    """Names in the except clauses of `function`, builtins aside."""
    caught = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            for handler in ast.walk(node):
                if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                    caught.update(
                        name.id for name in ast.walk(handler.type) if isinstance(name, ast.Name)
                    )
    return {name for name in caught if not hasattr(builtins, name)}


def _exit_code_mismatch(errors_tree, cli_tree, other_trees):
    """Error classes that cli.main does not catch, names it catches that
    errors.py does not define, and error classes defined elsewhere."""
    defined = _exception_classes(errors_tree)
    caught = _caught_by(cli_tree, "main")
    elsewhere = set().union(*(_exception_classes(tree, defined) for tree in other_trees))
    return sorted(defined ^ caught), sorted(elsewhere)


def test_every_error_type_has_an_exit_code():
    # one exception class per exit code: a new error type must choose one
    trees = {path.name: _parse(path) for path in SOURCES}
    errors, cli = trees.pop("errors.py"), trees["cli.py"]
    assert _exception_classes(errors) == {"CamshiftError", "BudgetExceeded", "MalformedFamily"}
    assert _exit_code_mismatch(errors, cli, trees.values()) == ([], [])


def test_the_check_sees_an_error_without_an_exit_code():
    errors = ast.parse(
        "class A(Exception): pass\n"
        "class B(A): pass\n"
        "class C(B): pass\n"
        "class Helper: pass\n"
    )
    cli = ast.parse(
        "def main():\n"
        "    try:\n"
        "        run()\n"
        "    except B:\n"
        "        pass\n"
        "    except (A, OSError):\n"
        "        pass\n"
        "def other():\n"
        "    try:\n"
        "        run()\n"
        "    except C:\n"
        "        pass\n"
    )
    other = ast.parse("from .errors import A\nclass D(A): pass\nclass E(ValueError): pass\n")
    assert _exit_code_mismatch(errors, cli, [other]) == (["C"], ["D", "E"])


def _rolls(tree):
    """Lines that name ``roll``: ``np.roll``, ``numpy.roll``, or a bare
    ``roll`` bound by ``from numpy import roll``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "roll":
            yield node.lineno
        elif isinstance(node, ast.Name) and node.id == "roll":
            yield node.lineno


def test_the_package_never_rolls_an_array():
    # a period is tested on the rare cells; the roll-every-residue lattice is
    # the test oracle's (tests/camzd_oracles.py), not a second production path
    rolls = [f"{path.name}:{line}" for path in SOURCES for line in _rolls(_parse(path))]
    assert not rolls, rolls


def test_the_check_sees_a_roll():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy import roll\n"
        "a = np.roll(w, 1)\n"
        "b = roll(w, 1)\n"
        "c = np.rollaxis(w, 1)\n"
    )
    assert sorted(_rolls(tree)) == [3, 4]


def _functions(tree):
    """The module-level functions and methods of a module."""
    functions = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            functions += [f for f in node.body if isinstance(f, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            functions.append(node)
    return functions


def _readers(tree, attrs):
    """Sorted (attribute, function) pairs: each attribute in ``attrs`` that
    is read, with the module-level function or method whose body (nested
    functions included) reads it."""
    return sorted(
        {
            (node.attr, function.name)
            for function in _functions(tree)
            for node in ast.walk(function)
            if isinstance(node, ast.Attribute) and node.attr in attrs
        }
    )


def test_one_junction_reader():
    # the compressed counter reads every junction (a seam c c, a short run
    # c^r, a run boundary) in SlpBuilder._across, on block names or on a
    # text; a new counting regime extends it rather than adding a reader
    attrs = {"_naive", "_name_count"}
    readers = [(path.name, *pair) for path in SOURCES for pair in _readers(_parse(path), attrs)]
    assert readers == [("slp.py", "_naive", "_across"), ("slp.py", "_name_count", "_across")]


def test_the_check_sees_a_second_reader():
    tree = ast.parse(
        "class B:\n"
        "    def _across(self):\n"
        "        return self._naive() + self._name_count()\n"
        "    def _seam(self):\n"
        "        def inner():\n"
        "            return self._naive()\n"
        "        return inner()\n"
        "def f(b):\n"
        "    return b._name_count\n"
        "def g(b):\n"
        "    return b._naive_text() + _naive()\n"
    )
    assert _readers(tree, {"_naive", "_name_count"}) == [
        ("_naive", "_across"),
        ("_naive", "_seam"),
        ("_name_count", "_across"),
        ("_name_count", "f"),
    ]


def _name_readers(tree, name):
    """Sorted names of the module-level functions and methods whose body
    (nested functions included) reads ``name``, bare or as an attribute."""
    return sorted(
        {
            function.name
            for function in _functions(tree)
            for node in ast.walk(function)
            if (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
        }
    )


def _definer(trees, name):
    """The stem of the one module in ``trees`` (stem -> tree) that defines
    the function ``name`` at module level."""
    stems = [
        stem
        for stem, tree in trees.items()
        if any(isinstance(node, ast.FunctionDef) and node.name == name for node in tree.body)
    ]
    assert len(stems) == 1, f"{name} is defined in {stems}"
    return stems[0]


def test_the_definer_is_the_one_module_that_defines_the_name():
    tree = ast.parse(
        "def f():\n"
        "    def g():\n"
        "        pass\n"
        "class C:\n"
        "    def g(self):\n"
        "        pass\n"
    )
    assert _definer({"a": tree, "b": ast.parse("x = 1\n")}, "f") == "a"
    # a nested function or a method is not a module's definition, and two are too many
    for trees, name in (({"a": tree}, "g"), ({"a": tree, "b": tree}, "f")):
        with pytest.raises(AssertionError):
            _definer(trees, name)


def test_one_packing_site():
    # factor complexity packs the deduplicated text of its windows, once; a
    # whole-text path beside it would pack again
    trees = {path.stem: _parse(path) for path in SOURCES}
    home = _definer(trees, "_packed_prefixes")
    readers = [
        (stem, reader)
        for stem, tree in trees.items()
        for reader in _name_readers(tree, "_packed_prefixes")
    ]
    assert readers == [(home, "distinct_factor_counts")]


def test_the_check_sees_a_second_packing_site():
    tree = ast.parse(
        "def distinct_factor_counts(text):\n"
        "    return _packed_prefixes(text)\n"
        "class C:\n"
        "    def whole(self, text):\n"
        "        pack = cam1d._packed_prefixes\n"
        "        return pack(text)\n"
        "def _packed_prefixes(text):\n"
        "    return _packed_prefixes_wide(text)\n"
    )
    assert _name_readers(tree, "_packed_prefixes") == ["distinct_factor_counts", "whole"]


def test_one_rotation_reader():
    # an occurrence off a block boundary reads the pattern cut at that
    # offset, built in SlpBuilder._cut; shifting a junction's block names
    # instead would read the rotation helper again, once per pattern
    readers = [
        (path.name, reader)
        for path in SOURCES
        for reader in _name_readers(_parse(path), "_shifted")
    ]
    assert readers == [("slp.py", "_cut")]


def test_the_check_sees_a_second_rotation_reader():
    tree = ast.parse(
        "class B:\n"
        "    def _cut(self, chunks, h):\n"
        "        return _shifted(chunks, h)\n"
        "    def _name_count(self, seq, rho):\n"
        "        shift = slp._shifted\n"
        "        return [shift(seq, r) for r in rho]\n"
        "def _shifted(seq, rho):\n"
        "    return _shifted_names(seq, rho)\n"
    )
    assert _name_readers(tree, "_shifted") == ["_cut", "_name_count"]


CERTIFICATE_FORMULAS = ("eps_tail_rows", "frequency_row", "inherited_words", "period_gap_row")


def _certify_definers(tree):
    """Sorted names of the classes that define a ``_certify`` method."""
    return sorted(
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "_certify" for f in node.body)
    )


def test_one_certificate_for_every_dimension():
    # Hierarchy._certify assembles every certificate, and a family type
    # supplies only its counts (_tally) and its own rows (_layout,
    # _variants); a second assembly would define _certify again and read
    # the row formulas
    trees = {path.name: _parse(path) for path in SOURCES}
    readers = [
        (name, formula, reader)
        for name, tree in trees.items()
        for formula in CERTIFICATE_FORMULAS
        for reader in _name_readers(tree, formula)
    ]
    assert readers == [("hierarchy.py", f, "_certify") for f in CERTIFICATE_FORMULAS]
    definers = [(name, cls) for name, tree in trees.items() for cls in _certify_definers(tree)]
    assert definers == [("hierarchy.py", "Hierarchy")]


def test_the_check_sees_a_second_certificate():
    tree = ast.parse(
        "class Hierarchy:\n"
        "    def _certify(self, k, n):\n"
        "        return frequency_row(k, n)\n"
        "class ZdFamily(Hierarchy):\n"
        "    def _tally(self, k, n):\n"
        "        return k\n"
        "    def _certify(self, k, n):\n"
        "        return hierarchy.period_gap_row(k, n)\n"
        "def f():\n"
        "    class Local:\n"
        "        def _certify(self):\n"
        "            return None\n"
        "    return Local\n"
    )
    assert _certify_definers(tree) == ["Hierarchy", "Local", "ZdFamily"]
    assert _name_readers(tree, "period_gap_row") == ["_certify"]


def test_sft_decides_nothing_by_a_sturm_count():
    # every eigenvalue question in sft is a sign test of one shifted
    # polynomial, and the parameter solver's module reads no Sturm count either
    trees = {path.stem: _parse(path) for path in SOURCES}
    solver = trees[_definer(trees, "_root_ceilings")]
    for name in ("sturm_sequence", "roots_above"):
        assert _name_readers(trees["sft"], name) == []
        assert _name_readers(solver, name) == []


STURM_CHAIN = ("sturm_sequence", "roots_above", "_pseudo_divide")


def _sturm_chain_findings(trees):
    """Sorted findings over ``trees`` (module stem -> tree): each function
    or method named in STURM_CHAIN that a module defines, nested ones
    included, and each line of the module that defines ``_root_ceilings``
    (the parameter solver's) that imports ``sft`` in any form."""
    found = {
        f"{stem} defines {name}"
        for stem, tree in trees.items()
        for name, _ in _defined(tree)
        if name in STURM_CHAIN
    }
    solver = _definer(trees, "_root_ceilings")
    for node in ast.walk(trees[solver]):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        if any(name.split(".")[-1] == "sft" for name in names):
            found.add(f"{solver}:{node.lineno} imports sft")
    return sorted(found)


def test_no_sturm_chain_in_the_package():
    # every eigenvalue question in sft is a sign test of one shifted
    # polynomial, and the root solver bisects between the roots of the
    # derivative; the Sturm chain is a test oracle (tests/sft_oracles.py)
    trees = {path.stem: _parse(path) for path in SOURCES}
    assert _sturm_chain_findings(trees) == []


def test_the_check_sees_a_sturm_chain():
    sft = ast.parse(
        "def sturm_sequence(p):\n"
        "    def _pseudo_divide(a, b):\n"
        "        return a, b\n"
        "    return [p]\n"
        "class Chain:\n"
        "    def roots_above(self, x):\n"
        "        return 0\n"
        "def sturm_count(seq):\n"
        "    return roots_above(seq, 2)\n"
    )
    solver = ast.parse(
        "from . import sft, slp\n"
        "from .sft import census\n"
        "import camshift.sft as s\n"
        "from camshift import sft\n"
        "from .slp import SlpExpr\n"
        "import itertools\n"
        "def _root_ceilings(p):\n"
        "    return set()\n"
    )
    other = ast.parse("from . import sft\n")
    assert _sturm_chain_findings({"sft": sft, "hierarchy": solver, "cli": other}) == [
        "hierarchy:1 imports sft",
        "hierarchy:2 imports sft",
        "hierarchy:3 imports sft",
        "hierarchy:4 imports sft",
        "sft defines _pseudo_divide",
        "sft defines roots_above",
        "sft defines sturm_sequence",
    ]


def _constructed_in(tree, cls):
    """Sorted scopes that call ``cls(...)``: ``Class.method`` or a
    module-level function (a nested function counts as the one it is in),
    ``Class`` for a class body, and ``<module>`` outside any of them."""
    found = set()

    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                if getattr(child.func, "id", getattr(child.func, "attr", None)) == cls:
                    found.add(scope or "<module>")
            if isinstance(child, ast.ClassDef) and not scope:
                visit(child, child.name, True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                not scope or in_class
            ):
                visit(child, f"{scope}.{child.name}" if scope else child.name, False)
            else:
                visit(child, scope, in_class)

    visit(tree, "", False)
    return sorted(found)


def test_one_word_constructor():
    # every d-dim word is a patchwork, and ZdFamily._wrap alone makes a word
    # of one (its array only under the cell budget)
    sites = [
        (path.name, scope)
        for path in SOURCES
        for scope in _constructed_in(_parse(path), "ZdWord")
    ]
    assert sites == [("camzd.py", "ZdFamily._wrap")]


def test_the_check_sees_a_second_constructor():
    tree = ast.parse(
        "class F:\n"
        "    def _wrap(self, p):\n"
        "        return ZdWord(1, None, p)\n"
        "    def _words(self):\n"
        "        def inner():\n"
        "            return camzd.ZdWord(1, None, None)\n"
        "        return inner()\n"
        "def f():\n"
        "    return ZdWordish(1) or make(ZdWord)\n"
        "ONE = ZdWord(1, None, None)\n"
    )
    assert _constructed_in(tree, "ZdWord") == ["<module>", "F._words", "F._wrap"]


FAMILY_STATE = {"dim", "eps", "budgets", "levels", "params", "certificates"}


def _family_state_writers(trees):
    """Sorted (class, method) pairs in which a family class (``Hierarchy``
    or a class that derives from it, in any of ``trees``) assigns one of
    the shared fields on ``self``."""
    classes = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    families, grown = {"Hierarchy"}, True
    while grown:
        derived = {
            c.name
            for c in classes
            for base in c.bases
            if getattr(base, "id", getattr(base, "attr", None)) in families
        }
        grown = not derived <= families
        families |= derived
    found = set()
    for cls in classes:
        if cls.name not in families:
            continue
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    targets = [t for target in node.targets for t in ast.walk(target)]
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                else:
                    continue
                if any(
                    isinstance(t, ast.Attribute)
                    and getattr(t.value, "id", None) == "self"
                    and t.attr in FAMILY_STATE
                    for t in targets
                ):
                    found.add((cls.name, method.name))
    return sorted(found)


def test_one_family_state_constructor():
    # the state every family shares is set in Hierarchy.__init__ alone; a
    # family type appends its level-1 words and keeps only its own fields
    assert _family_state_writers([_parse(path) for path in SOURCES]) == [("Hierarchy", "__init__")]


def test_the_check_sees_a_second_state_writer():
    tree = ast.parse(
        "class Hierarchy:\n"
        "    def __init__(self, dim):\n"
        "        self.dim, self.eps = dim, None\n"
        "class F(Hierarchy):\n"
        "    def __init__(self):\n"
        "        self.levels: list = []\n"
        "        self.builder = None\n"
        "    def grow(self):\n"
        "        self.params += [1]\n"
        "        self.levels.append({})\n"
        "class G(F):\n"
        "    def load(self, other):\n"
        "        (self.budgets, x) = (1, 2)\n"
        "        other.certificates = []\n"
        "class Grid:\n"
        "    def __init__(self):\n"
        "        self.dim = 2\n"
    )
    assert _family_state_writers([tree]) == [
        ("F", "__init__"),
        ("F", "grow"),
        ("G", "load"),
        ("Hierarchy", "__init__"),
    ]


def _dimension_uses(tree):
    """Sorted lines that import or name ``camzd``, or name ``dim`` (a name,
    an attribute, a keyword or a string), but for two: ``args.dim`` passed
    as the ``dim=`` keyword of a ``build_family`` call, and ``matrix.dim``."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "build_family":
            for keyword in node.keywords:
                value = keyword.value
                if keyword.arg == "dim" and getattr(value, "attr", None) == "dim":
                    if getattr(value.value, "id", None) == "args":
                        allowed |= {id(keyword), id(value)}
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "matrix":
            allowed.add(id(node))
    lines = set()
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            names = []
        if (
            any("camzd" in name for name in names)
            or isinstance(node, ast.Name) and node.id in ("dim", "camzd")
            or isinstance(node, ast.Attribute) and node.attr in ("dim", "camzd")
            or isinstance(node, ast.keyword) and node.arg == "dim"
            or isinstance(node, ast.Constant) and node.value == "dim"
        ):
            lines.add(node.lineno)
    return sorted(lines)


def test_the_cli_never_asks_for_a_dimension():
    # a command calls the family contract; the family type, picked from dim
    # by hierarchy.new_family alone, answers or refuses
    assert _dimension_uses(_parse(ROOT / "src" / "camshift" / "cli.py")) == []


def test_the_check_sees_a_dimension_use():
    tree = ast.parse(
        "from . import cam1d, camzd\n"
        "from .camzd import ZdFamily\n"
        "import camshift.camzd\n"
        "family = cam1d.build_family(levels=2, dim=args.dim)\n"
        "family = cam1d.build_family(levels=2, dim=2)\n"
        "other = cam1d.build_family(levels=2, dim=other.dim)\n"
        "if family.dim == 1:\n"
        "    pass\n"
        "n = matrix.dim * obj['dim']\n"
        "dim = 3\n"
        "camzd.window(family)\n"
        "family.window()\n"
    )
    assert _dimension_uses(tree) == [1, 2, 3, 5, 6, 7, 9, 10, 11]


MODULES = {path.stem for path in SOURCES}


def _private_reads(tree, own, modules):
    """Sorted (line, "module.name") for every ``_``-prefixed name, dunders
    aside, of a package module other than ``own`` that the tree imports by
    name (``from .m import _x``, ``from camshift.m import _x``) or reads off
    the module (``m._x`` after ``from . import m`` or ``import camshift.m
    as m``)."""

    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    def source(node):
        # the package module an import names, "" for the package, None outside it
        head, _, rest = (node.module or "").partition(".")
        if node.level:
            return node.module or ""
        return rest if head == "camshift" else None

    bound, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = source(node)
            for alias in node.names:
                if module == "" and alias.name in modules:
                    bound[alias.asname or alias.name] = alias.name
                elif module in modules - {own} and private(alias.name):
                    found.add((node.lineno, f"{module}.{alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, module = alias.name.partition(".")
                if head == "camshift" and module in modules and alias.asname:
                    bound[alias.asname] = module
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = bound.get(node.value.id)
            if module not in (None, own) and private(node.attr):
                found.add((node.lineno, f"{module}.{node.attr}"))
    return sorted(found)


def test_no_module_reads_another_modules_private_names():
    # what two modules share is public in one of them: the family contract
    # and the row formulas in hierarchy
    reads = [
        f"{path.name}:{line} {name}"
        for path in SOURCES
        for line, name in _private_reads(_parse(path), path.stem, MODULES)
    ]
    assert not reads, reads


def test_the_check_sees_a_private_read():
    tree = ast.parse(
        "from . import sft, slp as s\n"
        "from .cam1d import _row, build_family\n"
        "from camshift.sft import _roots_above, census\n"
        "from camshift import camzd\n"
        "import camshift.slp as text\n"
        "import numpy as np\n"
        "x = sft._sturm_sequence(p) + s._junction + sft.census + sft.__name__\n"
        "y = camzd._pack(a) + text._end + np._core + self._words + cli._csv\n"
        "def f(family):\n"
        "    from .camzd import _stamp_count\n"
        "    from .cli import _csv\n"
        "    return family._certify(1, 2) + _own()\n"
    )
    assert _private_reads(tree, "cli", MODULES) == [
        (2, "cam1d._row"),
        (3, "sft._roots_above"),
        (7, "sft._sturm_sequence"),
        (7, "slp._junction"),
        (8, "camzd._pack"),
        (8, "slp._end"),
        (10, "camzd._stamp_count"),
    ]


ARRAY_MODULES = {"camzd", "factors"}  # the modules that may load numpy on import
FAMILY_MODULES = ("cam1d", "camzd")


def _module_level_imports(tree):
    """(module, line) for each import that runs when the module is imported,
    that is outside any function body: the top-level name of an absolute
    import, and the package module of a relative or ``camshift`` one
    (``from . import cam1d``, ``from .cam1d import x`` and
    ``import camshift.cam1d`` all give cam1d)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # a class body runs on import, a function body only when called
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                yield (rest.partition(".")[0] if head == "camshift" and rest else head), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            head, _, rest = (node.module or "").partition(".")
            if not node.level and head != "camshift":
                yield head, node.lineno  # outside the package
                continue
            module = head if node.level else rest.partition(".")[0]
            for name in [module] if module else [alias.name for alias in node.names]:
                yield name, node.lineno
        else:
            yield from _module_level_imports(node)


def _import_findings(trees):
    """Sorted (module stem, line, imported) for each import on module load
    of ``numpy`` outside ARRAY_MODULES, and of a family module by any other
    module, the other family module included."""
    return sorted(
        (stem, line, module)
        for stem, tree in trees.items()
        for module, line in _module_level_imports(tree)
        if (module == "numpy" and stem not in ARRAY_MODULES)
        or (module in FAMILY_MODULES and module != stem)
    )


def test_no_module_loads_numpy_or_a_family_module_on_import():
    # hierarchy.new_family imports the one family module a family needs, and
    # cam1d imports factors on the first complexity profile, so a 1-d run
    # loads neither numpy nor camzd and a d-dim one neither cam1d nor slp
    assert _import_findings({path.stem: _parse(path) for path in SOURCES}) == []


def test_the_check_sees_a_module_level_import():
    cam1d = ast.parse(
        "import numpy as np\n"
        "from numpy import roll\n"
        "import camshift.camzd as z\n"
        "def f():\n"
        "    import numpy\n"
        "    from . import camzd\n"
        "    return numpy, camzd\n"
        "class C:\n"
        "    import numpy\n"
        "if True:\n"
        "    from .camzd import ZdFamily\n"
        "from . import factors, slp\n"
    )
    camzd = ast.parse("import numpy\nfrom camshift import cam1d\nfrom .hierarchy import row\n")
    cli = ast.parse(
        "from . import cam1d, hierarchy\n"
        "import numpy.linalg\n"
        "try:\n"
        "    import camshift.camzd\n"
        "except ImportError:\n"
        "    camshift = None\n"
        "from camshift.cam1d import LevelFamily\n"
    )
    factors = ast.parse("import numpy as np\nfrom .errors import BudgetExceeded\n")
    trees = {"cam1d": cam1d, "camzd": camzd, "cli": cli, "factors": factors}
    assert _import_findings(trees) == [
        ("cam1d", 1, "numpy"),
        ("cam1d", 2, "numpy"),
        ("cam1d", 3, "camzd"),
        ("cam1d", 9, "numpy"),
        ("cam1d", 11, "camzd"),
        ("camzd", 2, "cam1d"),
        ("cli", 1, "cam1d"),
        ("cli", 2, "numpy"),
        ("cli", 4, "camzd"),
        ("cli", 7, "cam1d"),
    ]
