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


def _readers(tree, attrs):
    """Sorted (attribute, function) pairs: each attribute in ``attrs`` that
    is read, with the module-level function or method whose body (nested
    functions included) reads it."""
    functions = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            functions += [f for f in node.body if isinstance(f, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            functions.append(node)
    return sorted(
        {
            (node.attr, function.name)
            for function in functions
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
