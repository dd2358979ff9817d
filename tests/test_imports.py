"""Every name a module under src/phonepair imports is used in that module,
and every name it defines is used somewhere.

No linter ships with the test environment, so this walks the syntax tree
itself: a name bound by ``import`` or ``from ... import`` must appear as a
name somewhere else in the module (annotations included).  A module-level
function, class or constant must be referenced outside its own definition,
in src/phonepair, tests or perfbench.
"""

import ast
import pathlib
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "phonepair"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_checker_finds_an_unused_import():
    source = "import os\nfrom json import dumps, loads as ld\nprint(ld)\n"
    assert unused_imports(source) == ["dumps (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def references(node) -> Counter:
    """Names used under ``node``: identifiers, attributes, and the dotted
    parts of string constants (perfbench names what it traces by string),
    docstrings excepted."""
    docstrings = {id(n.value) for n in ast.walk(node)
                  if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)}
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and id(n) not in docstrings):
            found.update(n.value.split("."))
    return found


def definitions(tree) -> dict:
    """{name: defining statement} for the module-level functions, classes
    and constants of a module, dunders excepted."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return {name: node for name, node in defs.items()
            if not (name.startswith("__") and name.endswith("__"))}


def dead_definitions(modules: dict, others: list) -> list[str]:
    """Names defined in ``modules`` ({name: source}) that are used neither
    outside their own definition in those modules nor in ``others``."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    total = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        total.update(references(tree))
    return sorted(f"{module}.{name} (line {node.lineno})"
                  for module, tree in trees.items()
                  for name, node in definitions(tree).items()
                  if total[name] == references(node)[name])


def test_checker_finds_dead_definitions():
    lib = ('"""Docstring naming UNUSED."""\n'
           "import os\n"
           "LIMIT = 3\n"
           "UNUSED = 4\n"
           "def walk(n):\n"
           "    return walk(n - 1) if n else LIMIT\n"
           "class Tree:\n"
           "    def grow(self):\n"
           "        return Tree()\n"
           "def traced():\n"
           "    pass\n"
           "def __getattr__(name):\n"
           "    pass\n")
    user = "lib.walk(2)\nTARGETS = {('lib', 'Box.traced'): None}\n"
    assert dead_definitions({"lib": lib}, [user]) == [
        "lib.Tree (line 7)", "lib.UNUSED (line 4)"]


def test_no_dead_definitions():
    modules = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    others = [p.read_text(encoding="utf-8")
              for folder in ("tests", "perfbench")
              for p in sorted((ROOT / folder).rglob("*.py"))]
    assert dead_definitions(modules, others) == []


ERRORS = ("ConfigError", "DataError", "ConvergenceError")


def _last_name(node):
    """``x`` of ``x`` or of ``a.b.x``; None for any other expression."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def stray_errors(sources: list) -> list[str]:
    """Exception classes other than ``ERRORS`` defined in ``sources``, and
    ``raise`` statements that name none of them.  A raise may also re-raise
    what an ``except ... as name`` caught (``raise name``,
    ``raise type(name)(...)``) or raise the class a function takes as its
    ``error`` argument, when every call passes one of ``ERRORS`` there or
    forwards its own ``error``."""
    trees = [ast.parse(s) for s in sources]
    nodes = [n for tree in trees for n in ast.walk(tree)]
    takes_error = {n.name: [a.arg for a in n.args.args].index("error")
                   for n in nodes if isinstance(n, ast.FunctionDef)
                   and "error" in [a.arg for a in n.args.args]}
    caught = {n.name for n in nodes if isinstance(n, ast.ExceptHandler)}
    found = []
    for n in nodes:
        if isinstance(n, ast.ClassDef) and n.name not in ERRORS and any(
                (_last_name(b) or "").endswith(("Error", "Exception"))
                for b in n.bases):
            found.append(f"class {n.name} (line {n.lineno})")
        elif isinstance(n, ast.Raise) and n.exc is not None:
            exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
            if (isinstance(exc, ast.Call) and _last_name(exc.func) == "type"
                    and exc.args):
                exc = exc.args[0]
            if _last_name(exc) not in (*ERRORS, *caught, "error"):
                found.append(f"raise {ast.unparse(n.exc)} (line {n.lineno})")
        elif isinstance(n, ast.Call) and _last_name(n.func) in takes_error:
            index = takes_error[_last_name(n.func)]
            passed = ([k.value for k in n.keywords if k.arg == "error"]
                      or n.args[index:index + 1])
            if not passed or _last_name(passed[0]) not in (*ERRORS, "error"):
                found.append(f"{ast.unparse(n)} (line {n.lineno})")
    return found


def test_checker_finds_stray_errors():
    lib = ("class ConfigError(ValueError):\n"
           "    pass\n"
           "class LoadError(ValueError):\n"
           "    pass\n"
           "def check(x, error):\n"
           "    if x:\n"
           "        raise error('x')\n"
           "def run():\n"
           "    check(1, ConfigError)\n"
           "    check(1, error=KeyError)\n"
           "    try:\n"
           "        raise ValueError('y')\n"
           "    except ConfigError as exc:\n"
           "        raise type(exc)(f'z: {exc}') from exc\n"
           "    except KeyError:\n"
           "        raise\n")
    assert stray_errors([lib]) == [
        "class LoadError (line 3)", "check(1, error=KeyError) (line 10)",
        "raise ValueError('y') (line 12)"]


def test_one_error_class_per_exit_code():
    """An error's class is its exit code, so ``cli.main`` catches every
    error a subcommand raises on purpose."""
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert stray_errors(sources) == []
    defined = [n.name for s in sources for n in ast.walk(ast.parse(s))
               if isinstance(n, ast.ClassDef) and n.name in ERRORS]
    assert sorted(defined) == sorted(ERRORS)
