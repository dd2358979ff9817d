"""Every name a module under src/phonepair imports is used in that module,
every name it defines is used somewhere, nothing in it imports scipy or
passes ``out=`` to a ``numpy.fft`` function or reads another module's
private name, and models.py does not branch on a variant's name.

No linter ships with the test environment, so this walks the syntax tree
itself: a name bound by ``import`` or ``from ... import`` must appear as a
name somewhere else in the module (annotations included).  A module-level
function, class or constant must be referenced outside its own definition,
in src/phonepair, tests or perfbench.  scipy is a test dependency only: no
import of it, at any depth of a module, and none at run time.
"""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys
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


def scipy_imports(source: str) -> list[str]:
    """Every ``import scipy...`` or ``from scipy... import``, nested ones
    included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"{m} (line {node.lineno})" for m in modules
                  if m == "scipy" or m.startswith("scipy.")]
    return found


def test_checker_finds_scipy_imports():
    source = ("import scipy\nimport scipyx\nfrom . import scipy_like\n"
              "def f():\n    from scipy.special import expit\n"
              "    import numpy, scipy.signal as ss\n")
    assert scipy_imports(source) == [
        "scipy (line 1)", "scipy.special (line 5)", "scipy.signal (line 6)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import(path):
    assert scipy_imports(path.read_text(encoding="utf-8")) == []


def fft_out_calls(source: str) -> list[str]:
    """Calls of a ``numpy.fft`` function (``np.fft.f``, ``numpy.fft.f``,
    ``fft.f``, or a name imported from ``numpy.fft``) that pass ``out=``.
    That argument needs numpy 2.0, and pyproject.toml allows numpy 1.24."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom) and n.module == "numpy.fft"
                for alias in n.names}
    found = []
    for n in ast.walk(tree):
        if not (isinstance(n, ast.Call)
                and any(k.arg == "out" for k in n.keywords)):
            continue
        func = n.func
        if ((isinstance(func, ast.Attribute)
             and _last_name(func.value) == "fft")
                or (isinstance(func, ast.Name) and func.id in imported)):
            found.append(f"{ast.unparse(func)} (line {n.lineno})")
    return found


def test_checker_finds_fft_calls_with_out():
    source = ("import numpy as np\n"
              "from numpy.fft import irfft as inv, rfftfreq\n"
              "np.fft.rfft(x, 8, out=y)\n"
              "np.fft.rfft(x, 8)\n"
              "np.add(x, 1, out=y)\n"
              "inv(x, out=y)\n"
              "rfftfreq(8)\n"
              "numpy.fft.fft(x, axis=1, out=y)\n")
    assert fft_out_calls(source) == ["np.fft.rfft (line 3)", "inv (line 6)",
                                     "numpy.fft.fft (line 8)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_fft_call_passes_out(path):
    assert fft_out_calls(path.read_text(encoding="utf-8")) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not re.fullmatch(r"__\w*__", name)


def private_reads(source: str) -> list[str]:
    """Reads of a private name, ``_x`` but no dunder, of another module:
    ``from m import _x``, and ``m._x`` or ``m.a._x`` for any name ``m`` an
    import binds.  What a module shares it names without an underscore."""
    tree = ast.parse(source)
    imported, found = set(), []
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in n.names}
        elif isinstance(n, ast.ImportFrom):
            imported |= {a.asname or a.name for a in n.names}
            module = "." * n.level + (n.module or "")
            found += [f"from {module} import {a.name} (line {n.lineno})"
                      for a in n.names if _private(a.name)]
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and _private(n.attr):
            root = n.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                found.append(f"{ast.unparse(n)} (line {n.lineno})")
    return found


def test_checker_finds_private_reads():
    source = ("import numpy as np\n"
              "from . import dsp\n"
              "from .models import _fit, fit\n"
              "from .dataio import __version__\n"
              "class Split:\n"
              "    def size(self):\n"
              "        return self._n + dsp.CHUNK + len(dsp.__name__)\n"
              "x = dsp._CHUNK + np.lib._core.size\n")
    assert private_reads(source) == [
        "from .models import _fit (line 3)", "dsp._CHUNK (line 8)",
        "np.lib._core (line 8)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_of_another_module(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []


# One child process imports phonepair.cli, then runs each command; it prints
# the scipy modules loaded after the import and after each command.
NO_SCIPY_RUN = """
import json, os, sys
import numpy as np
from phonepair import cli, dataio
tmp = sys.argv[1]
loaded = {}

def note(step):
    loaded[step] = sorted(m for m in sys.modules
                          if m == "scipy" or m.startswith("scipy."))

def config(name, doc):
    dataio.write_json(os.path.join(tmp, name), doc)
    return os.path.join(tmp, name)

def run(command, cfg):
    code = cli.main([command, "--config", cfg, "--out",
                     os.path.join(tmp, command)])
    assert code == 0, (command, code)
    note(command)

note("import phonepair.cli")
run("synth", config("synth.json", {"recordings": [
    {"subject_id": "s01", "duration": 20, "phones": [["a", 24], ["e", 24]],
     "n_channels": 4, "fs": 1000, "seed": 3}]}))
manifest = os.path.join(tmp, "synth", "s01_production.manifest.json")
rec = dataio.load_recording(os.path.join(tmp, "synth", "s01_production.nrd"))
audio = np.random.default_rng(0).standard_normal(rec.n_samples)
ch = (dataio.ChannelInfo("MISC001", "misc", "V"),)
for name, x in (("misc", np.roll(audio, 500)), ("audio", audio)):
    dataio.save_recording(dataio.Recording(rec.sample_rate, ch, x[None, :]),
                          os.path.join(tmp, name + ".nrd"))
run("align", config("align.json", {"misc": os.path.join(tmp, "misc.nrd"),
                                   "audio": os.path.join(tmp, "audio.nrd"),
                                   "window": 1.0}))
run("preprocess", config("pre.json", {"manifests": [manifest]}))
run("report", config("rep.json", {"manifests": [manifest]}))
run("sweep-bands", config("study.json", {
    "manifests": [manifest], "models": [{"variant": "elastic_net"}],
    "cv": {"k": 3, "seed": 0}, "min_count": 20}))
print(json.dumps(loaded))
"""


def test_cli_commands_leave_out_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path)],
                         env=env, check=True, capture_output=True, text=True)
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert list(loaded) == ["import phonepair.cli", "synth", "align",
                            "preprocess", "report", "sweep-bands"]
    assert loaded == {step: [] for step in loaded}


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
    and constants of a module and the methods of its classes (named
    ``Class.method``), dunders excepted."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs.update((t.id, node) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            defs.update((f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef))
    return {name: node for name, node in defs.items()
            if not re.fullmatch(r"(.*\.)?__\w*__", name)}


def dead_definitions(modules: dict, others: list) -> list[str]:
    """Names defined in ``modules`` ({name: source}) that are used neither
    outside their own definition in those modules nor in ``others``; a
    method's uses are those of its bare name."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    total = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        total.update(references(tree))
    dead = []
    for module, tree in trees.items():
        for name, node in definitions(tree).items():
            used = name.rpartition(".")[2]
            if total[used] == references(node)[used]:
                dead.append(f"{module}.{name} (line {node.lineno})")
    return sorted(dead)


def reference_sources(root) -> list[str]:
    """The sources outside ``src`` whose uses keep a definition alive:
    perfbench's, its tests excepted.  A definition that only tests use is
    test code, and belongs in the tests."""
    return [p.read_text(encoding="utf-8")
            for p in sorted((root / "perfbench").rglob("*.py"))
            if "tests" not in p.relative_to(root).parts]


def test_checker_finds_dead_definitions(tmp_path):
    lib = ('"""Docstring naming UNUSED."""\n'
           "import os\n"
           "LIMIT = 3\n"
           "UNUSED = 4\n"
           "def walk(n):\n"
           "    return walk(n - 1) if n else LIMIT\n"
           "class Tree:\n"
           "    def grow(self):\n"
           "        return Tree()\n"
           "    def probe(self):\n"
           "        pass\n"
           "    def __len__(self):\n"
           "        return 0\n"
           "def traced():\n"
           "    pass\n"
           "def only_tested():\n"
           "    pass\n"
           "def __getattr__(name):\n"
           "    pass\n"
           "class Leaf:\n"
           "    def sprout(self):\n"
           "        return Leaf()\n")
    bench = ("lib.walk(2)\nlib.Tree().grow()\n"
             "TARGETS = {('lib', 'Box.traced'): None}\n")
    test = "lib.only_tested()\nlib.Tree().probe()\n"
    (tmp_path / "perfbench" / "tests").mkdir(parents=True)
    (tmp_path / "perfbench" / "run.py").write_text(bench)
    (tmp_path / "perfbench" / "tests" / "test_run.py").write_text(test)
    # a method and a function that only a test file uses are dead, and so
    # is a class that only its own method uses
    assert dead_definitions({"lib": lib}, reference_sources(tmp_path)) == [
        "lib.Leaf (line 20)", "lib.Leaf.sprout (line 21)",
        "lib.Tree.probe (line 10)", "lib.UNUSED (line 4)",
        "lib.only_tested (line 16)"]
    assert dead_definitions({"lib": lib}, [bench, test]) == [
        "lib.Leaf (line 20)", "lib.Leaf.sprout (line 21)",
        "lib.UNUSED (line 4)"]


def test_no_dead_definitions():
    modules = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert dead_definitions(modules, reference_sources(ROOT)) == []


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


def variant_tests(source: str) -> list[str]:
    """Comparisons of a ``.variant`` attribute with a string literal, or
    with a collection of them, outside class ``ModelSpec``.  What a variant
    does belongs in its ``train_<variant>`` and the model that returns, not
    in a branch on its name."""
    tree = ast.parse(source)
    spec = {id(n) for c in tree.body
            if isinstance(c, ast.ClassDef) and c.name == "ModelSpec"
            for n in ast.walk(c)}
    found = []
    for n in ast.walk(tree):
        if not isinstance(n, ast.Compare) or id(n) in spec:
            continue
        sides = [n.left, *n.comparators]
        if (any(isinstance(s, ast.Attribute) and s.attr == "variant"
                for s in sides)
                and any(isinstance(c, ast.Constant) and isinstance(c.value, str)
                        for s in sides for c in ast.walk(s))):
            found.append(f"{ast.unparse(n)} (line {n.lineno})")
    return found


def test_checker_finds_variant_tests():
    source = ("class ModelSpec:\n"
              "    def name(self):\n"
              "        return self.variant != 'ffn'\n"
              "def fit(spec, model):\n"
              "    if spec.variant == 'cnn':\n"
              "        pass\n"
              "    return spec.variant in ('ffn', 'cnn') or model.variant in V\n")
    assert variant_tests(source) == ["spec.variant == 'cnn' (line 5)",
                                     "spec.variant in ('ffn', 'cnn') (line 7)"]


def test_models_does_not_branch_on_a_variant_name():
    assert variant_tests((SRC / "models.py").read_text(encoding="utf-8")) == []
