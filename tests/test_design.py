"""Design guards: properties of the source tree rather than of results."""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import galns

# names under which modules hold a GalerkinSystem
SYSTEM_NAMES = {"sys", "full_sys", "ref_sys", "ctl_sys"}


def private_system_reads(source: str) -> list:
    """(line, attribute) of every underscore attribute read from a
    GalerkinSystem held as one of SYSTEM_NAMES or as an attribute .sys."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Attribute) and node.attr.startswith("_")):
            continue
        owner = node.value
        # numbered variants (sys2, sys3) hold systems too
        if (isinstance(owner, ast.Name)
                and owner.id.rstrip("0123456789") in SYSTEM_NAMES
                or isinstance(owner, ast.Attribute) and owner.attr == "sys"):
            found.append((node.lineno, node.attr))
    return found


def test_guard_sees_private_reads():
    src = "a = sys._index\nb = self.sys._lam\nc = full_sys._f\nd = sys.lam\n"
    assert private_system_reads(src) == [(1, "_index"), (2, "_lam"), (3, "_f")]


def test_only_dynamics_reads_private_system_fields():
    package = Path(galns.__file__).parent
    reads = {path.name: private_system_reads(path.read_text())
             for path in sorted(package.glob("*.py"))
             if path.name != "dynamics.py"}
    assert {name: r for name, r in reads.items() if r} == {}


# the operator internals that tests of the operator itself may read
OPERATOR_FIELDS = {"_pi", "_pj", "_Q", "_D", "_transform"}


def test_tests_read_only_operator_internals():
    tests = Path(__file__).parent
    reads = {path.name: [r for r in private_system_reads(path.read_text())
                         if r[1] not in OPERATOR_FIELDS]
             for path in sorted(tests.glob("test_*.py"))}
    assert {name: r for name, r in reads.items() if r} == {}


# the coefficient kernel's internals: outside nonlinearity, coefficients
# are read through interaction_rows
KERNEL_NAMES = {"interaction_kernel", "mode_positions"}


def kernel_reads(source: str) -> list:
    """(line, name) of every import, name or attribute in KERNEL_NAMES;
    strings and comments, docstrings among them, do not count."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name in KERNEL_NAMES:
            found.append((node.lineno, name))
    return sorted(found)


def test_guard_sees_kernel_reads():
    src = ('"""interaction_kernel in a docstring"""\n'
           "from .nonlinearity import interaction_kernel as k\n"
           "t = nonlinearity.mode_positions(m, t)\n"
           "f = mode_positions\n"
           "# interaction_kernel in a comment\n"
           "rows = interaction_rows(p, m, 1, 1)\n")
    assert kernel_reads(src) == [(2, "interaction_kernel"),
                                 (3, "mode_positions"), (4, "mode_positions")]


def test_only_nonlinearity_reads_the_kernel():
    package = Path(galns.__file__).parent
    reads = {path.name: kernel_reads(path.read_text())
             for path in sorted(package.glob("*.py"))
             if path.name != "nonlinearity.py"}
    assert {name: r for name, r in reads.items() if r} == {}


# the benchmark's tracer (perfbench/tracer.py) replaces these attributes
TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def tracer_hooks(source: str) -> list:
    """(module, attribute path) of every wrap_function(module, "name") and
    wrap_method(module.Class, "name") call in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("wrap_function", "wrap_method")):
            continue
        owner, name = node.args[0], node.args[1].value
        path = [name]
        while isinstance(owner, ast.Attribute):
            path.insert(0, owner.attr)
            owner = owner.value
        found.append((owner.id, ".".join(path)))
    return found


def test_guard_sees_tracer_hooks():
    src = ("t.wrap_function(dynamics, \"integrate\", \"dynamics.integrate\")\n"
           "t.wrap_method(dynamics.Trajectory, \"write_csv\", \"w\",\n"
           "              after=csv_bytes)\n"
           "t.wrap(\"x\", f)\n")
    assert tracer_hooks(src) == [("dynamics", "integrate"),
                                 ("dynamics", "Trajectory.write_csv")]


def test_tracer_hooks_exist_in_galns():
    hooks = tracer_hooks(TRACER.read_text())
    assert ("cli", "main") in hooks
    missing = []
    for module, path in hooks:
        obj = importlib.import_module("galns." + module)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append("%s.%s" % (module, path))
    assert missing == []


def loaded_names(node) -> Counter:
    """How often each name is read (loaded, attribute or imported) in the
    tree under node."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rsplit(".", 1)[-1]] += 1
    return found


def public_definitions(tree):
    """(qualified name, node) of every public top-level function, class and
    assignment, and of every public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            names = [node.target.id]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) \
                        and not sub.name.startswith("_"):
                    yield node.name + "." + sub.name, sub


def program_reads(node, modules) -> Counter:
    """loaded_names, less the attributes read on a chain rooted at one of
    modules, the names import statements bind: np.linalg.norm reads no
    galns norm."""
    found = loaded_names(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            root = sub.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found[sub.attr] -= 1
    return found


def uncalled_names(sources: dict, hooks) -> list:
    """module.name of every public definition in sources (module -> source
    text) that no code outside its own definition reads, other than as an
    attribute of an imported module, and that no hook (module, attribute
    path) names."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    modules = {module: {alias.asname or alias.name.split(".")[0]
                        for sub in ast.walk(tree)
                        if isinstance(sub, ast.Import) for alias in sub.names}
               for module, tree in trees.items()}
    reads = sum((program_reads(tree, modules[module])
                 for module, tree in trees.items()), Counter())
    found = []
    for module, tree in trees.items():
        for name, node in public_definitions(tree):
            attr = name.rsplit(".", 1)[-1]
            if reads[attr] - program_reads(node, modules[module])[attr] <= 0 \
                    and (module, name) not in hooks:
                found.append("%s.%s" % (module, name))
    return found


def test_guard_sees_uncalled_names():
    sources = {
        "a": "LIMIT = 3\n"
             "def used(x):\n    return used(x - 1) if x else LIMIT\n"
             "def hooked():\n    pass\n"
             "class Box:\n"
             "    def open(self):\n        return self.open\n"
             "    def shut(self):\n        pass\n"
             "    def _inner(self):\n        pass\n"
             "    def norm(self):\n        pass\n",
        "b": "import numpy as np\n"
             "from .a import used\n"
             "def caller(x):\n    return Box().shut(), np.linalg.norm(x)\n",
    }
    assert uncalled_names(sources, [("a", "hooked")]) == [
        "a.Box.open", "a.Box.norm", "b.caller"]


def unread_imports(source: str) -> list:
    """(line, name) of every name an import binds that the module never
    reads; the import statements themselves are no reads."""
    tree = ast.parse(source)
    aliases = [(node.lineno, alias) for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names]
    reads = loaded_names(tree) - Counter(alias.name.rsplit(".", 1)[-1]
                                         for _, alias in aliases)
    bound = [(line, alias.asname or alias.name.split(".")[0])
             for line, alias in aliases]
    return [(line, name) for line, name in bound if reads[name] <= 0]


def test_guard_sees_unread_imports():
    src = ("import os, json\n"
           "import numpy as np\n"
           "import galns.cli\n"
           "from galns.spectral import (RectGeometry, kbar,\n"
           "                            mode_set_K as K)\n"
           "from hypothesis import strategies as st\n"
           "x = np.zeros(K(1))\n"
           "y = galns.cli.main\n"
           "def f(g: RectGeometry):\n    return os.path\n")
    assert unread_imports(src) == [(1, "json"), (4, "kbar"), (6, "st")]


def test_tests_read_every_import():
    tests = Path(__file__).parent
    found = {path.name: unread_imports(path.read_text())
             for path in sorted(tests.glob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {}


# public names that no galns code calls, each kept for its reason
UNCALLED_KEPT = {
    # oracles the tests compare against
    "nonlinearity.trilinear_b",
    # the norms criterion 4 and test_spectral.py check
    "spectral.SpectralField.norm",
    # criterion 9's relaxed-control API (ROADMAP item 8)
    "control.approximate_relaxed", "control.delta_metric",
}


def test_every_public_name_has_a_program_caller():
    # code that only tests call is a second copy of what the program runs
    package = Path(galns.__file__).parent
    sources = {path.stem: path.read_text()
               for path in sorted(package.glob("*.py"))}
    found = uncalled_names(sources, tracer_hooks(TRACER.read_text()))
    assert sorted(set(found) - UNCALLED_KEPT) == []
    assert UNCALLED_KEPT <= set(found)


# the galns modules each command loads in a fresh interpreter; None runs
# only "import galns.cli"
COMMAND_MODULES = {
    "import": (None, {"cli", "spectral"}),
    "saturate": (["saturate", "--a", "1", "--b", "2", "--target-modes", "3,3"],
                 {"cli", "spectral", "nonlinearity", "saturation"}),
    "simulate": (["simulate", "--config", "simulate.json"],
                 {"cli", "spectral", "nonlinearity", "dynamics"}),
    "oracle": (["oracle", "--config", "oracle.json"],
               {"cli", "spectral", "nonlinearity"}),
    "lierank": (["lierank", "--config", "lierank.json"],
                {"cli", "spectral", "nonlinearity", "saturation", "dynamics",
                 "lie_rank"}),
}
LOADS = """
import sys
import galns.cli
if {argv!r} is not None:
    assert galns.cli.main(["--out", "out"] + {argv!r}) == 0
print(sorted(m[6:] for m in sys.modules if m.startswith("galns.")))
print([m for m in ("scipy", "multiprocessing") if m in sys.modules])
"""


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_command_loads_only_its_modules(tmp_path, command):
    (tmp_path / "simulate.json").write_text(json.dumps(
        {"geometry": {"a": 1.0, "b": 2.0}, "nu": 1.0, "level": 2,
         "controlled_level": 1, "u0": {"1,1": 0.5}, "T": 0.01}))
    (tmp_path / "oracle.json").write_text(json.dumps(
        {"max_index": 2, "geometries": [[1.0, 2.0]]}))
    (tmp_path / "lierank.json").write_text(json.dumps(
        {"geometry": {"a": 1.0, "b": 2.0}, "nu": 1.0, "level": 2,
         "controlled_level": 1, "n_points": 1}))
    argv, modules = COMMAND_MODULES[command]
    src = str(Path(galns.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", LOADS.format(argv=argv)],
                         capture_output=True, text=True, check=True,
                         cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src))
    loaded, unwanted = out.stdout.splitlines()[-2:]
    assert loaded == str(sorted(modules))
    assert unwanted == "[]"


def test_no_module_names_process_pools_or_plotting():
    # every command runs in one process and writes no figures
    package = Path(galns.__file__).parent
    named = [path.name for path in sorted(package.glob("*.py"))
             if any(word in path.read_text()
                    for word in ("multiprocessing", "matplotlib"))]
    assert named == []
