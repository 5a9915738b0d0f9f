"""Design guards: properties of the source tree rather than of results."""

import ast
from pathlib import Path

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
