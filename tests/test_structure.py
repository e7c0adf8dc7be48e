"""Structural rules of the package source, checked with ``ast``."""

import ast
from pathlib import Path

import spirallimits

ANGLE_KINDS = {"RationalAngle", "QuadraticAngle", "DecimalAngle"}
# the only top-level scopes that may test an angle's kind: parsing and the spec classes
KIND_SCOPES = {"parse_angle", "AngleSpec", *ANGLE_KINDS}
# the only module that may import scipy or run a nearest-neighbour query
NEAREST_MODULE = "chabauty_metric.py"


def kind_tests(tree):
    """(line, enclosing scopes) of each isinstance/issubclass call naming an angle kind."""
    found = []

    def visit(node, scopes):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scopes = scopes + (node.name,)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2):
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            names = {getattr(k, "id", None) or getattr(k, "attr", None) for k in kinds}
            if names & ANGLE_KINDS:
                found.append((node.lineno, scopes))
        for child in ast.iter_child_nodes(node):
            visit(child, scopes)

    visit(tree, ())
    return found


def test_angle_kind_tests_only_in_parsing_and_spec_classes():
    """Angle-kind decisions are methods or class data of the AngleSpec
    subclasses; no other code asks which kind an angle is."""
    package = Path(spirallimits.__file__).parent
    offenders = [
        f"{path.name}:{line} in {'.'.join(scopes) or '<module>'}"
        for path in sorted(package.glob("*.py"))
        for line, scopes in kind_tests(ast.parse(path.read_text()))
        if not scopes or scopes[0] not in KIND_SCOPES
    ]
    assert not offenders


def test_kind_test_detector_sees_every_form():
    code = (
        "def f(a):\n"
        "    return isinstance(a, (int, QuadraticAngle))\n"
        "class C:\n"
        "    def g(self, a):\n"
        "        return isinstance(a, nt.DecimalAngle) or isinstance(a, Surd)\n"
        "def parse_angle(a):\n"
        "    return issubclass(type(a), RationalAngle)\n"
    )
    assert kind_tests(ast.parse(code)) == [(2, ("f",)), (5, ("C", "g")), (7, ("parse_angle",))]


def nearest_neighbour_uses(tree):
    """Lines that import scipy or call a ``.query(`` method."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        if any(m.split(".")[0] == "scipy" for m in modules):
            found.append(node.lineno)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "query"):
            found.append(node.lineno)
    return sorted(found)


def test_nearest_neighbour_queries_only_in_chabauty_metric():
    """``Patch.nearest`` is the one place that decides how nearest distances
    are found; no other module imports scipy or queries a tree."""
    package = Path(spirallimits.__file__).parent
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(package.glob("*.py"))
        if path.name != NEAREST_MODULE
        for line in nearest_neighbour_uses(ast.parse(path.read_text()))
    ]
    assert not offenders
    assert nearest_neighbour_uses(ast.parse((package / NEAREST_MODULE).read_text()))


def test_nearest_neighbour_detector_sees_every_form():
    code = (
        "import scipy\n"
        "import numpy, scipy.spatial as sp\n"
        "from scipy.spatial import cKDTree\n"
        "from . import query\n"
        "def f(t, q):\n"
        "    return t.query(q, k=1), query(q), sp.cKDTree(q).query(q)\n"
    )
    assert nearest_neighbour_uses(ast.parse(code)) == [1, 2, 3, 6, 6]


def abs_square_callers(tree):
    """(line, enclosing top-level function) of each ``_iv_abs_square`` call."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_iv_abs_square"):
                found.append((node.lineno, getattr(top, "name", "<module>")))
    return found


def test_interval_distance_only_in_one_helper():
    """``spiral._iv_distances`` is the one interval distance: the window's
    boundary check and the nearest-neighbour tie-break both call it, and no
    other code squares interval coordinates."""
    source = (Path(spirallimits.__file__).parent / "spiral.py").read_text()
    callers = abs_square_callers(ast.parse(source))
    assert callers and {name for _, name in callers} == {"_iv_distances"}


def test_abs_square_detector_sees_every_form():
    code = (
        "x = _iv_abs_square(v)\n"
        "def f(a):\n"
        "    def g(b):\n"
        "        return _iv_abs_square(b)\n"
        "    return [_iv_abs_square(c) for c in a]\n"
    )
    assert abs_square_callers(ast.parse(code)) == [(1, "<module>"), (4, "f"), (5, "f")]


# calls that create or write files; in cli.py only ``main`` may make them
WRITE_CALLS = {"mkdir", "write_text", "open"}


def file_writes(tree):
    """(line, enclosing top-level function) of each mkdir, write_text or open call."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in WRITE_CALLS:
                found.append((node.lineno, getattr(top, "name", "<module>")))
    return found


def stdout_writes(tree):
    """(line, enclosing top-level function) of each ``print`` call or ``stdout`` use."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            printed = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                       and node.func.id == "print")
            if printed or (isinstance(node, ast.Attribute) and node.attr == "stdout"):
                found.append((node.lineno, getattr(top, "name", "<module>")))
    return sorted(found)


def test_cli_writes_the_run_directory_only_in_main():
    """Subcommand handlers take ``args`` alone and return their artifacts;
    ``main`` is the one commit point that creates and writes the run directory,
    and the only code that prints, so a run that fails prints no result."""
    tree = ast.parse((Path(spirallimits.__file__).parent / "cli.py").read_text())
    writes = file_writes(tree)
    assert writes and {name for _, name in writes} == {"main"}
    prints = stdout_writes(tree)
    assert prints and {name for _, name in prints} == {"main"}
    handlers = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert handlers
    for fn in handlers:
        a = fn.args
        assert [p.arg for p in a.posonlyargs + a.args] == ["args"], fn.name
        assert not (a.vararg or a.kwonlyargs or a.kwarg), fn.name


def test_file_write_detector_sees_every_form():
    code = (
        "def f(out):\n"
        "    out.mkdir(parents=True)\n"
        "    with open(out / 'a') as fh, out.open('w') as g:\n"
        "        pass\n"
        "class C:\n"
        "    def g(self, p):\n"
        "        return p.read_text(), p.write_text('x')\n"
    )
    assert file_writes(ast.parse(code)) == [(2, "f"), (3, "f"), (3, "f"), (7, "C")]


def test_stdout_write_detector_sees_every_form():
    code = (
        "import sys\n"
        "def f(text):\n"
        "    sys.stdout.write(text)\n"
        "    print(text, file=sys.stderr)\n"
        "class C:\n"
        "    def g(self, out=sys.stdout):\n"
        "        return out\n"
    )
    assert stdout_writes(ast.parse(code)) == [(3, "f"), (4, "f"), (6, "C")]
