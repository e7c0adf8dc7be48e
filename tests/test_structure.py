"""Structural rules of the package source, checked with ``ast``."""

import ast
from pathlib import Path

import spirallimits

ANGLE_KINDS = {"RationalAngle", "QuadraticAngle", "DecimalAngle"}
# the only top-level scopes that may test an angle's kind: parsing and the spec classes
KIND_SCOPES = {"parse_angle", "AngleSpec", *ANGLE_KINDS}


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
