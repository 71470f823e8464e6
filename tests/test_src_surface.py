"""Every public function, class and method in ``src/ppcf`` has a caller outside the tests.

A name counts as used when it appears in code under ``src/``, ``scripts/`` or
``perfbench/`` as a name, an attribute or an imported alias; docstrings and
comments do not count, and neither do the tests.  Code that only tests call
belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ppcf"
CALLER_DIRS = ("src", "scripts", "perfbench")

# public names kept without a production caller, each with its reason
ALLOWED = {
    "model.general_model": "the paper's general link lambda = Psi[tau, eta], "
                           "the constructor of every non-log-linear model",
    "nuisance.NuisanceFit.objective": "the documented per-z kernel criterion the "
                                      "curve maximizes, the reference its tests check against",
}


def _public_definitions():
    """{qualified name: bare name} of public top-level functions, classes and methods."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            out[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        out[f"{module}.{node.name}.{item.name}"] = item.name
    return out


def _used_names():
    used = set()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.update(filter(None, (node.name.split(".")[-1], node.asname)))
    return used


def test_every_public_name_has_a_production_caller():
    used = _used_names()
    unused = sorted(q for q, name in _public_definitions().items()
                    if name not in used and q not in ALLOWED)
    assert unused == [], "only tests use these; move them into the tests: " + ", ".join(unused)


def test_allow_list_is_current():
    definitions = _public_definitions()
    used = _used_names()
    for qualified in ALLOWED:
        assert qualified in definitions, f"{qualified} is gone; drop it from ALLOWED"
        assert definitions[qualified] not in used, f"{qualified} has a caller now"
