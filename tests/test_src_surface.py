"""Every public function, class and method in ``src/ppcf`` has a caller outside the tests,
and every name a module of ``src/ppcf`` imports is used in that module.

A name counts as used when it appears in code under ``src/`` or ``perfbench/``
as a name, an attribute or an imported alias; docstrings and comments do not
count, and neither do the tests.  Code that only tests call
belongs in the tests.
"""

import ast
import importlib.util
from pathlib import Path

import numpy as np

import ppcf.inference
from ppcf.fields import make_window
from ppcf.model import build_quadrature
from ppcf.process import PointPattern

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ppcf"
CALLER_DIRS = ("src", "perfbench")

# public names kept without a production caller, each with its reason
ALLOWED = {}


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


def _unused_imports(tree):
    """Names bound by the module-level imports of ``tree`` that its code never reads."""
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_every_import_is_used():
    unused = sorted(f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
                    for name in _unused_imports(ast.parse(path.read_text())))
    assert unused == [], "imported but never used: " + ", ".join(unused)


def test_unused_import_guard_catches_an_unused_import():
    tree = ast.parse("import math\nfrom os import path as p, sep\nimport numpy.linalg\n"
                     "print(p, numpy)\n")
    assert _unused_imports(tree) == {"math", "sep"}


def test_allow_list_is_current():
    definitions = _public_definitions()
    used = _used_names()
    for qualified in ALLOWED:
        assert qualified in definitions, f"{qualified} is gone; drop it from ALLOWED"
        assert definitions[qualified] not in used, f"{qualified} has a caller now"


def _load_spans():
    """perfbench's tracer module, loaded by path."""
    loader = importlib.util.spec_from_file_location("perfbench_spans",
                                                    ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    return spans


def test_benchmark_tracer_installs_and_uninstalls():
    # perfbench/spans.py wraps functions and methods by name; a name it pins that
    # src/ppcf no longer defines breaks every traced benchmark run
    spans = _load_spans()
    tracer = spans.Tracer()
    patched = spans.install(tracer)       # KeyError where a wrapped method is gone
    spans.uninstall(tracer, patched)
    assert patched and all(getattr(owner, attr) is fn for owner, attr, fn in patched)


def test_benchmark_tracer_observes_pcf_correction_of_several_models():
    # the tracer's observer reads the third positional argument of pcf_correction
    # as a PcfModel; a signature it cannot read breaks every traced benchmark run
    spans = _load_spans()
    window = make_window(0.0, 0.0, 1.0, 1.0)
    quad = build_quadrature(PointPattern(window, np.array([[0.3, 0.4], [0.7, 0.2]])), 8)
    a = np.ones((quad.m(), 2))
    poisson = ppcf.inference.PcfModel()
    lgcp = ppcf.inference.PcfModel(sigma2=0.5, phi=0.05)
    tracer = spans.Tracer()
    patched = spans.install(tracer)
    try:
        for models in ((poisson, lgcp), (lgcp, poisson)):
            tracer.reset()
            corrs = ppcf.inference.pcf_correction(quad, a, *models)
            assert len(corrs) == 2
            assert tracer.calls["inference.pcf_correction"] == 1
    finally:
        spans.uninstall(tracer, patched)
