"""The benchmark tracer's call sites still name code that exists.

``perfbench/tracing.py`` wraps module attributes by name and only notes a
name it cannot find, so a moved function silently loses its span.  These
tests read the tracer's ``SPANS`` table and ``kernel_times``' imports from
its source, without importing it, and resolve each name.  They stand in
until the benchmark traces the package without patching call sites
(ROADMAP, Direction 3).
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
TREE = ast.parse(TRACER.read_text())

#: Sites whose code has moved or gone; the tracer prints a ``no span:`` line for each.
ORPHANS = {
    "concate.hybrid.split_arms",
    "concate.hybrid.sampling_covariance",
    "concate.hybrid.bound_gradients",
    "concate.montecarlo.replication_bands",
}


def _spans():
    for node in TREE.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("tracing.py defines no SPANS table")


def test_every_span_site_resolves_apart_from_the_known_orphans():
    unresolved = {
        f"{module}.{attr}"
        for module, attr, _ in _spans()
        if not hasattr(importlib.import_module(module), attr)
    }
    assert unresolved == ORPHANS


def test_the_kernel_timer_imports_resolve():
    kernel_times = next(
        node for node in TREE.body
        if isinstance(node, ast.FunctionDef) and node.name == "kernel_times"
    )
    imports = [node for node in ast.walk(kernel_times) if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
