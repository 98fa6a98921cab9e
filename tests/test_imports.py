"""Layout rules: no fednb module imports another fednb module's private helpers,
every definition is used, and every lookup point of perfbench/tracer.py exists."""

import ast
import importlib.util
from importlib import import_module
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fednb"


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "fednb"
        if internal:
            found += [
                f"{path.name}:{node.lineno} imports {alias.name} from {node.module}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


def test_no_module_imports_private_names_of_another():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    offenders = [msg for path in modules for msg in _private_imports(path)]
    assert offenders == []


# Kept although nothing in src/fednb refers to them, each for a stated reason.
UNREFERENCED_ALLOWED = {
    "joint_log_scores": "the single-row scorer that acceptance criteria 2 and 3 test against",
    "mog_log_scores_batch": "a lookup point of perfbench/tracer.py, imported by experiment.py",
}


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (
                m for m in node.body
                if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__"))
            )


def _references(tree: ast.Module):
    """(name, line) of every Name and Attribute; import aliases are not references."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_definition_is_referenced_outside_itself():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    refs = [(module, name, line) for module, tree in trees.items() for name, line in _references(tree)]
    unreferenced = []
    for module, tree in trees.items():
        for node in _definitions(tree):
            outside = [
                (m, line) for m, name, line in refs
                if name == node.name and not (m == module and node.lineno <= line <= node.end_lineno)
            ]
            if not outside and node.name not in UNREFERENCED_ALLOWED:
                unreferenced.append(f"{module}:{node.lineno} {node.name}")
    assert unreferenced == []


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize("module, attr, span", _load_tracer().WRAPS)
def test_every_tracer_lookup_point_resolves(module, attr, span):
    """A rename in src/fednb would otherwise break only `pytest perfbench`."""
    assert callable(getattr(import_module(module), attr, None)), f"{module}.{attr} ({span})"
