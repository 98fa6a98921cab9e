"""Layout rule: no fednb module imports another fednb module's private helpers."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fednb"


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
