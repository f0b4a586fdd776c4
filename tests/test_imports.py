"""Module boundaries: no module of the package imports another module's
private (underscore) names."""

import ast
from pathlib import Path

import tfps

SRC = Path(tfps.__file__).parent


def private_imports(path: Path) -> list[str]:
    """`from .x import _name` (or `from tfps.x import _name`) lines of one file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "tfps":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno}: from {'.' * node.level}{module} import {alias.name}")
    return found


def test_no_private_cross_module_imports():
    found = [line for path in sorted(SRC.glob("*.py")) for line in private_imports(path)]
    assert not found, "private names imported across modules:\n" + "\n".join(found)


def test_detects_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .trainer import Checkpoint, _stack\nfrom . import _helpers\n")
    assert [line.split(": ", 1)[1] for line in private_imports(probe)] == [
        "from .trainer import _stack",
        "from . import _helpers",
    ]
