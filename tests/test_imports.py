"""Module boundaries: no module of the package imports another module's
private (underscore) names or reaches them through a module attribute."""

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


def private_attributes(path: Path) -> list[str]:
    """`mod._name` reads of one file, where `mod` is a package module that
    the file imports (`from . import autodiff as ad`, `import tfps.drift`)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name.split(".")[0] == "tfps"}
        elif isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, None), (0, "tfps")):
            modules |= {a.asname or a.name for a in node.names if (SRC / f"{a.name}.py").is_file()}
    return [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and ast.unparse(node.value) in modules
    ]


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


def test_no_private_cross_module_attributes():
    found = [line for path in sorted(SRC.glob("*.py")) for line in private_attributes(path)]
    assert not found, "private names reached through module attributes:\n" + "\n".join(found)


def test_detects_a_private_attribute(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import tfps.drift\n"
        "from . import autodiff as ad\n"
        "from .autodiff import Tensor\n"
        "g = ad._unbroadcast(g, shape)\n"
        "n = tfps.drift._BLOCK_ELEMENTS + len(ad.__name__)\n"
        "u = ad.unbroadcast(g, shape)\n"
        "b = Tensor._backward\n"
    )
    assert [line.split(": ", 1)[1] for line in private_attributes(probe)] == [
        "ad._unbroadcast",
        "tfps.drift._BLOCK_ELEMENTS",
    ]
