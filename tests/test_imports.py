"""Module boundaries: no module of the package imports another module's
private (underscore) names or reaches them through a module attribute, and
every import sits at the top of its module."""

import ast
from pathlib import Path

import tfps

SRC = Path(tfps.__file__).parent
# model.loss imports trainer.total_loss at call time to break the import cycle
# model -> trainer -> model; it goes when the model owns its loss.
ALLOWED_FUNCTION_IMPORTS = {"model.py: from .trainer import total_loss"}


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


def function_level_imports(path: Path) -> list[str]:
    """Import statements inside a function or method body of one file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted({
        f"{path.name}: {ast.unparse(node)}"
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
    })


def test_no_function_level_imports():
    found = [line for path in sorted(SRC.glob("*.py")) for line in function_level_imports(path)]
    extra = [line for line in found if line not in ALLOWED_FUNCTION_IMPORTS]
    assert not extra, "imports inside functions:\n" + "\n".join(extra)


def test_detects_a_function_level_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "def f():\n"
        "    import csv\n"
        "    def g():\n"
        "        from .data import load_csv\n"
        "class C:\n"
        "    def m(self):\n"
        "        from . import drift\n"
    )
    assert function_level_imports(probe) == [
        "probe.py: from . import drift",
        "probe.py: from .data import load_csv",
        "probe.py: import csv",
    ]
