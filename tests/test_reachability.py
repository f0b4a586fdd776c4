"""Reachability: every top-level function and class of the package, and every
method that is not a dunder, is referenced by the package or the benchmark
somewhere outside its own definition, so code that only tests reach does not
pile up. Tests and `__init__.py` re-exports do not count as references."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tfps"
SOURCES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + sorted(
    (ROOT / "perfbench").glob("*.py")
)
# name -> why it stays although only tests reach it
ALLOWED = {
    "regime_purity": "acceptance criterion 5 scores expert assignments against known regimes with it",
    "average_wasserstein": "acceptance criterion 7 reports the average patch drift of ETTh1 with it",
}
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def definitions(path: Path) -> list[tuple[str, ast.AST]]:
    """(qualified name, node) of each top-level function and class of one file
    and of each method of those classes whose name is not a dunder."""
    found = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            found += [
                (f"{node.name}.{item.name}", item) for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return found


def references(path: Path) -> list[tuple[str, int]]:
    """(name, line) of each name one file reads: a Name, an attribute other
    than one of `np`, and each part of a dotted string such as a trace target."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and not (
            isinstance(node.value, ast.Name) and node.value.id == "np"
        ):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and DOTTED.fullmatch(node.value):
            found += [(part, node.lineno) for part in node.value.split(".")]
    return found


def unreferenced(defined: list[Path], searched: list[Path]) -> list[str]:
    """`file: name` of each definition in `defined` that no file in `searched`
    references outside the definition's own lines."""
    refs = {path: references(path) for path in searched}
    found = []
    for path in defined:
        for qualname, node in definitions(path):
            name = qualname.rsplit(".", 1)[-1]
            reached = any(
                ref == name and not (other == path and node.lineno <= line <= node.end_lineno)
                for other, pairs in refs.items() for ref, line in pairs
            )
            if not reached:
                found.append(f"{path.name}: {qualname}")
    return found


def test_every_definition_is_reached():
    package = [p for p in SOURCES if p.parent == SRC]
    found = [
        line for line in unreferenced(package, SOURCES)
        if line.split(": ", 1)[1].rsplit(".", 1)[-1] not in ALLOWED
    ]
    assert not found, "defined but reached by no command or workload:\n" + "\n".join(found)


def test_detects_an_unreached_definition(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "def used(x):\n"
        "    return np.clip(x, 0, 1)\n"
        "def clip(x):\n"  # np.clip is not a reference to it
        "    return x\n"
        "def recursive(n):\n"  # only its own body calls it
        "    return recursive(n - 1) if n else 0\n"
        "def traced():\n"
        "    pass\n"
        "TARGETS = ('probe.traced', 'unused_by_string')\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.kept()\n"
        "    def kept(self):\n"
        "        return used(1)\n"
        "    def dropped(self):\n"
        "        return Box()\n"
        "def unused_by_string():\n"
        "    pass\n"
        "Box()\n"
    )
    assert unreferenced([probe], [probe]) == [
        "probe.py: clip",
        "probe.py: recursive",
        "probe.py: Box.dropped",
        "probe.py: unused_by_string",
    ]
