"""Module boundaries: no module of the package imports another module's
private (underscore) names or reaches them through a module attribute, every
import sits at the top of its module, every name it binds is read, and the
module-level imports form no cycle."""

import ast
from pathlib import Path

import tfps

SRC = Path(tfps.__file__).parent
ALLOWED_FUNCTION_IMPORTS: set[str] = set()
# evaluate re-exports wasserstein_1d: perfbench/layer_trace.py counts calls through it.
ALLOWED_UNUSED_IMPORTS = {"evaluate.py: wasserstein_1d"}


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


def unused_imports(path: Path) -> list[str]:
    """Names bound by a module-level import of one file that the file never
    reads (`from __future__` imports bind nothing)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
               and getattr(node, "module", None) != "__future__"]
    return [
        f"{path.name}: {name}"
        for node in imports
        for name in (a.asname or a.name.split(".")[0] for a in node.names)
        if name not in read
    ]


def test_no_unused_imports():
    found = [line for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for line in unused_imports(path)]
    extra = [line for line in found if line not in ALLOWED_UNUSED_IMPORTS]
    assert not extra, "imported names never read:\n" + "\n".join(extra)


def test_detects_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import io\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .data import Scaler, Windows\n"
        "from . import drift\n"
        "def f(w: Windows):\n"
        "    import csv\n"
        "    return np.zeros(1), os.path.sep, csv\n"
    )
    assert unused_imports(probe) == ["probe.py: io", "probe.py: Scaler", "probe.py: drift"]


def imports_of(path: Path, roots: tuple[str, ...] = ("concurrent", "threading")) -> list[str]:
    """Imports of the top-level modules `roots` (or their names) in one file,
    by default of `concurrent.futures` or `threading`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        if any(m.split(".")[0] in roots for m in modules):
            found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_only_model_starts_threads():
    """`model.on_threads` owns every thread the package starts."""
    found = [line for path in sorted(SRC.glob("*.py")) if path.name != "model.py"
             for line in imports_of(path)]
    assert not found, "thread imports outside model.py:\n" + "\n".join(found)
    assert imports_of(SRC / "model.py")


def test_no_module_logs():
    """A command speaks through its exit code, stdout and stderr lines; the
    package writes no log records."""
    found = [line for path in sorted(SRC.glob("*.py")) for line in imports_of(path, ("logging",))]
    assert not found, "logging imports:\n" + "\n".join(found)


def test_detects_a_thread_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import threading\n"
        "import concurrent.futures as cf\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from .threading import helper\n"
        "import numpy as np\n"
    )
    assert [line.split(": ", 1)[1] for line in imports_of(probe)] == [
        "import threading",
        "import concurrent.futures as cf",
        "from concurrent.futures import ThreadPoolExecutor",
    ]


def package_imports(path: Path) -> set[str]:
    """The package modules that one file imports at module level
    (`from . import drift`, `from .data import Scaler`, `import tfps.model`)."""
    names = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["tfps" if node.level else "", node.module]))
            names += [f"{base}.{a.name}" for a in node.names]
    parts = [name.split(".") for name in names]
    return {p[1] for p in parts if p[0] == "tfps" and len(p) > 1 and (path.parent / f"{p[1]}.py").is_file()}


def import_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of `graph` as a path that ends where it starts, or None."""
    done: set[str] = set()

    def visit(node, path):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        for nxt in sorted(graph.get(node, ())):
            cycle = visit(nxt, path + [node])
            if cycle:
                return cycle
        done.add(node)
        return None

    for start in sorted(graph):
        cycle = visit(start, [])
        if cycle:
            return cycle
    return None


def test_module_imports_form_no_cycle():
    graph = {path.stem: package_imports(path) for path in sorted(SRC.glob("*.py"))}
    cycle = import_cycle(graph)
    assert cycle is None, "module-level import cycle: " + " -> ".join(cycle)


def test_detects_an_import_cycle(tmp_path):
    (tmp_path / "a.py").write_text("from .b import f\nimport numpy as np\n")
    (tmp_path / "b.py").write_text("from . import c\n")
    (tmp_path / "c.py").write_text("import tfps.a\nfrom tfps.b import g\n")
    graph = {name: package_imports(tmp_path / f"{name}.py") for name in "abc"}
    assert graph == {"a": {"b"}, "b": {"c"}, "c": {"a", "b"}}
    assert import_cycle(graph) == ["a", "b", "c", "a"]
    assert import_cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None


def test_evaluate_does_not_import_trainer():
    """trainer calls evaluate (for its validation MSE); evaluate works on a
    model and never needs a checkpoint."""
    assert "evaluate" in package_imports(SRC / "trainer.py")
    assert "trainer" not in package_imports(SRC / "evaluate.py")


def test_model_does_not_import_trainer():
    """trainer owns the training objective and calls the model. model.py never
    names trainer, so no import of it can hide there at any depth."""
    assert "model" in package_imports(SRC / "trainer.py")
    assert "trainer" not in (SRC / "model.py").read_text()
