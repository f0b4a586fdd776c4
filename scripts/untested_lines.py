"""List every statement of `src/tfps` that no test executes.

Runs the test suite in this process under `sys.settrace` and
`threading.settrace`, records the lines that run in frames of `src/tfps`,
and prints each statement none of whose lines ran, as `path:line: source`.
Docstrings are not statements here. A compound statement (`if`, `for`,
`def`, ...) counts as run when its header runs. A `try:` line is not listed,
since its body's first statement runs exactly when it does, nor are
`global` and `nonlocal`, which compile to no code. Code that a test runs
only in a subprocess (the benchmark smoke tests) counts as not run.

Needs only the standard library and pytest, and is not part of the test
suite. Arguments go to pytest:

    python scripts/untested_lines.py                        # every test
    python scripts/untested_lines.py -k "not criterion_5"   # skip the slowest

Tracing slows the suite several times over.
"""

from __future__ import annotations

import ast
import functools
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tfps"
NO_CODE = (ast.Try, ast.Global, ast.Nonlocal)


@functools.cache
def _source_file(filename: str) -> str | None:
    """The `src/tfps` file a code object was compiled from, or None."""
    path = os.path.realpath(filename)
    return path if path.startswith(str(SRC) + os.sep) else None


def trace(executed: dict[str, set[int]]):
    """A global trace function recording into `executed` the lines run in `src/tfps` frames."""

    def local(frame, event, arg):
        if event == "line":
            executed[_source_file(frame.f_code.co_filename)].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if _source_file(frame.f_code.co_filename) else None

    return on_call


def statements(tree: ast.Module):
    """Each statement node of `tree` with the lines that, run, mean it ran."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {id(n.body[0]) for n in ast.walk(tree)
                  if isinstance(n, scopes) and ast.get_docstring(n, clean=False) is not None}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, NO_CODE) or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        last = node.body[0].lineno - 1 if isinstance(getattr(node, "body", None), list) else node.end_lineno
        yield node, range(first, max(first, last) + 1)


def untested(executed: dict[str, set[int]]) -> list[tuple[Path, int, str]]:
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines, ran = text.splitlines(), executed.get(str(path.resolve()), set())
        for node, span in statements(ast.parse(text)):
            if not ran.intersection(span):
                found.append((path.relative_to(ROOT), node.lineno, lines[node.lineno - 1].strip()))
    return sorted(found, key=lambda f: (str(f[0]), f[1]))


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    executed: dict[str, set[int]] = defaultdict(set)
    tracer = trace(executed)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    found = untested(executed)
    for path, line, source in found:
        print(f"{path}:{line}: {source}")
    print(f"{len(found)} statements of {SRC.relative_to(ROOT)} run in no test (pytest exit {int(code)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
