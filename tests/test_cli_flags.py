"""CLI surface: every flag a subcommand declares is read by the function that
runs it, so no flag is accepted and then silently ignored."""

import argparse
import ast
import inspect
import textwrap

from tfps import cli

# Inert, but the benchmark's infer-analyze workload passes it, so it stays
# until the benchmark changes.
ALLOWED = {"analyze-drift.seed"}


def inert_flags(parser: argparse.ArgumentParser, commands: dict) -> list[str]:
    """`command.dest` for each declared flag its command function never reads
    as `args.<dest>`."""
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = []
    for name, sub in subparsers.choices.items():
        tree = ast.parse(textwrap.dedent(inspect.getsource(commands[name])))
        read = {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"
        }
        found += [f"{name}.{a.dest}" for a in sub._actions if a.dest != "help" and a.dest not in read]
    return found


def test_every_flag_is_read():
    inert = [flag for flag in inert_flags(cli._build_parser(), cli._COMMANDS) if flag not in ALLOWED]
    assert not inert, f"flags declared but never read: {inert}"


def test_detects_an_inert_flag():
    def cmd(args):
        return args.used

    parser = argparse.ArgumentParser()
    p = parser.add_subparsers(dest="command").add_parser("probe")
    p.add_argument("--used")
    p.add_argument("--unused")
    assert inert_flags(parser, {"probe": cmd}) == ["probe.unused"]
