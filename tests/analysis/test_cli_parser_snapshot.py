"""The CLI's argument surface is pinned by a committed snapshot.

``cli_parser_snapshot.json`` records every parser node of
:func:`repro.cli.build_parser` -- each action's option strings, dest,
default, nargs, choices, required flag, const and action class, plus the
node's ``set_defaults`` -- so a refactor of how the flags are declared can
never add, drop, rename or re-default one unnoticed.  Help texts and
``type`` converters are left out: they may change without changing what a
command line means.

Regenerate (only when a flag change is intended) with::

    PYTHONPATH=src python tests/analysis/test_cli_parser_snapshot.py
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

SNAPSHOT = Path(__file__).with_name("cli_parser_snapshot.json")


def _plain(value):
    """A JSON-stable spelling of an argparse attribute."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if callable(value):
        return getattr(value, "__name__", repr(value))
    return repr(value)


def parser_snapshot(parser: argparse.ArgumentParser, path: str = "") -> dict:
    """``{node path: {"defaults", "actions"}}`` for ``parser`` and its subparsers."""
    actions = []
    nodes = {}
    for action in parser._actions:
        record = {
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "default": _plain(action.default),
            "nargs": _plain(action.nargs),
            "choices": _plain(action.choices),
            "required": action.required,
            "const": _plain(action.const),
            "action": type(action).__name__,
        }
        if isinstance(action, argparse._SubParsersAction):
            record["choices"] = sorted(action.choices)
            for name, sub in action.choices.items():
                nodes.update(parser_snapshot(sub, f"{path} {name}".strip()))
        actions.append(record)
    actions.sort(key=lambda record: (record["option_strings"], record["dest"]))
    nodes[path] = {
        "defaults": {key: _plain(value) for key, value in sorted(parser._defaults.items())},
        "actions": actions,
    }
    return nodes


def test_parser_matches_the_committed_snapshot():
    from repro.cli import build_parser

    expected = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    actual = json.loads(json.dumps(parser_snapshot(build_parser())))
    assert sorted(actual) == sorted(expected), "parser nodes differ"
    for node, record in expected.items():
        assert actual[node] == record, f"parser node {node!r} differs"


if __name__ == "__main__":
    from repro.cli import build_parser

    SNAPSHOT.write_text(
        json.dumps(parser_snapshot(build_parser()), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {SNAPSHOT}")
