"""Every float-typed CLI flag rejects ``inf``, ``-inf`` and ``nan``.

The walk covers every parser node of :func:`repro.cli.build_parser` (the
surface ``cli_parser_snapshot.json`` pins), so a flag added later is checked
without being listed here.  A non-finite number would otherwise reach a
service loop (``serve smoke --duration inf`` never ends) or a cache key
(``variation --tau inf``).
"""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser

#: ``(command path, flag)`` on which ``inf`` means "unbounded" on purpose,
#: with the reason.  There is none.  The candidate, ``explore
#: --max-accuracy-loss``, needs no infinity: accuracies lie in [0, 1], so a
#: loss of 1 already admits every design point (and so does
#: ``--max-accuracy-drop 1``), while an infinite loss would be written to the
#: ``--json`` report as ``Infinity``, which is not JSON.
UNBOUNDED_FLAGS: dict[tuple[tuple[str, ...], str], str] = {}


def _parses_a_float(convert) -> bool:
    try:
        return isinstance(convert("0.5"), float)
    except (argparse.ArgumentTypeError, ValueError):
        return False


def _float_flags(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _float_flags(sub, (*path, name))
        elif action.option_strings and action.type and _parses_a_float(action.type):
            yield path, action.option_strings[0]


FLOAT_FLAGS = sorted(_float_flags(build_parser()))

CASES = [
    (path, flag, value)
    for path, flag in FLOAT_FLAGS
    for value in ("inf", "-inf", "nan")
    if not (value == "inf" and (path, flag) in UNBOUNDED_FLAGS)
]


def test_the_walk_reaches_every_command():
    commands = {path for path, _ in FLOAT_FLAGS}
    assert {("serve", "smoke"), ("explore",), ("variation",), ("cache", "prune")} <= commands
    assert (("serve", "smoke"), "--max-wait-us") in FLOAT_FLAGS
    assert set(UNBOUNDED_FLAGS) <= set(FLOAT_FLAGS)


@pytest.mark.parametrize(
    ("path", "flag", "value"), CASES, ids=[" ".join((*p, f, v)) for p, f, v in CASES]
)
def test_non_finite_numbers_are_usage_errors(path, flag, value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args([*path, f"{flag}={value}"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "must be" in err


@pytest.mark.parametrize("flag", ["--duration", "--rate", "--max-wait-us", "--p99-slo-ms"])
def test_serve_smoke_refuses_to_run_forever(flag, capsys):
    # Parsed only: a regression would otherwise start a run that never ends.
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["serve", "smoke", "--dataset", "seeds", flag, "inf"])
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be a finite" in capsys.readouterr().err
