"""Every refused input exits 2 with one ``repro <command>:`` line on stderr.

``repro.cli.main`` is the CLI's one error boundary: an
:class:`~repro.errors.InputError`, or an ``OSError`` on a path the user gave,
becomes exit 2 and a single stderr line naming the command, whichever
command met it.  The cases come from a walk of the parser, so a new command
that declares one of the inputs below is covered without an edit here.
Anything else a handler raises is a bug and must keep its traceback.
"""

import argparse
import io
import subprocess
import sys
import tarfile

import pytest

from repro import cli
from repro.cli import build_parser, main

#: Arguments each command needs besides the input under test.
REQUIRED = {
    "variation": ["--dataset", "seeds"],
    "surface": ["--sigma", "0.02"],
    "search": ["--dataset", "seeds", "--budget", "2"],
    "cache prune": ["--max-bytes", "1"],
    "cache export": ["--output", "{tmp}/out.tar.gz"],
    "registry promote": ["--dataset", "seeds", "--depth", "2"],
    "serve smoke": ["--dataset", "seeds"],
    "datasheet": ["--dataset", "seeds", "--depth", "2"],
    "cosim": ["--dataset", "seeds", "--depth", "2"],
}

#: Positional arguments of each command, with the value they get when they
#: are not the input under test.
POSITIONALS = {
    "cache import": {"archives": "{tmp}/in.tar.gz"},
    "registry show": {"name": "seeds-d2"},
}

#: Where each command keeps its state when that is not the input under test.
STATE = {"--cache-dir": "{tmp}/cache", "--registry-dir": "{tmp}/registry"}


def _a_file(tmp):
    path = tmp / "a-file"
    path.write_text("")
    return str(path)


def _malformed_json(tmp):
    path = tmp / "report.json"
    path.write_text("{")
    return str(path)


def _empty_archive(tmp):
    path = tmp / "empty.tar.gz"
    path.write_bytes(b"")
    return str(path)


def _foreign_archive(tmp):
    """A gzipped tar that holds no result-store manifest."""
    path = tmp / "foreign.tar.gz"
    with tarfile.open(path, mode="w:gz") as tar:
        info = tarfile.TarInfo("notes.txt")
        info.size = 2
        tar.addfile(info, io.BytesIO(b"hi"))
    return str(path)


def _missing(name):
    return lambda tmp: str(tmp / "missing" / name)


_ARCHIVES = {
    "missing": _missing("store.tar.gz"),
    "empty": _empty_archive,
    "foreign": _foreign_archive,
}
_OUTPUT_FILE = {"missing-dir": _missing("out"), "a-directory": str}
_BAD_NAME = {"bad-name": lambda tmp: "../x"}

#: Each refused input, by option string (or positional dest), and the
#: values it is refused with.
REFUSED = {
    "--cache-dir": {"a-file": _a_file},
    "--registry-dir": {"a-file": _a_file},
    "--from-store": {"a-file": _a_file},
    "--ppa-backend": {"missing": _missing("report.json"), "malformed": _malformed_json},
    "--json": _OUTPUT_FILE,
    "--html": _OUTPUT_FILE,
    "--output-dir": {"a-file": _a_file},
    "--emit": {"a-file": _a_file},
    "--name": _BAD_NAME,
    "name": _BAD_NAME,
    "--from-archive": _ARCHIVES,
    "archives": _ARCHIVES,
}


def _commands(parser, prefix=()):
    """Every runnable command of ``parser`` and its subparser."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield " ".join(prefix), parser
    for group in groups:
        for name, sub in group.choices.items():
            yield from _commands(sub, (*prefix, name))


def _inputs(parser):
    """The refused inputs ``parser`` declares (``--json`` switches are not paths)."""
    for action in parser._actions:
        for key in action.option_strings or [action.dest]:
            if key in REFUSED and action.nargs != 0:
                yield key


COMMANDS = dict(_commands(build_parser()))
CASES = [
    (command, key, case)
    for command, parser in COMMANDS.items()
    for key in _inputs(parser)
    for case in REFUSED[key]
]


def _argv(command, key, value, tmp):
    positionals = {**POSITIONALS.get(command, {})}
    if key in positionals:
        positionals[key] = value
    argv = [*command.split(), *positionals.values(), *REQUIRED.get(command, [])]
    options = set(COMMANDS[command]._option_string_actions)
    for flag, default in STATE.items():
        if flag in options and flag != key:
            argv += [flag, default]
    if key.startswith("--"):
        argv += [key, value]
    return [arg.format(tmp=tmp) for arg in argv]


def _tree(root):
    return sorted(str(path.relative_to(root)) for path in root.rglob("*"))


def test_the_walk_finds_every_refused_input():
    takes = {key: sorted({c for c, k, _ in CASES if k == key}) for key in REFUSED}
    assert len(takes["--cache-dir"]) == 17
    assert takes["--ppa-backend"] == [
        "datasheet", "explore", "fig4", "fig5", "search", "surface", "table1", "table2",
    ]
    assert takes["--registry-dir"] == [
        "registry list", "registry promote", "registry show", "serve smoke",
    ]
    assert takes["--json"] == ["cosim", "explore", "search", "serve smoke", "surface"]
    assert takes["--html"] == ["search", "surface"]
    assert takes["--output-dir"] == ["assemble"]
    assert takes["--emit"] == ["cosim"]
    assert takes["--name"] == ["registry promote"]
    assert takes["name"] == ["registry show"]
    assert takes["archives"] == ["cache import"]
    assert takes["--from-archive"] == takes["--from-store"] == ["assemble"]
    assert set(REQUIRED) | set(POSITIONALS) <= set(COMMANDS)


@pytest.mark.parametrize("command, key, case", CASES, ids=[" ".join(c) for c in CASES])
def test_a_refused_input_exits_2(command, key, case, tmp_path, capsys):
    value = REFUSED[key][case](tmp_path)
    before = _tree(tmp_path)
    assert main(_argv(command, key, value, tmp_path)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith(f"repro {command}: ")
    assert value in line
    assert _tree(tmp_path) == before


def test_a_file_as_cache_dir_names_it(tmp_path, capsys):
    not_a_dir = _a_file(tmp_path)
    assert main(["cache", "stats", "--cache-dir", not_a_dir]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"repro cache stats: cache_dir {not_a_dir!r} exists and is not a directory"
    ]


def test_registry_show_refuses_a_path_as_name(tmp_path, capsys):
    assert main(["registry", "show", "../x", "--registry-dir", str(tmp_path / "reg")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("repro registry show: invalid model name '../x'")


@pytest.mark.parametrize(
    "handler, argv, error",
    [("_cmd_fig3", ["fig3"], ValueError), ("_cmd_cache_stats", ["cache", "stats"], RuntimeError)],
)
def test_a_programming_error_keeps_its_traceback(monkeypatch, handler, argv, error):
    """The boundary maps named errors only; a bug propagates out of ``main``."""

    def broken(args):
        raise error("a bug, not an input")

    monkeypatch.setattr(cli, handler, broken)
    with pytest.raises(error, match="a bug"):
        main(argv)


def test_the_process_exits_2_without_a_traceback(tmp_path):
    not_a_dir = _a_file(tmp_path)
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "cache", "stats", "--cache-dir", not_a_dir],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("repro cache stats: cache_dir ")
