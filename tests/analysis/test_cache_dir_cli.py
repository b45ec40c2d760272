"""A ``--cache-dir`` that names a file is a usage error on every command.

``ResultStore`` refuses such a path with :class:`~repro.core.store.CacheDirError`,
and ``repro.cli.main`` turns it into exit 2 and one ``repro <command>:``
line on stderr, whichever command opened the store.
"""

import argparse
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

#: Arguments each command needs besides ``--cache-dir`` to reach its store.
REQUIRED = {
    "variation": ["--dataset", "seeds"],
    "surface": ["--sigma", "0.02"],
    "search": ["--dataset", "seeds", "--budget", "2"],
    "cache prune": ["--max-bytes", "1"],
    "cache export": ["--output", "{tmp}/out.tar.gz"],
    "cache import": ["{tmp}/in.tar.gz"],
    "registry promote": ["--dataset", "seeds", "--depth", "2", "--registry-dir", "{tmp}/reg"],
    "serve smoke": ["--dataset", "seeds", "--registry-dir", "{tmp}/reg"],
}


def _commands_with_a_cache_dir(parser, prefix=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands_with_a_cache_dir(sub, (*prefix, name))
        elif "--cache-dir" in action.option_strings:
            yield " ".join(prefix)


COMMANDS = sorted(_commands_with_a_cache_dir(build_parser()))


def test_seventeen_commands_take_a_cache_dir():
    assert len(COMMANDS) == 17
    assert set(REQUIRED) <= set(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_a_file_as_cache_dir_exits_2(command, tmp_path, capsys):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    extra = [arg.format(tmp=tmp_path) for arg in REQUIRED.get(command, [])]
    assert main([*command.split(), *extra, "--cache-dir", str(not_a_dir)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [
        f"repro {command}: cache_dir {str(not_a_dir)!r} exists and is not a directory"
    ]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cache"]


def test_the_process_exits_2_without_a_traceback(tmp_path):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "cache", "stats", "--cache-dir", str(not_a_dir)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("repro cache stats: cache_dir ")
