"""Check that every "must" outcome of the docs names a collected test (stdlib only).

The verify recipe (``.claude/skills/verify/SKILL.md``) and the guides under
``docs/`` state each promised outcome as a clause with the word "must".
Every such clause carries at least one test id in backticks --
``tests/<file>.py::<test>`` or ``perfbench/tests/<file>.py::<test>`` --
after its "must" and before the next "must" of the same bullet or
paragraph.  A parametrized test may be named without its ``[...]`` suffix.
Fenced code blocks are skipped.

The check fails when an outcome has no id, or when an id is not among the
tests ``pytest --collect-only -q`` collects from the files the ids name.
Used by the docs-check step of the fast CI gate::

    python tools/check_doc_outcomes.py [DOC ...]

Exit status 0 when every outcome names a collected test, 1 otherwise (each
problem is listed as ``file:line: ...``).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The documents checked when none are named.
DEFAULT_DOCS = (
    REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    *sorted((REPO_ROOT / "docs").glob("*.md")),
)

_MUST_RE = re.compile(r"\bmust\b", re.IGNORECASE)

#: A test id in backticks.
_ID_RE = re.compile(r"`((?:perfbench/)?tests/[\w./-]+\.py::[^`\s]+)`")

#: A line that opens a new bullet or heading.
_BLOCK_START_RE = re.compile(r"\s*(?:[-*+]|\d+\.|#+)\s")


def iter_blocks(text: str):
    """Yield ``(first line number, text)`` of each bullet or paragraph.

    A block ends at a blank line, a fence, or a line that opens a new bullet
    or heading; the lines of fenced code blocks belong to no block.
    """
    block: list[str] = []
    start, in_fence = 0, False
    for line_number, line in enumerate(text.splitlines(), start=1):
        fence = line.lstrip().startswith(("```", "~~~"))
        if block and (fence or in_fence or not line.strip() or _BLOCK_START_RE.match(line)):
            yield start, "\n".join(block)
            block = []
        if fence:
            in_fence = not in_fence
            continue
        if in_fence or not line.strip():
            continue
        if not block:
            start = line_number
        block.append(line)
    if block:
        yield start, "\n".join(block)


def outcomes(text: str) -> list[tuple[int, list[str]]]:
    """``(line number, test ids)`` of every "must" clause in ``text``."""
    found = []
    for start, block in iter_blocks(text):
        musts = [match.start() for match in _MUST_RE.finditer(block)]
        for index, position in enumerate(musts):
            end = musts[index + 1] if index + 1 < len(musts) else len(block)
            ids = [m.group(1) for m in _ID_RE.finditer(block, position, end)]
            found.append((start + block.count("\n", 0, position), ids))
    return found


def is_collected(test_id: str, collected: set[str]) -> bool:
    """Whether ``test_id`` is collected, alone or as a parametrized family."""
    return test_id in collected or any(
        name.startswith(test_id + "[") for name in collected
    )


def collect(test_files: set[str]) -> set[str]:
    """The test ids ``pytest --collect-only -q`` lists for ``test_files``."""
    existing = sorted(f for f in test_files if (REPO_ROOT / f).is_file())
    if not existing:
        return set()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *existing],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
    )
    return {line for line in result.stdout.splitlines() if "::" in line}


def check(found: dict[str, list[tuple[int, list[str]]]],
          collected: set[str] | None = None) -> list[str]:
    """Problem messages for the outcomes ``found`` per document (empty when clean).

    ``collected`` defaults to what :func:`collect` lists for the named files.
    """
    if collected is None:
        collected = collect({
            test_id.split("::", 1)[0]
            for entries in found.values() for _, ids in entries for test_id in ids
        })
    problems = []
    for doc, entries in found.items():
        for line_number, ids in entries:
            if not ids:
                problems.append(f"{doc}:{line_number}: outcome names no test id")
            for test_id in ids:
                if not is_collected(test_id, collected):
                    problems.append(f"{doc}:{line_number}: {test_id} is not collected")
    return problems


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    docs = [Path(doc) for doc in argv] or list(DEFAULT_DOCS)
    found = {
        os.path.relpath(doc): outcomes(doc.read_text(encoding="utf-8")) for doc in docs
    }
    problems = check(found)
    for problem in problems:
        print(problem, file=sys.stderr)
    n_outcomes = sum(len(entries) for entries in found.values())
    print(f"doc-outcomes: {n_outcomes} outcomes, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
