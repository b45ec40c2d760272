"""Tests for the stdlib outcome checker behind the CI docs-check step."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "check_doc_outcomes", REPO_ROOT / "tools" / "check_doc_outcomes.py"
)
check_doc_outcomes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_doc_outcomes)

ID = "tests/a/test_x.py::TestY::test_z"


class TestOutcomes:
    def test_each_must_takes_the_ids_up_to_the_next_must(self):
        text = (
            "- first bullet must pass (`" + ID + "`) and\n"
            "  then must fail\n"
            "- Must hold (`tests/b.py::test_c`)\n"
        )
        assert check_doc_outcomes.outcomes(text) == [
            (1, [ID]), (2, []), (3, ["tests/b.py::test_c"]),
        ]

    def test_an_id_never_crosses_a_blank_line_or_bullet(self):
        text = "this must hold\n\n`" + ID + "`\n- it must too\n- `" + ID + "`\n"
        assert check_doc_outcomes.outcomes(text) == [(1, []), (4, [])]

    def test_code_fences_are_skipped(self):
        text = "```\nx must y\n```\ntext\n"
        assert check_doc_outcomes.outcomes(text) == []

    def test_words_containing_must_are_not_outcomes(self):
        assert check_doc_outcomes.outcomes("mustard and musty\n") == []


class TestCheck:
    def test_missing_and_uncollected_ids_are_problems(self):
        found = {"doc.md": [(3, []), (7, [ID, "tests/q.py::test_gone"])]}
        collected = {ID + "[param-1]"}
        assert check_doc_outcomes.check(found, collected) == [
            "doc.md:3: outcome names no test id",
            "doc.md:7: tests/q.py::test_gone is not collected",
        ]

    def test_parametrized_family_counts_only_with_its_bracket(self):
        assert check_doc_outcomes.is_collected(ID, {ID + "[a]"})
        assert not check_doc_outcomes.is_collected(ID, {ID + "_longer"})


class TestRepository:
    def test_every_verify_outcome_names_a_collected_test(self):
        """The same invariant the CI docs-check step enforces."""
        assert check_doc_outcomes.main([]) == 0
