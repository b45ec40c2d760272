"""Every ``repro.*`` cross-reference in ``src/`` names something that exists.

Sphinx-style roles (``:func:``, ``:meth:``, ``:class:``, ``:attr:``,
``:mod:``) whose target is a full ``repro.*`` path are resolved by importing
the longest module prefix and walking the rest with ``getattr``.  A class's
dataclass fields, annotated attributes and the ``self.<name>`` attributes
its ``__init__`` assigns count as resolvable even though the class object
does not carry them.  Relative targets (``:class:`DesignSpec```) are left to
the reader; a deleted or renamed name behind a full path fails here.  So does
a docstring naming a ``*.md`` path that is not a file of the repository.
"""

import ast
import dataclasses
import importlib
import inspect
import re
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: A role and its content, which may wrap lines (``Title <target>`` form).
_ROLE = re.compile(r":(?:func|meth|class|attr|mod):`([^`]+)`")

#: A Markdown file path, read relative to the repository root.
_MARKDOWN = re.compile(r"[\w./-]+\.md\b")


def reference_targets(text: str) -> list[str]:
    """The ``repro.*`` targets of the cross-reference roles in ``text``."""
    targets = []
    for content in _ROLE.findall(text):
        content = content.strip()
        if content.endswith(">") and "<" in content:
            content = content[content.rindex("<") + 1 : -1]
        content = content.lstrip("~!")
        if content.startswith("repro."):
            targets.append(content)
    return targets


def _instance_attributes(cls: type) -> set[str]:
    """Fields, annotations and ``self.<name>`` assignments in ``__init__`` along the MRO."""
    names = set()
    for klass in cls.__mro__:
        names.update(getattr(klass, "__annotations__", {}))
        try:
            source = inspect.getsource(vars(klass)["__init__"])
        except (KeyError, OSError, TypeError):  # inherited, generated or built in
            continue
        tree = ast.parse(textwrap.dedent(source))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                names.add(node.attr)
    if dataclasses.is_dataclass(cls):
        names.update(field.name for field in dataclasses.fields(cls))
    return names


def resolves(target: str) -> bool:
    """Whether ``target`` names an importable module or an attribute under one."""
    parts = target.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        break
    else:
        return False
    rest = parts[split:]
    for index, name in enumerate(rest):
        if hasattr(obj, name):
            obj = getattr(obj, name)
        elif inspect.isclass(obj) and name in _instance_attributes(obj):
            return index == len(rest) - 1  # an instance attribute ends the path
        else:
            return False
    return True


def _all_references() -> list[tuple[str, str]]:
    return [
        (str(path.relative_to(SRC)), target)
        for path in sorted(SRC.rglob("*.py"))
        for target in reference_targets(path.read_text(encoding="utf-8"))
    ]


def test_every_repro_reference_in_src_resolves():
    references = _all_references()
    assert len(references) > 200  # the scan itself still finds the references
    broken = [f"{path}: {target}" for path, target in references if not resolves(target)]
    assert broken == []


def _docstrings(path: Path) -> list[str]:
    """The module, class and function docstrings of one source file."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    nodes = ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    return [doc for node in nodes if isinstance(node, kinds) and (doc := ast.get_docstring(node))]


def test_every_markdown_path_in_a_src_docstring_exists():
    named = [
        (str(path.relative_to(SRC)), markdown)
        for path in sorted(SRC.rglob("*.py"))
        for doc in _docstrings(path)
        for markdown in _MARKDOWN.findall(doc)
    ]
    assert len(named) > 10  # the scan itself still finds the paths
    missing = [f"{path}: {markdown}" for path, markdown in named if not (ROOT / markdown).is_file()]
    assert missing == []


class TestResolver:
    def test_roles_titles_and_wrapped_targets_are_read(self):
        text = (
            ":func:`~repro.core.codesign.reference_designs` and\n"
            ":meth:`DecisionTree.predict_levels\n    <repro.mltrees.tree.DecisionTree"
            ".predict_levels>` but not :class:`DesignSpec` or ``repro.cli``"
        )
        assert reference_targets(text) == [
            "repro.core.codesign.reference_designs",
            "repro.mltrees.tree.DecisionTree.predict_levels",
        ]

    @pytest.mark.parametrize(
        "target",
        [
            "repro.core.design",
            "repro.core.design.DesignSpec.key",
            "repro.core.design.DesignPoint.tree",  # dataclass field without a default
            "repro.core.unary_tree.UnaryDecisionTree.required_digits",  # set in __init__
        ],
    )
    def test_modules_attributes_fields_and_init_assignments_resolve(self, target):
        assert resolves(target)

    @pytest.mark.parametrize(
        "target",
        [
            "repro.core.codesign.NoSuchClass",
            "repro.core.no_such_module",
            "repro.core.design.DesignSpec.no_such_method",
            "repro.core.design.DesignPoint.tree.depth",
        ],
    )
    def test_missing_names_do_not_resolve(self, target):
        assert not resolves(target)
