"""Contract of the lazy package ``__init__``s (:func:`repro._lazy.lazy_exports`).

Every ``repro`` package names each public object once, in ``_EXPORTS``, and
resolves it on first access.  The package must behave like the eager
``from submodule import name`` list it replaces: every name resolves to its
defining module's object, ``dir()`` and ``from package import *`` see all of
``__all__``, and an unknown name is an ``AttributeError`` naming the package.
"""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = ["repro"] + [
    f"repro.{module.name}" for module in pkgutil.iter_modules(repro.__path__) if module.ispkg
]


def test_every_package_is_covered():
    assert {"repro.core", "repro.circuits", "repro.serve", "repro.search"} <= set(PACKAGES)


@pytest.mark.parametrize("name", PACKAGES)
class TestLazyPackage:
    def test_each_export_is_its_defining_modules_object(self, name):
        package = importlib.import_module(name)
        exported = [export for names in package._EXPORTS.values() for export in names]
        assert sorted(set(package.__all__) - {"__version__"}) == sorted(exported)
        for module_name, names in package._EXPORTS.items():
            module = importlib.import_module(module_name)
            for export in names:
                value = getattr(package, export)
                assert value is vars(module)[export], f"{name}.{export}"
                assert getattr(value, "__module__", module_name) == module_name, (
                    f"{name}.{export} is not defined in {module_name}"
                )

    def test_dir_lists_every_export(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    def test_star_import_binds_every_export(self, name):
        package = importlib.import_module(name)
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        for export in package.__all__:
            assert namespace[export] is getattr(package, export)

    def test_unknown_attribute_names_the_package(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=re.escape(f"module {name!r}")):
            package.no_such_export


def test_version_is_a_plain_attribute():
    # The store's code version reads it; it must not go through __getattr__.
    assert "__version__" in vars(repro)
    assert "__version__" in repro.__all__


def test_importing_a_package_imports_none_of_its_submodules():
    src = Path(repro.__file__).resolve().parents[1]
    script = (
        "import importlib, json, sys\n"
        f"for name in {PACKAGES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert set(json.loads(done.stdout)) == {*PACKAGES, "repro._lazy"}
