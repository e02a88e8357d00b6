"""Public API: every exported name resolves and the package exports only those."""

import ast
import importlib
from pathlib import Path

import pytest

import nbodylab

MODULES = ("potential", "central", "admissibility", "sturm", "fourbody", "models")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"nbodylab.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(nbodylab.__file__).read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    for module, name in imported:
        if module is None:  # `from . import errors`: a submodule
            importlib.import_module(f"nbodylab.{name}")
            continue
        mod = importlib.import_module(f"nbodylab.{module}")
        assert name in mod.__all__, f"{module}.{name} is not in its __all__"
        assert getattr(nbodylab, name) is getattr(mod, name)
