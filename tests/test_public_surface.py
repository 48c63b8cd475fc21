import ast
import importlib
from pathlib import Path

import pytest

import ballfix

MODULES = ("geometry", "maps", "oracle", "pipeline", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_modules_all_exists(name):
    module = importlib.import_module(f"ballfix.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from ballfix.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_every_package_reexport_resolves_to_a_public_name():
    tree = ast.parse(Path(ballfix.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"ballfix.{node.module}")
        public = getattr(module, "__all__", None)
        for alias in node.names:
            assert getattr(ballfix, alias.name) is getattr(module, alias.name)
            assert public is None or alias.name in public, (node.module, alias.name)
