"""Every name a module exports through ``__all__`` exists and is used.

"Used" means read somewhere in the package's own source or in the
benchmark's ``perfbench/*.py``: a name that only tests reach is test code
and belongs in ``tests/``.  Both trees are parsed with ``ast``, read-only.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cylstable

MODULES = ["cylstable"] + [
    f"cylstable.{info.name}" for info in pkgutil.iter_modules(cylstable.__path__)
]

PACKAGE = Path(cylstable.__file__).resolve().parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"


def _loaded_names(paths) -> set[str]:
    """Every name and attribute read (not assigned) in the given source files.

    A ``def``/``class`` line binds its name without reading it, and an
    ``__all__`` entry is a string, so neither counts as a use.
    """
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


USED = _loaded_names([*PACKAGE.glob("*.py"), *PERFBENCH.glob("*.py")])


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_used_outside_tests(name):
    module = importlib.import_module(name)
    unused = [attr for attr in getattr(module, "__all__", []) if attr not in USED]
    assert not unused, (f"{name}.__all__ names that only tests reach "
                        f"(move them to tests/): {unused}")
