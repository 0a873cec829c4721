"""Every name a module exports through ``__all__`` exists and is used, and so is its surface.

"Used" means read somewhere in the package's own source, in the
benchmark's ``perfbench/*.py`` or in ``tools/*.py``: a name that only tests
reach is test code and belongs in ``tests/``.  The same holds one level
down:

- every defaulted parameter of an exported callable (a dataclass's
  defaulted fields included) is supplied at some call of that name, by
  keyword, by position or through ``*``/``**``;
- every public field, property and method of an exported class is read as
  an attribute.

The trees are parsed with ``ast``, read-only, and matched by name alone, so
the checks are necessary, not sufficient: a member read only to build
another object's same member (``MildPath.gaps`` once was, by the glued
path), or one that shares its name with a member of another class
(``NoisePath.dts`` with the solver kernel's ``dts``), passes them unused.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import textwrap
from pathlib import Path

import pytest

import cylstable

MODULES = ["cylstable"] + [
    f"cylstable.{info.name}" for info in pkgutil.iter_modules(cylstable.__path__)
]

PACKAGE = Path(cylstable.__file__).resolve().parent
ROOT = PACKAGE.parents[1]
TREES = [ast.parse(path.read_text(encoding="utf-8"))
         for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
                      *(ROOT / "tools").glob("*.py")]]
NODES = [node for tree in TREES for node in ast.walk(tree)]


def _loaded_names() -> tuple[set[str], set[str]]:
    """Every name, and every attribute, read (not assigned) in the trees.

    A ``def``/``class`` line binds its name without reading it, and an
    ``__all__`` entry is a string, so neither counts as a use.
    """
    names, attributes = set(), set()
    for node in NODES:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
    return names, attributes


NAMES, ATTRIBUTES = _loaded_names()
USED = NAMES | ATTRIBUTES


def _calls(name: str) -> list[ast.Call]:
    """The calls of ``name``, as ``name(...)`` or ``<anything>.name(...)``."""
    return [node for node in NODES if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]


def _supplies(call: ast.Call, position: int | None, keyword: str) -> bool:
    """Whether ``call`` passes the parameter at ``position`` (None: keyword-only) or ``keyword``."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if position is not None and position < len(call.args):
        return True
    return any(kw.arg in (keyword, None) for kw in call.keywords)


def _exports(name: str) -> list[tuple[str, object]]:
    module = importlib.import_module(name)
    return [(f"{name}.{attr}", getattr(module, attr)) for attr in getattr(module, "__all__", [])]


def _unpassed_defaults(qualname: str, obj) -> list[str]:
    try:
        parameters = list(inspect.signature(obj).parameters.values())
    except (TypeError, ValueError):  # a builtin's signature, such as an exception's
        return []
    positional = [p.name for p in parameters
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    calls = _calls(qualname.rsplit(".", 1)[1])
    return [f"{qualname}({p.name}=)" for p in parameters
            if p.default is not p.empty
            and not any(_supplies(call, positional.index(p.name) if p.name in positional else None,
                                  p.name) for call in calls)]


def _members(cls) -> set[str]:
    """The public fields, properties and methods that ``cls`` itself defines.

    Fields are a dataclass's fields and the ``self.<name> = ...`` assignments
    in the class's own source.
    """
    members = set(vars(cls))
    if dataclasses.is_dataclass(cls):
        members |= {f.name for f in dataclasses.fields(cls)}
    source = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    members |= {node.attr for node in ast.walk(source) if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store) and getattr(node.value, "id", None) == "self"}
    return {name for name in members if not name.startswith("_")}


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


@pytest.mark.parametrize("name", MODULES)
def test_defaulted_parameters_are_passed_outside_tests(name):
    unpassed = [entry for qualname, obj in _exports(name) if callable(obj)
                for entry in _unpassed_defaults(qualname, obj)]
    assert not unpassed, f"defaulted parameters that only tests pass (delete them): {unpassed}"


@pytest.mark.parametrize("name", MODULES)
def test_class_members_are_read_outside_tests(name):
    unread = [f"{qualname}.{member}" for qualname, obj in _exports(name)
              if inspect.isclass(obj) for member in sorted(_members(obj) - ATTRIBUTES)]
    assert not unread, f"public members that only tests read (delete them): {unread}"
