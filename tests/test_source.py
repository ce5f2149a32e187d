"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

from swarmsim.sim import _Link, _RunPeer

PACKAGE = Path(__file__).parents[1] / "src" / "swarmsim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    # A module imports only what it uses; `__init__` re-exports and is
    # left out.
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported.items() if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_read_from_another_module(path):
    # A module reads another package module, bound by `from . import
    # name`, through its public names only. A private name imported for
    # type hints alone, as `swarm` imports `_RunPeer`, is not such a read.
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }
    private = [
        f"{node.value.id}.{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr.startswith("_")
    ]
    assert not private, f"{path.name} reads private names of other modules: {', '.join(private)}"


def test_every_record_slot_is_read():
    # Each slot of the engine's peer and link records is read somewhere in
    # the package outside an `__init__`: a slot that is only ever written
    # is state that nothing needs. Reads are matched by attribute name, so
    # a load of another object's attribute of the same name counts too.
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        in_init = {
            id(node)
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name == "__init__"
            for node in ast.walk(f)
        }
        read |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in in_init
        }
    for record in (_Link, _RunPeer):
        unread = [name for name in record.__slots__ if name not in read]
        assert not unread, f"{record.__name__} slots never read: {', '.join(unread)}"


def _referenced_names() -> set[str]:
    """Every name the package uses: loaded names, attributes and imported names."""
    referenced = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    return referenced


def test_every_module_level_definition_is_referenced():
    # Each module-level function or class of a package module is used by
    # some package module, its own included, or exported by `__init__`: a
    # helper that only tests call is code that no run needs. Uses are
    # matched by name.
    referenced = _referenced_names()
    unused = [
        f"{path.name}: {node.name} (line {node.lineno})"
        for path in MODULES
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in referenced
    ]
    assert not unused, f"definitions that no package module uses: {', '.join(unused)}"


def test_every_engine_method_is_referenced():
    # Each method of the engine and of its peer and link records is used
    # by name somewhere in the package, as a call or as a handler: a
    # method that nothing reaches is code that no run needs. Dunder
    # methods are left out; Python calls them.
    referenced = _referenced_names()
    tree = ast.parse((PACKAGE / "sim.py").read_text(), filename="sim.py")
    classes = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in ("_Engine", "_RunPeer", "_Link")
    ]
    assert len(classes) == 3
    unused = [
        f"{cls.name}.{node.name} (line {node.lineno})"
        for cls in classes
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert not unused, f"methods that no package module uses: {', '.join(unused)}"


def test_handlers_return_nothing():
    # The loop ignores what an event handler returns, and a checked run
    # checks after every event: a handler or `_repeat` that returns a
    # value keeps a protocol that no caller reads.
    tree = ast.parse((PACKAGE / "sim.py").read_text(), filename="sim.py")
    engine = next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Engine"
    )
    handlers = [
        node
        for node in engine.body
        if isinstance(node, ast.FunctionDef)
        and (node.name.startswith("_on_") or node.name == "_repeat")
    ]
    assert len(handlers) >= 9
    valued = [
        f"{f.name} (line {node.lineno})"
        for f in handlers
        for node in ast.walk(f)
        if isinstance(node, ast.Return) and node.value is not None
    ]
    assert not valued, f"handlers that return a value: {', '.join(valued)}"
