"""Every top-level definition in ``src/nanodr`` is reachable from the CLI.

The package keeps one copy of each objective and rule, the one the commands
run; the tests keep their own oracles.  This walks the source with ``ast``
from ``cli.main``: a reached function, class or assignment reaches every
top-level name its code mentions, in its own module or through a package
import (``from .x import y as z``, ``import nanodr.x as m`` then ``m.y``).
A definition that nothing reaches is code no command can run.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nanodr"
ENTRY = ("cli", "main")


def _definitions(tree):
    """Top-level name -> defining node (functions, classes, assignments)."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs[name.id] = node
    return defs


def _package_module(node):
    """The package module a ``from ... import`` names, as its file stem ("" for
    the package itself), or None for a module outside the package."""
    if node.level:
        return node.module or ""
    if node.module == "nanodr":
        return ""
    if node.module and node.module.startswith("nanodr."):
        return node.module[len("nanodr."):]
    return None


def _bindings(tree):
    """Local name -> (module, name) for package imports; the name is None
    when the local name is bound to a module."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _package_module(node)
            if module is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                bound[local] = ((alias.name, None) if module == ""
                                else (module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("nanodr.") and alias.asname:
                    bound[alias.asname] = (alias.name[len("nanodr."):], None)
    return bound


def unreachable():
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    defs = {m: _definitions(t) for m, t in trees.items()}
    bound = {m: _bindings(t) for m, t in trees.items()}
    reached = {ENTRY}
    queue = [ENTRY]

    def reach(module, name):
        # Follow re-exports until the module that defines the name.
        while name not in defs.get(module, {}):
            target = bound.get(module, {}).get(name)
            if target is None or target[1] is None:
                return
            module, name = target
        if (module, name) not in reached:
            reached.add((module, name))
            queue.append((module, name))

    while queue:
        module, name = queue.pop()
        for node in ast.walk(defs[module][name]):
            if isinstance(node, ast.Name):
                reach(module, node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                target = bound[module].get(node.value.id)
                if target is not None and target[1] is None:
                    reach(target[0], node.attr)
    return sorted(f"{m}.{name}" for m, names in defs.items() for name in names
                  if (m, name) not in reached)


def test_every_top_level_definition_is_reachable_from_the_cli():
    missing = unreachable()
    assert not missing, "unreachable from cli.main: " + ", ".join(missing)
