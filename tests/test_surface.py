"""Every name that ``src/lengthlab`` defines has a caller outside the tests.

The scan walks each module's top-level functions and classes and every
non-dunder method, and looks for a reference to it anywhere in ``src/``
outside the definition's own body, or anywhere in ``perfbench/``.

A top-level name is resolved by its binding, as (module, name):
- a bare name reaches the module's own definition of that name, or the
  definition it imports with ``from .x import y`` (``from lengthlab.x
  import y`` outside the package, and ``from . import y`` for a name of
  ``__init__``);
- ``x.name`` reaches ``name`` in module ``x`` when ``x`` is bound by
  ``from . import x`` or ``from lengthlab import x``.

So a dead function does not pass for sharing its name with a live one in
another module. A method is reached only through an ``ast.Attribute`` of
its name, so a local variable of the same name does not reach it; the
receiver's class is not resolved.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lengthlab"
PERFBENCH = ROOT / "perfbench"
MODULES = {path.stem for path in SRC.glob("*.py")}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(tree):
    """(qualname, node, is_method) for top-level defs and classes and
    non-dunder methods."""
    defs = []
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        defs.append((node.name, node, False))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    defs.append((f"{node.name}.{item.name}", item, True))
    return defs


def _bindings(tree, module):
    """name -> (module, name) for a definition or an imported name, and
    name -> module for an imported lengthlab module. module is the stem
    of a src module, or None outside the package."""
    names = {}
    if module is not None:
        names.update((node.name, (module, node.name)) for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                          ast.ClassDef)))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if module is not None and node.level == 1:
            source = node.module
        elif node.level == 0 and (node.module or "").startswith("lengthlab"):
            source = node.module.partition(".")[2] or None
        else:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name
            if source is None and alias.name in MODULES:
                names[bound] = alias.name
            else:
                names[bound] = (source or "__init__", alias.name)
    return names


def _references(tree, bindings):
    """How often each (module, name) and each attribute name is read in
    ``tree``."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            target = bindings.get(node.id)
            if isinstance(target, tuple):
                names[target] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
            target = (bindings.get(node.value.id)
                      if isinstance(node.value, ast.Name) else None)
            if isinstance(target, str):
                names[target, node.attr] += 1
    return names, attributes


def test_every_src_definition_has_a_non_test_caller():
    trees = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    bindings = {module: _bindings(tree, module)
                for module, tree in trees.items()}
    refs = [Counter(), Counter()]
    files = [(tree, bindings[module]) for module, tree in trees.items()]
    for path in sorted(PERFBENCH.rglob("*.py")):
        tree = _parse(path)
        files.append((tree, _bindings(tree, None)))
    for tree, bound in files:
        for total, counted in zip(refs, _references(tree, bound)):
            total += counted

    unreached = []
    for module, tree in trees.items():
        for qualname, node, method in _definitions(tree):
            key = node.name if method else (module, node.name)
            own = _references(node, bindings[module])[method][key]
            if refs[method][key] - own <= 0:
                unreached.append(f"{module}.{qualname}")
    assert unreached == []
