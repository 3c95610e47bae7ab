"""Every name that ``src/lengthlab`` defines has a caller outside the tests.

The scan walks each module's top-level functions and classes and every
non-dunder method, and looks for a reference to it anywhere in ``src/``
outside the definition's own body, or anywhere in ``perfbench/``. A
top-level name counts as reached through an ``ast.Name``, an
``ast.Attribute`` or an ``ImportFrom`` alias; a method only through an
``ast.Attribute``, so a local variable of the same name does not reach it.

The match is by name only, not by binding. A dead function that shares
its name with a live one (or with any attribute read elsewhere) passes
unseen, but a function with a real caller is never reported.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lengthlab"
PERFBENCH = ROOT / "perfbench"


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


def _references(tree):
    """How often each name is referenced anywhere in ``tree``: (by any
    reference, by attribute reads only)."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
            attributes[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names, attributes


def test_every_src_definition_has_a_non_test_caller():
    src_trees = {path: _parse(path) for path in sorted(SRC.glob("*.py"))}
    src_refs = [Counter(), Counter()]
    for tree in src_trees.values():
        for total, refs in zip(src_refs, _references(tree)):
            total += refs
    bench_refs = [Counter(), Counter()]
    for path in sorted(PERFBENCH.rglob("*.py")):
        for total, refs in zip(bench_refs, _references(_parse(path))):
            total += refs

    unreached = []
    for path, tree in src_trees.items():
        for qualname, node, method in _definitions(tree):
            own = _references(node)[method][node.name]
            if (src_refs[method][node.name] - own <= 0
                    and not bench_refs[method][node.name]):
                unreached.append(f"{path.stem}.{qualname}")
    assert unreached == []
