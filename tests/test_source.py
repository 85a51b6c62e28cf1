"""Dead-code check over the package sources, with the standard library's
``ast`` only.

Every import of a module must be used in it (or re-exported through its
``__all__``), every private module-level name (``_x``, not ``__x__``)
must be referenced somewhere in ``src/`` outside its own definition: in
another statement of its module, or by an import from another module,
and so must every private method (classmethods included) defined in a
class body, read as an attribute or a name outside its own body.  Every
name in a module's ``__all__`` must be bound at module level.
A name in ``__all__`` that it defines must be referenced the same way,
or be named in ``README.md`` or a demo: public API that only the tests
call is dead code.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "omegacat"


def _modules():
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }


def _annotations(node):
    for n in ast.walk(node):
        if isinstance(n, ast.arg) and n.annotation is not None:
            yield n.annotation
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.returns:
            yield n.returns
        elif isinstance(n, ast.AnnAssign):
            yield n.annotation


def _read_names(node):
    """The names ``node`` reads: loaded names, attribute names, and the
    names inside string annotations such as ``"_Walk"``."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    for ann in _annotations(node):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                out |= _read_names(ast.parse(n.value, mode="eval"))
    return out


def _exported(tree):
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return set(ast.literal_eval(stmt.value))
    return set()


def _defined(stmt):
    """Module-level names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_every_import_is_used():
    unused = []
    for mod, tree in _modules().items():
        used = _read_names(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{mod}: {bound}")
    assert unused == []


def _unreferenced(picked):
    """The module-level names ``picked(tree, name)`` selects among those a
    module defines that no other statement of the module reads and no
    other module imports, as ``"module: name"``."""
    modules = _modules()
    imported = {
        (node.module, alias.name)
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    orphans = []
    for mod, tree in modules.items():
        reads = [_read_names(stmt) for stmt in tree.body]
        for i, stmt in enumerate(tree.body):
            for name in sorted(_defined(stmt)):
                if not picked(tree, name):
                    continue
                elsewhere = any(name in r for j, r in enumerate(reads) if j != i)
                if not elsewhere and (mod, name) not in imported:
                    orphans.append(f"{mod}: {name}")
    return orphans


def test_every_private_module_level_name_is_referenced():
    assert _unreferenced(lambda tree, name: _private(name)) == []


def _read_counts(node) -> Counter:
    """How often ``node`` reads each name, as a loaded name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    )


def test_every_private_method_is_referenced():
    modules = _modules()
    reads = sum(map(_read_counts, modules.values()), Counter())
    orphans = [
        f"{mod}: {cls.name}.{fn.name}"
        for mod, tree in modules.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and _private(fn.name)
        if reads[fn.name] == _read_counts(fn)[fn.name]
    ]
    assert orphans == []


def test_every_exported_name_is_used_or_documented():
    named = set()
    for path in [ROOT / "README.md", *(ROOT / "demos").glob("*.py")]:
        named |= set(re.findall(r"\w+", path.read_text(encoding="utf-8")))

    def undocumented_export(tree, name):
        return name in _exported(tree) and name not in named

    assert _unreferenced(undocumented_export) == []


def test_every_exported_name_is_bound():
    unbound = []
    for mod, tree in _modules().items():
        bound = set()
        for stmt in tree.body:
            bound |= _defined(stmt)
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                bound |= {(a.asname or a.name).split(".")[0] for a in stmt.names}
        unbound += [f"{mod}: {name}" for name in sorted(_exported(tree) - bound)]
    assert unbound == []
