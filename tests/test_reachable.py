"""Every definition in src/dynbraid is reached from somewhere in the package.

A definition is a top-level function or class, or a method other than a
dunder.  It is reached when dynbraid.__all__ exports it, when ALLOWED names it
with a reason, or when module-level code or the body of a reached definition
refers to it as a name or an attribute; a reference from its own body does
not count.  Imports and strings are not references.  Methods are matched by
name only, so a method that shares its name with a reached one passes.  Every
module-level import outside __init__.py must be used in its module.
"""

import ast
from pathlib import Path

import dynbraid

SRC = Path(dynbraid.__file__).parent

# name -> why it stays although no code in the package reaches it
ALLOWED = {
    "linearize_change_of_coords": "ROADMAP item 7",
    "solve_completion": "ROADMAP item 7",
}


def _modules():
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def _names(nodes) -> set:
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _index():
    """(names referenced by module-level code, [(label, name, names its body references)])."""
    roots, defs = set(), []
    for mod, tree in _modules().items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                roots |= _names([node])
                continue
            own = [node]
            if isinstance(node, ast.ClassDef):
                methods = [
                    m for m in node.body if isinstance(m, ast.FunctionDef) and not _is_dunder(m.name)
                ]
                own = [n for n in node.body if n not in methods]
                own += node.decorator_list + node.bases + node.keywords
                defs += [(f"{mod}: {node.name}.{m.name}", m.name, _names([m])) for m in methods]
            defs.append((f"{mod}: {node.name}", node.name, _names(own)))
    return roots, defs


def _reached(roots: set, defs) -> set:
    reached = set(roots)
    grew = True
    while grew:
        grew = False
        for _, name, refs in defs:
            if name in reached and not refs <= reached:
                reached |= refs
                grew = True
    return reached


def test_every_definition_is_reached():
    roots, defs = _index()
    reached = _reached(roots | set(dynbraid.__all__) | set(ALLOWED), defs)
    unreached = [label for label, name, _ in defs if name not in reached]
    assert not unreached, "defined but never reached:\n" + "\n".join(unreached)


def test_allowed_names_exist_and_are_otherwise_unreached():
    roots, defs = _index()
    reached = _reached(roots | set(dynbraid.__all__), defs)
    defined = {name for _, name, _ in defs}
    for name in ALLOWED:
        assert name in defined, f"{name} is allowed but not defined"
        assert name not in reached, f"{name} is reached now; drop it from ALLOWED"


def test_every_module_import_is_used():
    unused = []
    for mod, tree in _modules().items():
        if mod == "__init__.py":
            continue
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{mod}: {bound}")
    assert not unused, "imported but never used:\n" + "\n".join(unused)
