"""Every definition in src/dynbraid is reached from somewhere in the package.

A definition is a top-level function or class, or a method other than a
dunder.  It is reached when dynbraid.__all__ exports it, when ALLOWED names it
with a reason, or when module-level code or the body of a reached definition
refers to it as a name or an attribute; a reference from its own body does
not count.  Imports and strings are not references.  Methods are matched by
name, so a method that shares its name with a reached one passes; but a
method whose name is also a dataclass field, a __slots__ entry or a self.
attribute somewhere in the package is reached only through a call x.name(...),
since x.name alone may read the attribute.  Every module-level import outside
__init__.py must be used in its module.
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
    """Names and attributes referenced, plus "name()" for each call x.name(...)."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                out.add(f"{sub.func.attr}()")
    return out


def _attributes(trees) -> set:
    """Names of dataclass fields, __slots__ entries and attributes set on self."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and "dataclass" in _names(node.decorator_list):
                out |= {
                    n.target.id
                    for n in node.body
                    if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
                }
            elif isinstance(node, ast.Assign) and "__slots__" in _names(node.targets):
                out |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                out.add(node.attr)
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _index():
    """(names referenced by module-level code, [(label, key, names its body references)]).

    A definition's key is its name, or "name()" for a method reached only by calls.
    """
    roots, defs = set(), []
    modules = _modules()
    attributes = _attributes(modules.values())
    for mod, tree in modules.items():
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
                defs += [
                    (
                        f"{mod}: {node.name}.{m.name}",
                        f"{m.name}()" if m.name in attributes else m.name,
                        _names([m]),
                    )
                    for m in methods
                ]
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
