"""The exact layers import no mpmath, and the matrix path names none.

spectral, traintrack, update, coords and braid decide everything on integers
and rationals, and update's rules are applied to integers and rationals only.
An mpmath import in one of these modules would let a float decision back in,
so only cli and regions may import it.  In regions, mpmath only rounds the
angles of the n = 3 circle for output: dynnikov_matrices and every regions
function it reaches decide on integers.
"""

import ast
from pathlib import Path

import pytest

import dynbraid

SRC = Path(dynbraid.__file__).parent


@pytest.mark.parametrize("module", ["spectral", "traintrack", "update", "coords", "braid"])
def test_exact_layer_imports_no_mpmath(module):
    imported = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            imported.add(node.module.split(".")[0])
    assert "mpmath" not in imported


def test_matrix_path_names_no_mpmath():
    tree = ast.parse((SRC / "regions.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo, reached = ["dynnikov_matrices"], set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        names = {n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name)}
        assert "mpmath" not in names, name
        todo += sorted(names & set(functions))
    assert {"find_unstable_direction", "_dot", "_certify_failure"} <= reached
