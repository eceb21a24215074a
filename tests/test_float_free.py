"""The exact layers import no mpmath.

spectral, traintrack, update, coords and braid decide everything on integers
and rationals; update's rules also run unchanged on the mpf values that
regions hands them.  An mpmath import in one of these modules would let a
float decision back in, so only cli and regions may import it.
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
