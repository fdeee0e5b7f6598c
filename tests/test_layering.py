"""Import layering: the compute modules never reach the output layer.

Envelope shaping belongs to ``warpcrit.cli``, which applies
``serialize.record_dict`` to the records the compute modules return; those
modules import neither ``warpcrit.serialize`` nor ``warpcrit.cli``.  Among
the compute modules, ``curvature`` verifies a profile against a fiber that
``profiles`` defines, and imports nothing from ``matching``.  The check
reads each module's source with ``ast``, so an import inside a function
body counts too.
"""

import ast
from pathlib import Path

import pytest

import warpcrit

PACKAGE = Path(warpcrit.__file__).parent
COMPUTE = ("rk45", "support", "profiles", "matching", "curvature", "spectrum")
OUTPUT = {"serialize", "cli"}


def _imported_modules(tree: ast.AST) -> set[str]:
    """Each warpcrit module an import statement names, without the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("warpcrit."):
                    names.add(alias.name.split(".")[1])
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module == "warpcrit":
                    names.update(alias.name for alias in node.names)
                elif module.startswith("warpcrit."):
                    names.add(module.split(".")[1])
            elif module:  # from .serialize import record_dict
                names.add(module.split(".")[0])
            else:  # from . import serialize
                names.update(alias.name for alias in node.names)
    return names


def test_the_check_sees_every_import_form():
    source = "\n".join([
        "import warpcrit.cli",
        "from warpcrit import serialize",
        "from warpcrit.rk45 import integrate",
        "from .support import row_blocks",
        "from . import profiles",
        "def late():",
        "    from .matching import c_threshold",
    ])
    assert _imported_modules(ast.parse(source)) == {
        "cli", "serialize", "rk45", "support", "profiles", "matching",
    }


@pytest.mark.parametrize("name", COMPUTE)
def test_compute_module_imports_no_output_layer(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    assert not _imported_modules(tree) & OUTPUT


def test_curvature_imports_nothing_from_matching():
    tree = ast.parse((PACKAGE / "curvature.py").read_text())
    assert "matching" not in _imported_modules(tree)
