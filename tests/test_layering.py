"""The package's module layering: each module imports only from modules
below it, so the leaf geometry never reaches up into transport or the
checklist."""

import ast
from pathlib import Path

import holocheck

# Lowest first; modules in one layer may not import each other.
LAYERS = (
    ("tensor_core",),
    ("transport",),
    ("quotient", "foliation"),
    ("report",),
    ("checklist",),
    ("cli",),
    ("__init__", "__main__"),
)
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}
# Stricter than the layer order: the leaf metrics are pure chart geometry.
ONLY = {"foliation": {"tensor_core"}}
SRC = Path(holocheck.__file__).parent


def relative_imports(path: Path) -> set:
    """The package modules ``path`` imports through relative imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} == set(RANK)


def test_modules_import_only_lower_layers():
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        imported = relative_imports(path)
        assert all(RANK[dep] < RANK[module] for dep in imported), (module, imported)
        assert imported <= ONLY.get(module, imported), (module, imported)
