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


# The private names each module takes from another package module, pinned so
# that a new private cross-import shows in review; checklist's helpers of the
# sweep live in checklist, which is their only reader.
PRIVATE_IMPORTS = {
    "checklist": {
        "quotient": {"_deck_defect", "_rescaled", "_rescaled_partials"},
        "tensor_core": {"_Geometry", "_conformal_fit", "_metric", "_nabla", "_partials"},
    },
    "foliation": {"tensor_core": {"_central_difference", "_coords", "_metric", "_partials"}},
    "quotient": {"tensor_core": {"_coords", "_metric"}},
    "transport": {"tensor_core": {"_christoffel", "_vector"}},
}


def private_imports(path: Path) -> dict:
    """The underscore names ``path`` imports, keyed by the package module."""
    found = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            names = {alias.name for alias in node.names if alias.name.startswith("_")}
            if names:
                found.setdefault(node.module.split(".")[0], set()).update(names)
    return found


def test_private_cross_imports_are_pinned():
    found = {path.stem: private_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == PRIVATE_IMPORTS
