"""The package's modules import only down their layers.

From the bottom: `vocab`; then `lexicon`, `ngram`, `trace` and `metrics`;
then `model` and `markov`; then `engine`, `experiment` and `cli`, each on its
own layer. A module may import a module of a lower layer, never one of its
own layer or above, and never a `_`-prefixed name of another module: what
one module lends another is public. Imports are read with `ast`, so the
check also sees imports inside functions.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import specmt

LAYERS = (
    ("vocab",),
    ("lexicon", "ngram", "trace", "metrics"),
    ("model", "markov"),
    ("engine",),
    ("experiment",),
    ("cli",),
)
LAYER = {module: level for level, modules in enumerate(LAYERS) for module in modules}
PACKAGE = Path(specmt.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def _package_module(name: str) -> str | None:
    """The package module an absolute import name refers to, if any."""
    top, _, rest = name.partition(".")
    return (rest.partition(".")[0] or "__init__") if top == "specmt" else None


def _import_nodes(module: str) -> list[ast.AST]:
    return [
        node for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def package_imports(module: str) -> set[str]:
    """The package modules that `module` imports, relatively or by name."""
    imported = set()
    for node in _import_nodes(module):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            imported.update(name.partition(".")[0] for name in names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(_package_module(node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(_package_module(alias.name) for alias in node.names)
    imported.discard(None)
    return imported


def private_imports(module: str) -> list[str]:
    """The `_`-prefixed names that `module` imports from package modules."""
    return [
        alias.name for node in _import_nodes(module)
        if isinstance(node, ast.ImportFrom) and (node.level or _package_module(node.module or ""))
        for alias in node.names if alias.name.startswith("_")
    ]


def test_every_module_has_a_layer():
    assert set(MODULES) == set(LAYER)


@pytest.mark.parametrize("module", MODULES)
def test_imports_go_down_the_layers(module):
    upward = {name for name in package_imports(module) if LAYER.get(name, len(LAYERS)) >= LAYER[module]}
    assert not upward, f"{module} imports {sorted(upward)} from its own layer or above"


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_imported(module):
    private = private_imports(module)
    assert not private, f"{module} imports private names {private}"
