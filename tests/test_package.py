"""The package's public surface: `import tvgeo`, its `__all__`, the import
block that the README's "Library surface" section shows, and which module
owns the WGS84 distance bracket."""

import ast
import re
from pathlib import Path

import tvgeo

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(tvgeo.__file__).resolve().parent
BRACKET_CONSTANTS = {"MIN_RADIUS_KM", "MAX_RADIUS_KM", "_PAIR_SLACK_KM"}


def test_every_public_name_resolves_once():
    assert len(tvgeo.__all__) == len(set(tvgeo.__all__))
    missing = [name for name in tvgeo.__all__ if not hasattr(tvgeo, name)]
    assert missing == []


def test_readme_import_block_runs():
    section = README.read_text(encoding="utf-8").split("## Library surface", 1)[1]
    block = re.search(r"^from tvgeo import \(\n.*?^\)$", section, re.M | re.S).group(0)
    namespace: dict = {}
    exec(block, namespace)
    imported = set(namespace) - {"__builtins__"}
    assert imported and imported <= set(tvgeo.__all__)


def test_only_geodesy_reads_the_bracket_constants():
    """Other modules bound distances through geodesy.distance_bounds."""
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "geodesy.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            readers += [(path.name, name) for name in sorted(names & BRACKET_CONSTANTS)]
    assert readers == []
