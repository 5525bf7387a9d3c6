"""The package's public surface: `import tvgeo`, its `__all__`, the import
block that the README's "Library surface" section shows, which module
owns the WGS84 distance bracket, and the one path by which the CLI writes
files."""

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


def _references(tree, name):
    """The innermost enclosing function (None at module level) of each
    reference to name, as a bare name or as an attribute."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id == name or (
                isinstance(child, ast.Attribute) and child.attr == name
            ):
                yield scope
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            yield from visit(child, inner)

    return visit(tree, None)


def test_files_are_written_only_through_the_output_path():
    """A CLI run writes each file through cli._write_output, which hashes the
    inputs first and writes the manifest last; synth's files go through
    write_synth_files, and cmd_synth writes its manifest itself."""
    allowed = {
        "atomic_write": {
            ("cli", "_write_output"), ("cli", "_write_manifest"), ("synth", "write_synth_files"),
        },
        "_sha256": {("cli", "_write_output")},
        "_write_manifest": {("cli", "_write_output"), ("cli", "cmd_synth")},
    }
    found = {name: set() for name in allowed}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in allowed:
            found[name] |= {(path.stem, scope) for scope in _references(tree, name)}
    assert found == allowed
