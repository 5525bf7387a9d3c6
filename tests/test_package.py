"""The package's public surface: `import tvgeo`, its `__all__`, and the
import block that the README's "Library surface" section shows."""

import re
from pathlib import Path

import tvgeo

README = Path(__file__).resolve().parents[1] / "README.md"


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
