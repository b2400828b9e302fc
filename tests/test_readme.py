"""The README against the package: its exports and its Python quick start."""

import math
import re
import types
from pathlib import Path

import qsd

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def quick_start() -> str:
    """The README's one ```python block, the library quick start."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README, flags=re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_every_export_is_named_in_readme_or_used_by_cli():
    cli = (ROOT / "src" / "qsd" / "cli.py").read_text()
    names = [name for name, value in vars(qsd).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    unused = [name for name in names
              if not re.search(rf"\b{name}\b", README) and not re.search(rf"\b{name}\b", cli)]
    assert names and unused == []


def test_python_quick_start_runs():
    scope = {}
    exec(compile(quick_start(), "README.md", "exec"), scope)
    assert abs(scope["law"].sum() - 1.0) <= 1e-12
    assert math.isfinite(scope["est"]) and scope["stderr"] > 0
