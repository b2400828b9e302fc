"""The README against the package: its exports and its Python quick start."""

import ast
import dataclasses
import inspect
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


def _members(cls) -> set:
    """The public fields, properties and methods that ``cls`` itself defines:
    its own attributes, its dataclass fields and what ``__init__`` sets on self."""
    names = set(vars(cls))
    if dataclasses.is_dataclass(cls):
        names |= {f.name for f in dataclasses.fields(cls)}
    elif "__init__" in vars(cls):
        init = ast.parse(inspect.getsource(cls.__init__).strip())
        names |= {node.attr for node in ast.walk(init) if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "self"}
    return {name for name in names if not name.startswith("_")}


def test_every_member_of_an_export_is_read_or_named_in_readme():
    reads = set()
    for path in [*(ROOT / "src" / "qsd").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        reads |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    classes = [value for name, value in vars(qsd).items()
               if not name.startswith("_") and isinstance(value, type)]
    unused = [f"{cls.__name__}.{name}" for cls in classes for name in sorted(_members(cls))
              if name not in reads and not re.search(rf"\.{name}\b", README)]
    assert classes
    assert unused == []


def test_python_quick_start_runs():
    scope = {}
    exec(compile(quick_start(), "README.md", "exec"), scope)
    assert abs(scope["law"].sum() - 1.0) <= 1e-12
    assert math.isfinite(scope["est"]) and scope["stderr"] > 0
