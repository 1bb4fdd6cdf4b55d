"""The benchmark's traced replay (``perfbench/traced.py``) wraps package
functions by name; a refactor that drops one of those names must fail here
rather than end ``perfbench/run.py --trace 1`` in an AttributeError."""

import ast
import importlib
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def traced_names(table: str) -> list[tuple[str, str]]:
    """The ``(module, name)`` keys of the dict assigned to ``table``."""
    for node in ast.parse(TRACED.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == table for target in node.targets):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError(f"{table} is not assigned in {TRACED}")


@pytest.mark.parametrize("table", ["LAYERS", "PER_SAMPLE"])
def test_every_traced_name_resolves(table):
    names = traced_names(table)
    assert names
    missing = [(module, name) for module, name in names
               if not hasattr(importlib.import_module(f"homeowheel.{module}"), name)]
    assert missing == []
