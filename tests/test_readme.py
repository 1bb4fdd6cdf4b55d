"""The README's figures against the code they describe."""

import re
from pathlib import Path

import pytest

from homeowheel.executor import MAX_PLAN_SWEEPS, MAX_WAYPOINTS
from homeowheel.fileformat import MAX_FILE_BYTES
from homeowheel.trace import MAX_TRACE_SAMPLES

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name, value", [
    ("MAX_PLAN_SWEEPS", MAX_PLAN_SWEEPS),
    ("MAX_WAYPOINTS", MAX_WAYPOINTS),
    ("MAX_FILE_BYTES", MAX_FILE_BYTES),
    ("MAX_TRACE_SAMPLES", MAX_TRACE_SAMPLES),
])
def test_the_bounds_table_gives_each_bound_its_value(name, value):
    rows = re.findall(rf"^\| `{name}` +\| ([\d,]+)", README.read_text(encoding="utf-8"),
                      re.MULTILINE)
    assert rows == [f"{value:,}"]
