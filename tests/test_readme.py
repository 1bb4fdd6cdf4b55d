"""The README's figures against the code they describe."""

import re
from pathlib import Path

import pytest

from homeowheel.executor import MAX_PLAN_SWEEPS, MAX_WAYPOINTS
from homeowheel.fileformat import MAX_FILE_BYTES
from homeowheel.trace import _CHUNK_ROWS, _EXPORT_PROCESSES, _MIN_PART_ROWS, MAX_TRACE_SAMPLES

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



@pytest.mark.parametrize("phrase, value", [
    ("in column blocks of at most {} rows of one segment", _CHUNK_ROWS),
    ("while they fit in {} rows in all", _CHUNK_ROWS),
    ("A trace of at least 2 x {} rows is formatted", _MIN_PART_ROWS),
    ("at least {} rows each", _MIN_PART_ROWS),
    ("formatted on every usable CPU, up to {}:", _EXPORT_PROCESSES),
])
def test_the_export_paragraph_gives_each_count_its_value(phrase, value):
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert re.findall(re.escape(phrase).replace(r"\{\}", r"([\d,]+)"), text) == [f"{value:,}"]
