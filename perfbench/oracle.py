"""Output oracle: judges one CLI result against its command's expectation.

``judge`` returns a list of mismatches, each ``"<key>: <detail>"``. The key
names what was wrong (``exit``, ``ok``, ``events.GimbalLockRisk``, ``csv_rows``
...), so a known defect can be recorded as the exact keys it is allowed to
miss, and anything else still counts as a new failure.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

SAMPLE_RATE_HZ = 50.0  # the CLI default
TRACE_HEADER = "t,s1,s2,s3,theta_wheel_deg,x_m,engaged,event_flags"
TWIST_KEYS = ("max_twist_body_gantry_deg", "max_twist_shaft_axial_deg",
              "max_twist_wrist_deg")


@dataclass
class Result:
    exit: int
    stdout: str
    stderr: str


def _close(got: float, want: float, rel: float = 1e-12) -> bool:
    # Summaries print 9 decimals, so allow 1e-9 absolute on top of float error.
    return abs(got - want) <= 1e-9 + rel * abs(want)


def summary(stdout: str) -> dict[str, list[str]]:
    table: dict[str, list[str]] = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            table.setdefault(key, []).append(value)
    return table


class _Checker:
    def __init__(self, result: Result):
        self.result = result
        self.table = summary(result.stdout)
        self.problems: list[str] = []

    def fail(self, key: str, detail: str) -> None:
        self.problems.append(f"{key}: {detail}")

    def value(self, key: str):
        values = self.table.get(key)
        if not values:
            self.fail(key, "missing from stdout")
            return None
        return values[0]

    def number(self, key: str, want: float, rel: float = 1e-12) -> None:
        got = self.value(key)
        if got is None:
            return
        try:
            ok = _close(float(got), want, rel)
        except ValueError:
            ok = False
        if not ok:
            self.fail(key, f"expected {want!r}, got {got}")

    def equal(self, key: str, want: str) -> None:
        got = self.value(key)
        if got is not None and got != want:
            self.fail(key, f"expected {want}, got {got}")

    def exit(self, want: int) -> None:
        if self.result.exit != want:
            self.fail("exit", f"expected {want}, got {self.result.exit}")
        if "Traceback" in self.result.stderr:
            self.fail("traceback", "stderr holds a Python traceback")

    def kinds(self, key: str, want: dict[str, int]) -> None:
        got = Counter(v.split(" ", 1)[0] for v in self.table.get(key, []))
        for kind in sorted(set(got) | set(want)):
            if got.get(kind, 0) != want.get(kind, 0):
                self.fail(f"{key}s.{kind}", f"expected {want.get(kind, 0)}, "
                                             f"got {got.get(kind, 0)}")

    def motion(self, theta: float, twist) -> None:
        self.number("theta_wheel_deg", theta)
        for key, want in zip(TWIST_KEYS, twist):
            self.number(key, want)
        self.equal("integrity_ok", "1")
        self.equal("events", "0")
        self.equal("violations", "0")


def _trajectory(checker: _Checker, path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        checker.fail("trajectory_file", f"{path.name}: {exc}")
        return None


def _simulate(c: _Checker, e: dict, workdir: Path) -> None:
    n, radius = e["n"], e["radius"]
    theta = 720.0 * n
    duration = 6 * n + 4
    c.exit(0)
    c.motion(theta, (90.0, 360.0, 90.0))
    c.number("x_m", radius * theta * math.pi / 180.0)
    try:
        data = (workdir / e["csv"]).read_bytes()
    except OSError as exc:
        c.fail("csv", str(exc))
        return
    lines = data.rstrip(b"\n").split(b"\n")
    if lines[0].decode() != TRACE_HEADER:
        c.fail("csv_header", f"got {lines[0][:80]!r}")
    rows = len(lines) - 1
    want_rows = round(SAMPLE_RATE_HZ * duration) + 1  # both ends sampled
    if rows != want_rows or not data.endswith(b"\n"):
        c.fail("csv_rows", f"expected {want_rows}, got {rows}")
    last = lines[-1].decode().split(",")
    want_last = (duration, 0.0, 0.0, 0.0, theta, radius * math.radians(theta), 0, 0)
    if len(last) != 8 or not all(_close(float(g), w, 1e-8) for g, w in zip(last, want_last)):
        c.fail("csv_last_row", f"expected {want_last}, got {last}")
    doc = _trajectory(c, workdir / e["traj"])
    if doc is not None:
        wps = doc.get("waypoints", [])
        if len(wps) != 6 * n + 5 or doc.get("wheel_radius_m") != radius:
            c.fail("trajectory_file", f"expected {6 * n + 5} waypoints at radius "
                                      f"{radius}, got {len(wps)} at "
                                      f"{doc.get('wheel_radius_m')}")


def _plan(c: _Checker, e: dict, workdir: Path) -> None:
    target = e["target"]
    c.exit(0)
    c.number("predicted_theta_wheel_deg", target)
    c.number("predicted_x_m", e["radius"] * math.radians(target))
    c.equal("violations", "0")
    doc = _trajectory(c, workdir / e["out"])
    if doc is not None:
        count = len(doc.get("waypoints", []))
        c.equal("waypoints", str(count))
        c.equal("segments", str(count - 1))
    sweeps = c.value("engaged_sweeps")
    bound = math.ceil(abs(target) / 360.0) + 1
    if sweeps is not None and not int(sweeps) <= bound:
        c.fail("engaged_sweeps", f"expected at most {bound}, got {sweeps}")


def _gait(c: _Checker, e: dict, workdir: Path) -> None:
    cycles = e["cycles"]
    c.exit(0)
    c.motion(720.0 * cycles, (90.0, 360.0, 90.0))
    c.equal("waypoints", str(4 * cycles + 1))
    c.number("period_s", e["period"])
    c.equal("cycles", str(cycles))
    doc = _trajectory(c, workdir / e["out"])
    if doc is not None and len(doc.get("waypoints", [])) != 4 * cycles + 1:
        c.fail("trajectory_file", f"expected {4 * cycles + 1} waypoints")


def _check(c: _Checker, e: dict, workdir: Path) -> None:
    c.exit(0 if e["ok"] else 1)
    c.equal("ok", str(e["ok"]))
    c.equal("integrity_ok", str(e["integrity_ok"]))
    c.equal("violations", str(sum(e["violations"].values())))
    c.kinds("violation", e["violations"])
    c.equal("events", str(sum(e["events"].values())))
    c.kinds("event", e["events"])
    c.number("theta_wheel_deg", e["theta"])
    for key, want in zip(TWIST_KEYS, e["max_twist"]):
        c.number(key, want)


def _scale(c: _Checker, e: dict, workdir: Path) -> None:
    c.exit(0)
    rows = [line for line in c.result.stdout.splitlines() if line.startswith("L_m=")]
    lengths = e["lengths"]
    if len(rows) != len(lengths):
        c.fail("scale_rows", f"expected {len(lengths)}, got {len(rows)}")
        return
    for length, row in zip(lengths, rows):
        got = dict(item.split("=", 1) for item in row.split())
        want = {"L_m": length, "mass_kg": length ** 3, "force_n": length ** 2,
                "accel_m_s2": 1.0 / length}
        for key, value in want.items():
            if not _close(float(got.get(key, "nan")), value, 1e-9):
                c.fail(f"scale.{key}", f"L={length}: expected {value!r}, got {got.get(key)}")
    c.number("accel_ratio", lengths[0] / lengths[-1], 1e-9)


def _bad(c: _Checker, e: dict, workdir: Path) -> None:
    c.exit(e["exit"])


_JUDGES = {"simulate": _simulate, "plan": _plan, "gait": _gait, "check": _check,
           "scale": _scale, "bad": _bad}


def judge(kind: str, expect: dict, result: Result, workdir: Path) -> list[str]:
    checker = _Checker(result)
    _JUDGES[kind](checker, expect, workdir)
    return checker.problems


def problem_keys(problems: list[str]) -> set[str]:
    return {p.split(":", 1)[0] for p in problems}
