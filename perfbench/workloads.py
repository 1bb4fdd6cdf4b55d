"""Seeded workload generators for the homeowheel CLI benchmark.

A workload is one *pass*: a fixed list of CLI invocations plus the input
files they read. The benchmark repeats the pass back to back, so every
invocation also runs at least twice, which doubles as the determinism check.
Everything here is derived from the seed with this module's own code; the
program under test only ever sees the argv and the files written here.

Each command carries the expectation the oracle judges it by. Expectations
come from this module's own analytic model of the mechanism (clutch rule,
range and rate limits, piecewise-linear extremes), never from the program.
The size of the work is fixed per workload and does not depend on the seed,
so run-to-run spread measures the machine rather than the inputs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

ENGAGE_TOL = 1e-9
GIMBAL_TOL = 1e-6
RATE_GUARD = 1e-12
FORWARD = (90.0, -90.0)   # (s2, s3): increasing s1 turns the wheel forward
BACKWARD = (-90.0, 90.0)  # (s2, s3): increasing s1 turns the wheel backward

DEFAULT_GEOMETRY = {"wheel_radius_m": 0.1, "gantry_offset_m": 0.1,
                    "upper_link_length_m": 0.2, "lower_link_length_m": 0.15}
DEFAULT_RANGES = {"s1": (0.0, 360.0), "s2": (-90.0, 90.0), "s3": (-90.0, 90.0)}
DEFAULT_RATES = {"s1": 360.0, "s2": 360.0, "s3": 360.0}

# Work per pass. "full" is what the benchmark measures; "tiny" exists so the
# self-test can exercise every code path in a few seconds.
SIZES = {
    "full": {"sim_n": 500, "sim_cmds": 2, "long_s": 1000.0, "defect_s": 400.0,
             "small_s": 20.0},
    "tiny": {"sim_n": 2, "sim_cmds": 1, "long_s": 30.0, "defect_s": 30.0,
             "small_s": 10.0},
}

WORKLOADS = ("simulate_export", "check_files", "cli_short")


@dataclass(frozen=True)
class Command:
    """One CLI invocation (argv after ``python -m homeowheel``) and what the
    oracle expects of it. ``outputs`` are the artefacts it writes."""

    id: str
    argv: tuple[str, ...]
    kind: str
    expect: dict
    outputs: tuple[str, ...] = ()


@dataclass
class Workload:
    name: str
    commands: list[Command]
    files: dict[str, str] = field(default_factory=dict)

    def write_inputs(self, workdir: Path) -> None:
        for name, text in self.files.items():
            (workdir / name).write_text(text, encoding="utf-8")


# --------------------------------------------------------------------------
# Analytic model of a trajectory: the oracle's expectations for ``check``.


def _drive(s2: float, s3: float) -> int:
    if abs(s2 - 90.0) <= ENGAGE_TOL and abs(s3 + 90.0) <= ENGAGE_TOL:
        return 1
    if abs(s2 + 90.0) <= ENGAGE_TOL and abs(s3 - 90.0) <= ENGAGE_TOL:
        return -1
    return 0


def _passes_gimbal(a, b) -> bool:
    """Whether the linear (s2, s3) path from a to b comes within GIMBAL_TOL
    of (0, 0). max(|s2|, |s3|) is convex and piecewise linear in alpha, so
    its minimum sits at an end or at a breakpoint."""
    d2, d3 = b[2] - a[2], b[3] - a[3]
    alphas = [0.0, 1.0]
    for num, den in ((-a[2], d2), (-a[3], d3), (a[3] - a[2], d2 - d3),
                     (-a[2] - a[3], d2 + d3)):
        if den != 0.0:
            alphas.append(num / den)
    return min(max(abs(a[2] + d2 * x), abs(a[3] + d3 * x))
               for x in alphas if 0.0 <= x <= 1.0) <= GIMBAL_TOL


def analyse(waypoints, ranges, rates, policy="strict") -> dict:
    """Expected ``check`` summary of a trajectory given as (t, s1, s2, s3)."""
    violations: dict[str, int] = {}
    events: dict[str, int] = {}

    def bump(table, key, by=1):
        table[key] = table.get(key, 0) + by

    out_of_range = 0
    for wp in waypoints:
        for servo, value in zip(("s1", "s2", "s3"), wp[1:]):
            lo, hi = ranges[servo]
            if not lo <= value <= hi:
                out_of_range += 1
    if out_of_range:
        bump(violations, "RangeViolation", out_of_range)
        bump(events, "RangeViolation", out_of_range)
    theta = 0.0
    for a, b in zip(waypoints, waypoints[1:]):
        dt = b[0] - a[0]
        if not dt > 0.0:
            bump(violations, "TimeOrderViolation")
        else:
            for k, servo in ((1, "s1"), (2, "s2"), (3, "s3")):
                if abs(b[k] - a[k]) / dt > rates[servo] * (1.0 + RATE_GUARD):
                    bump(violations, "RateViolation")
        d_s1 = b[1] - a[1]
        sign = _drive(a[2], a[3])
        drive = sign if sign != 0 and sign == _drive(b[2], b[3]) else 0
        if d_s1 != 0.0 and drive == 0:
            bump(events, "DisengagedShaftMotion")
            if policy == "strict" and dt > 0.0:
                bump(violations, "DisengagedShaftMotion")
            if _passes_gimbal(a, b):
                bump(events, "GimbalLockRisk")
        theta += drive * d_s1
    twist = [max(abs(wp[k]) for wp in waypoints) for k in (2, 1, 3)]
    integrity = out_of_range == 0
    return {"ok": int(not violations and integrity), "integrity_ok": int(integrity),
            "violations": violations, "events": events, "theta": theta,
            "max_twist": twist}


# --------------------------------------------------------------------------
# Trajectory files


class _Path:
    """Accumulates waypoints; each move lasts the longer of one second and the
    time every servo needs at its rate limit, unless ``dt`` is forced."""

    def __init__(self, start, rates):
        self.rates = rates
        self.wps = [(0.0, *start)]

    @property
    def t(self) -> float:
        return self.wps[-1][0]

    @property
    def state(self):
        return self.wps[-1][1:]

    def move(self, s1=None, s2=None, s3=None, dt=None):
        old = self.state
        new = (old[0] if s1 is None else s1, old[1] if s2 is None else s2,
               old[2] if s3 is None else s3)
        if new == old:
            return
        if dt is None:
            dt = max([1.0] + [abs(n - o) / self.rates[s]
                                      for n, o, s in zip(new, old, ("s1", "s2", "s3"))])
        self.wps.append((self.t + dt, *new))

    def configure(self, config):
        if (self.state[1], self.state[2]) != config:
            self.move(s3=config[1])
            self.move(s2=config[0])


def sweep_plan(rng, ranges, rates, duration, direction=1.0, defect=None):
    """Greedy full-sweep rectification plan lasting at least ``duration``
    seconds: engage, sweep the whole s1 span, swap configurations, sweep
    back, and so on, then park. ``defect`` injects one flaw mid-plan:
    ``range`` (a sweep overshoots the s1 range), ``rate`` (a sweep runs too
    fast), ``disengaged`` (the shaft turns with the clutch open) or
    ``gimbal`` (both swaps at once while the shaft turns, crossing s2=s3=0).
    """
    lo, hi = ranges["s1"]
    path = _Path((lo, 0.0, 0.0), rates)
    configs = (FORWARD, BACKWARD) if direction > 0 else (BACKWARD, FORWARD)
    inject_at = duration * rng.uniform(0.3, 0.7) if defect else math.inf
    up = True
    sweep = 0
    while path.t < duration:
        config = configs[sweep % 2]
        target = hi if up else lo
        dt = None
        if path.t >= inject_at:
            inject_at = math.inf
            step = 1.0 if up else -1.0
            if defect == "range":
                target += step * rng.uniform(1.0, 10.0)
            elif defect == "rate":
                path.configure(config)
                needed = abs(target - path.state[0]) / rates["s1"]
                dt = needed / rng.uniform(1.5, 3.0)
            elif defect == "disengaged":
                path.move(s3=config[1])
                path.move(s1=path.state[0] + step * rng.uniform(5.0, (hi - lo) / 2))
            elif defect == "gimbal" and path.state[1:] == configs[(sweep + 1) % 2]:
                shaft = path.state[0] + step * rng.uniform(5.0, (hi - lo) / 2)
                path.move(s1=shaft, s2=config[0], s3=config[1],
                          dt=round(rng.uniform(1.0, 3.0), 2))
        path.configure(config)
        path.move(s1=target, dt=dt)
        up, sweep = not up, sweep + 1
    path.move(s3=0.0)
    path.move(s2=0.0)
    return path.wps


def gait_path(period, duration):
    """Periodic rectification gait at the default rate limits (360 deg
    sweeps at most 360 deg/s, 180 deg swaps), as many whole periods as fit
    in about ``duration`` seconds."""
    cycles = max(1, round(duration / period))
    half = period / 2.0
    t_sweep = half / 1.5
    wps = []
    for k in range(cycles):
        base = k * period
        wps += [(base, 0.0, *FORWARD), (base + t_sweep, 360.0, *FORWARD),
                (base + half, 360.0, *BACKWARD), (base + half + t_sweep, 0.0, *BACKWARD)]
    wps.append((cycles * period, 0.0, *FORWARD))
    return wps


def trajectory_json(waypoints, ranges=DEFAULT_RANGES, rates=DEFAULT_RATES,
                    radius=0.1) -> str:
    doc = {"format_version": 1, **DEFAULT_GEOMETRY, "wheel_radius_m": radius,
           "servo_ranges_deg": {k: list(v) for k, v in ranges.items()},
           "max_rates_deg_per_s": dict(rates),
           "waypoints": [{"t": t, "s1": s1, "s2": s2, "s3": s3}
                         for t, s1, s2, s3 in waypoints]}
    return json.dumps(doc, indent=2) + "\n"


def _check_command(wl, cid, name, waypoints, ranges=DEFAULT_RANGES,
                   rates=DEFAULT_RATES, radius=0.1, policy="strict"):
    if name not in wl.files:
        wl.files[name] = trajectory_json(waypoints, ranges, rates, radius)
    argv = ("check", name) + (("--policy", policy) if policy != "strict" else ())
    wl.commands.append(Command(f"{wl.name}/{cid}", argv, "check",
                               analyse(waypoints, ranges, rates, policy)))


# --------------------------------------------------------------------------
# Workloads


def simulate_export(rng, size) -> Workload:
    """Large canonical routines with CSV and trajectory export."""
    wl = Workload("simulate_export", [])
    n = size["sim_n"]
    for i in range(size["sim_cmds"]):
        radius = round(rng.uniform(0.05, 1.0), 4)
        csv, traj = f"trace{i}.csv", f"routine{i}.json"
        wl.commands.append(Command(
            f"simulate_export/sim{i}",
            ("simulate", "--n", str(n), "--radius-m", repr(radius),
             "--out", csv, "--out-traj", traj),
            "simulate", {"n": n, "radius": radius, "csv": csv, "traj": traj},
            (csv, traj)))
    return wl


def _seeded_limits(rng):
    lo = float(rng.randint(0, 200))
    ranges = dict(DEFAULT_RANGES, s1=(lo, lo + rng.randint(20, 120)))
    rates = {"s1": round(rng.uniform(30.0, 360.0), 1),
             "s2": round(rng.uniform(90.0, 720.0), 1),
             "s3": round(rng.uniform(90.0, 720.0), 1)}
    return ranges, rates


def s2_wrap_waypoints():
    """Valid file that ``check`` misjudges at the seed commit: s2 -170 -> 170
    in 0.01 s under an s2 range of (-170, 170) and 1e5 deg/s rates."""
    ranges = dict(DEFAULT_RANGES, s2=(-170.0, 170.0))
    rates = {"s1": 1e5, "s2": 1e5, "s3": 1e5}
    return [(0.0, 0.0, -170.0, 0.0), (0.01, 0.0, 170.0, 0.0)], ranges, rates


def check_files(rng, size) -> Workload:
    """``check`` on large generated files: valid plans under seeded limits,
    a long gait, each defect kind, and the s2 wrap case."""
    wl = Workload("check_files", [])
    ranges, rates = _seeded_limits(rng)
    direction = rng.choice((1.0, -1.0))
    plan = sweep_plan(rng, ranges, rates, size["long_s"], direction)
    _check_command(wl, "greedy", "greedy.json", plan, ranges, rates,
                   radius=round(rng.uniform(0.05, 0.5), 4))
    gait = gait_path(round(rng.uniform(3.0, 12.0), 3), size["long_s"])
    _check_command(wl, "gait", "gait.json", gait)
    for defect in ("range", "rate", "disengaged", "gimbal"):
        wps = sweep_plan(rng, DEFAULT_RANGES, DEFAULT_RATES, size["defect_s"],
                         rng.choice((1.0, -1.0)), defect)
        _check_command(wl, defect, f"{defect}.json", wps)
        if defect == "disengaged":
            _check_command(wl, "disengaged_lenient", "disengaged.json", wps,
                           policy="lenient")
    wps, ranges, rates = s2_wrap_waypoints()
    _check_command(wl, "s2_wrap", "s2_wrap.json", wps, ranges, rates)
    return wl


def cli_short(rng, size) -> Workload:
    """Many short commands over all five subcommands, plus bad inputs."""
    wl = Workload("cli_short", [])
    add = wl.commands.append
    for i in range(3):
        target = round(rng.uniform(-1500.0, 1500.0), 3)
        add(Command(f"cli_short/plan{i}", ("plan", f"--target-deg={target!r}",
                                           "--out", f"plan{i}.json"),
                    "plan", {"target": target, "radius": 0.1, "out": f"plan{i}.json"},
                    (f"plan{i}.json",)))
    distance = round(rng.uniform(-2.0, 2.0), 4)
    radius = round(rng.uniform(0.05, 0.5), 4)
    add(Command("cli_short/plan_distance",
                ("plan", f"--distance-m={distance!r}", "--radius-m", repr(radius),
                 "--out", "plan_distance.json"),
                "plan", {"target": math.degrees(distance / radius), "radius": radius,
                         "out": "plan_distance.json"}, ("plan_distance.json",)))
    for i in range(3):
        period, cycles = round(rng.uniform(3.0, 10.0), 3), rng.randint(1, 3)
        add(Command(f"cli_short/gait{i}", ("gait", "--period-s", repr(period),
                                           "--cycles", str(cycles), "--out", f"gait{i}.json"),
                    "gait", {"period": period, "cycles": cycles, "out": f"gait{i}.json"},
                    (f"gait{i}.json",)))
    ranges, rates = _seeded_limits(rng)
    _check_command(wl, "check_plan", "small_plan.json",
                   sweep_plan(rng, ranges, rates, size["small_s"]), ranges, rates)
    _check_command(wl, "check_gait", "small_gait.json",
                   gait_path(round(rng.uniform(3.0, 10.0), 3), size["small_s"]))
    _check_command(wl, "check_rate", "small_rate.json",
                   sweep_plan(rng, DEFAULT_RANGES, DEFAULT_RATES, size["small_s"],
                              defect="rate"))
    for i in range(2):
        lengths = [round(rng.uniform(0.01, 2.0), 4) for _ in range(rng.randint(2, 3))]
        add(Command(f"cli_short/scale{i}",
                    ("scale", "--lengths-m", ",".join(repr(x) for x in lengths)),
                    "scale", {"lengths": lengths}))
    for i in range(2):
        radius = round(rng.uniform(0.05, 1.0), 4)
        csv, traj = f"sim{i}.csv", f"sim{i}.json"
        add(Command(f"cli_short/simulate{i}",
                    ("simulate", "--n", "1", "--radius-m", repr(radius),
                     "--out", csv, "--out-traj", traj),
                    "simulate", {"n": 1, "radius": radius, "csv": csv, "traj": traj},
                    (csv, traj)))
    wl.files["truncated.json"] = wl.files["small_plan.json"][:200]
    wl.files["config_pair.json"] = '{"servo_ranges_deg": [1, 2]}\n'
    wl.files["config_infinite_rate.json"] = '{"max_rates_deg_per_s": {"s1": Infinity}}\n'
    for cid, argv, code in (
            ("bad_n", ("simulate", "--n", "0"), 2),
            ("bad_no_goal", ("plan", "--out", "bad.json"), 2),
            ("bad_target", ("plan", "--target-deg", "inf", "--out", "bad.json"), 2),
            ("bad_length", ("scale", "--lengths-m", "0"), 2),
            ("bad_missing", ("check", "missing.json"), 2),
            ("bad_truncated", ("check", "truncated.json"), 3),
            ("config_pair", ("gait", "--period-s", "4", "--cycles", "1",
                             "--out", "bad.json", "--config", "config_pair.json"), 2),
            ("config_infinite_rate", ("gait", "--period-s", "1", "--cycles", "1",
                                      "--out", "bad.json", "--config",
                                      "config_infinite_rate.json"), 2)):
        add(Command(f"cli_short/{cid}", argv, "bad", {"exit": code}))
    return wl


def build(name: str, seed: int, size: str = "full") -> Workload:
    generators = {"simulate_export": simulate_export, "check_files": check_files,
                "cli_short": cli_short}
    return generators[name](random.Random(f"{name}:{seed}"), SIZES[size])
