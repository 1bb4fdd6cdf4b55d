"""Self-test of the benchmark, at a tiny size (about a minute):

    python3 perfbench/selftest.py

1. Every workload, in both modes, prints each metric by name with its unit,
   and ends with a JSON line holding exactly the metrics BENCHMARK.json lists.
2. The oracle passes a correct result and flags deliberately wrong ones: a
   CSV one row short, a wrong wheel angle, a flipped ``ok``, a wrong exit
   code, and an artefact that changes between two runs.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import oracle
import run
import workloads

END_TO_END = {"wall_s": "s", "cmd_p50_ms": "ms", "cmd_p90_ms": "ms", "setup_s": "s",
              "peak_rss_mb": "MB", "failed_ratio": "ratio"}
PER_LAYER = {
    "homeowheel.import_ms": "ms", "homeowheel.import_numpy_ms": "ms",
    "cli.parse_args_ms": "ms", "cli.self_ms": "ms", "executor.simulate_ms": "ms",
    "executor.samples": "count", "executor.validate_ms": "ms",
    "executor.validate_calls": "count", "executor.export_csv_ms": "ms",
    "executor.csv_bytes": "bytes", "executor.export_json_ms": "ms",
    "executor.json_bytes": "bytes", "executor.parse_ms": "ms",
    "executor.parsed_bytes": "bytes", "executor.build_ms": "ms",
    "executor.waypoints": "count", "tegument.ledger_ms": "ms", "tegument.integrity_ms": "ms",
    "tegument.ledger_entries": "count", "mechanism.predicate_calls": "count",
    "rotations.unwrap_calls": "count", "planner.plan_ms": "ms", "planner.gait_ms": "ms",
    "planner.sweeps_ms": "ms", "scaling.scale_ms": "ms", "trace.overhead_s": "s",
    "failed_ratio": "ratio",
}
LINE = re.compile(r"^(\S+): (\S+) (\S+)")

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def metric_lines() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in workloads.WORKLOADS:
        for trace, expected, listed in ((0, END_TO_END, spec["end_to_end"]),
                                        (1, PER_LAYER, spec["per_layer"])):
            done = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, timeout=170)
            lines = done.stdout.strip().splitlines()
            printed = {m.group(1): m.group(3) for m in map(LINE.match, lines[:-1]) if m}
            where = f"{name} trace={trace}"
            check(done.returncode == 0, f"{where}: exits 0")
            for metric, unit in expected.items():
                check(printed.get(metric) == unit, f"{where}: prints {metric} in {unit}")
            try:
                last = json.loads(lines[-1])
            except (IndexError, ValueError):
                last = {}
            units = {k: v.get("unit") for k, v in last.get("metrics", {}).items()}
            check(set(last) == {"correct", "attempted", "failed", "metrics"}
                  and last["correct"] is True
                  and units == {m["name"]: m["unit"] for m in listed},
                  f"{where}: JSON line has the listed metrics and correct=true")


def oracle_flags() -> None:
    workdir = run.WORK / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    spawner = run.Spawner(workdir)
    try:
        sim = workloads.build("simulate_export", 1, "tiny").commands[0]
        checks = workloads.build("check_files", 1, "tiny")
        checks.write_inputs(workdir)
        rate = next(c for c in checks.commands if c.id.endswith("/rate"))
        short = workloads.build("cli_short", 1, "tiny")
        short.write_inputs(workdir)
        bad = next(c for c in short.commands if c.id.endswith("/bad_truncated"))

        def problems(cmd, result=None):
            result = result or spawner.homeowheel(cmd).result
            return oracle.problem_keys(oracle.judge(cmd.kind, cmd.expect, result, workdir))

        result = spawner.homeowheel(sim).result
        check(not problems(sim, result), "correct simulate output passes")
        csv = workdir / sim.expect["csv"]
        text = csv.read_text()
        csv.write_text(text[:text.rstrip("\n").rindex("\n") + 1])
        check("csv_rows" in problems(sim, result), "CSV one row short is flagged (csv_rows)")
        csv.write_text(text)
        wrong = oracle.Result(result.exit, result.stdout.replace(
            "theta_wheel_deg=1440.", "theta_wheel_deg=1441."), result.stderr)
        check("theta_wheel_deg" in problems(sim, wrong), "wrong wheel angle is flagged")
        check(not problems(rate), "rate-defect file is judged as generated")
        flipped = replace(rate, expect=dict(rate.expect, ok=1))
        check({"ok", "exit"} <= problems(flipped), "flipped ok expectation is flagged")
        check(not problems(bad), "truncated file exits 3 as expected")
        wrong_code = replace(bad, expect={"exit": 2})
        check("exit" in problems(wrong_code), "wrong expected exit code is flagged")

        verifier = run.Verifier(workdir, [sim], {})
        verifier([result])
        csv.write_text(text + "0,0,0,0,0,0,0,0\n")
        verifier([result])
        check(any(p.startswith("determinism") for p in verifier.failures.get(sim.id, ())),
              "artefact that changes between runs is flagged")
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    oracle_flags()
    metric_lines()
    print(f"{len(failures)} failed" if failures else "all passed")
    sys.exit(1 if failures else 0)
