"""Benchmark of the ``homeowheel`` command line.

    python3 perfbench/run.py --workload {simulate_export,check_files,cli_short}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is used from ``src/``
(``PYTHONPATH=src``), not installed.

Load is a closed loop with one client: each ``python -m homeowheel ...``
subprocess starts only after the previous one has exited. One *pass* is the
workload's seeded command list (see ``workloads.py``); passes repeat back
to back until the time is used up, at least twice, so every invocation is
also re-run and must reproduce its stdout and artefacts byte for byte.
Inputs are generated before any timing starts, and every command's exit
code, summary and artefacts are judged by ``oracle.py``.

With ``--trace 0`` it reports the end-to-end metrics:

* ``wall_s``: median wall time of one pass, commands back to back;
* ``cmd_p50_ms``: median wall time of one command, spawn to exit;
* ``cmd_p90_ms``: p90 of the same, only where at least 10 commands lie above
  it (``cli_short``); on the heavy workloads ``wall_s`` stands in;
* ``setup_s``: median wall time of a fresh interpreter that imports
  ``homeowheel.cli`` and exits;
* ``peak_rss_mb``: the largest peak resident set of any command (``wait4``);
* ``failed_ratio``: commands that failed the oracle over commands attempted.

With ``--trace 1`` it replays the pass in-process with spans around each
layer (``traced.py``) and reports the per-layer metrics, including the
import split from ``-X importtime`` and the tracing overhead.

Every metric is printed as ``name: value unit``; the last line is one JSON
object carrying the metrics ``BENCHMARK.json`` lists for the mode. A result
file with the metrics, the failures and the machine's description is kept
under ``.perfbench_run/results/``. Failures listed in ``known_defects.json``
(defects of the program at the commit that added this benchmark, with the
exact oracle checks they miss) count as failed but leave ``correct`` true;
any other failure makes it false.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
COMMAND_TIMEOUT_S = 150.0
SETUP_SPAWNS = 4
IMPORTTIME_SPAWNS = 5


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Spawned:
    seconds: float
    rss_kb: int
    result: oracle.Result


class Spawner:
    """Runs one child at a time with stdout and stderr in reusable files."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        self.out = tempfile.TemporaryFile(dir=workdir)
        self.err = tempfile.TemporaryFile(dir=workdir)

    def close(self) -> None:
        self.out.close()
        self.err.close()

    def run(self, argv) -> Spawned:
        for f in (self.out, self.err):
            f.seek(0)
            f.truncate()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=self.out, stderr=self.err)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        outputs = []
        for f in (self.out, self.err):
            f.seek(0)
            outputs.append(f.read().decode("utf-8", "replace"))
        return Spawned(seconds, usage.ru_maxrss, oracle.Result(proc.returncode, *outputs))

    def homeowheel(self, cmd) -> Spawned:
        return self.run([sys.executable, "-m", "homeowheel", *cmd.argv])


@dataclass
class Verifier:
    """Judges each pass with the oracle and checks that every command
    reproduces the stdout and artefacts of its first run."""

    workdir: Path
    commands: list
    known: dict
    first: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: dict = field(default_factory=dict)  # id -> set of problems

    def __call__(self, results) -> None:
        for cmd, result in zip(self.commands, results):
            problems = oracle.judge(cmd.kind, cmd.expect, result, self.workdir)
            digest = [result.stdout] + [self._digest(name) for name in cmd.outputs]
            if self.first.setdefault(cmd.id, digest) != digest:
                problems.append("determinism: stdout or artefacts differ from the first run")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.failures.setdefault(cmd.id, set()).update(problems)

    def _digest(self, name: str) -> str:
        try:
            return hashlib.sha256((self.workdir / name).read_bytes()).hexdigest()
        except OSError:
            return "missing"

    def unexpected(self) -> dict:
        """Failures not covered by a known defect's recorded checks."""
        out = {}
        for cid, problems in self.failures.items():
            allowed = set(self.known.get(cid, ()))
            extra = sorted(p for p in problems if p.split(":", 1)[0] not in allowed)
            if extra:
                out[cid] = extra
        return out


def load_known() -> dict:
    doc = json.loads((HERE / "known_defects.json").read_text(encoding="utf-8"))
    return {d["input"]: d["fails"] for d in doc["defects"]}


IMPORT_ARGV = [sys.executable, "-c", "import homeowheel.cli"]


def time_import(spawner: Spawner) -> float:
    spawned = spawner.run(IMPORT_ARGV)
    if spawned.result.exit != 0:
        raise RuntimeError(f"import homeowheel.cli failed:\n{spawned.result.stderr}")
    return spawned.seconds


def measure_importtime(spawner: Spawner) -> dict:
    """Cumulative import times (ms) of homeowheel.cli and numpy, medians."""
    found = {"homeowheel.import_ms": [], "homeowheel.import_numpy_ms": []}
    names = {"homeowheel.cli": "homeowheel.import_ms", "numpy": "homeowheel.import_numpy_ms"}
    for _ in range(IMPORTTIME_SPAWNS):
        spawned = spawner.run([sys.executable, "-X", "importtime", "-c", "import homeowheel.cli"])
        seen = dict.fromkeys(found, 0.0)
        for line in spawned.result.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in names:
                seen[names[parts[2].strip()]] = int(parts[1]) / 1000.0
        for key, value in seen.items():
            found[key].append(value)
    return {key: statistics.median(values) for key, values in found.items()}


def run_subprocess(wl, spawner, verifier, seconds):
    """Closed loop over passes. Import timings for ``setup_s`` are spread
    over the run, a few before the first pass and one after each, so that
    they see the same machine as the passes. Returns pass walls, command
    times, import times and the peak RSS in KiB."""
    time_import(spawner)  # compiles bytecode on a fresh checkout
    setup = [time_import(spawner) for _ in range(SETUP_SPAWNS)]
    start = time.perf_counter()
    walls, times, rss = [], [], []
    while True:
        pass_start = time.perf_counter()
        spawned = [spawner.homeowheel(cmd) for cmd in wl.commands]
        walls.append(time.perf_counter() - pass_start)
        verifier([s.result for s in spawned])
        times += [s.seconds for s in spawned]
        rss += [s.rss_kb for s in spawned]
        setup.append(time_import(spawner))
        left = seconds - (time.perf_counter() - start)
        if len(walls) >= 2 and left < walls[-1]:
            return walls, times, setup, max(rss)


def environment(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "homeowheel").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(), "numpy": numpy_version,
            "commit": commit, "source_sha256": source.hexdigest(), "seed": args.seed,
            "trace": bool(args.trace), "workload": args.workload, "seconds": args.seconds,
            "size": args.size, "utc": datetime.now(timezone.utc).isoformat(timespec="seconds")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="work per pass; 'tiny' is for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "homeowheel" / "cli.py").is_file():
        print(f"perfbench: no homeowheel sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    wl = workloads.build(args.workload, args.seed, args.size)
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    spawner = Spawner(workdir)
    try:
        wl.write_inputs(workdir)
        verifier = Verifier(workdir, wl.commands, load_known())
        if args.trace:
            sys.path.insert(0, str(SRC))
            import traced

            metrics = measure_importtime(spawner)
            layers, spans = traced.run_traced(wl.commands, workdir, args.seconds, verifier)
            metrics.update(layers)
            report = [(name, value, _unit(name), "") for name, value in metrics.items()]
        else:
            walls, times, setup, rss_kb = run_subprocess(wl, spawner, verifier, args.seconds)
            ms = sorted(t * 1000.0 for t in times)
            metrics = {"wall_s": statistics.median(walls),
                       "cmd_p50_ms": statistics.median(ms),
                       "setup_s": statistics.median(setup),
                       "peak_rss_mb": rss_kb / 1024.0}
            report = [("wall_s", metrics["wall_s"], "s", f"median of {len(walls)} passes"),
                      ("cmd_p50_ms", metrics["cmd_p50_ms"], "ms", f"{len(ms)} commands")]
            above = len(ms) - math.ceil(0.9 * len(ms))
            if above >= 10:
                p90 = statistics.quantiles(ms, n=10)[8]
                report.append(("cmd_p90_ms", p90, "ms", f"{len(ms)} commands, {above} above"))
            else:
                report.append(("cmd_p90_ms", None, "ms",
                               f"not reported: {above} commands above p90 (< 10); "
                               "wall_s stands in"))
            report += [("setup_s", metrics["setup_s"], "s", f"median of {len(setup)} spawns"),
                       ("peak_rss_mb", metrics["peak_rss_mb"], "MB", "largest child")]
        failed_ratio = verifier.failed / verifier.attempted
        report.append(("failed_ratio", failed_ratio, "ratio",
                       f"{verifier.failed} of {verifier.attempted} commands"))
        unexpected = verifier.unexpected()
        env = environment(args)
        results = WORK / "results"
        results.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = {"environment": env, "metrics": metrics, "failed_ratio": failed_ratio,
                  "attempted": verifier.attempted, "failed": verifier.failed,
                  "failures": {k: sorted(v) for k, v in verifier.failures.items()},
                  "unexpected_failures": unexpected}
        (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
        if args.trace:
            (results / f"{stem}-spans.json").write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "command", "replay"],
                 "spans": spans}) + "\n")
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']}")
    for name, value, unit, note in report:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name}: {shown} {unit}" + (f"  ({note})" if note else ""))
    for cid, problems in sorted(verifier.failures.items()):
        tag = "UNEXPECTED" if cid in unexpected else "known defect"
        print(f"failed {cid} [{tag}]: " + "; ".join(sorted(problems)))
    print(json.dumps({"correct": not unexpected, "attempted": verifier.attempted,
                      "failed": verifier.failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in wanted}}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


if __name__ == "__main__":
    sys.exit(main())
