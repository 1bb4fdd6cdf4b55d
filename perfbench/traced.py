"""In-process replay of a workload through ``homeowheel.cli.run``, with spans
around the calls into each layer.

Tracing lives in the benchmark, not in the program: before a traced replay
the public functions of each layer are wrapped in every ``homeowheel``
module namespace that binds them (``executor.validate_trajectory`` and
``cli.validate_trajectory`` alike), so calls made inside other layers are
seen too. A span records its name, start, end, parent span and command
index; spans stay in memory until the run ends. Per-sample predicate calls
are counted in a separate replay, so their wrappers do not inflate the
timed spans.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import io
import os
import statistics
import sys
import time
import traceback
from collections import Counter

from oracle import Result


def _samples(counts, args, kwargs, result):
    counts["executor.samples"] += len(result.samples)
    counts["executor.waypoints"] += len(args[0].waypoints)


def _size_of(key, position):
    def count(counts, args, kwargs, result):
        counts[key] += os.path.getsize(args[position])
    return count


def _validate_calls(counts, args, kwargs, result):
    counts["executor.validate_calls"] += 1


def _ledger_entries(counts, args, kwargs, result):
    counts["tegument.ledger_entries"] += len(result)


# (module, function) -> (span name, count hook)
LAYERS = {
    ("cli", "run"): ("cli.run", None),
    ("executor", "simulate"): ("executor.simulate", _samples),
    ("executor", "validate_trajectory"): ("executor.validate", _validate_calls),
    ("executor", "write_trace_file"): ("executor.export_csv", _size_of("executor.csv_bytes", 1)),
    ("executor", "write_trajectory_file"): ("executor.export_json",
                                            _size_of("executor.json_bytes", 1)),
    ("executor", "read_trajectory_file"): ("executor.parse", _size_of("executor.parsed_bytes", 0)),
    ("executor", "build_rotate_wheel_2n"): ("executor.build", None),
    ("tegument", "ledger_history"): ("tegument.ledger", _ledger_entries),
    ("tegument", "check_integrity"): ("tegument.integrity", None),
    ("planner", "plan_rotation"): ("planner.plan", None),
    ("planner", "plan_distance"): ("planner.plan", None),
    ("planner", "generate_gait"): ("planner.gait", None),
    ("planner", "count_engaged_sweeps"): ("planner.sweeps", None),
    ("scaling", "scale"): ("scaling.scale", None),
}

# Called once or more per sample at the seed commit; counted, never timed.
PER_SAMPLE = {
    ("mechanism", "engaged"): "mechanism.predicate_calls",
    ("mechanism", "drive_sign"): "mechanism.predicate_calls",
    ("mechanism", "gimbal_lock_risk"): "mechanism.predicate_calls",
    ("mechanism", "validate_state"): "mechanism.predicate_calls",
    ("rotations", "unwrap_angle"): "rotations.unwrap_calls",
}

SPAN_METRICS = ("cli.parse_args", "cli.run", "executor.simulate", "executor.validate",
                "executor.export_csv", "executor.export_json", "executor.parse",
                "executor.build", "tegument.ledger", "tegument.integrity", "planner.plan",
                "planner.gait", "planner.sweeps", "scaling.scale")
COUNT_METRICS = ("executor.samples", "executor.validate_calls", "executor.csv_bytes",
                 "executor.json_bytes", "executor.parsed_bytes", "executor.waypoints",
                 "tegument.ledger_entries", "mechanism.predicate_calls",
                 "rotations.unwrap_calls")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, command]
        self.stack: list[int] = []
        self.command = -1
        self.counts: Counter = Counter()

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.command]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result
        return traced

    def self_ms(self) -> Counter:
        """Per span name: duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            totals[name] += (end - start - child) * 1000.0
        return totals


@contextlib.contextmanager
def patched(replacements):
    """Bind ``make(fn)`` in place of each ``homeowheel.<module>.<function>``
    in every homeowheel module that binds the same object; undo on exit."""
    saved = []
    try:
        for (module, attr), make in replacements.items():
            fn = getattr(importlib.import_module(f"homeowheel.{module}"), attr)
            wrapper = make(fn)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "") or ""
                if name.split(".")[0] == "homeowheel" and getattr(mod, attr, None) is fn:
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def _tracing(tracer):
    replacements = {key: (lambda fn, n=name, c=count: tracer.wrap(n, fn, c))
                    for key, (name, count) in LAYERS.items()}

    def build_parser(fn):
        inner = tracer.wrap("cli.parse_args", fn)

        def build():
            parser = inner()
            parser.parse_args = tracer.wrap("cli.parse_args", parser.parse_args)
            return parser
        return build

    replacements[("cli", "build_parser")] = build_parser
    return patched(replacements)


def _counting(counts):
    def make(key):
        def wrap(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted
        return wrap
    return patched({k: make(v) for k, v in PER_SAMPLE.items()})


def replay(commands, workdir, tracer=None) -> tuple[float, list[Result]]:
    """Run every command through ``cli.run`` back to back; returns the wall
    time and each command's exit code and output."""
    import homeowheel.cli as cli

    results = []
    cwd = os.getcwd()
    os.chdir(workdir)
    gc.collect()
    try:
        start = time.perf_counter()
        for index, cmd in enumerate(commands):
            if tracer is not None:
                tracer.command = index
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.run(list(cmd.argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
                except Exception:
                    traceback.print_exc()
                    code = 1
            results.append(Result(code, out.getvalue(), err.getvalue()))
        wall = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    return wall, results


def run_traced(commands, workdir, seconds, verify):
    """Alternate untraced and traced replays until ``seconds`` are used up
    (at least one of each), then make one counting replay. ``verify`` judges
    every replay's results. Returns the layer metrics and the spans."""
    verify(replay(commands, workdir)[1])  # warm-up: first-call costs, caches
    start = time.perf_counter()
    plain, traced, per_pass, spans = [], [], [], []
    while True:
        wall, results = replay(commands, workdir)
        plain.append(wall)
        verify(results)
        tracer = Tracer()
        with _tracing(tracer):
            wall, results = replay(commands, workdir, tracer)
        traced.append(wall)
        verify(results)
        layer = tracer.self_ms()
        layer.update(tracer.counts)
        per_pass.append(layer)
        spans += [span + [len(traced) - 1] for span in tracer.spans]
        used = time.perf_counter() - start
        # Leave room for the counting replay, which runs about twice as long.
        if used + 4.0 * max(plain) > seconds:
            break
    counts: Counter = Counter()
    with _counting(counts):
        verify(replay(commands, workdir)[1])
    metrics = {}
    for name in SPAN_METRICS:
        key = "cli.self_ms" if name == "cli.run" else f"{name}_ms"
        metrics[key] = statistics.median(p[name] for p in per_pass)
    for name in COUNT_METRICS:
        source = [counts] if name in PER_SAMPLE.values() else per_pass
        metrics[name] = statistics.median(p[name] for p in source)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, spans
