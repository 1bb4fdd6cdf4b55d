"""The trace export: the trajectory sampled at a rate, as rows.

Dense samples exist only for the trace export: one sampling loop yields
each segment's waypoint row and then its inner rows in column blocks, where
a column the segment holds still is one value. A routine repeats a few servo
moves on whole seconds, so the loop keeps, per call, what a repeated segment
shape gives besides its start time and wheel angle (the interpolated servo
columns with their text, the time and wheel-angle offsets, and the text of
each row but its whole seconds after a whole-second start), block by block,
up to one block of rows in all. :func:`write_trace_file` joins that text
with the block's whole seconds, formats per row only ``t`` where a block has
no such text and the wheel columns where the wheel turns, and streams the
rows to disk, a long trace in contiguous ranges of segments, one per usable
CPU: forked workers format the later ranges into anonymous memory files,
appended in order, so the bytes are those of one process. :func:`simulate`
expands the blocks into :class:`TraceSample` objects.

The trace file is comma-delimited text, one row per sample
``t,s1,s2,s3,theta_wheel_deg,x_m,engaged,event_flags`` with a mandatory
header row and values printed to 9 significant digits.
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from itertools import accumulate, chain, repeat

from .errors import InvalidParameter
from .executor import Motion, Trajectory, analyse
from .fileformat import Outputs
from .mechanism import ServoState, engaged
from .records import record

# Exported samples never step the shaft by more than this, so a reader that
# unwraps the sampled angles sees a continuous path at any sample rate.
_MAX_SHAFT_STEP = 90.0

#: Most rows of the trace export (13x the 150,201 of ``simulate --n 500`` at
#: 50 Hz). :func:`write_trace_file` streams them in column blocks of at most
#: ``_CHUNK_ROWS`` rows, keeping at most ``_CHUNK_ROWS`` more of repeated
#: segment shapes, in O(segments) memory per process, about 41 bytes of file
#: per row (about 83 MB at the cap). The text of its forked workers waits in
#: anonymous memory files until it is appended: the file less the first
#: part, about half of it on two CPUs (about 41 MB at the cap).
#: :func:`simulate` holds every row.
MAX_TRACE_SAMPLES = 2_000_000

TRACE_HEADER = "t,s1,s2,s3,theta_wheel_deg,x_m,engaged,event_flags"
_TRACE_ROW = "%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%d,%d\n"
# Most inner rows in one column block of _trace_blocks, and most rows of the
# segment shapes it keeps: the memory of a trace export is about two blocks
# per process, and it makes about two write() calls per segment.
_CHUNK_ROWS = 4096
# Most processes that format one trace export: the caller and up to three
# forked workers, one per usable CPU.
_EXPORT_PROCESSES = 4
# Fewest rows in each part of a split trace export; a part this size of the
# routine at 50 Hz takes about 8 ms to format, and 2 x 16,384 rows about
# 21 ms split on two CPUs against 27 ms serial; a fork takes about 1 ms.
_MIN_PART_ROWS = 4 * _CHUNK_ROWS
_CAN_SPLIT = all(hasattr(os, name) for name in ("fork", "memfd_create", "sched_getaffinity"))


class TraceSample(record("TraceSample", "t state theta_wheel_deg x_m engaged event_flags")):
    """One row of the trace export."""

    __slots__ = ()


class SimTrace(record("SimTrace", "samples events")):
    """Time-sampled simulation output plus recorded events (both tuples)."""

    __slots__ = ()

    @property
    def final_theta_deg(self) -> float:
        return self.samples[-1].theta_wheel_deg

    @property
    def final_x_m(self) -> float:
        return self.samples[-1].x_m

    def states(self) -> list[ServoState]:
        return [s.state for s in self.samples]

    def times(self) -> list[float]:
        return [s.t for s in self.samples]


def _subdivisions(seg_dt: float, d_s1: float, sample_rate: float) -> int:
    """Samples one segment contributes to the trace (its end excluded):
    ``sample_rate`` per second and one per ``_MAX_SHAFT_STEP`` of shaft
    travel, at least one. Clamped just above MAX_TRACE_SAMPLES, so an
    overflowing product still reads as too many."""
    if not seg_dt > 0.0:
        return 1
    count = max(seg_dt * sample_rate, abs(d_s1) / _MAX_SHAFT_STEP, 1.0)
    return math.ceil(min(count, MAX_TRACE_SAMPLES + 1.0))


def _sample_counts(trajectory: Trajectory, sample_rate: float) -> list[int]:
    """Per-segment :func:`_subdivisions` of the trace at ``sample_rate``,
    computed before any sampling or file access; a bad rate or more than
    :data:`MAX_TRACE_SAMPLES` rows raise InvalidParameter."""
    if not (math.isfinite(sample_rate) and sample_rate > 0.0):
        raise InvalidParameter(f"sample_rate must be positive, got {sample_rate!r}")
    counts = [_subdivisions(b.t - a.t, b.state.s1 - a.state.s1, sample_rate)
              for _, a, b in trajectory.segments()]
    if sum(counts) + 1 > MAX_TRACE_SAMPLES:
        raise InvalidParameter(f"sample rate {sample_rate!r} Hz gives more than "
                               f"MAX_TRACE_SAMPLES ({MAX_TRACE_SAMPLES}) trace samples")
    return counts


def _shape_rows(subdivisions: int, first: int, stop: int, seg_dt: float, drive: int,
                a1: float, d_s1: float, a2: float, d_s2: float, a3: float, d_s3: float
                ) -> tuple:
    """Inner rows ``first`` to ``stop - 1`` of a segment, relative to its start
    time and wheel angle: what the rows depend on besides those two.

    Returns the ``seg_dt * alpha`` offsets of ``t``; the three servo columns,
    each a list where the servo moves and else its one value; the
    ``drive * (s1 - a1)`` offsets of the wheel angle, or None where the wheel
    holds; and the servo columns' ``"%.9g,%.9g,%.9g"`` text, one string per row.
    """
    alphas = [j / subdivisions for j in range(first, stop)]
    # delta * alpha is float(delta), a zero of delta's sign, for every
    # alpha > 0, so a constant column holds the value the varying expression gives.
    servos = [[start + delta * alpha for alpha in alphas] if delta else start + float(delta)
              for start, delta in ((a1, d_s1), (a2, d_s2), (a3, d_s3))]
    moving = [column for column in servos if type(column) is list]
    template = ",".join(["%.9g" if type(column) is list else "%.9g" % column
                         for column in servos])
    text = map(template.__mod__, zip(*moving)) if moving else repeat(template, len(alphas))
    turns = [drive * (s - a1) for s in servos[0]] if drive and d_s1 else None
    return ([seg_dt * alpha for alpha in alphas], *servos, turns, text)


def _time_fractions(offsets: list[float], digits: int) -> tuple:
    """``(k, fractions)`` such that ``"%.9g" % (t0 + offset)`` is
    ``str(T + k) + fraction`` for each offset, wherever ``t0`` is a whole
    number ``T`` of ``digits`` digits below 10**9 and ``T + k < 10**digits``;
    ``(None, [])`` where that is not certain. Each offset (a float >= 0) is
    rounded exactly, from its integer ratio, to the ``9 - digits`` decimals
    ``T + offset`` keeps. ``t0 + offset`` is off by at most 10**9 * 2**-53
    (1.1e-7) of a last-place unit, so offsets within 2e-7 of one from a
    rounding tie, or rounding to different whole seconds, decline."""
    scale = 10 ** (9 - digits)
    seconds = None
    fractions = []
    for offset in offsets:
        n, m = offset.as_integer_ratio()
        q, r = divmod(n * scale, m)
        tie = 2 * r - m
        if abs(tie) * 2_500_000 <= m:  # |r / m - 1/2| <= 2e-7
            return None, []
        k, last = divmod(q + (tie > 0), scale)
        if k != seconds:
            if seconds is not None:
                return None, []
            seconds = k
        fraction = str(last + scale)[1:].rstrip("0")
        fractions.append("." + fraction if fraction else "")
    return seconds, fractions


def _trace_blocks(motion: Motion, counts: list[int], start: int, stop: int
                  ) -> Iterator[tuple]:
    """The trace of segments ``start`` to ``stop - 1`` of ``motion``,
    ``counts[i]`` rows on segment i, then, if ``stop`` is the last segment's
    end, the last waypoint's row. The one sampling loop behind
    :func:`simulate` and each part of :func:`write_trace_file`.

    Each segment gives its waypoint row ``(t, s1, s2, s3, theta_wheel_deg,
    x_m, engaged, event_flags)``, then its inner rows in column blocks of at
    most ``_CHUNK_ROWS`` rows: the segment's start time, the list of the
    rows' offsets from it, then the seven other columns, each a list holding
    the column's value on every row of the block, or one value shared by all
    of them where the column is constant over the segment, and a tenth, read
    once, with the block's text. A block has ten items and a row eight.
    Constant columns hold the value the varying expression gives, so a -0.0
    servo angle reads -0.0 on its waypoint row and 0.0 on the inner rows.

    A routine repeats a few servo moves, so :func:`_shape_rows` runs once per
    block of a segment shape and only the start time and wheel angle are
    added per row. A block is keyed by its first row, its segment's sample
    count and duration, and the identity of the segment's two servo states,
    which fix every servo value and the wheel coupling and outlive the call.
    Blocks are kept while they fit in ``_CHUNK_ROWS`` rows in all, and only
    for this call, so memory stays O(one block).

    A kept block of a segment that starts on a whole second ``T``, ``1 <= T
    < 10**9``, also keeps, per digit count of ``T`` and against the same
    room, one piece per row: its :func:`_time_fractions` fraction, a comma,
    its servo text and a comma, then ``%.9g,%.9g,`` where the wheel turns.
    The block's text is then the pair of ``str(T + k)`` and those pieces;
    else it is each row's ``s1,s2,s3`` text, as for a block not kept, whose
    time text would cost about as much as formatting ``t`` per row and
    serve once.
    """
    trajectory = motion.trajectory
    waypoints = trajectory.waypoints
    radius = trajectory.geometry.wheel_radius
    radians = math.radians
    shapes: dict[tuple, tuple] = {}
    room = _CHUNK_ROWS
    for i, a, b, subdivisions in zip(range(start, stop), waypoints[start:],
                                     waypoints[start + 1:stop + 1], counts[start:stop]):
        t0, a1, a2, a3 = a.t, a.state.s1, a.state.s2, a.state.s3
        seg_dt = b.t - t0
        d_s1, d_s2, d_s3 = b.state.s1 - a1, b.state.s2 - a2, b.state.s3 - a3
        drive, flags, theta = motion.drives[i], motion.flags[i], motion.theta_deg[i]
        driving = drive != 0
        yield (t0, a1, a2, a3, theta, radius * radians(theta),
               engaged(a.state), flags)
        whole = int(t0) if 1 <= t0 < 10 ** 9 and t0 == int(t0) else 0
        digits = len(str(whole))
        for first in range(1, subdivisions, _CHUNK_ROWS):
            key = (first, subdivisions, seg_dt, id(a.state), id(b.state))
            rows = shapes.get(key)
            if rows is None:
                rows = _shape_rows(subdivisions, first, min(first + _CHUNK_ROWS, subdivisions),
                                   seg_dt, drive, a1, d_s1, a2, d_s2, a3, d_s3)
                if len(rows[0]) <= room:
                    rows = shapes[key] = (*rows[:-1], list(rows[-1]))
                    room -= len(rows[0])
            offsets, s1, s2, s3, turns, text = rows
            if turns is None:  # theta + drive * 0.0 is theta, which is never -0.0
                theta_now, x = theta, radius * radians(theta)
            else:
                theta_now = [theta + turn for turn in turns]
                x = [radius * radians(th) for th in theta_now]
            if whole and key in shapes:
                k, pieces = shapes.get((key, digits), (None, None))
                if pieces is None and len(offsets) <= room:
                    k, fractions = _time_fractions(offsets, digits)
                    columns = "," if turns is None else ",%.9g,%.9g,"
                    pieces = [fraction + "," + servo + columns
                              for fraction, servo in zip(fractions, text)]
                    shapes[key, digits] = k, pieces
                    room -= len(offsets)
                if k is not None and whole + k < 10 ** digits:
                    text = (str(whole + k), pieces)
            yield (t0, offsets, s1, s2, s3, theta_now, x, driving, flags, text)
    if stop == len(counts):
        last = waypoints[-1]
        yield (last.t, last.state.s1, last.state.s2, last.state.s3, motion.final_theta_deg,
               motion.final_x_m, engaged(last.state),
               motion.flags[-1] if motion.flags else 0)


def _block_rows(block: tuple) -> Iterable[tuple]:
    """The rows of one item of :func:`_trace_blocks`: a waypoint row as it
    is, a block expanded with its times and constant columns repeated."""
    if len(block) == 8:
        return (block,)
    t0, offsets = block[:2]
    n = len(offsets)
    return zip([t0 + offset for offset in offsets],
               *(column if type(column) is list else repeat(column, n)
                 for column in block[2:9]))


def simulate(trajectory: Trajectory, sample_rate: float = 50.0) -> SimTrace:
    """:func:`analyse` the trajectory, then sample it for the trace export.

    Samples interpolate each segment linearly; results are exact at
    waypoints. Odometry is the rolling relation x = radius * theta in
    radians at every sample. A sample carries its segment's event flags
    (the last sample those of the last segment), and is engaged at a
    waypoint iff that waypoint is, between waypoints iff its segment turns
    the wheel. No violation raises; :func:`analyse` lists them.

    The sample count is computed first: a rate that is not positive and
    finite, or more than :data:`MAX_TRACE_SAMPLES` samples, raise
    InvalidParameter. :func:`write_trace_file` streams the same rows
    to a file without building them here.
    """
    counts = _sample_counts(trajectory, sample_rate)
    motion = analyse(trajectory)
    rows = chain.from_iterable(map(_block_rows, _trace_blocks(motion, counts, 0, len(counts))))
    samples = tuple(TraceSample(t, ServoState(s1, s2, s3), theta, x, is_engaged, flags)
                    for t, s1, s2, s3, theta, x, is_engaged, flags in rows)
    return SimTrace(samples, motion.events)


def _export_cpus() -> int:
    """How many usable CPUs a trace export may be formatted on, or 0: on a
    platform that cannot fork a worker that writes to an anonymous memory
    file, or while a second thread is alive, since a forked copy of this
    process would hold whatever locks that thread held."""
    if not _CAN_SPLIT or threading.active_count() > 1:
        return 0
    return len(os.sched_getaffinity(0))


def _export_parts(counts: list[int], processes: int) -> list[int]:
    """Segment bounds of the parts a trace export is formatted in: part k
    holds segments ``bounds[k]`` to ``bounds[k + 1] - 1``.

    There is one part per process, at most :data:`_EXPORT_PROCESSES`, of
    about equal row counts. There are fewer parts where one would hold fewer
    than ``_MIN_PART_ROWS`` rows, and one, ``[0, len(counts)]``, where no two
    parts would."""
    whole = [0, len(counts)]
    wanted = min(processes, _EXPORT_PROCESSES, (sum(counts) + 1) // _MIN_PART_ROWS)
    if wanted < 2:
        return whole
    rows = [0, *accumulate(counts)]
    rows[-1] += 1  # the last waypoint's row
    for parts in range(wanted, 1, -1):
        bounds = [0, *(bisect_left(rows, rows[-1] * k / parts) for k in range(1, parts)),
                  len(counts)]
        if all(rows[stop] - rows[start] >= _MIN_PART_ROWS
               for start, stop in zip(bounds, bounds[1:])):
            return bounds
    return whole


def _write_rows(out, motion: Motion, counts: list[int], start: int, stop: int) -> None:
    """Write the rows :func:`_trace_blocks` gives for segments ``start`` to
    ``stop - 1`` to the text file ``out``, each formatted by ``_TRACE_ROW``.
    Each block's constant columns are formatted once, into the tail of its
    rows. A block with the time text of its shape is one join of that text,
    the block's whole seconds and the tail, with ``theta_wheel_deg`` and
    ``x_m`` formatted per row where the wheel turns; any other block formats
    ``t`` per row too, in a row template around its servo text."""
    for block in _trace_blocks(motion, counts, start, stop):
        if len(block) == 8:
            out.write(_TRACE_ROW % block)
            continue
        t0, offsets, _, _, _, theta, x, driving, flags, text = block
        turning = type(theta) is list
        tail = "%d,%d\n" % (driving, flags)
        if not turning:
            tail = "%.9g,%.9g," % (theta, x) + tail
        if type(text) is tuple:
            head, pieces = text
            rows = head + (tail + head).join(pieces) + tail
            if turning:  # the (theta, x) pairs, interleaved
                values = theta * 2
                values[::2], values[1::2] = theta, x
                rows %= tuple(values)
            out.write(rows)
            continue
        t = [t0 + offset for offset in offsets]
        if turning:
            template, columns = "%.9g,%s,%.9g,%.9g," + tail, (t, text, theta, x)
        else:
            template, columns = "%.9g,%s," + tail, (t, text)
        out.write("".join(map(template.__mod__, zip(*columns))))


def _fork_part(part: int, motion: Motion, counts: list[int], start: int, stop: int) -> int:
    """Fork a worker that writes the rows of segments ``start`` to
    ``stop - 1`` to the file descriptor ``part``; returns its pid. The worker
    leaves only through ``os._exit``, with status 0 once every row is
    written, so it never flushes the caller's buffers or runs its exit
    handlers, and an exception in it never returns into the caller's code."""
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            with open(part, "w", encoding="utf-8", closefd=False) as text:
                _write_rows(text, motion, counts, start, stop)
            status = 0
        finally:
            os._exit(status)
    return pid


def write_trace_file(motion: Motion, path, sample_rate: float = 50.0) -> None:
    """Write the trace of ``motion`` at ``sample_rate``: the header row, then
    each row of :func:`simulate`'s samples formatted by ``_TRACE_ROW``,
    streamed to the file a column block at a time, so memory stays
    O(segments) at any sample count.

    A long trace is formatted in parts, one per usable CPU (see
    :func:`_export_parts`): this process streams the first part to the file
    while a forked worker per later part writes it to an anonymous memory
    file, which is appended in order once the worker has exited with status
    0. The bytes are those of the serial export. A worker that fails raises
    OSError; on any error every worker still running is killed, and every
    worker is reaped before this returns or raises.

    The file is written all or nothing (see
    :class:`homeowheel.fileformat.Outputs`): on any error ``path`` keeps
    what it held. The sample count is checked before any file is created,
    and the file is opened before any worker starts, so a rejected trace
    creates no file and an unwritable path starts no worker."""
    counts = _sample_counts(motion.trajectory, sample_rate)
    bounds = _export_parts(counts, _export_cpus())
    with Outputs() as outputs, outputs.open(path) as out:
        out.write(TRACE_HEADER + "\n")
        parts: list[int] = []
        running: list[int] = []
        try:
            for start, stop in zip(bounds[1:], bounds[2:]):
                parts.append(os.memfd_create("trace-part", os.MFD_CLOEXEC))
                running.append(_fork_part(parts[-1], motion, counts, start, stop))
            _write_rows(out, motion, counts, bounds[0], bounds[1])
            out.flush()
            for part in parts:
                _, status = os.waitpid(running[0], 0)
                del running[0]
                if status:
                    raise OSError(f"trace export worker failed with exit status "
                                  f"{os.waitstatus_to_exitcode(status)}")
                size = os.fstat(part).st_size
                sent = 0
                while sent < size:  # not sendfile, which refuses a file in append mode (>>)
                    sent += os.write(out.fileno(), os.pread(part, min(size - sent, 1 << 16), sent))
        finally:
            if running:
                from signal import SIGKILL  # only on this error path: its import takes 1 ms
                for pid in running:
                    os.kill(pid, SIGKILL)
                    os.waitpid(pid, 0)
            for part in parts:
                os.close(part)
