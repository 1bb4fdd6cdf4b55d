"""The trajectory file format, its parser, configs, and all-or-nothing output.

* Trajectory file: JSON with a header (format_version, wheel radius, link
  lengths, servo ranges, max rates) and a ``waypoints`` array of
  ``{t, s1, s2, s3}`` objects. Angles in degrees, time in seconds, exact
  decimal text, every number finite. :func:`_header` builds the header and
  :func:`_parse_header` reads it back; the geometry field-to-key table
  drives both directions.
* Config (:func:`parse_config`): any subset of the header keys, same parser.
  A key outside the format is an error in either.

Every artefact is written through :class:`Outputs`: a file staged beside the
file the target names, moved over it only once the whole file is written, so
a failed write leaves the old file as it was. The trace export of
:mod:`homeowheel.trace` uses it too, and ``simulate`` nests both writers'
blocks in one of its own by handing them staged paths.
"""

from __future__ import annotations

import json
import math
import os
import stat
import sys
from itertools import chain, count

from .errors import InvalidParameter, TrajectoryParseError
from .executor import MAX_WAYPOINTS, Trajectory, Waypoint
from .mechanism import (
    DEFAULT_GEOMETRY,
    DEFAULT_LIMITS,
    MechanismGeometry,
    ServoLimits,
    ServoState,
)

TRAJECTORY_FORMAT_VERSION = 1

# Header key of each MechanismGeometry field, in file order.
_GEOMETRY_KEYS = {"wheel_radius": "wheel_radius_m", "gantry_offset": "gantry_offset_m",
                  "upper_link_length": "upper_link_length_m",
                  "lower_link_length": "lower_link_length_m"}
_SERVOS = ("s1", "s2", "s3")
_WAYPOINT_KEYS = frozenset(("t", *_SERVOS))
# Top-level keys of the trajectory file format; a config may hold any of them.
_FORMAT_KEYS = frozenset(("format_version", *_GEOMETRY_KEYS.values(), "servo_ranges_deg",
                          "max_rates_deg_per_s", "waypoints"))
_FLOAT_MAX = sys.float_info.max

#: Most bytes read from a trajectory file or a config. The writer's longest
#: waypoint, 162 bytes and a comma, times MAX_WAYPOINTS is 48.9 MB; the rest
#: leaves room for a hand-written header and layout.
MAX_FILE_BYTES = 64 * 1024 * 1024


def _header(geometry: MechanismGeometry, limits: ServoLimits) -> dict:
    """The header of the trajectory file format, in file order."""
    return {
        "format_version": TRAJECTORY_FORMAT_VERSION,
        **{key: getattr(geometry, field) for field, key in _GEOMETRY_KEYS.items()},
        "servo_ranges_deg": {s: list(limits.range_of(s)) for s in _SERVOS},
        "max_rates_deg_per_s": {s: limits.rate_of(s) for s in _SERVOS},
    }


# One waypoint of the trajectory file as ``json.dumps(..., indent=2)`` lays it
# out, for finite floats, which json writes as their repr.
_WAYPOINT_JSON = '\n    {\n      "t": %r,\n      "s1": %r,\n      "s2": %r,\n      "s3": %r\n    }'


def _file_value(index: int, value) -> float:
    """Value ``index`` of the flattened (t, s1, s2, s3) rows as a float, if
    the parser's own test of a waypoint field passes it."""
    try:
        return _number(value, ("t", *_SERVOS)[index % 4], f"$.waypoints[{index // 4}]")
    except TrajectoryParseError as exc:
        raise InvalidParameter(f"cannot write the trajectory: {exc}") from exc


def trajectory_to_json(trajectory: Trajectory) -> str:
    """Serialize to the versioned trajectory file format (deterministic bytes):
    ``json.dumps`` of the header and the waypoints with ``indent=2``, every
    waypoint value written as its float.

    Only what :func:`parse_trajectory` reads back is written: more than
    :data:`MAX_WAYPOINTS` waypoints, a bool or a value that is not a finite
    number (an int beyond the float range included) raise InvalidParameter."""
    rows = [(t, *state) for t, state in trajectory.waypoints]
    if len(rows) > MAX_WAYPOINTS:
        raise InvalidParameter(f"a trajectory file holds at most MAX_WAYPOINTS ({MAX_WAYPOINTS}) "
                               f"waypoints, not {len(rows)}")
    values = list(chain.from_iterable(rows))
    if not (set(map(type, values)) == {float} and all(map(math.isfinite, values))):
        rows = list(zip(*[map(_file_value, count(), values)] * 4))
    frame = json.dumps(_header(trajectory.geometry, trajectory.limits), indent=2)
    return (frame[:-2] + ',\n  "waypoints": ['
            + ",".join(map(_WAYPOINT_JSON.__mod__, rows)) + "\n  ]\n}\n")


def write_trajectory_file(trajectory: Trajectory, path) -> None:
    """Write :func:`trajectory_to_json` to ``path``, all or nothing."""
    text = trajectory_to_json(trajectory)
    with Outputs() as outputs, outputs.open(path) as out:
        out.write(text)


def _load_object(text: str | bytes) -> dict:
    """The lexical layer shared by trajectory files and configs: a UTF-8 JSON
    object without NaN or Infinity."""
    def reject_constant(name: str):
        raise TrajectoryParseError(f"non-finite number {name!r} is not allowed")

    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text,
                         parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise TrajectoryParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, huge integer, deep nesting
        raise TrajectoryParseError(f"unreadable JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TrajectoryParseError("top level must be an object", location="$")
    return doc


def _number(value, key: str, location: str) -> float:
    # abs(value) <= max also rejects inf, NaN and integers beyond the float range.
    if isinstance(value, bool) or not (isinstance(value, (int, float))
                                       and abs(value) <= _FLOAT_MAX):
        raise TrajectoryParseError(f"field {key!r} must be a finite number",
                                   location=f"{location}.{key}")
    return float(value)


def _require(obj: dict, key: str, kind, location: str):
    if key not in obj:
        raise TrajectoryParseError(f"missing required field {key!r}", location=location)
    value = obj[key]
    if kind is float:
        return _number(value, key, location)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TrajectoryParseError(f"field {key!r} has the wrong type",
                                   location=f"{location}.{key}")
    return value


def _known_keys(obj: dict, keys, location: str) -> dict:
    """``obj``, once every key of it is one of ``keys``."""
    for key in obj:
        if key not in keys:
            raise TrajectoryParseError(f"unknown field {key!r}", location=f"{location}.{key}")
    return obj


def _pair(obj: dict, key: str, location: str) -> tuple[float, float]:
    value = _require(obj, key, list, location)
    if len(value) != 2:
        raise TrajectoryParseError(f"field {key!r} must be a [min, max] pair",
                                   location=f"{location}.{key}")
    return (_number(value[0], key, location), _number(value[1], key, location))


def _parse_header(doc: dict, location: str) -> tuple[MechanismGeometry, ServoLimits]:
    """Geometry and limits from the header keys of ``doc``, all required.
    A key outside the format, at the top level or per servo, is an error."""
    _known_keys(doc, _FORMAT_KEYS, location)
    try:
        geometry = MechanismGeometry(**{field: _require(doc, key, float, location)
                                        for field, key in _GEOMETRY_KEYS.items()})
        ranges = _known_keys(_require(doc, "servo_ranges_deg", dict, location), _SERVOS,
                             f"{location}.servo_ranges_deg")
        rates = _known_keys(_require(doc, "max_rates_deg_per_s", dict, location), _SERVOS,
                            f"{location}.max_rates_deg_per_s")
        limits = ServoLimits(
            *(_pair(ranges, s, f"{location}.servo_ranges_deg") for s in _SERVOS),
            *(_require(rates, s, float, f"{location}.max_rates_deg_per_s") for s in _SERVOS))
    except InvalidParameter as exc:
        raise TrajectoryParseError(f"invalid header value: {exc}", location=location) from exc
    return geometry, limits


def parse_trajectory(text: str | bytes) -> Trajectory:
    """Parse the trajectory file format; raises :class:`TrajectoryParseError`
    with line/column (lexical) or location (schema) diagnostics."""
    doc = _load_object(text)
    version = _require(doc, "format_version", int, "$")
    if version != TRAJECTORY_FORMAT_VERSION:
        raise TrajectoryParseError(
            f"unsupported format_version {version!r} "
            f"(expected {TRAJECTORY_FORMAT_VERSION})", location="$.format_version")
    geometry, limits = _parse_header(doc, "$")
    raw_waypoints = _require(doc, "waypoints", list, "$")
    if not raw_waypoints:
        raise TrajectoryParseError("waypoints must be non-empty", location="$.waypoints")
    if len(raw_waypoints) > MAX_WAYPOINTS:
        raise TrajectoryParseError(f"{len(raw_waypoints)} waypoints are more than "
                                   f"MAX_WAYPOINTS ({MAX_WAYPOINTS})", location="$.waypoints")
    waypoints = []
    for idx, entry in enumerate(raw_waypoints):
        location = f"$.waypoints[{idx}]"
        if not isinstance(entry, dict):
            raise TrajectoryParseError("waypoint must be an object", location=location)
        waypoints.append(Waypoint(
            _require(entry, "t", float, location),
            ServoState(_require(entry, "s1", float, location),
                       _require(entry, "s2", float, location),
                       _require(entry, "s3", float, location)),
        ))
        _known_keys(entry, _WAYPOINT_KEYS, location)
    return Trajectory(geometry=geometry, limits=limits, waypoints=tuple(waypoints))


def parse_config(text: str | bytes, overrides: dict | None = None
                 ) -> tuple[MechanismGeometry, ServoLimits]:
    """Geometry and limits from a config: any of the trajectory header keys,
    laid over the defaults' header (per servo for ranges and rates), then the
    non-None ``overrides``, keyed by geometry field (``{"wheel_radius": 0.5}``),
    on top; parsed as strictly as a trajectory file header."""
    doc = _header(DEFAULT_GEOMETRY, DEFAULT_LIMITS)
    for key, value in _load_object(text).items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            value = {**doc[key], **value}
        doc[key] = value
    doc.update({_GEOMETRY_KEYS[f]: v for f, v in (overrides or {}).items() if v is not None})
    return _parse_header(doc, "$")


def read_bounded(path) -> bytes:
    """The bytes of the file at ``path``, of which at most
    :data:`MAX_FILE_BYTES` + 1 are read, so a device or FIFO without end is
    bounded too; a longer file raises :class:`TrajectoryParseError`."""
    with open(path, "rb") as file:
        data = file.read(MAX_FILE_BYTES + 1)
    if len(data) > MAX_FILE_BYTES:
        raise TrajectoryParseError(f"file is longer than MAX_FILE_BYTES ({MAX_FILE_BYTES} bytes)")
    return data


def read_trajectory_file(path) -> Trajectory:
    return parse_trajectory(read_bounded(path))


# --------------------------------------------------------------------------
# All-or-nothing output


def _standard_stream(status: os.stat_result) -> int | None:
    """The first of fds 1, 2 and 0 open on the file of ``status``, or None."""
    for fd in (1, 2, 0):
        try:
            if os.path.samestat(status, os.fstat(fd)):
                return fd
        except OSError:  # closed
            pass
    return None


class Outputs:
    """Files written all or nothing, in a ``with`` block.

    Each target is written where ``open(target, "w")`` would write it,
    following symbolic links as ``open`` does. One that exists and is not a
    regular file (``/dev/null``, a FIFO), or is the file that standard input,
    output or error is open on (``/dev/stdout`` redirected to a file), is
    written in place, and so is a name that ends in a separator, which
    ``open`` rejects; the file of standard output or error is written
    through a duplicate of that descriptor, once ``sys.stdout`` and
    ``sys.stderr`` are flushed, and not truncated, so it follows what the
    command printed before. Any other target is written through a new file
    staged, under a fixed-length name, in the directory of the file the
    target names; a block refuses, with InvalidParameter, a target whose
    file another staged target of the block names.
    Leaving the block normally moves each staged file over that file, in
    order, so a link is kept, dangling or not; leaving it by any exception,
    ``KeyboardInterrupt`` included, removes them, so each target keeps its
    old bytes or gets the complete new ones. The new file gets the mode ``open`` would leave: the
    old file's, or 0o666 less the umask.

    Blocks nest by path: a writer handed a staged path writes it through a
    staged file of its own block and moves that onto it, for this block to
    move in turn. An ``OSError`` that leaves the block naming a staged file
    names its target instead, and removing staged files never replaces the
    error raised.
    """

    def __init__(self):
        # (staged file, file it replaces, target as given, mode or None)
        self._staged: list[tuple[str, str, str, int | None]] = []

    def __enter__(self) -> Outputs:
        return self

    def stage(self, target) -> str:
        """The path to write ``target`` through: ``target`` itself where it
        is written in place, else a staged file, created by :meth:`open`
        only, so a writer that checks its input first creates nothing when
        the check fails."""
        return self._place(target)[0]

    def open(self, target):
        """A text file, opened for writing, that becomes ``target``: its
        staged file, created exclusively, or ``target`` itself where that is
        written in place, through standard output or error where it is
        their file."""
        path, fd = self._place(target)
        if fd in (1, 2):
            sys.stdout.flush()
            sys.stderr.flush()
            fd = os.dup(fd)
        elif path == os.fspath(target):
            return open(path, "w", encoding="utf-8")
        else:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC, 0o666)
        return open(fd, "w", encoding="utf-8")

    def _place(self, target) -> tuple[str, int | None]:
        """:meth:`stage`'s path for ``target``, and the standard stream open
        on the file of an in-place ``target`` (see :func:`_standard_stream`)."""
        target = os.fspath(target)
        if not os.path.basename(target):  # a directory's name: open raises
            return target, None
        try:
            status = os.stat(target)
        except FileNotFoundError:
            mode = None
        else:
            fd = _standard_stream(status)
            if not stat.S_ISREG(status.st_mode) or fd is not None:
                return target, fd
            mode = stat.S_IMODE(status.st_mode)
        file = os.path.realpath(target)
        if any(file == staged[1] for staged in self._staged):
            raise InvalidParameter(f"output {target!r} names the file of another output")
        staged = os.path.join(os.path.dirname(file), f".{os.urandom(8).hex()}.tmp")
        self._staged.append((staged, file, target, mode))
        return staged, None

    def __exit__(self, kind, error, traceback) -> None:
        staged, self._staged = self._staged, []
        moved = 0
        try:
            if kind is None:
                for path, file, _, mode in staged:
                    if mode is not None:
                        os.chmod(path, mode)
                    os.replace(path, file)
                    moved += 1
        except OSError as exc:
            error = exc
            raise
        finally:
            for path, _, target, _ in staged[moved:]:
                try:
                    os.unlink(path)
                except OSError:  # never created, or the error raised matters more
                    pass
                if isinstance(error, OSError) and error.filename == path:
                    error.filename = target
