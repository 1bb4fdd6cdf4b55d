"""Artefacts are written all or nothing: a failed write leaves the target as
it was and no temporary file beside it."""

import contextlib
import errno
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeowheel import fileformat, trace
from homeowheel.cli import run
from homeowheel.executor import analyse, build_rotate_wheel_2n
from homeowheel.fileformat import Outputs, trajectory_to_json, write_trajectory_file
from homeowheel.planner import plan_rotation
from homeowheel.trace import write_trace_file
from reference import reference_trace_csv

OLD = b"old,contents\n1,2\n"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def only(directory: Path, *names: str) -> None:
    """``directory`` holds exactly ``names``: no temporary file is left."""
    assert sorted(p.name for p in directory.iterdir()) == sorted(names)


# The file size limit is set in the child only; SIGXFSZ is ignored so that a
# write over the limit fails with EFBIG instead of killing the child.
FSIZE_CHILD = """
import resource, signal, sys
from homeowheel.cli import run
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 20, 1 << 20))
sys.exit(run(sys.argv[1:]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_FSIZE and SIGXFSZ")
def test_a_write_over_the_file_size_limit_keeps_the_old_file(tmp_path):
    # simulate --n 500 at 50 Hz: 150,202 lines, about 6 MB, far over 1 MB.
    target = tmp_path / "a.csv"
    target.write_bytes(OLD)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", FSIZE_CHILD, "simulate", "--n", "500",
                           "--out", "a.csv"], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 2 and done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("homeowheel: error: ")
    assert target.read_bytes() == OLD
    only(tmp_path, "a.csv")


def test_a_failing_worker_keeps_the_old_file(capsys, tmp_path, monkeypatch, split_export):
    write_rows = trace._write_rows

    def write(out, motion, counts, start, stop):
        if start > 0:
            raise RuntimeError("worker fault")
        write_rows(out, motion, counts, start, stop)
    monkeypatch.setattr(trace, "_write_rows", write)
    target = tmp_path / "a.csv"
    target.write_bytes(OLD)
    with split_export(2) as seen:
        code, stdout, stderr = invoke(capsys, "simulate", "--n", "3", "--out", str(target))
    assert len(seen.forked) == 1
    assert code == 2 and stdout == ""
    assert stderr == "homeowheel: error: trace export worker failed with exit status 1\n"
    assert target.read_bytes() == OLD
    only(tmp_path, "a.csv")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_device_is_written_in_place(capsys):
    # /dev/full is not a regular file: it is written, not replaced, and
    # fails the write.
    before = os.stat("/dev/full")
    code, stdout, stderr = invoke(capsys, "simulate", "--n", "1", "--out", "/dev/full")
    assert code == 2 and stdout == ""
    assert len(stderr.splitlines()) == 1 and "No space left" in stderr
    after = os.stat("/dev/full")
    assert stat.S_ISCHR(after.st_mode) and after.st_ino == before.st_ino


def test_a_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    trajectory = build_rotate_wheel_2n(1)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    try:
        write_trajectory_file(trajectory, fifo)
    finally:
        reader.join(timeout=30)
    assert received == [trajectory_to_json(trajectory).encode("utf-8")]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    only(tmp_path, "pipe")


def test_a_failing_trajectory_file_keeps_the_trace_too(capsys, tmp_path):
    # The trace is written in full first; the trajectory file cannot be
    # created, so neither target is replaced.
    target = tmp_path / "a.csv"
    target.write_bytes(OLD)
    code, stdout, stderr = invoke(capsys, "simulate", "--n", "2", "--out", str(target),
                                  "--out-traj", str(tmp_path / "missing" / "r.json"))
    assert code == 2 and stdout == ""
    assert stderr == ("homeowheel: error: [Errno 2] No such file or directory: "
                      f"'{tmp_path / 'missing' / 'r.json'}'\n")
    assert target.read_bytes() == OLD
    only(tmp_path, "a.csv")


def test_both_files_are_replaced_once_both_are_written(capsys, tmp_path):
    trace_path, traj_path = tmp_path / "a.csv", tmp_path / "r.json"
    trace_path.write_bytes(OLD)
    traj_path.write_bytes(OLD)
    code, _, _ = invoke(capsys, "simulate", "--n", "2", "--out", str(trace_path),
                        "--out-traj", str(traj_path))
    assert code == 0
    trajectory = build_rotate_wheel_2n(2)
    assert trace_path.read_bytes() == reference_trace_csv(analyse(trajectory), 50.0)
    assert traj_path.read_text(encoding="utf-8") == trajectory_to_json(trajectory)
    only(tmp_path, "a.csv", "r.json")


def test_the_mode_is_that_of_open_for_writing(tmp_path):
    trajectory = build_rotate_wheel_2n(1)
    umask = os.umask(0o022)
    try:
        write_trajectory_file(trajectory, tmp_path / "new.json")
        kept = tmp_path / "kept.json"
        kept.write_bytes(OLD)
        kept.chmod(0o640)
        write_trajectory_file(trajectory, kept)
    finally:
        os.umask(umask)
    assert stat.S_IMODE(os.stat(tmp_path / "new.json").st_mode) == 0o644
    assert stat.S_IMODE(os.stat(kept).st_mode) == 0o640
    assert kept.read_text(encoding="utf-8") == trajectory_to_json(trajectory)


def test_a_link_is_kept_and_its_file_replaced(tmp_path):
    trajectory = build_rotate_wheel_2n(1)
    real = tmp_path / "real.json"
    real.write_bytes(OLD)
    link = tmp_path / "link.json"
    link.symlink_to(real.name)
    write_trajectory_file(trajectory, link)
    assert link.is_symlink()
    assert real.read_text(encoding="utf-8") == trajectory_to_json(trajectory)
    only(tmp_path, "link.json", "real.json")


class FailAt:
    """``open`` whose text files raise ``error`` once ``budget`` characters
    have been written, after writing those that fit."""

    def __init__(self, budget: int, error: type[BaseException]):
        self.left, self.error = budget, error

    def __call__(self, *args, **kwargs):
        out = open(*args, **kwargs)
        write = out.write

        def limited(text):
            if len(text) > self.left:
                write(text[:self.left])
                self.left = 0
                raise self.error("injected failure")
            self.left -= len(text)
            return write(text)
        out.write = limited
        return out


@settings(max_examples=60, deadline=None)
@given(fraction=st.floats(0.0, 1.2),
       error=st.sampled_from([OSError, KeyboardInterrupt, RuntimeError]),
       trace_file=st.booleans())
def test_a_failure_at_any_offset_leaves_old_or_new_bytes(tmp_path_factory, fraction, error,
                                                         trace_file):
    directory = tmp_path_factory.mktemp("fail")
    target = directory / "out"
    target.write_bytes(OLD)
    trajectory = build_rotate_wheel_2n(1)
    if trace_file:
        new = reference_trace_csv(analyse(trajectory), 50.0)
        write = lambda: write_trace_file(analyse(trajectory), target, 50.0)  # noqa: E731
    else:
        new = trajectory_to_json(trajectory).encode("utf-8")
        write = lambda: write_trajectory_file(trajectory, target)  # noqa: E731
    budget = int(fraction * len(new))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileformat, "open", FailAt(budget, error), raising=False)
        try:
            write()
        except error:
            assert budget < len(new)
        else:
            assert budget >= len(new)
    assert target.read_bytes() == (new if budget >= len(new) else OLD)
    only(directory, "out")


def test_outputs_removes_every_staged_file_on_error(tmp_path):
    names = [tmp_path / "a", tmp_path / "b"]
    with pytest.raises(KeyboardInterrupt):
        with Outputs() as outputs:
            staged = [outputs.stage(name) for name in names]
            write_trajectory_file(build_rotate_wheel_2n(1), staged[0])
            raise KeyboardInterrupt
    only(tmp_path)


def child_env() -> dict:
    """The environment of a child that imports this package from source."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def long_name(directory: Path) -> str:
    """A file name of the most characters ``directory`` allows."""
    return "a" * (os.pathconf(directory, "PC_NAME_MAX") - 5) + ".json"


@pytest.mark.parametrize("existing", [False, True])
def test_a_name_of_the_longest_length_is_written(capsys, tmp_path, existing):
    # A staged name has a fixed length, so any name open accepts is written.
    target = tmp_path / long_name(tmp_path)
    if existing:
        target.write_bytes(OLD)
        target.chmod(0o640)
    code, _, stderr = invoke(capsys, "plan", "--target-deg", "10", "--out", str(target))
    assert code == 0 and stderr == ""
    assert target.read_text(encoding="utf-8") == trajectory_to_json(plan_rotation(10.0))
    if existing:
        assert stat.S_IMODE(os.stat(target).st_mode) == 0o640
    only(tmp_path, target.name)


@pytest.mark.parametrize("depth", [0, 1])
def test_cleanup_keeps_the_error_raised_and_it_names_the_target(tmp_path, depth):
    # On a read-only file system a staged file is never created, and
    # unlinking it fails too, with EROFS; that must not replace the error.
    def read_only(path, *args, **kwargs):
        raise OSError(errno.EROFS, os.strerror(errno.EROFS), path)

    target = tmp_path / "missing" / "a.json"
    with pytest.raises(FileNotFoundError) as raised, pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "unlink", read_only)
        with Outputs() as outputs:
            path = outputs.stage(target) if depth else target
            write_trajectory_file(build_rotate_wheel_2n(1), path)
    assert raised.value.filename == str(target)
    assert raised.value.__context__ is None
    only(tmp_path)


def test_a_failed_move_names_the_target_and_removes_the_staged_file(tmp_path):
    target = tmp_path / "a.json"
    with pytest.raises(IsADirectoryError) as raised:
        with Outputs() as outputs, outputs.open(target) as out:
            out.write("{}\n")
            target.mkdir()
    assert raised.value.filename == str(target)
    only(tmp_path, "a.json")


def test_a_dangling_link_is_kept_and_the_file_it_names_created(capsys, tmp_path):
    link = tmp_path / "dangling.json"
    link.symlink_to("real.json")
    code, _, _ = invoke(capsys, "plan", "--target-deg", "10", "--out", str(link))
    assert code == 0
    assert os.readlink(link) == "real.json"
    assert (tmp_path / "real.json").read_text(encoding="utf-8") == \
        trajectory_to_json(plan_rotation(10.0))
    only(tmp_path, "dangling.json", "real.json")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_dev_stdout_on_a_pipe_is_written_in_place():
    done = subprocess.run([sys.executable, "-m", "homeowheel", "plan", "--target-deg", "10",
                           "--out", "/dev/stdout"], env=child_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    text = trajectory_to_json(plan_rotation(10.0))
    assert done.stdout.startswith(text)
    assert done.stdout[len(text):].startswith("waypoints=")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_dev_stdout_appended_to_a_file_is_written_in_place(tmp_path):
    # As ``--out /dev/stdout >> r.txt``: the JSON is written through standard
    # output after the file's old bytes, and the summary follows it there.
    report = tmp_path / "r.txt"
    report.write_bytes(OLD)
    inode = report.stat().st_ino
    with open(report, "ab") as stdout:
        done = subprocess.run([sys.executable, "-m", "homeowheel", "plan", "--target-deg", "10",
                               "--out", "/dev/stdout"], env=child_env(), stdout=stdout,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    assert report.stat().st_ino == inode
    text = OLD.decode("utf-8") + trajectory_to_json(plan_rotation(10.0))
    content = report.read_text(encoding="utf-8")
    assert content.startswith(text) and content[len(text):].startswith("waypoints=")
    only(tmp_path, "r.txt")


def run_child(argv, stdout) -> subprocess.CompletedProcess:
    """``python -m homeowheel *argv`` from source, standard output on ``stdout``."""
    return subprocess.run([sys.executable, "-m", "homeowheel", *argv], env=child_env(),
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_dev_stdout_redirected_to_a_file_gets_the_json_then_the_summary(tmp_path):
    # As ``--out /dev/stdout > p.txt``: reopened by name at offset 0, the JSON
    # was overwritten by the summary, written at offset 0 of standard output.
    report = tmp_path / "p.txt"
    with open(report, "wb") as stdout:
        done = run_child(["plan", "--target-deg", "10", "--out", "/dev/stdout"], stdout)
    assert done.returncode == 0 and done.stderr == ""
    text, content = trajectory_to_json(plan_rotation(10.0)), report.read_text(encoding="utf-8")
    doc, end = json.JSONDecoder().raw_decode(content)
    assert doc == json.loads(text) and content[:end + 1] == text
    assert content[end + 1:].startswith("waypoints=")
    only(tmp_path, "p.txt")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
@pytest.mark.parametrize("out_traj", [False, True], ids=["trace", "trace-and-trajectory"])
@pytest.mark.parametrize("to_file", [True, False], ids=["file", "pipe"])
def test_dev_stdout_gets_each_output_then_the_summary(tmp_path, out_traj, to_file):
    # ``simulate --n 1 --out /dev/stdout [--out-traj /dev/stdout] > r.txt``
    # kept only the summary over the start of the last output written.
    trajectory = build_rotate_wheel_2n(1)
    expected = reference_trace_csv(analyse(trajectory), 50.0).decode("utf-8")
    argv = ["simulate", "--n", "1", "--out", "/dev/stdout"]
    if out_traj:
        argv += ["--out-traj", "/dev/stdout"]
        expected += trajectory_to_json(trajectory)
    if to_file:
        with open(tmp_path / "r.txt", "wb") as stdout:
            done = run_child(argv, stdout)
        content = (tmp_path / "r.txt").read_text(encoding="utf-8")
    else:
        done = run_child(argv, subprocess.PIPE)
        content = done.stdout
    assert done.returncode == 0 and done.stderr == ""
    assert content.startswith(expected)
    assert content[len(expected):].startswith("theta_wheel_deg=720.000000000\n")
    assert content.endswith("violations=0\n")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_dev_stdout_appended_to_gets_a_split_trace_then_the_summary(tmp_path):
    # As ``simulate --n 500 --out /dev/stdout >> r.txt`` on 2 CPUs: the parts
    # after the first were copied with sendfile, which refuses a file in
    # append mode, so the command failed with the trace cut after part one.
    motion = analyse(build_rotate_wheel_2n(500))
    assert len(trace._export_parts(trace._sample_counts(motion.trajectory, 50.0), 2)) == 3
    expected = OLD.decode("utf-8") + reference_trace_csv(motion, 50.0).decode("utf-8")
    report = tmp_path / "r.txt"
    report.write_bytes(OLD)
    child = ("import sys; from homeowheel import cli, trace; trace._export_cpus = lambda: 2; "
             "cli.main(sys.argv[1:])")
    with open(report, "ab") as stdout:
        done = subprocess.run([sys.executable, "-c", child, "simulate", "--n", "500", "--out",
                               "/dev/stdout"], env=child_env(), stdout=stdout,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    content = report.read_text(encoding="utf-8")
    assert content.startswith(expected)
    assert content[len(expected):].startswith("theta_wheel_deg=360000.000000000\n")
    assert content.endswith("violations=0\n")
    only(tmp_path, "r.txt")


@pytest.mark.parametrize("kind", ["same", "dot", "link", "dangling"])
def test_two_outputs_that_name_one_file_are_a_usage_error(capsys, tmp_path, monkeypatch, kind):
    # Each was staged on its own and both moved over the one file in order,
    # so the trace was lost without a word. Now neither file is touched.
    monkeypatch.chdir(tmp_path)
    os.symlink("out", "link")
    if kind != "dangling":
        Path("out").write_bytes(OLD)
    first, second = {"same": ("out", "out"), "dot": ("out", "./out"), "link": ("out", "link"),
                     "dangling": ("link", "out")}[kind]
    before = state(tmp_path)
    code, stdout, stderr = invoke(capsys, "simulate", "--n", "1", "--out", first,
                                  "--out-traj", second)
    assert (code, stdout) == (2, "")
    assert stderr == f"homeowheel: error: output {second!r} names the file of another output\n"
    assert state(tmp_path) == before


def test_two_outputs_written_in_place_may_name_one_file(capsys):
    code, stdout, stderr = invoke(capsys, "simulate", "--n", "1", "--out", os.devnull,
                                  "--out-traj", os.devnull)
    assert (code, stderr) == (0, "") and stdout.endswith("violations=0\n")


def test_a_target_that_ends_in_a_separator_gets_the_error_of_open(capsys, tmp_path):
    target = str(tmp_path / "x.json") + os.sep
    code, stdout, stderr = invoke(capsys, "plan", "--target-deg", "10", "--out", target)
    assert (code, stdout) == (2, "")
    assert stderr == f"homeowheel: error: [Errno {errno.EISDIR}] Is a directory: {target!r}\n"
    only(tmp_path)


TRAJECTORY = build_rotate_wheel_2n(1)
TEXT = trajectory_to_json(TRAJECTORY)


def make_target(directory: Path, kind: str, mode: int) -> Path | str:
    """A target of ``kind`` in ``directory``, an existing file given ``mode``."""
    if kind == "slash":  # a str: a Path drops the separator
        return str(directory / "out") + os.sep
    if kind == "fifo":
        os.mkfifo(directory / "pipe")
        return directory / "pipe"
    if kind in ("link", "dangling"):
        (directory / "link").symlink_to("real")
        target, existing = directory / "link", kind == "link"
    else:
        target = directory / (long_name(directory) if kind == "long" else "out")
        existing = kind != "new"
    if existing:
        Path(os.path.realpath(target)).write_bytes(OLD)
        os.chmod(target, mode)
    return target


def state(directory: Path) -> dict:
    """Each entry of ``directory``: a link's text, else its mode and, for a
    regular file, its bytes."""
    entries = {}
    for path in directory.iterdir():
        if path.is_symlink():
            entries[path.name] = os.readlink(path)
        else:
            mode = os.stat(path).st_mode
            entries[path.name] = (mode, path.read_bytes() if stat.S_ISREG(mode) else None)
    return entries


@contextlib.contextmanager
def standard_input_on(path: Path | None):
    """Standard input open on ``path``, if any, while the block runs."""
    if path is None:
        yield
        return
    saved, fd = os.dup(0), os.open(path, os.O_RDONLY)
    try:
        os.dup2(fd, 0)
        yield
    finally:
        os.dup2(saved, 0)
        os.close(saved)
        os.close(fd)


def written(target: Path, write) -> bytes | None:
    """Run ``write``; the bytes a reader of ``target`` got if it is a FIFO."""
    if not Path(target).is_fifo():
        write()
        return None
    received = []
    reader = threading.Thread(target=lambda: received.append(target.read_bytes()))
    reader.start()
    try:
        write()
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    return received[0]


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["new", "existing", "link", "dangling", "long", "fifo", "stdio",
                             "slash"]),
       mode=st.sampled_from([0o600, 0o640, 0o604, 0o755]), depth=st.integers(0, 2),
       fail_at=st.none() | st.integers(0, len(TEXT) - 1),
       error=st.sampled_from([OSError, KeyboardInterrupt]))
def test_outputs_writes_what_open_writes_or_nothing(tmp_path_factory, kind, mode, depth,
                                                    fail_at, error):
    reference_dir = tmp_path_factory.mktemp("open")
    directory = tmp_path_factory.mktemp("outputs")
    reference = make_target(reference_dir, kind, mode)
    target = make_target(directory, kind, mode)
    before = state(directory)
    # "stdio": an existing file that standard input is open on; open
    # truncates it in place. (The files of standard output and error are
    # written through the stream, as the /dev/stdout tests show.)
    inode = os.stat(target).st_ino if kind == "stdio" else None

    def write_reference():
        with open(reference, "w", encoding="utf-8") as out:
            out.write(TEXT)

    def write():
        # depth blocks around the writer's own, as simulate nests its writers
        with standard_input_on(target if kind == "stdio" else None), \
                Outputs() as outer, Outputs() as inner:
            path = target
            for block in (outer, inner)[:depth]:
                path = block.stage(path)
            write_trajectory_file(TRAJECTORY, path)

    if kind == "slash":  # open's own error, before anything is written
        with pytest.raises(IsADirectoryError):
            write_reference()
        with pytest.raises(IsADirectoryError):
            write()
        assert state(directory) == before == {}
        return
    expected = written(reference, write_reference)
    with pytest.MonkeyPatch.context() as patch:
        if fail_at is not None:
            patch.setattr(fileformat, "open", FailAt(fail_at, error), raising=False)
            with pytest.raises(error):
                got = written(target, write)
        else:
            got = written(target, write)
    if inode is not None:
        assert os.stat(target).st_ino == inode
    if fail_at is None:
        assert state(directory) == state(reference_dir)
        assert got == expected
    elif kind == "stdio":  # what open writes before the failure
        assert Path(target).read_bytes() == TEXT[:fail_at].encode("utf-8")
    else:
        assert state(directory) == before
