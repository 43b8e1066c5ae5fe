"""The CLI's chunked writer: each file is formatted and written one block of
``cli._BLOCK`` array entries or table rows at a time, with the bytes of the
whole-text reference, atomically (a run's files together), in the mode
``open(path, "w")`` gives and without ever holding a whole file's text."""

import contextlib
import errno
import json
import os
import signal
import stat
import time
import tracemalloc

import numpy as np
import pytest

from test_cli import sweep_scenario, write_scenario
from wkbrec import cli
from wkbrec.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_SCHEMA, _csv, _json_chunks, main
from wkbrec.errors import Breakdown
from wkbrec.wkb import ComparisonTable

B = cli._BLOCK
LENGTHS = [1, B - 1, B, B + 1, 2 * B + 1]
EDGES = [-0.0, 5e-324, 1e16]  # one at each of B - 1, B and B + 1


def column(dtype, n):
    """``n`` entries of ``dtype`` over a wide range, with ``EDGES`` at the
    block edge where the column reaches it."""
    rng = np.random.default_rng(n)
    if dtype is np.int64:
        return rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64, endpoint=True)
    values = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300, (n, 2))
    for i, edge in enumerate(EDGES, start=B - 1):
        if i < n:
            values[i] = edge
    return values[:, 0] if dtype is float else values.view(complex)[:, 0]


def listed(array):
    if array.dtype.kind == "c":
        return [[z.real, z.imag] for z in array.tolist()]
    return array.tolist()


def reference_text(payload):
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def json_text(payload):
    return "".join(_json_chunks(payload))


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("dtype", [np.int64, float, complex])
def test_json_at_block_edges_matches_json_dumps(dtype, n):
    array = column(dtype, n)
    payload = {"a": array, "b": [array, {"c": array}, 7]}
    expected = {"a": listed(array), "b": [listed(array), {"c": listed(array)}, 7]}
    assert json_text(payload) == reference_text(expected)
    assert json_text([array]) == reference_text([listed(array)])


def test_edge_numbers_sit_at_the_block_edge():
    text = json_text(column(float, B + 3))
    assert text.splitlines()[B : B + 3] == ["  -0.0,", "  5e-324,", "  1e+16,"]


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("with_k", [True, False])
def test_csv_at_block_edges_matches_per_row_format(n, with_k):
    numbers = np.column_stack([column(float, n), column(complex, n).view(float).reshape(n, 2)])
    k = np.arange(n, dtype=np.int64) - 2**62 if with_k else None
    lines = ["a,b,c,d\n" if with_k else "b,c,d\n"]
    for i, row in enumerate(numbers.tolist()):
        cells = ["%.17g" % (x + 0.0) for x in row]
        lines.append(",".join(([str(k[i])] if with_k else []) + cells) + "\n")
    header = ["a", "b", "c", "d"] if with_k else ["b", "c", "d"]
    assert "".join(_csv(header, k, numbers)) == "".join(lines)


def order2_tabulated(outdir, values, fmt="json"):
    """Order 2 with a tabulated f[0] over the window and f[1] = -1; the
    roots stay near the unit circle."""
    return {
        "order": 2,
        "horizon": len(values) - 3,
        "coefficients": [
            {"variant": "tabulated", "values": values, "k_first": 0},
            {"variant": "constant", "value": "-1"},
        ],
        "initial": ["1", "0.5j"],
        "methods": ["direct", "companion"],
        "output": {"path": str(outdir), "format": fmt},
    }


def test_resolved_file_keeps_negative_zero_at_a_block_edge(tmp_path):
    values = [[1.0, 0.0]] * (B + 5)
    values[B - 1], values[B] = [1.0, -0.0], [-0.0, 1.0]
    scenario = write_scenario(tmp_path / "z.json", order2_tabulated(tmp_path / "out", values))
    assert main(["run", scenario]) == EXIT_OK
    resolved = json.loads((tmp_path / "out" / "z_resolved.json").read_text())
    written = np.array(resolved["coefficients"][0]["values"])
    assert np.array_equal(np.signbit(written), np.signbit(np.array(values)))
    assert np.signbit(written).sum() == 2


def failing_errors_table():
    """A table whose second error column is NaN at index B + 5."""
    n = 2 * B + 1
    errors = np.zeros(n)
    errors[B + 5] = np.nan
    return ComparisonTable(
        k=np.arange(n),
        oracle=np.ones(n),
        values={},
        rel_errors={"direct": np.zeros(n), "companion": errors},
    )


def test_failure_partway_leaves_no_file(tmp_path):
    target = tmp_path / "t_errors.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._atomic_write([(target, cli._error_chunks(failing_errors_table(), "json"))])
    assert list(tmp_path.iterdir()) == []
    target.write_bytes(b"an earlier run\n")
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._atomic_write([(target, cli._error_chunks(failing_errors_table(), "json"))])
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_bytes() == b"an earlier run\n"


def test_failure_partway_through_a_run_is_a_schema_error(tmp_path, capsys, monkeypatch):
    outdir = tmp_path / "out"
    scenario = write_scenario(
        tmp_path / "t.json", order2_tabulated(outdir, [[1.0, 0.0]] * (B + 13))
    )
    assert main(["run", scenario]) == EXIT_OK
    capsys.readouterr()
    before = {path.name: (path.read_bytes(), path.stat().st_ino) for path in outdir.iterdir()}
    compare_batch = cli._compare_batch

    def poisoned(*args):
        tables = compare_batch(*args)
        tables[0].rel_errors["companion"][B + 5] = np.nan
        return tables

    monkeypatch.setattr(cli, "_compare_batch", poisoned)
    assert main(["run", scenario]) == EXIT_SCHEMA
    assert capsys.readouterr() == ("", "Out of range float values are not JSON compliant\n")
    # the errors file fails after the trajectory file was written: no file is
    # replaced, so the earlier run's files stay together, each the same file
    after = {path.name: (path.read_bytes(), path.stat().st_ino) for path in outdir.iterdir()}
    assert after == before


def test_a_failed_replacement_leaves_the_earlier_targets_new(tmp_path, capsys, monkeypatch):
    # POSIX has no multi-file rename: the targets are replaced one at a time,
    # so a failure between two replacements keeps the first one done
    outdir = tmp_path / "out"
    scenario = write_scenario(tmp_path / "t.json", order2_tabulated(outdir, [[1.0, 0.0]] * 20))
    assert main(["run", scenario]) == EXIT_OK
    before = {path.name: (path.read_bytes(), path.stat().st_ino) for path in outdir.iterdir()}
    scenario = write_scenario(tmp_path / "t.json", order2_tabulated(outdir, [[2.0, 0.0]] * 20))
    assert main(["run", scenario, "--output-dir", str(tmp_path / "clean")]) == EXIT_OK
    capsys.readouterr()
    replace, calls = os.replace, []

    def failing(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError("replace refused")
        replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", failing)
    assert main(["run", scenario]) == cli.EXIT_IO
    assert capsys.readouterr() == ("", "i/o error: replace refused\n")
    after = {path.name: (path.read_bytes(), path.stat().st_ino) for path in outdir.iterdir()}
    assert sorted(after) == sorted(before)
    first = calls[0].name
    assert first == "t_trajectory.json"
    assert after[first][0] == (tmp_path / "clean" / first).read_bytes() != before[first][0]
    assert after[first][1] != before[first][1]
    assert {name: after[name] for name in after if name != first} == {
        name: before[name] for name in before if name != first
    }


def tabulated_order4(outdir, horizon):
    """A tabulated order-4 scenario whose roots wobble on the unit circle."""
    rng = np.random.default_rng(4)
    k = np.arange(horizon + 5)[:, None]
    angles = np.pi * np.arange(4) / 2 + 0.1 * np.sin(2 * np.pi * k * rng.uniform(1, 3, 4) / horizon)
    coeffs = np.array([np.poly(row)[::-1][:-1] for row in np.exp(1j * angles)])
    columns = [
        {"variant": "tabulated", "values": [[z.real, z.imag] for z in coeffs[:, j]], "k_first": 0}
        for j in range(4)
    ]
    return {
        "order": 4,
        "horizon": horizon,
        "coefficients": columns,
        "initial": ["1", "0.5j", "-0.25", "1+1j"],
        "methods": ["direct", "companion"],
        "output": {"path": str(outdir), "format": "json"},
    }


def test_writing_a_long_run_holds_no_whole_file(tmp_path, monkeypatch):
    # 20000 steps: about 11 MB of JSON, of which 7 MB is the resolved file
    scenario = write_scenario(tmp_path / "long.json", tabulated_order4(tmp_path / "out", 20000))
    compare_batch = cli._compare_batch

    def then_trace(*args):  # the tables are computed; from here on the CLI writes
        tables = compare_batch(*args)
        tracemalloc.start()
        tracemalloc.reset_peak()
        then_trace.start = tracemalloc.get_traced_memory()[0]
        return tables

    monkeypatch.setattr(cli, "_compare_batch", then_trace)
    try:
        assert main(["run", scenario]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "out" / "long_resolved.json").stat().st_size > 7 * 2**20
    # the + 0.0 copies of the six float columns (about 0.96 MB) are made
    # file by file, as each is written, not all when the writing starts
    assert peak - then_trace.start <= 1.1 * 2**20


def test_writing_a_long_run_without_fork_holds_no_whole_file(tmp_path, monkeypatch):
    # the run above writes its 7 MB resolved file in a forked child; without
    # os.fork the parent writes it, block by block as well
    monkeypatch.delattr(os, "fork")
    test_writing_a_long_run_holds_no_whole_file(tmp_path, monkeypatch)


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
def test_written_files_get_the_mode_of_a_new_file(tmp_path, umask):
    outdir = tmp_path / "out"
    scenario = write_scenario(tmp_path / "sw.json", sweep_scenario(outdir))
    old = os.umask(umask)
    try:
        assert main(["run", scenario]) == EXIT_OK
        assert main(["generate", "--out", str(outdir / "generated.json")]) == EXIT_OK
    finally:
        os.umask(old)
    names = sorted(path.name for path in outdir.iterdir())
    assert names == ["generated.json", "sw_errors.csv", "sw_resolved.json", "sw_sweep.csv",
                     "sw_trajectory.csv"]
    for path in outdir.iterdir():
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path.name


def test_the_writer_leaves_the_umask_and_modes_alone(tmp_path, monkeypatch):
    scenario = write_scenario(tmp_path / "sw.json", sweep_scenario(tmp_path / "out"))
    assert main(["run", scenario, "--output-dir", str(tmp_path / "clean")]) == EXIT_OK

    def refuse(*args):
        raise AssertionError("the writer set the umask or a mode")

    monkeypatch.setattr(cli.os, "umask", refuse)
    monkeypatch.setattr(cli.os, "chmod", refuse)
    assert main(["run", scenario]) == EXIT_OK
    written = {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()}
    assert written == {path.name: path.read_bytes() for path in (tmp_path / "clean").iterdir()}


def test_a_taken_temporary_name_is_an_io_error_that_removes_nothing_else(
    tmp_path, capsys, monkeypatch
):
    outdir = tmp_path / "out"
    scenario = write_scenario(tmp_path / "sw.json", sweep_scenario(outdir))
    assert main(["run", scenario]) == EXIT_OK
    capsys.readouterr()
    before = {path.name: (path.read_bytes(), path.stat().st_ino) for path in outdir.iterdir()}
    # every temporary name gets the same suffix, and the errors file's is taken
    monkeypatch.setattr(cli.os, "urandom", lambda n: bytes(n))
    taken = outdir / f"sw_errors.csv.{bytes(8).hex()}.tmp"
    taken.write_bytes(b"another writer's file\n")
    before[taken.name] = (taken.read_bytes(), taken.stat().st_ino)
    assert main(["run", scenario]) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("i/o error: [Errno 17] File exists")
    # the taken file, the earlier targets and nothing else: no other *.tmp
    after = {path.name: (path.read_bytes(), path.stat().st_ino) for path in outdir.iterdir()}
    assert after == before


def forking_run(tmp_path, outdir):
    """A unit-modulus tabulated run whose table has more than ``B`` rows, so
    that ``run`` writes its resolved file in a forked child."""
    data = order2_tabulated(outdir, [[1.0, 0.0]] * (B + 13))
    return write_scenario(tmp_path / "long.json", data), data


def files(outdir):
    return {path.name: (path.read_bytes(), path.stat().st_ino) for path in outdir.iterdir()}


def contents(outdir):
    return {path.name: path.read_bytes() for path in outdir.iterdir()}


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_forked_writer_writes_the_bytes_of_the_inline_path(tmp_path, monkeypatch):
    scenario, _ = forking_run(tmp_path, tmp_path / "out")
    fork, forks = os.fork, []

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    assert main(["run", scenario]) == EXIT_OK
    assert len(forks) == 1
    assert_no_child()
    monkeypatch.delattr(os, "fork")
    assert main(["run", scenario, "--output-dir", str(tmp_path / "inline")]) == EXIT_OK
    written = contents(tmp_path / "out")
    assert sorted(written) == ["long_errors.json", "long_resolved.json", "long_trajectory.json"]
    assert written == contents(tmp_path / "inline")


@pytest.mark.parametrize("failure", ["child", "fork"])
def test_the_parent_writes_the_file_a_failed_child_or_fork_did_not(
    tmp_path, capsys, monkeypatch, failure
):
    scenario, _ = forking_run(tmp_path, tmp_path / "out")
    with monkeypatch.context() as inline:
        inline.delattr(os, "fork")
        assert main(["run", scenario, "--output-dir", str(tmp_path / "inline")]) == EXIT_OK
    capsys.readouterr()
    fork, waitpid, statuses = os.fork, os.waitpid, []

    def failing():
        if failure == "fork":
            raise BlockingIOError(errno.EAGAIN, "fork refused")
        pid = fork()
        if pid == 0:  # in the child alone, the JSON formatter is gone
            cli._emit = None
        return pid

    def recorded(pid, options):
        reaped = waitpid(pid, options)
        statuses.append(os.waitstatus_to_exitcode(reaped[1]))
        return reaped

    monkeypatch.setattr(os, "fork", failing)
    monkeypatch.setattr(os, "waitpid", recorded)
    assert main(["run", scenario]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert statuses == ([1] if failure == "child" else [])
    monkeypatch.undo()
    assert_no_child()
    assert contents(tmp_path / "out") == contents(tmp_path / "inline")


def test_a_breakdown_in_the_batch_leaves_no_child_and_no_file(tmp_path, capsys, monkeypatch):
    def breaking(*args):
        raise Breakdown("method 'direct': non-finite value", k=7)

    line = "numerical breakdown: method 'direct': non-finite value at index k=7\n"
    # an earlier run's files stay as they were, and no temporary file is left
    outdir = tmp_path / "out"
    scenario, _ = forking_run(tmp_path, outdir)
    assert main(["run", scenario]) == EXIT_OK
    capsys.readouterr()
    before = files(outdir)
    monkeypatch.setattr(cli, "_compare_batch", breaking)
    assert main(["run", scenario]) == EXIT_NUMERICAL
    assert capsys.readouterr() == ("", line)
    assert_no_child()
    assert files(outdir) == before
    # and a directory the run made for its files is gone again
    fresh = tmp_path / "missing" / "nested"
    assert main(["run", scenario, "--output-dir", str(fresh)]) == EXIT_NUMERICAL
    assert capsys.readouterr() == ("", line)
    assert_no_child()
    assert not (tmp_path / "missing").exists()


@contextlib.contextmanager
def sigchld_ignored():
    """SIGCHLD ignored, as a process started with it ignored inherits: the
    system reaps every child itself, so ``waitpid`` gets no status."""
    old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        yield
    finally:
        signal.signal(signal.SIGCHLD, old)


def test_a_forking_run_that_ignores_sigchld_writes_the_bytes_of_the_inline_path(
    tmp_path, capsys, monkeypatch
):
    scenario, _ = forking_run(tmp_path, tmp_path / "out")
    with monkeypatch.context() as inline:
        inline.delattr(os, "fork")
        assert main(["run", scenario, "--output-dir", str(tmp_path / "inline")]) == EXIT_OK
    fork, forks = os.fork, []

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    with sigchld_ignored():
        assert main(["run", scenario]) == EXIT_OK
        assert_no_child()
    assert capsys.readouterr().err == ""
    assert len(forks) == 1
    # the parent wrote the file the child's lost status cannot vouch for,
    # and no temporary file is left
    assert contents(tmp_path / "out") == contents(tmp_path / "inline")


@pytest.mark.parametrize("child", ["running", "reaped"])
def test_a_breakdown_in_a_run_that_ignores_sigchld_leaves_no_child_and_no_file(
    tmp_path, capsys, monkeypatch, child
):
    def breaking(*args):
        deadline = time.monotonic() + 20
        while child == "reaped":  # until the system has reaped the writer
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            assert time.monotonic() < deadline, "the writer did not end"
            time.sleep(0.001)
        raise Breakdown("method 'direct': non-finite value", k=7)

    line = "numerical breakdown: method 'direct': non-finite value at index k=7\n"
    outdir = tmp_path / "out"
    scenario, _ = forking_run(tmp_path, outdir)
    assert main(["run", scenario]) == EXIT_OK
    capsys.readouterr()
    before = files(outdir)
    monkeypatch.setattr(cli, "_compare_batch", breaking)
    fresh = tmp_path / "missing" / "nested"
    with sigchld_ignored():
        assert main(["run", scenario]) == EXIT_NUMERICAL
        assert capsys.readouterr() == ("", line)
        assert_no_child()
        assert main(["run", scenario, "--output-dir", str(fresh)]) == EXIT_NUMERICAL
        assert capsys.readouterr() == ("", line)
        assert_no_child()
    assert files(outdir) == before
    assert not (tmp_path / "missing").exists()


def test_a_taken_temporary_name_of_the_forked_file_removes_no_file(tmp_path, capsys, monkeypatch):
    outdir = tmp_path / "out"
    scenario, _ = forking_run(tmp_path, outdir)
    assert main(["run", scenario]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(cli.os, "urandom", lambda n: bytes(n))
    taken = outdir / f"long_resolved.json.{bytes(8).hex()}.tmp"
    taken.write_bytes(b"another writer's file\n")
    before = files(outdir)
    assert main(["run", scenario]) == EXIT_IO
    assert capsys.readouterr().err.startswith("i/o error: [Errno 17] File exists")
    assert_no_child()
    assert files(outdir) == before


def test_a_non_finite_row_past_the_horizon_of_a_forking_run_is_a_breakdown(tmp_path, capsys):
    # f[1] = -1 + 1e-320 * eps * k is within 2e-12 of -1 up to the horizon
    # H and NaN from H + 1 on, where eps * k overflows
    outdir = tmp_path / "out"
    _, data = forking_run(tmp_path, outdir)
    horizon = data["horizon"]
    data["coefficients"][1] = {
        "variant": "polynomial",
        "coeffs": ["-1", "1e-320"],
        "epsilon": np.finfo(float).max / (horizon + 0.5),
    }
    scenario = write_scenario(tmp_path / "long.json", data)
    assert main(["run", scenario]) == EXIT_NUMERICAL
    assert capsys.readouterr() == (
        "",
        f"numerical breakdown: coefficient table: non-finite value at index k={horizon + 1}\n",
    )
    assert_no_child()
    assert not outdir.exists()
