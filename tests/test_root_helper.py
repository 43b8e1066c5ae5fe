"""The root pass keeps no thread between calls: the helper that roots the
second half of a companion stack (``roots._eigvals``) is started by the call
and ends with it, and a helper that cannot start leaves the stack to one
``eigvals`` call on the calling thread."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import wkbrec
from wkbrec import roots as roots_module
from wkbrec.cli import EXIT_OK, main
from wkbrec.roots import _eigvals
from wkbrec.wkb import METHOD_NAMES
from test_cli import readme_scenario, write_scenario
from test_eigvals_split import companion_stack

# a fresh interpreter, so no thread an earlier test left is counted: the
# thread count after three order-8 compare_methods calls, polled for up to
# 5 s since a helper ends a few microseconds after it hands back its half
NO_THREAD_LEFT = """
import _thread, time
from test_eigvals_split import METHODS, order8_problem
from wkbrec import compare_methods
before = _thread._count()
spec, initial = order8_problem()
for _ in range(3):
    compare_methods(spec, initial, METHODS)
deadline = time.monotonic() + 5
while _thread._count() != before and time.monotonic() < deadline:
    time.sleep(0.001)
print(before, _thread._count())
"""


def test_no_thread_outlives_a_root_pass():
    paths = [Path(wkbrec.__file__).resolve().parents[1], Path(__file__).resolve().parent]
    done = subprocess.run(
        [sys.executable, "-c", NO_THREAD_LEFT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))},
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 0\n"


def cannot_start(monkeypatch):
    """Make every ``_thread.start_new_thread`` fail as in a process out of
    threads; the list it returns counts the attempts."""
    attempts = []

    def start(function, args):
        attempts.append(function)
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(roots_module._thread, "start_new_thread", start)
    return attempts


def test_a_helper_that_cannot_start_leaves_one_call(monkeypatch):
    stack = companion_stack(4, 8, 40)
    want = np.linalg.eigvals(stack).tobytes()
    attempts, rows, eigvals = cannot_start(monkeypatch), [], np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: rows.append(len(a)) or eigvals(a))
    assert _eigvals(stack).tobytes() == want
    assert (len(attempts), rows) == (1, [40])


def test_a_run_whose_helper_cannot_start_writes_the_usual_bytes(monkeypatch, tmp_path):
    data = readme_scenario(tmp_path / "out", 0.01)
    data["methods"] = list(METHOD_NAMES)
    scenario = write_scenario(tmp_path / "readme.json", data)

    def run(outdir):
        assert main(["run", scenario, "--output-dir", str(outdir)]) == EXIT_OK
        return {path.name: path.read_bytes() for path in sorted(outdir.iterdir())}

    want = run(tmp_path / "usual")
    attempts = cannot_start(monkeypatch)
    assert run(tmp_path / "one-call") == want
    assert attempts
