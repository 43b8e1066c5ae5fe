"""The root pass roots its companion stack in two halves at once, the second
on a worker thread (``roots._eigvals``): the bits, the failures, forked
children and concurrent callers are those of one ``eigvals`` call."""

import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wkbrec import compare_methods
from wkbrec import roots as roots_module
from wkbrec.core import _companion
from wkbrec.roots import _eigvals
from test_array_drivers import drifting_spec
from test_batch import assert_same_table

METHODS = ["direct", "gauge-exact", "wkb-general"]


def companion_stack(seed, n, rows):
    rng = np.random.default_rng(seed)
    return _companion(rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n)))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), rows=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
@example(n=2, rows=0, seed=0)
@example(n=3, rows=1, seed=0)
@example(n=8, rows=2, seed=0)
@example(n=5, rows=7, seed=0)
@example(n=8, rows=10, seed=0)
def test_the_split_equals_one_call(n, rows, seed):
    stack = companion_stack(seed, n, rows)
    got, want = _eigvals(stack), np.linalg.eigvals(stack)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def order8_problem(seed=3, horizon=30):
    spec = drifting_spec(np.random.default_rng(seed), 8, 0.05, True, horizon=horizon)
    return spec, np.random.default_rng(seed).standard_normal(8) + 0j


def linalg_error(fn):
    with pytest.raises(np.linalg.LinAlgError) as info:
        fn()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("half", ["caller", "worker"])
def test_a_failing_half_raises_what_one_call_raises(monkeypatch, half):
    spec, initial = order8_problem()
    want = compare_methods(spec, initial, METHODS)
    stacks = []
    with monkeypatch.context() as patched:
        patched.setattr(roots_module, "_eigvals", lambda a: stacks.append(a) or _eigvals(a))
        compare_methods(spec, initial, METHODS)
    [stack] = stacks
    # the first matrix is in the caller's half, the last in the worker's
    target = stack[0] if half == "caller" else stack[-1]
    eigvals, threads = np.linalg.eigvals, []

    def failing(a):
        if (a == target).all(axis=(-2, -1)).any():
            threads.append(threading.current_thread())
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    split = linalg_error(lambda: compare_methods(spec, initial, METHODS))
    assert [t is threading.current_thread() for t in threads] == [half == "caller"]
    monkeypatch.setattr(roots_module, "_eigvals", lambda a: np.linalg.eigvals(a))
    assert split == linalg_error(lambda: compare_methods(spec, initial, METHODS))
    monkeypatch.undo()
    assert_same_table(compare_methods(spec, initial, METHODS), want)


def test_the_first_halfs_failure_is_raised_when_both_fail(monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError(f"{len(a)} rows")

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    with pytest.raises(np.linalg.LinAlgError, match="^2 rows$"):
        _eigvals(companion_stack(0, 4, 5))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_roots_on_its_own_worker():
    stack = companion_stack(1, 6, 9)
    want = np.linalg.eigvals(stack).tobytes()
    assert _eigvals(stack).tobytes() == want  # the parent's worker now runs
    # the warning that a process with threads forks: this child calls only
    # the root helper, which starts its own worker
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if _eigvals(stack).tobytes() == want else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (reaped := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not root its stack within 30 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(reaped[1]) == 0


def test_concurrent_callers_get_the_serial_bytes():
    # two problems of different lengths, so a half handed to the wrong
    # caller changes its table or its shape
    problems = [order8_problem(seed, horizon) for seed, horizon in ((1, 100), (2, 131))]
    want = [compare_methods(spec, initial, METHODS) for spec, initial in problems]
    start, got = threading.Barrier(2), [[], []]

    def call(i):
        start.wait()
        for _ in range(20):
            got[i].append(compare_methods(*problems[i], METHODS))

    threads = [threading.Thread(target=call, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for tables, table in zip(got, want):
        assert len(tables) == 20
        for each in tables:
            assert_same_table(each, table)
