"""One batch per run: the problems of a run and its sweep share one scalar
recursion loop, one root pass and one chain.

Each batched stage must give every member the bits it gets alone: a
recursion member those of ``direct_solve``, a root-pass span those of
``_root_tables`` on that span alone, a problem the ``ComparisonTable`` of
``compare_methods``.  A failure is charged to the problem (and method) that
read it, and the first failing problem in order is the one reported,
whatever stage each problem fails in.
"""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wkbrec import (
    AmbiguousTracking,
    Breakdown,
    Constant,
    DegenerateRoots,
    NoConvergence,
    RecurrenceError,
    RecurrenceSpec,
    SingularGauge,
    Tabulated,
    compare_methods,
    direct_solve,
    epsilon_sweep,
)
from wkbrec import roots as roots_module
from wkbrec import wkb
from wkbrec.core import _recur
from wkbrec.roots import DEFAULT_ROOT_TOL, WARM_STRIDE, _root_tables
from wkbrec.wkb import _compare_batch
from conftest import constant_spec, sin_family
from test_array_drivers import drifting_spec, squeeze_spec
from test_root_frames import double_root_then_tie_paths, near_tie_spec, spec_from_roots

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_spec(rng, n, horizon, forced, magnitude):
    """Order-n tabulated spec with random coefficients of about
    ``magnitude`` (f[0] is never exactly zero) and, if ``forced``, a random
    forcing."""
    shape = (horizon + n + 1, n + 1)
    values = magnitude * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / n
    forcing = Tabulated(values=values[:, -1], k_first=0) if forced else Constant(0.0)
    return RecurrenceSpec(
        order=n,
        coeffs=tuple(Tabulated(values=values[:, j], k_first=0) for j in range(n)),
        k_start=0,
        horizon=horizon,
        forcing=forcing,
    )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    m=st.integers(1, 6),
    seed=seeds,
    forced=st.booleans(),
    log_magnitude=st.floats(-5, 5),
    shared=st.booleans(),
)
def test_each_recursion_member_equals_direct_solve(n, m, seed, forced, log_magnitude, shared):
    # a member's bits do not depend on the members beside it, whether each
    # has its own table or all step on one (as riccati's seeds do)
    rng = np.random.default_rng(seed)
    horizon = int(rng.integers(1, 40))
    specs = [random_spec(rng, n, horizon, forced, 10.0**log_magnitude) for _ in range(m)]
    if shared:
        specs = [specs[0]] * m
    initial = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    tables = [spec.table[:horizon] for spec in specs]
    with np.errstate(all="ignore"):
        got = _recur(tables, initial)
        for spec, start, values in zip(specs, initial, got):
            assert values.tobytes() == direct_solve(spec, start).values.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=seeds,
    spans=st.lists(st.tuples(st.integers(0, 30), st.integers(-1, 30)), min_size=1, max_size=4),
)
def test_each_root_span_equals_its_pass_alone(n, seed, spans):
    # spans past the window (which ends at k=30+n) fail alone as in the batch
    rng = np.random.default_rng(seed)
    specs = [drifting_spec(rng, n, rng.uniform(0.01, 0.2), False) for _ in spans]
    batch = _root_tables([(s, lo, lo + width) for s, (lo, width) in zip(specs, spans)], 1e-10)
    for spec, (lo, width), ((roots, residuals), error) in zip(specs, spans, batch):
        (want_roots, want_residuals), want = _root_tables([(spec, lo, lo + width)], 1e-10)[0]
        if want is not None:
            assert (type(error), error.k, str(error)) == (type(want), want.k, str(want))
            continue
        assert error is None
        assert roots.tobytes() == want_roots.tobytes()
        assert residuals.tobytes() == want_residuals.tobytes()


def test_a_failing_span_keeps_its_rows_and_leaves_the_others_whole():
    good = sin_family(epsilon=0.02, horizon=20)
    f = good.table[:, :-1].copy()
    f[7, 1] = np.nan
    bad = replace(good, coeffs=tuple(Tabulated(values=f[:, j], k_first=0) for j in range(3)))
    spans = [(good, 0, 20), (bad, 0, 20), (good, 0, 20)]
    (first, none), (rows, error), (last, _) = _root_tables(spans, DEFAULT_ROOT_TOL)
    whole, _ = _root_tables([(good, 0, 20)], DEFAULT_ROOT_TOL)[0]
    assert none is None
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, whole))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(last, whole))
    assert (type(error), error.k) == (RecurrenceError, 7)
    assert len(rows[0]) == 7
    assert rows[0].tobytes() == whole[0][:7].tobytes()


def test_a_tie_keeps_the_rows_before_it():
    # tracking from k=3 to k=4 ties: rows 0-3 are labelled, row 4 fails
    spec = near_tie_spec()
    [((roots, residuals), error)] = _root_tables([(spec, 0, spec.horizon)], DEFAULT_ROOT_TOL)
    assert (type(error), error.k) == (AmbiguousTracking, 4)
    want, _ = _root_tables([(spec, 0, 3)], DEFAULT_ROOT_TOL)[0]
    assert roots.tobytes() == want[0].tobytes()
    assert residuals.tobytes() == want[1].tobytes()


def shared_row_specs(eps):
    """Order-3 problems whose coefficient rows repeat within and across
    them: the README family at ``eps`` and at ``2 * eps`` (row k of the
    second is row 2k of the first, bit for bit), a copy of the first with a
    NaN at k=9, constant roots 1 and 1 +- sqrt(3) with ``f[2] = -3`` and with
    ``f[2] = -3 - 0.0j`` (an equal row of other bytes, whose roots differ in
    their bits), and the near tie at k=4."""
    sin = sin_family(eps, 60)
    f = sin.table[:, :-1].copy()
    f[9, 1] = np.nan
    nan = replace(sin, coeffs=tuple(Tabulated(values=f[:, j], k_first=0) for j in range(3)))
    return {
        "eps": sin,
        "2eps": sin_family(2 * eps, 60),
        "non-finite": nan,
        "constant": constant_spec([2.0, 0.0, -3.0], 60),
        "negative zero": constant_spec([2.0, 0.0, complex(-3.0, -0.0)], 60),
        "tie": near_tie_spec(),
    }


def assert_span_alone(span, got):
    """``got``, a span's result of ``_root_tables``, is that of
    ``_root_tables`` on the span alone: its bytes, or its error type and k."""
    (roots, residuals), error = got
    (want_roots, want_residuals), want = _root_tables([span], DEFAULT_ROOT_TOL)[0]
    if want is not None:
        assert (type(error), error.k, str(error)) == (type(want), want.k, str(want))
        return
    assert error is None
    assert roots.tobytes() == want_roots.tobytes()
    assert residuals.tobytes() == want_residuals.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    eps=st.floats(0.002, 0.05),
    picks=st.lists(
        st.tuples(
            st.sampled_from(["eps", "2eps", "non-finite", "constant", "negative zero", "tie"]),
            st.integers(0, 4),
            st.integers(0, 40),
        ),
        min_size=2,
        max_size=4,
    ),
)
@example(eps=0.01, picks=[("eps", 0, 40), ("2eps", 0, 20), ("eps", 0, 40), ("constant", 0, 9)])
@example(eps=0.01, picks=[("constant", 0, 9), ("negative zero", 0, 9), ("non-finite", 0, 40)])
@example(eps=0.01, picks=[("tie", 0, 8), ("eps", 2, 30), ("tie", 0, 8), ("non-finite", 4, 20)])
def test_spans_sharing_rows_equal_their_pass_alone(eps, picks):
    # each distinct row is rooted once and its roots are spread to every
    # row holding its bytes; a span ends past its window's last index
    specs = shared_row_specs(eps)
    spans = []
    for kind, lo, width in picks:
        spec = specs[kind]
        spans.append((spec, lo, min(lo + width, spec.window[1])))
    for span, got in zip(spans, _root_tables(spans, DEFAULT_ROOT_TOL)):
        assert_span_alone(span, got)


def test_shared_rows_that_fall_back_equal_their_pass_alone(monkeypatch):
    # zero start values leave every distinct anchor row unsettled (rows 0
    # and 32 at eps; row 0 is the anchor of the 2eps span too), so each of
    # the 2 is polished again from the circle start, once, and gets the
    # roots of characteristic_roots on that row; the 44 distinct pairs of
    # another row and its anchor (39 at eps, and rows 16-20 at 2eps, which
    # are rows 32-40 at eps with anchor 0, not 32) are polished once from
    # the anchor's roots, and agree with characteristic_roots to rounding
    specs = shared_row_specs(0.01)
    spans = [(specs["eps"], 0, 40), (specs["2eps"], 0, 20), (specs["eps"], 0, 40)]
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.zeros(a.shape[:-1], complex))
    polish, polished = roots_module._polish, []

    def counted(f, z):
        polished.append(len(f))
        return polish(f, z)

    monkeypatch.setattr(roots_module, "_polish", counted)
    batch = _root_tables(spans, DEFAULT_ROOT_TOL)
    assert polished == [2, 2, 44]
    for span, got in zip(spans, batch):
        assert got[1] is None
        assert_span_alone(span, got)
        spec, k_lo, _ = span
        for t, row in enumerate(got[0][0]):
            alone = roots_module.characteristic_roots(spec.coeff_array(k_lo + t))
            if t % WARM_STRIDE == 0:
                assert np.sort(row).tobytes() == np.sort(alone).tobytes()
            else:
                scale = np.abs(alone).max()
                np.testing.assert_allclose(np.sort(row), np.sort(alone), rtol=0, atol=1e-14 * scale)


def test_residual_failures_of_shared_rows_equal_their_pass_alone():
    # at this tolerance rows fail the residual bound at various indices,
    # which hang on the last bits of their roots; the verdict of each
    # distinct row (with its anchor) reaches every span holding its bytes
    specs, tol = shared_row_specs(0.01), 1e-17
    spans = [(specs["2eps"], 0, 20), (specs["eps"], 0, 40), (specs["constant"], 0, 9)]
    spans += [(specs["eps"], 3, 30), (specs["eps"], 2, 2)]
    errors = []
    for span, ((roots, residuals), error) in zip(spans, _root_tables(spans, tol)):
        want, exc = _root_tables([span], tol)[0]
        if exc is not None:
            assert (type(error), error.k, str(error)) == (NoConvergence, exc.k, str(exc))
            cut = _root_tables([(span[0], span[1], exc.k - 1)], tol)[0][0]
            assert roots.tobytes() == cut[0].tobytes()
            errors.append(error.k)
            continue
        assert error is None
        assert (roots.tobytes(), residuals.tobytes()) == (want[0].tobytes(), want[1].tobytes())
        errors.append(None)
    assert errors == [8, 1, None, 3, 2]


@pytest.mark.parametrize("unsettled", [False, True])
def test_the_pass_never_calls_the_scalar_solver(monkeypatch, unsettled):
    # the batched pass solves and checks every row itself, whether or not
    # its rows settle from the eigenvalues
    specs = shared_row_specs(0.01)
    spans = [(specs[kind], 0, min(40, specs[kind].window[1])) for kind in specs]
    if unsettled:
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.zeros(a.shape[:-1], complex))
    want = _root_tables(spans, DEFAULT_ROOT_TOL)

    def scalar(*args, **kwargs):
        raise AssertionError("characteristic_roots called")

    monkeypatch.setattr(roots_module, "characteristic_roots", scalar)
    for ((roots, residuals), error), (want_rows, want_error) in zip(
        _root_tables(spans, DEFAULT_ROOT_TOL), want
    ):
        assert roots.tobytes() == want_rows[0].tobytes()
        assert residuals.tobytes() == want_rows[1].tobytes()
        assert str(error) == str(want_error)
    errors = [None if error is None else (type(error), error.k) for _, error in want]
    assert errors == [None, None, (RecurrenceError, 9), None, None, (AmbiguousTracking, 4)]


def test_degenerate_roots_past_row_0_are_not_riccatis():
    # the separation check of the whole table fails at k=4; riccati reads
    # only row 0, so the failure is the first method reading every row
    spec = squeeze_spec(3, 4, 1.5)
    initial = np.full(3, 1.0 + 0.5j)
    compare_methods(spec, initial, ["riccati"])
    with pytest.raises(DegenerateRoots) as info:
        compare_methods(spec, initial, ["riccati", "wkb-general", "gauge-exact"])
    assert info.value.k == 4
    assert info.value.message.startswith("method 'wkb-general': ")


def test_degenerate_roots_before_a_failing_row_are_reported():
    # the root pass fails at k=10 on a tie, and the rows before it hold a
    # double root at k=5: the lowest failing index is the one reported
    spec = spec_from_roots(double_root_then_tie_paths())
    [((roots, _), error)] = _root_tables([(spec, 0, spec.horizon)], DEFAULT_ROOT_TOL)
    assert (type(error), error.k, len(roots)) == (AmbiguousTracking, 10, 10)
    compare_methods(spec, np.ones(4), ["riccati"])
    for methods in (["gauge-exact"], ["riccati", "gauge-exact"]):
        with pytest.raises(DegenerateRoots) as info:
            compare_methods(spec, np.ones(4), methods)
        assert (info.value.k, info.value.message) == (
            5,
            "method 'gauge-exact': root separation below threshold",
        )


def assert_same_table(got, want):
    assert got.k.tobytes() == want.k.tobytes()
    assert got.oracle.tobytes() == want.oracle.tobytes()
    assert list(got.values) == list(want.values)
    for name in want.values:
        assert got.values[name].tobytes() == want.values[name].tobytes(), name
        assert got.rel_errors[name].tobytes() == want.rel_errors[name].tobytes(), name


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=seeds,
    forced=st.booleans(),
    eps=st.lists(st.floats(0.01, 0.2), min_size=1, max_size=4),
    repeat=st.booleans(),
)
def test_a_batch_equals_each_problem_alone(n, seed, forced, eps, repeat):
    rng = np.random.default_rng(seed)
    specs = []
    for e in eps:
        specs.append(drifting_spec(np.random.default_rng(seed), n, e, forced))
    if repeat:  # a repeated problem reuses the table of its first copy
        specs.insert(1, specs[0])
    names = [name for name in wkb.METHOD_NAMES if not wkb.check_methods(specs[0], [name])]
    names = [str(name) for name in rng.permutation(names)]
    initial = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    tables = _compare_batch(specs, initial, names)
    for spec, table in zip(specs, tables):
        assert_same_table(table, compare_methods(spec, initial, names))
    if repeat:
        assert tables[1] is tables[0]


def error_of(fn):
    """The library error ``fn()`` raises, as (type, message)."""
    with pytest.raises((RecurrenceError, ValueError)) as info:
        fn()
    return type(info.value), str(info.value)


def root_pass_failure():
    """The README family with a NaN f[1] at k=3: gauge-exact's root pass
    fails there."""
    spec = sin_family(epsilon=0.01, horizon=6)
    f = spec.table[:, :-1].copy()
    f[3, 1] = np.nan
    return replace(spec, coeffs=tuple(Tabulated(values=f[:, j], k_first=0) for j in range(3)))


def setup_failure():
    """Constant roots 1e-160, 1 and 2: riccati's seed solution rho**k of the
    smallest root is 1e-320 at k=2, below the normal range, so its ratio is
    undefined and riccati's setup fails; the root pass succeeds."""
    f = np.poly([1e-160, 1.0, 2.0])[::-1][:3]
    return RecurrenceSpec(order=3, coeffs=tuple(map(Constant, f)), k_start=0, horizon=6)


METHODS = ["gauge-exact", "riccati", "direct"]
INITIAL = np.array([1.0, 0.5, 0.25])


def test_setup_failure_is_riccatis_and_root_failure_gauge_exacts():
    assert error_of(lambda: compare_methods(root_pass_failure(), INITIAL, METHODS)) == (
        RecurrenceError,
        "method 'gauge-exact': non-finite characteristic coefficient at index k=3",
    )
    assert error_of(lambda: compare_methods(setup_failure(), INITIAL, METHODS)) == (
        Breakdown,
        "method 'riccati': solution value vanishes, ratio undefined at index k=2 branch 0",
    )


@pytest.mark.parametrize("first", ["root pass", "setup"])
def test_the_first_failing_problem_is_reported_whatever_its_stage(first):
    # the stages run for all problems at once, yet the order of the problems
    # decides which failure is raised, not the order of the stages
    problems = {"root pass": root_pass_failure(), "setup": setup_failure()}
    specs = [problems[first], *(s for name, s in problems.items() if name != first)]
    want = error_of(lambda: compare_methods(specs[0], INITIAL, METHODS))
    assert error_of(lambda: _compare_batch(specs, INITIAL, METHODS)) == want


def test_a_problem_failing_before_any_stage_is_reported_in_its_turn():
    # riccati requires zero forcing: checked before any stage runs
    forced = replace(sin_family(epsilon=0.01, horizon=6), forcing=Constant(1.0))
    want = (ValueError, "method 'riccati' requires zero forcing")
    assert error_of(lambda: _compare_batch([forced, setup_failure()], INITIAL, METHODS)) == want
    want = error_of(lambda: compare_methods(setup_failure(), INITIAL, METHODS))
    assert error_of(lambda: _compare_batch([setup_failure(), forced], INITIAL, METHODS)) == want


def test_a_bad_tolerance_is_the_first_root_reading_methods_error():
    # the tolerance is checked in the batch's one root pass, but charged to
    # each problem's first method reading roots, after the methods before it
    spec = sin_family(epsilon=0.01, horizon=6)
    with pytest.raises(ValueError, match="root tolerance must be positive and finite"):
        _compare_batch([spec, spec.with_epsilon(0.02)], INITIAL, ["companion", "riccati"], -1.0)
    long = sin_family(epsilon=0.01, horizon=2000)
    with pytest.raises(Breakdown, match="method 'companion': non-finite value at index k=648"):
        _compare_batch([long, long.with_epsilon(0.02)], INITIAL, ["companion", "riccati"], -1.0)


def cube_roots(s):
    """Constant roots ``s``, ``s w`` and ``s w**2`` (w a cube root of one),
    for ``rho**3 = s**3``: separated at any ``s``, but their Vandermonde
    matrix has admissibility ``3**1.5 s**3``, below threshold for
    ``s < 5.8e-5``."""
    return constant_spec([-(s**3), 0.0, 0.0], 6)


def shrinking_roots():
    """The roots of :func:`cube_roots` at ``s = 10**-k``: admissible up to
    k=4, so the power start passes and gauge-exact's steps fail at k=5."""
    f0 = Tabulated(values=-(10.0 ** -np.arange(10.0)) ** 3, k_first=0)
    return RecurrenceSpec(order=3, coeffs=(f0, Constant(0.0), Constant(0.0)), k_start=0, horizon=6)


@pytest.mark.parametrize(
    "failing, methods, error, message",
    [
        pytest.param(
            setup_failure(),
            METHODS,
            Breakdown,
            "method 'riccati': solution value vanishes, ratio undefined at index k=2 branch 0",
            id="riccati-seed-vanishes",
        ),
        pytest.param(
            cube_roots(1e-5),
            ["companion", "wkb-general", "gauge-exact", "riccati"],
            SingularGauge,
            "method 'wkb-general': gauge admissibility 5.196e-15 below threshold at index k=0",
            id="power-start-not-admissible",
        ),
        pytest.param(
            cube_roots(6e-5),
            ["direct", "gauge-exact"],
            SingularGauge,
            r"method 'gauge-exact': solve residual \S+ above 1e-10 at index k=0",
            id="power-start-residual",
        ),
        pytest.param(
            cube_roots(1e-5),
            ["riccati", "gauge-exact"],
            SingularGauge,
            "method 'riccati': gauge admissibility 5.196e-15 below threshold at index k=0",
            id="riccati-start-not-admissible",
        ),
        pytest.param(
            shrinking_roots(),
            ["wkb-general", "gauge-exact", "direct"],
            SingularGauge,
            "method 'gauge-exact': gauge admissibility 5.196e-15 below threshold at index k=5",
            id="gauge-exact-step-not-admissible",
        ),
        pytest.param(
            squeeze_spec(3, 4, 1.5),
            ["riccati", "wkb-general", "gauge-exact", "direct"],
            DegenerateRoots,
            "method 'wkb-general': root separation below threshold at index k=4",
            id="root-pass-cut-riccati-reads-row-0",
        ),
    ],
)
def test_a_failure_in_a_batched_stage_is_charged_to_its_problem(failing, methods, error, message):
    # the middle problem of three fails inside a stage that sets up all
    # problems at once: it gets the error it raises alone, and the problems
    # beside it the bytes they get alone, or in a batch without it
    alone = error_of(lambda: compare_methods(failing, INITIAL, methods))
    assert alone[0] is error
    assert re.fullmatch(message, alone[1])  # a pattern: the residual's digits may vary
    good = [sin_family(0.01, failing.horizon), sin_family(0.02, failing.horizon)]
    first, failure, last = wkb._outcomes([good[0], failing, good[1]], INITIAL, methods, 1e-10)
    assert (type(failure), str(failure)) == alone
    assert error_of(lambda: _compare_batch([good[0], failing, good[1]], INITIAL, methods)) == alone
    without = _compare_batch(good, INITIAL, methods)
    for spec, table, kept in zip(good, (first, last), without):
        assert_same_table(table, compare_methods(spec, INITIAL, methods))
        assert_same_table(kept, table)


def test_problems_of_one_order_and_horizon_only():
    with pytest.raises(ValueError, match="one order and horizon"):
        _compare_batch([sin_family(0.01, 6), sin_family(0.01, 7)], INITIAL, ["direct"])


def test_sweep_is_the_batch_of_its_problems():
    spec = sin_family(epsilon=0.01, horizon=40)
    eps = [0.02, 0.01, 0.005, 0.01]
    sweep = epsilon_sweep(spec, INITIAL, ["wkb-general", "gauge-exact"], eps)
    assert np.array_equal(sweep.epsilons, eps)
    for i, e in enumerate(eps):
        table = compare_methods(spec.with_epsilon(e), INITIAL, ["wkb-general", "gauge-exact"])
        for name in ("wkb-general", "gauge-exact"):
            assert sweep.terminal_errors[name][i] == table.terminal_error(name)
    empty = epsilon_sweep(spec, INITIAL, ["wkb-general"], [])
    assert empty.epsilons.shape == (0,) and empty.terminal_errors["wkb-general"].shape == (0,)


def test_constant_problems_root_their_one_distinct_row(monkeypatch):
    # two problems of the same constant coefficients at other window starts:
    # two tables, two spans and one distinct row for eigvals
    specs = [constant_spec([2.0, 0.0, -3.0], 20, k_start=k) for k in (0, 5)]
    names = [name for name in wkb.METHOD_NAMES if not wkb.check_methods(specs[0], [name])]
    eigvals, rows = np.linalg.eigvals, []
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: rows.append(len(a)) or eigvals(a))
    tables = _compare_batch(specs, INITIAL, names)
    assert rows == [1]
    # a lone problem, one span, roots its one distinct row too
    rows.clear()
    compare_methods(specs[0], INITIAL, names)
    assert rows == [1]
    for spec, table in zip(specs, tables):
        assert_same_table(table, compare_methods(spec, INITIAL, names))
