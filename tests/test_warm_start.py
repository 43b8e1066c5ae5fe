"""The warm start of the root pass (``roots._root_tables``).

Only the anchor rows, every ``WARM_STRIDE``-th row of a span from its first,
are rooted from the eigenvalues of their companion matrices; every other row
is polished from its anchor's roots and falls back to the eigenvalues when
that polish does not settle or fails the residual check.  The warm roots
must agree with the eigenvalue path to rounding, a span's bytes must not
depend on the spans beside it, and a constant window still roots one row.
"""

from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wkbrec import AmbiguousTracking, root_frames
from wkbrec import roots as roots_module
from wkbrec.core import _companion
from wkbrec.roots import DEFAULT_ROOT_TOL, WARM_STRIDE, _polish, _residual_check, _root_tables
from conftest import constant_spec, sin_family
from test_array_drivers import drifting_spec
from test_batch import assert_span_alone
from test_root_frames import collision_paths, outcome, reference_frames, spec_from_roots

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@contextmanager
def eigvals_rows():
    """The number of rows of each ``np.linalg.eigvals`` call in the block."""
    eigvals, rows = np.linalg.eigvals, []
    with patch.object(np.linalg, "eigvals", lambda a: rows.append(len(a)) or eigvals(a)):
        yield rows


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=seeds,
    eps=st.floats(0.01, 0.2),
    forced=st.booleans(),
    horizon=st.integers(1, 3 * WARM_STRIDE),
)
def test_warm_roots_agree_with_the_eigenvalue_path(n, seed, eps, forced, horizon):
    # only the anchor rows reach eigvals (no warm row falls back), and each
    # row's roots, up to WARM_STRIDE - 1 rows from its anchor, agree with
    # one eigvals and one polish of that row alone, matched root to root
    # (the roots are well separated, so each has one nearest counterpart)
    spec = drifting_spec(np.random.default_rng(seed), n, eps, forced, horizon=horizon)
    with eigvals_rows() as rows:
        [((roots, _), error)] = _root_tables([(spec, 0, spec.horizon)], DEFAULT_ROOT_TOL)
    assert error is None
    f = spec.table[: spec.horizon + 1, :-1]
    assert rows == [len(f[::WARM_STRIDE])]
    want, unsettled = _polish(f, np.linalg.eigvals(_companion(f)))
    assert not unsettled.any()
    distance = np.abs(roots[:, :, None] - want[:, None, :])
    nearest = distance.argmin(axis=2)
    assert (np.sort(nearest, axis=1) == np.arange(n)).all()
    scale = np.abs(want).max(axis=1)
    assert (distance.min(axis=2).max(axis=1) <= 1e-14 * scale).all()
    _, failures = _residual_check(f, roots, np.zeros(len(f), dtype=bool), DEFAULT_ROOT_TOL)
    assert all(failure is None for failure in failures)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=seeds,
    eps=st.floats(0.01, 0.2),
    forced=st.booleans(),
    lo=st.integers(1, 2 * WARM_STRIDE),
)
def test_spans_at_other_offsets_keep_their_bytes_in_a_batch(n, seed, eps, forced, lo):
    # a row's anchor is set by its offset in its own span, so a row shared
    # by two spans at other offsets may differ in its last bits between
    # them, but each span's bytes are those of its pass alone
    horizon = 3 * WARM_STRIDE
    spec = drifting_spec(np.random.default_rng(seed), n, eps, forced, horizon=horizon)
    spans = [(spec, 0, horizon), (spec, lo, lo + 30), (spec, 0, horizon), (spec, lo, lo)]
    for span, got in zip(spans, _root_tables(spans, DEFAULT_ROOT_TOL)):
        assert got[1] is None
        assert len(got[0][0]) == span[2] - span[1] + 1
        assert_span_alone(span, got)


@settings(max_examples=20, deadline=None)
@given(eps=st.floats(0.002, 0.05))
@example(eps=0.01)
def test_a_halving_sweep_keeps_the_bytes_of_each_span(eps):
    # row k at 2 eps is row 2k at eps, with another anchor
    spec, doubled = sin_family(eps, 60), sin_family(2 * eps, 60)
    spans = [(spec, 0, 40), (spec, 3, 30), (doubled, 0, 20)]
    for span, got in zip(spans, _root_tables(spans, DEFAULT_ROOT_TOL)):
        assert got[1] is None
        assert_span_alone(span, got)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 8), seed=seeds, k_start=st.integers(0, 5), forced=st.booleans())
def test_a_constant_problem_roots_one_row(n, seed, k_start, forced):
    # every row holds the anchor's bytes, so only the one distinct anchor
    # row reaches eigvals, whatever the spans' offsets
    rng = np.random.default_rng(seed)
    roots = 0.7 * (np.arange(n) - (n - 1) / 2) + 0.3j * rng.random(n)
    spec = constant_spec(np.poly(roots)[::-1][:n], 30, k_start, 0.5 if forced else 0.0)
    spans = [(spec, k_start, k_start + 30), (spec, k_start + 3, k_start + 20)]
    with eigvals_rows() as rows:
        tables = _root_tables(spans, DEFAULT_ROOT_TOL)
    assert rows == [1]
    for ((got, _), error), (_, lo, hi) in zip(tables, spans):
        assert error is None and len(got) == hi - lo + 1
        assert (got == got[0]).all()


def test_a_warm_polish_that_settles_off_the_roots_falls_back():
    # a real pair at row 0 turns into the complex pair +-0.177j at k=2; the
    # polish of row 2 from row 0's real roots stays on the real axis and
    # settles at a double point with residual 3.1e-2, so the residual check
    # sends rows 2-10 (the span's last) to the eigenvalues, and the tie of
    # the crossing at k=2 is the error, as in the reference pass
    spec = spec_from_roots(collision_paths("crossing", 2, 2, 0.0625, 0.0, 1.0))
    f = spec.table[:, :-1]
    z, _, _ = roots_module._cold_roots(f[:1], DEFAULT_ROOT_TOL)
    z, unsettled = _polish(f[2:3], z)
    residuals, [failure] = _residual_check(f[2:3], z, unsettled, DEFAULT_ROOT_TOL)
    assert not unsettled[0] and failure is not None
    assert np.isclose(residuals.max(), 3.125e-2)
    with eigvals_rows() as rows:
        got = outcome(lambda: root_frames(spec))
    assert rows == [1, 9]
    assert got == outcome(lambda: reference_frames(spec)) == (AmbiguousTracking, 2)
