"""The batched root-frame pass against the index-by-index algorithm.

The reference below solves each index with a warm-started Aberth iteration
(:func:`characteristic_roots` seeded with the previous frame) and carries
labels with the exact permutation search of :func:`track_branches`.  The
batched :func:`root_frames` must reproduce its labels, and fail with the
same error class at the same index.
"""

from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wkbrec import (
    AmbiguousTracking,
    Constant,
    DegenerateRoots,
    IndexOutOfWindow,
    NoConvergence,
    RecurrenceError,
    RecurrenceSpec,
    RootFrame,
    Tabulated,
    characteristic_roots,
    compare_methods,
    power_gauge,
    propagate,
    root_frames,
    root_residuals,
    track_branches,
)
from wkbrec import roots as roots_module
from wkbrec.roots import DEFAULT_ROOT_TOL
from conftest import sin_family


def reference_frames(spec, tol=DEFAULT_ROOT_TOL):
    frames = []
    for k in range(spec.k_start, spec.k_start + spec.horizon + 1):
        f = spec.coeff_array(k)
        seed = frames[-1].roots if frames else None
        try:
            roots = characteristic_roots(f, tol=tol, seed=seed)
        except RecurrenceError as exc:
            raise exc.with_context(k=k) from exc
        res = root_residuals(f, roots)
        if frames:
            frames.append(track_branches(frames[-1], roots, residuals=res))
        else:
            order = np.lexsort((roots.imag, roots.real))
            frames.append(RootFrame(k=k, roots=roots[order], residuals=res[order]))
    return frames


def outcome(fn):
    """``fn()``, or ``(error class, k)`` if it raises a library error."""
    try:
        return fn()
    except RecurrenceError as exc:
        return type(exc), exc.k


def spec_from_roots(paths, forcing=0.0):
    """Tabulated spec whose characteristic roots at index k are ``paths[k]``."""
    paths = np.asarray(paths, dtype=complex)
    n = paths.shape[1]
    coeffs = np.array([np.poly(row)[::-1][:n] for row in paths])
    return RecurrenceSpec(
        order=n,
        coeffs=tuple(Tabulated(values=coeffs[:, j], k_first=0) for j in range(n)),
        k_start=0,
        horizon=len(paths) - n - 1,
        forcing=Constant(forcing),
    )


def near_tie_spec():
    # the family of test_near_tie_with_distinct_nearest_roots_is_ambiguous:
    # tracking from k=3 to k=4 ties, so row 0 is sound and row 4 fails
    before = [-1.0, 1.0, 3.0]
    after = [-1e-13 + 1j, 1e-13 - 1j, 3.0]
    return spec_from_roots([before] * 4 + [after] * 5)


def double_root_then_tie_paths():
    """Order-4 root paths over k = 0..19: the pair (0.95, 1.05) is an exact
    double root 1 at k=5, and the pair (2.5, 3.5) turns into 3 +- 0.5j at
    k=10, where the two ways to continue it tie exactly."""
    paths = []
    for k in range(20):
        pair = [1.0, 1.0] if k == 5 else [0.95, 1.05]
        paths.append(pair + ([3 + 0.5j, 3 - 0.5j] if k >= 10 else [2.5, 3.5]))
    return paths


def base_roots(rng, n):
    # real parts at least 0.4 apart, so the first frame's label order is
    # decided far above rounding
    x = 0.7 * (np.arange(n) - (n - 1) / 2) + 0.3 * rng.random(n)
    return x + 1j * rng.uniform(-1.5, 1.5, n)


def assert_same_frames(got, want):
    assert [f.k for f in got] == [f.k for f in want]
    for a, b in zip(got, want):
        scale = float(np.max(np.abs(b.roots)))
        assert np.max(np.abs(a.roots - b.roots)) <= 1e-12 * scale


orders = st.integers(min_value=2, max_value=8)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
forcings = st.sampled_from([0.0, 0.7 - 0.3j])


@settings(max_examples=30, deadline=None)
@given(n=orders, seed=seeds, eps=st.floats(0.01, 0.2), forcing=forcings)
def test_slowly_varying_labels_match_reference(n, seed, eps, forcing):
    rng = np.random.default_rng(seed)
    horizon = 16
    base = base_roots(rng, n)
    amp = 0.1 * np.exp(2j * np.pi * rng.random(n))
    phase = rng.uniform(0, 2 * np.pi, n)
    ks = np.arange(horizon + n + 1)[:, None]
    spec = spec_from_roots(base + amp * np.sin(eps * ks + phase), forcing=forcing)

    want = reference_frames(spec)
    got = root_frames(spec)
    assert_same_frames(got, want)

    # the shared frames drive the exact method as the reference frames do
    initial = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref_values, _ = propagate(spec, initial, [power_gauge(f) for f in want])
    table = compare_methods(spec, initial, ["gauge-exact"])
    err = np.max(np.abs(table.values["gauge-exact"] - ref_values))
    assert err <= 1e-9 * np.max(np.abs(ref_values))


@settings(max_examples=25, deadline=None)
@given(n=orders, seed=seeds, amp=st.floats(0.05, 1.0))
def test_jumping_roots_take_the_exact_search(n, seed, amp):
    # unrelated root sets at every index: the nearest-root map is often not
    # a permutation, so many steps fall through to the exhaustive search
    rng = np.random.default_rng(seed)
    horizon = 10
    base = base_roots(rng, n)
    jumps = rng.uniform(-1, 1, (horizon + n + 1, n)) + 1j * rng.uniform(
        -1, 1, (horizon + n + 1, n)
    )
    jumps[0] = 0.0
    spec = spec_from_roots(base + amp * jumps)

    want = outcome(lambda: reference_frames(spec))
    got = outcome(lambda: root_frames(spec))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_frames(got, want)


def collision_paths(kind, n, k0, rate, center, width=0.5):
    """A pair of roots at ``center`` that collides at k0, plus n-2 fixed
    real roots from 3 upwards.

    ``crossing``: the pair is real before k0 and a complex-conjugate pair
    from k0 on, so the two ways of matching it tie exactly.  ``squeeze``:
    the pair separation drops from ``width`` to 1e-6 at k0 while a root of
    modulus 1e4 sets the separation scale, so the pair stays resolved but
    falls below the separation threshold.
    """
    ks = np.arange(k0 + 8 + n + 1)
    others = 3.0 + 1.3 * np.arange(n - 2)
    if kind == "crossing":
        half = np.sqrt((rate * (k0 - ks - 0.5)).astype(complex))
    else:
        half = np.where(ks < k0, width / 2, 5e-7).astype(complex)
        others[-1:] = 1e4
    pair = np.stack([center + half, center - half], axis=1)
    rest = np.broadcast_to(others, (len(ks), n - 2))
    return np.concatenate([pair, rest], axis=1)


@settings(max_examples=30, deadline=None)
@given(
    n=orders,
    kind=st.sampled_from(["crossing", "squeeze"]),
    k0=st.integers(1, 6),
    rate=st.floats(0.01, 0.2),
    center=st.floats(-1.0, 1.0),
    width=st.floats(0.2, 1.0),
)
def test_near_collisions_fail_like_reference(n, kind, k0, rate, center, width):
    # without the large root a squeezed pair is ill-conditioned far above
    # the update tolerance, and whether either solver stops is luck
    assume(kind == "crossing" or n > 2)
    paths = collision_paths(kind, n, k0, rate, center, width)
    # a root exactly at zero makes f[0] vanish, which RecurrenceSpec rejects
    # before any root is sought
    assume(np.all(paths != 0))
    spec = spec_from_roots(paths)

    def through_gauges(frames_fn):
        frames = frames_fn(spec)
        for frame in frames:
            power_gauge(frame)
        return frames

    want = outcome(lambda: through_gauges(reference_frames))
    got = outcome(lambda: through_gauges(root_frames))
    if kind == "crossing":
        assert want == (AmbiguousTracking, k0)
    else:
        assert want == (DegenerateRoots, k0)
    assert got == want


@settings(max_examples=20, deadline=None)
@given(n=orders, seed=seeds, j=st.integers(0, 20), nan_pos=st.integers(0, 7))
def test_nan_coefficient_names_its_index(n, seed, j, nan_pos):
    # a RecurrenceError naming k, never numpy's LinAlgError from eigvals
    base = base_roots(np.random.default_rng(seed), n)
    spec = spec_from_roots([base] * (20 + n + 1))
    table = [m.values.copy() for m in spec.coeffs]
    table[nan_pos % n][j] = np.nan
    spec = replace(spec, coeffs=tuple(Tabulated(values=v, k_first=0) for v in table))
    with pytest.raises(RecurrenceError) as info:
        root_frames(spec)
    assert info.value.k == j
    assert "non-finite" in str(info.value)


class TestFailures:
    def test_lowest_failing_index_wins(self):
        # the crossing at k=3 is met before an infinite coefficient at k=9,
        # and an infinite coefficient at k=2 before the crossing
        spec = spec_from_roots(collision_paths("crossing", 3, 3, 0.1, 0.0))
        for j, expected in ((9, (AmbiguousTracking, 3)), (2, (RecurrenceError, 2))):
            table = [m.values.copy() for m in spec.coeffs]
            table[1][j] = np.inf
            broken = replace(spec, coeffs=tuple(Tabulated(values=v, k_first=0) for v in table))
            assert outcome(lambda: root_frames(broken)) == expected

    def test_near_tie_with_distinct_nearest_roots_is_ambiguous(self):
        # each previous root has its own nearest new root, but swapping the
        # pair costs only ~1e-13 more: the certificate must not accept it
        before = [-1.0, 1.0, 3.0]
        after = [-1e-13 + 1j, 1e-13 - 1j, 3.0]
        spec = spec_from_roots([before] * 4 + [after] * 5)
        assert outcome(lambda: reference_frames(spec)) == (AmbiguousTracking, 4)
        assert outcome(lambda: root_frames(spec)) == (AmbiguousTracking, 4)

    @pytest.mark.parametrize("methods", [["riccati", "gauge-exact"], ["gauge-exact", "riccati"]])
    def test_root_pass_failure_names_a_method_reading_that_row(self, methods):
        # riccati reads only row 0, so the tie at k=4 is gauge-exact's
        spec = near_tie_spec()
        init = np.array([1.0, 0.5, 0.25])
        compare_methods(spec, init, ["riccati"])
        with pytest.raises(AmbiguousTracking) as info:
            compare_methods(spec, init, methods)
        assert info.value.k == 4
        assert info.value.message.startswith("method 'gauge-exact': ")

    @pytest.mark.parametrize("method", ["gauge-exact", "wkb-general"])
    @pytest.mark.parametrize("family", ["near-tie", "nan-entry"])
    def test_compare_methods_fails_like_root_frames(self, method, family):
        spec = near_tie_spec()
        if family == "nan-entry":
            base = base_roots(np.random.default_rng(5), 4)
            spec = spec_from_roots([base] * 25)
            table = [m.values.copy() for m in spec.coeffs]
            table[2][7] = np.nan
            spec = replace(spec, coeffs=tuple(Tabulated(values=v, k_first=0) for v in table))
        with pytest.raises(RecurrenceError) as want:
            root_frames(spec)
        with pytest.raises(RecurrenceError) as got:
            compare_methods(spec, np.ones(spec.order), [method])
        assert (type(want.value), want.value.k) == (
            (AmbiguousTracking, 4) if family == "near-tie" else (RecurrenceError, 7)
        )
        assert (type(got.value), got.value.k) == (type(want.value), want.value.k)
        assert str(got.value) == f"method '{method}': {want.value}"

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_root_tolerance_must_be_positive_and_finite(self, tol, cubic123_spec):
        calls = [
            lambda: characteristic_roots([-6.0, 11.0, -6.0], tol=tol),
            lambda: root_frames(cubic123_spec, tol=tol),
            lambda: compare_methods(cubic123_spec, np.ones(3), ["gauge-exact"], root_tol=tol),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="root tolerance must be positive and finite"):
                call()

    def test_failed_fallback_names_its_index(self, monkeypatch):
        # every row is polished again from the circle start, and that second
        # polish fails from the fourth row on; the rows before it are still
        # labelled first
        spec = sin_family(epsilon=0.02, horizon=20, k_start=5)
        polish, calls = roots_module._polish, []

        def failing(f, z):
            z, unsettled = polish(f, z)
            calls.append(len(f))
            if len(calls) == 2:
                unsettled[3:] = True
            return z, unsettled

        monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.zeros(a.shape[:-1], complex))
        monkeypatch.setattr(roots_module, "_polish", failing)
        assert outcome(lambda: root_frames(spec)) == (NoConvergence, 8)
        assert calls == [21, 21]

    def test_unsettled_rows_fall_back_to_scalar_solver(self, monkeypatch):
        # coincident start values make every batched update non-finite
        spec = sin_family(epsilon=0.02, horizon=20)
        want = reference_frames(spec)
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.zeros(a.shape[:-1], complex))
        assert_same_frames(root_frames(spec), want)

    def test_residuals_are_per_branch(self):
        spec = sin_family(epsilon=0.01, horizon=30)
        for frame in root_frames(spec):
            f = spec.coeff_array(frame.k)
            np.testing.assert_array_equal(frame.residuals, root_residuals(f, frame.roots))

    def test_empty_window(self, cubic123_spec):
        assert root_frames(cubic123_spec, 3, 2) == []

    def test_range_outside_window_names_first_index_outside(self, cubic123_spec):
        # the window is [0, 13]; the range is checked before the table is
        # sliced, so nothing wraps or is cut short
        assert len(root_frames(cubic123_spec, 0, 13)) == 14
        assert outcome(lambda: root_frames(cubic123_spec, -1, 5)) == (IndexOutOfWindow, -1)
        assert outcome(lambda: root_frames(cubic123_spec, 5, 20)) == (IndexOutOfWindow, 14)
        assert outcome(lambda: root_frames(cubic123_spec, 20, 25)) == (IndexOutOfWindow, 20)


@settings(max_examples=40, deadline=None)
@given(
    n=orders,
    rows=st.integers(min_value=1, max_value=300),
    seed=seeds,
    tie=st.one_of(st.none(), st.floats(0.0, 1.0)),
)
def test_labels_compose_the_step_matches(n, rows, seed, tie):
    # random permutations stand in for the step matches; the labelled roots
    # must be those of the step-by-step composition, cut after a tie's row
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    residuals = rng.random((rows, n))
    matches = rng.permuted(np.tile(np.arange(n), (rows - 1, 1)), axis=1)
    error = None
    if tie is not None:
        matches = matches[: int(tie * (rows - 1))]
        error = AmbiguousTracking("tie", k=None)
    with patch.object(roots_module, "_matches", lambda z, k_lo: (matches, error)):
        (got, got_residuals), got_error = roots_module._labelled(z, residuals, 5, rows, None)
    stop = len(matches) + 1
    labels = np.empty((stop, n), dtype=int)
    labels[0] = np.lexsort((z[0].imag, z[0].real))
    for t in range(1, stop):
        labels[t] = matches[t - 1][labels[t - 1]]
    want = np.array([z[t][labels[t]] for t in range(stop)])
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got_residuals, [residuals[t][labels[t]] for t in range(stop)])
    assert (got_error is None) == (tie is None)
    if tie is not None:
        assert got_error.k == 5 + stop
