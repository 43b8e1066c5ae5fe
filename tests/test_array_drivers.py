"""The array drivers of ``compare_methods`` against per-step reference chains.

Each decomposed method runs in ``compare_methods`` as step arrays over the
table of tracked roots, fed to one chain.  The references below advance one
:class:`ComponentVector` at a time, as the per-step functions do: the generic
exact step through :func:`propagate` under the power gauge, the closed-form
Vandermonde step :func:`wkb_step_general`, and the hand-expanded third-order
formulas written out branch by branch.  Driver and reference must agree to
1e-12 relative, and must fail with the same error at the same index.  The
companion chain must equal its per-step products bit for bit, and
gauge-exact's closed-form steps must agree with the dense per-step solve and
the Björck-Pereyra Vandermonde solve.  One chain steps all of a problem's
methods together; each chain's states, and each method's values, must equal
those of the chain run alone, bit for bit.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkbrec import (
    Breakdown,
    Constant,
    DegenerateRoots,
    GaugeSet,
    RecurrenceError,
    RecurrenceSpec,
    RootFrame,
    SingularGauge,
    Tabulated,
    build_H,
    build_M,
    companion_matrix,
    companion_propagate,
    compare_methods,
    decompose_initial,
    direct_solve,
    explicit_step,
    oracle_ratio_branch,
    power_gauge,
    propagate,
    reconstruct,
    root_frames,
    vandermonde_inverse,
    wkb3_step,
    wkb_step_general,
)
from wkbrec import wkb
from wkbrec.core import _chain
from wkbrec.decomposition import ComponentVector, _residual_checked_solve
from wkbrec.roots import DEFAULT_ROOT_TOL, _spread, _vandermonde
from conftest import complex_array, sin_family


def explicit_step_loops(Y, frame_now, frame_next, f_k):
    """The hand-expanded order-3 step, branch by branch."""
    r, R = frame_now.roots, frame_next.roots
    delta = np.array([R[2] - R[1], R[0] - R[2], R[1] - R[0]])
    D = (R[1] - R[0]) * (R[2] - R[0]) * (R[2] - R[1])
    S = np.array([R[2] + R[1], R[0] + R[2], R[1] + R[0]])
    out = np.empty(3, dtype=complex)
    for i in range(3):
        acc = r[i] * Y.y[i]
        for j in range(3):
            acc += Y.y[j] * r[j] * (R[j] - r[j]) * delta[i] * (S[i] - (R[j] + r[j])) / D
        out[i] = acc - f_k * delta[i] / D
    return ComponentVector(k=Y.k + 1, y=out)


def wkb3_step_loops(Y, frame_now, frame_next, f_k):
    """The linearised diagonal order-3 step, branch by branch."""
    r, R = frame_now.roots, frame_next.roots
    delta = np.array([R[2] - R[1], R[0] - R[2], R[1] - R[0]])
    D = (R[1] - R[0]) * (R[2] - R[0]) * (R[2] - R[1])
    out = np.empty(3, dtype=complex)
    for i in range(3):
        coupling = sum(1.0 / (R[i] - R[m]) for m in range(3) if m != i)
        out[i] = r[i] * Y.y[i] * (1.0 - (R[i] - r[i]) * coupling) - f_k * delta[i] / D
    return ComponentVector(k=Y.k + 1, y=out)


def wkb_general_step(Y, frame_now, frame_next, f_k):
    return wkb_step_general(Y, frame_now, frame_next, f_k)[0]


# the third-order formulas as written out above, and the library's own
# per-step functions, which also check the frames
FORMULA_STEPS = {
    "explicit3": explicit_step_loops,
    "wkb3": wkb3_step_loops,
    "wkb-general": wkb_general_step,
}
LIBRARY_STEPS = {"explicit3": explicit_step, "wkb3": wkb3_step, "wkb-general": wkb_general_step}


def reference_values(spec, initial, method, steps=FORMULA_STEPS):
    """The method's trajectory, one component vector at a time."""
    frames = root_frames(spec)
    if method == "gauge-exact":
        return propagate(spec, initial, [power_gauge(f) for f in frames])[0]
    Y = decompose_initial(np.asarray(initial, dtype=complex), power_gauge(frames[0]))
    values = [reconstruct(Y)]
    for s in range(spec.horizon):
        f_k = spec.forcing_value(spec.k_start + s)
        Y = steps[method](Y, frames[s], frames[s + 1], f_k)
        values.append(reconstruct(Y))
    return np.array(values)


def outcome(fn):
    """``fn()``, or ``(error class, k)`` if it raises a library error."""
    try:
        return fn()
    except RecurrenceError as exc:
        return type(exc), exc.k


def drifting_spec(rng, n, eps, forced, horizon=30):
    """Tabulated order-n spec whose roots drift slowly around separated
    base values; the forcing, when on, is an arbitrary tabulated sequence."""
    x = 0.7 * (np.arange(n) - (n - 1) / 2) + 0.3 * rng.random(n)
    base = x + 1j * rng.uniform(-1.5, 1.5, n)
    amp = 0.1 * np.exp(2j * np.pi * rng.random(n))
    ks = np.arange(horizon + n + 1)[:, None]
    paths = base + amp * np.sin(eps * ks + rng.uniform(0, 2 * np.pi, n))
    coeffs = np.array([np.poly(row)[::-1][:n] for row in paths])
    forcing = Constant(0.0)
    if forced:
        values = rng.standard_normal(len(ks)) + 1j * rng.standard_normal(len(ks))
        forcing = Tabulated(values=values, k_first=0)
    return RecurrenceSpec(
        order=n,
        coeffs=tuple(Tabulated(values=coeffs[:, j], k_first=0) for j in range(n)),
        k_start=0,
        horizon=horizon,
        forcing=forcing,
    )


def assert_driver_matches_reference(spec, method, rng):
    initial = rng.standard_normal(spec.order) + 1j * rng.standard_normal(spec.order)
    want = reference_values(spec, initial, method)
    got = compare_methods(spec, initial, [method]).values[method]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


seeds = st.integers(min_value=0, max_value=2**32 - 1)
epsilons = st.floats(0.01, 0.2)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), seed=seeds, eps=epsilons, forced=st.booleans())
def test_gauge_exact_matches_generic_steps(n, seed, eps, forced):
    rng = np.random.default_rng(seed)
    assert_driver_matches_reference(drifting_spec(rng, n, eps, forced), "gauge-exact", rng)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), seed=seeds, eps=epsilons, forced=st.booleans())
def test_wkb_general_matches_vandermonde_steps(n, seed, eps, forced):
    rng = np.random.default_rng(seed)
    assert_driver_matches_reference(drifting_spec(rng, n, eps, forced), "wkb-general", rng)


@settings(max_examples=30, deadline=None)
@given(
    method=st.sampled_from(["explicit3", "wkb3"]),
    seed=seeds,
    eps=epsilons,
    forced=st.booleans(),
)
def test_third_order_drivers_match_branch_formulas(method, seed, eps, forced):
    rng = np.random.default_rng(seed)
    assert_driver_matches_reference(drifting_spec(rng, 3, eps, forced), method, rng)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), seed=seeds, eps=epsilons, forced=st.booleans())
def test_companion_chain_equals_per_step_products(n, seed, eps, forced):
    rng = np.random.default_rng(seed)
    spec = drifting_spec(rng, n, eps, forced)
    x0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x, want = x0[::-1].copy(), list(x0)
    for k in range(spec.k_start, spec.k_start + spec.horizon):
        push = np.zeros(n, dtype=complex)
        push[0] = -spec.forcing_value(k)
        x = companion_matrix(spec, k) @ x + push
        want.append(x[0])
    assert np.array_equal(companion_propagate(spec, x0).values, want)


def stepped_alone(Y0, T, push):
    """One chain, one ``(N, N) @ (N,)`` product per index."""
    if T.ndim == 2:
        T = T[..., None] * np.eye(len(Y0))
    Y = [Y0]
    for s in range(len(T)):
        Y.append(T[s] @ Y[-1] + push[s])
    return np.array(Y)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    kinds=st.lists(st.sampled_from(["diagonal", "full"]), min_size=1, max_size=6),
    seed=seeds,
    forced=st.booleans(),
)
def test_batched_chain_equals_each_chain_alone(n, kinds, seed, forced):
    # Bit-equality rests on numpy computing the batched product
    # (M, N, N) @ (M, N, 1) as the M products (N, N) @ (N,); einsum and
    # 1-D @ 2-D products may round differently, so this pins the kernel.
    rng = np.random.default_rng(seed)
    horizon, m = 25, len(kinds)
    Y0 = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    shapes = {"diagonal": (horizon, n), "full": (horizon, n, n)}
    T = [
        (rng.standard_normal(shapes[kind]) + 1j * rng.standard_normal(shapes[kind])) / n
        for kind in kinds
    ]
    push = [
        rng.standard_normal((horizon, n)) + 1j * rng.standard_normal((horizon, n))
        if forced
        else np.zeros((horizon, n), dtype=complex)
        for _ in kinds
    ]
    states = _chain(Y0, T, push)
    assert states.shape == (m, horizon + 1, n)
    for i in range(m):
        alone = _chain(Y0[i : i + 1], T[i : i + 1], push[i : i + 1])[0]
        assert np.array_equal(states[i], alone)
        assert np.array_equal(alone, stepped_alone(Y0[i], T[i], push[i]))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 8), seed=seeds, eps=epsilons, forced=st.booleans())
def test_each_method_reads_the_values_of_its_chain_alone(n, seed, eps, forced):
    rng = np.random.default_rng(seed)
    spec = drifting_spec(rng, n, eps, forced)
    names = [name for name in wkb.METHOD_NAMES if not wkb.check_methods(spec, [name])]
    initial = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    table = compare_methods(spec, initial, names)
    for name in names[1:]:  # every method but direct
        alone = compare_methods(spec, initial, [name]).values[name]
        assert np.array_equal(alone, table.values[name]), name


@settings(max_examples=30, deadline=None)
@given(seed=seeds, eps=epsilons)
def test_riccati_at_order_3_keeps_the_bits_of_the_written_out_gauge(seed, eps):
    # the order-3 seeds [1, rho, rho**2] and gauge rows g1 = p[k] and
    # g2 = p[k] p[k+1] as Python products; the roots are complex, where
    # numpy's complex multiply would round some products otherwise
    rng = np.random.default_rng(seed)
    spec = drifting_spec(rng, 3, eps, forced=False)
    initial = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    rho = root_frames(spec, 0, 0)[0].roots
    branches = [oracle_ratio_branch(direct_solve(spec, [1.0, r, r**2])) for r in rho]
    g1 = [b.g1_at(0) for b in branches]
    g2 = [b.g1_at(0) * b.g1_at(1) for b in branches]
    Y0 = decompose_initial(initial, GaugeSet(k=0, g=[g1, g2]))
    gains = np.stack([b.p1[: spec.horizon] for b in branches], axis=1)
    want = _chain(Y0.y[None], [gains], [np.zeros_like(gains)])[0].sum(axis=1)
    got = compare_methods(spec, initial, ["riccati"]).values["riccati"]
    assert np.array_equal(got, want)


def bjorck_pereyra(x, b):
    """Solve the primal Vandermonde system ``sum_j x[j]**i z[j] = b[i]``,
    i = 0 .. N-1, for every column of ``b`` in O(N^2) operations (Björck and
    Pereyra, Math. Comp. 24 (1970) 893-903): Newton divided differences
    without forming the matrix."""
    z = np.array(b, dtype=complex)
    n = len(x)
    for k in range(n - 1):
        for i in range(n - 1, k, -1):
            z[i] -= x[k] * z[i - 1]
    for k in range(n - 2, -1, -1):
        for i in range(k + 1, n):
            z[i] /= x[i] - x[i - k - 1]
        for i in range(k, n - 1):
            z[i] -= z[i + 1]
    return z


def test_bjorck_pereyra_solves_the_vandermonde_system(rng):
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    b = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    assert np.allclose(_vandermonde(x) @ bjorck_pereyra(x, b), b, rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(6, 8), seed=seeds, eps=epsilons)
def test_step_solve_matches_bjorck_pereyra(n, seed, eps):
    # gauge-exact's closed-form steps T = M[k+1]^-1 H[k+1] and push =
    # -f(k) M[k+1]^-1 e_N against the O(N^2) Vandermonde solve, step by
    # step, with H from the per-step builder
    rng = np.random.default_rng(seed)
    spec = drifting_spec(rng, n, eps, True)
    frames = root_frames(spec)
    roots = np.array([frame.roots for frame in frames])
    ks = np.arange(spec.k_start, spec.k_start + spec.horizon + 1)
    forcing = spec.table[: spec.horizon, -1]
    chained = gauge_exact_chained(spec, complex_array(rng, n))
    e_n = np.eye(n)[:, -1]
    for t in range(spec.horizon):
        h = build_H(power_gauge(frames[t]), spec.coeff_array(ks[t]))
        x = bjorck_pereyra(roots[t + 1], np.column_stack([h, e_n]))
        want_T, want_push = x[:, :n], -forcing[t] * x[:, n]
        assert np.max(np.abs(chained.T[t] - want_T)) <= 1e-10 * np.max(np.abs(want_T))
        assert np.max(np.abs(chained.push[t] - want_push)) <= 1e-10 * np.max(np.abs(want_push))


def gauge_exact_chained(spec, initial):
    """gauge-exact's chain inputs for ``spec``, from its own root pass and set-up."""
    problem = wkb._Problem.of(spec, initial, ["gauge-exact"])
    wkb._root_pass([problem], ["gauge-exact"], DEFAULT_ROOT_TOL)
    assert problem.root_error is None
    [chained], [failure] = wkb._METHODS["gauge-exact"].setup([problem])
    assert failure is None
    return chained


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 8), seed=seeds, eps=epsilons, forced=st.booleans())
def test_gauge_exact_steps_match_the_dense_step_solve(n, seed, eps, forced):
    # the closed Lagrange form against M[k+1]^-1 [H[k+1] | e_N] by a dense
    # solve, with both matrices from the per-step builders
    rng = np.random.default_rng(seed)
    spec = drifting_spec(rng, n, eps, forced)
    frames = root_frames(spec)
    chained = gauge_exact_chained(spec, complex_array(rng, n))
    e_n = np.eye(n)[:, -1]
    for t in range(spec.horizon):
        k = spec.k_start + t
        h = build_H(power_gauge(frames[t]), spec.coeff_array(k))
        x = np.linalg.solve(build_M(power_gauge(frames[t + 1])), np.column_stack([h, e_n]))
        want_T, want_push = x[:, :n], -spec.forcing_value(k) * x[:, n]
        assert np.max(np.abs(chained.T[t] - want_T)) <= 1e-10 * np.max(np.abs(want_T))
        assert np.max(np.abs(chained.push[t] - want_push)) <= 1e-10 * np.max(np.abs(want_push))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 8), seed=seeds)
def test_the_lagrange_form_is_exact_for_any_distinct_nodes(n, seed):
    # separated nodes R at k+1 and arbitrary nodes r at k, with coefficients
    # that neither set is a root of: the form is still M^-1 H of their power
    # gauges, and its spread is the last column of M^-1
    rng = np.random.default_rng(seed)
    R = np.exp(0.1 * complex_array(rng, (5, n)) + 2j * np.pi * np.arange(n) / n)
    r, f = complex_array(rng, (5, n)), complex_array(rng, (5, n))
    T = wkb._exact_matrix(r, R, f, _spread(R))
    e_n = np.eye(n)[:, -1]
    for t in range(5):
        h = build_H(GaugeSet(k=0, g=_vandermonde(r[t])[1:]), f[t])
        x = np.linalg.solve(build_M(GaugeSet(k=1, g=_vandermonde(R[t])[1:])), np.column_stack([h, e_n]))
        assert np.max(np.abs(T[t] - x[:, :n])) <= 1e-10 * np.max(np.abs(x[:, :n]))
        assert np.max(np.abs(_spread(R[t]) - x[:, n])) <= 1e-10 * np.max(np.abs(x[:, n]))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 8), seed=seeds, forced=st.booleans())
def test_gauge_exact_on_a_constant_window_stays_at_the_oracle(n, seed, forced):
    # every root row of a constant window is the same row, bit for bit, so
    # r[j] == R[j]: the closed form takes no division there.  Roots near the
    # unit circle keep the oracle O(1); the error is normwise, since a
    # pointwise one near a zero of the oracle says nothing of the method
    rng = np.random.default_rng(seed)
    angles = 2 * np.pi * (np.arange(n) + 0.5 * rng.random(n)) / n
    roots = np.exp(0.05 * rng.standard_normal(n) + 1j * angles)
    horizon = 30
    forcing = Tabulated(values=complex_array(rng, horizon + n + 1), k_first=0)
    spec = RecurrenceSpec(
        order=n,
        coeffs=tuple(Constant(c) for c in np.poly(roots)[::-1][:n]),
        k_start=0,
        horizon=horizon,
        forcing=forcing if forced else Constant(0.0),
    )
    frames = np.array([frame.roots for frame in root_frames(spec)])
    assert np.array_equal(frames, np.broadcast_to(frames[0], frames.shape))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = compare_methods(spec, complex_array(rng, n), ["gauge-exact"])
    error = np.max(np.abs(table.values["gauge-exact"] - table.oracle))
    assert error <= 1e-12 * np.max(np.abs(table.oracle))


def squeeze_spec(n, k0, center):
    """A root pair at ``center`` whose separation drops from 0.5 to 1e-5 at
    k0, beside fixed roots from 3 upwards and one at 1e4 that sets the
    separation threshold (1e-4): the pair stays resolved far above rounding
    and is tracked without a tie, but is degenerate from k0 on."""
    ks = np.arange(k0 + 8 + n + 1)
    half = np.where(ks < k0, 0.25, 5e-6)
    others = 3.0 + 1.3 * np.arange(n - 2)
    others[-1] = 1e4
    pair = np.stack([center + half, center - half], axis=1)
    paths = np.concatenate([pair, np.broadcast_to(others, (len(ks), n - 2))], axis=1)
    coeffs = np.array([np.poly(row)[::-1][:n] for row in paths])
    return RecurrenceSpec(
        order=n,
        coeffs=tuple(Tabulated(values=coeffs[:, j], k_first=0) for j in range(n)),
        k_start=0,
        horizon=len(ks) - n - 1,
    )


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(3, 6),
    k0=st.integers(1, 6),
    center=st.floats(1.0, 2.0),
    method=st.sampled_from(["gauge-exact", "wkb-general", "explicit3", "wkb3"]),
)
def test_degenerate_roots_fail_like_the_step_path(n, k0, center, method):
    if method in ("explicit3", "wkb3"):
        n = 3
    spec = squeeze_spec(n, k0, center)
    initial = np.array([1.0 + 0.5j] * n)
    want = outcome(lambda: reference_values(spec, initial, method, LIBRARY_STEPS))
    got = outcome(lambda: compare_methods(spec, initial, [method]))
    assert want == (DegenerateRoots, k0)
    assert got == want


@pytest.mark.parametrize("methods", [["wkb3", "gauge-exact"], ["gauge-exact", "wkb3"]])
def test_degenerate_roots_name_the_first_method_reading_the_table(methods):
    # the shared table is checked once, inside the first method that reads it
    spec = squeeze_spec(3, 4, 1.5)
    with pytest.raises(DegenerateRoots) as info:
        compare_methods(spec, np.full(3, 1.0 + 0.5j), methods)
    assert info.value.k == 4
    assert info.value.message.startswith(f"method '{methods[0]}': ")


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    w=st.integers(1, 12),
    bad=st.dictionaries(
        st.integers(0, 11), st.sampled_from(["singular", "inaccurate"]), min_size=1, max_size=3
    ),
    k_first=st.integers(-5, 50),
)
def test_stacked_solve_names_the_lowest_bad_index(seed, w, bad, k_first):
    rng = np.random.default_rng(seed)
    bad = {t: kind for t, kind in bad.items() if t < w} or {w - 1: "singular"}
    a = 4.0 * np.eye(3) + rng.uniform(-1, 1, (w, 3, 3)) + 1j * rng.uniform(-1, 1, (w, 3, 3))
    b = rng.standard_normal((w, 3)) + 0j
    for t, kind in bad.items():
        if kind == "singular":
            a[t, 1] = 0.0  # a zero pivot: the solve itself fails
        else:
            # x[0] = 1 - 1e17 rounds to -1e17, so the residual is |b|
            a[t], b[t] = np.eye(3), [1.0, 1.0, 0.0]
            a[t, 0, 1] = 1e17
    ks = np.arange(k_first, k_first + w)
    # a second group, the first with its bad systems replaced, passes beside it
    good = [t for t in range(w) if t not in bad]
    mended_a, mended_b = a.copy(), b.copy()
    mended_a[list(bad)], mended_b[list(bad)] = 4.0 * np.eye(3), 1.0
    x, [failure, none] = _residual_checked_solve(
        np.stack([a, mended_a]), np.stack([b, mended_b]), [ks, ks + w]
    )
    assert isinstance(failure, SingularGauge)
    assert failure.k == ks[min(bad)]
    assert none is None
    assert np.allclose(np.einsum("tij,tj->ti", mended_a, x[1]), mended_b)
    if good:
        x, [none] = _residual_checked_solve(a[None, good], b[None, good], ks[None, good])
        assert none is None
        assert np.allclose(np.einsum("tij,tj->ti", a[good], x[0]), b[good])


@pytest.mark.parametrize("n", range(2, 9))
def test_spread_is_last_column_of_vandermonde_inverse(n, rng):
    roots = 0.7 * np.arange(n) + 1j * rng.uniform(-1, 1, n)
    frame = RootFrame(k=0, roots=roots, residuals=np.zeros(n))
    want = vandermonde_inverse(frame)[:, -1]
    assert np.allclose(_spread(roots), want, rtol=1e-12, atol=0)
    if n == 3:
        R = roots
        delta = np.array([R[2] - R[1], R[0] - R[2], R[1] - R[0]])
        D = (R[1] - R[0]) * (R[2] - R[0]) * (R[2] - R[1])
        assert np.allclose(_spread(R), delta / D, rtol=1e-14, atol=0)


README_INITIAL = np.array([1 + 0.3j, 0.5 - 0.2j, 0.8 + 0.1j])


@pytest.mark.parametrize(
    "methods, name, k",
    [
        (["direct", "companion", "gauge-exact"], "direct", 649),
        (["gauge-exact"], "gauge-exact", 649),
        (["companion", "wkb3"], "companion", 648),
    ],
)
def test_overflow_is_a_breakdown_naming_method_and_index(methods, name, k):
    # |rho| ~ 3 on the README family, so the solution leaves double range
    # near k = 647 of a 2000-step horizon
    spec = sin_family(epsilon=0.01, horizon=2000)
    with pytest.raises(Breakdown) as info:
        compare_methods(spec, README_INITIAL, methods)
    assert info.value.k == k
    assert f"method '{name}': non-finite value" in str(info.value)


def test_large_finite_values_pass_the_check():
    # 3**600 ~ 1e286: near the end of double range, but finite
    spec = sin_family(epsilon=0.01, horizon=600)
    table = compare_methods(spec, README_INITIAL, ["direct", "gauge-exact"])
    assert np.max(np.abs(table.oracle)) > 1e250


def nan_coefficient_family(k_nan):
    """The README family at horizon 2000, tabulated, with a NaN f[1] at
    ``k_nan``: the root pass fails there, while every method is set up."""
    f = sin_family(epsilon=0.01, horizon=2000).table[:, :-1].copy()
    f[k_nan, 1] = np.nan
    return RecurrenceSpec(
        order=3,
        coeffs=tuple(Tabulated(values=f[:, j], k_first=0) for j in range(3)),
        k_start=0,
        horizon=2000,
    )


@pytest.mark.parametrize(
    "spec, root_tol, error, k",
    [
        (nan_coefficient_family(1500), DEFAULT_ROOT_TOL, RecurrenceError, 1500),
        (sin_family(epsilon=0.01, horizon=2000), -1.0, ValueError, None),
    ],
    ids=["root-pass", "tolerance"],
)
def test_first_failing_method_in_order_is_reported(spec, root_tol, error, k):
    # All chain inputs are built before any chain steps, yet an earlier
    # method's Breakdown (the companion chain overflows at k=648) beats a
    # later method's setup error, and the reverse order reports the latter.
    with pytest.raises(Breakdown) as info:
        compare_methods(spec, README_INITIAL, ["companion", "gauge-exact"], root_tol)
    assert info.value.k == 648
    assert "method 'companion': non-finite value" in str(info.value)
    with pytest.raises(error) as info:
        compare_methods(spec, README_INITIAL, ["gauge-exact", "companion"], root_tol)
    assert type(info.value) is error
    if k is not None:
        assert info.value.k == k
        assert info.value.message.startswith("method 'gauge-exact': ")
