import hashlib
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wkbrec import wkb
from wkbrec import (
    AmbiguousTracking,
    ComponentVector,
    DegenerateRoots,
    NoConvergence,
    RecurrenceError,
    RecurrenceSpec,
    RiccatiBranch,
    RootFrame,
    SinusoidalInEpsK,
    Tabulated,
    compare_methods,
    decompose_initial,
    direct_solve,
    epsilon_sweep,
    exact_step_general,
    explicit_step,
    min_separation,
    oracle_ratio_branch,
    power_gauge,
    product_solution,
    reconstruct,
    riccati_gauge,
    root_frames,
    step,
    wkb3_step,
    wkb_diagonal_gain,
    wkb_step_general,
)
from wkbrec.roots import DEFAULT_ROOT_TOL, _root_table
from conftest import complex_array, constant_spec, sin_family
from test_array_drivers import squeeze_spec
from test_batch import (
    INITIAL,
    assert_same_table,
    cube_roots,
    root_pass_failure,
    setup_failure,
    shrinking_roots,
)
from test_root_frames import near_tie_spec


def frame(roots, k=0):
    roots = np.asarray(roots, dtype=complex)
    return RootFrame(k=k, roots=roots, residuals=np.zeros(len(roots)))


def wkb3_multipliers(frame_now, frame_next):
    """The linearised diagonal multipliers of the hand-derived order-3 step."""
    r, R = frame_now.roots, frame_next.roots
    out = np.empty(3, dtype=complex)
    for i in range(3):
        coupling = sum(1.0 / (R[i] - R[m]) for m in range(3) if m != i)
        out[i] = r[i] * (1.0 - (R[i] - r[i]) * coupling)
    return out


def sin_family_order(n, epsilon, horizon, rng, k_start=0):
    """Order-n slowly varying family whose roots stay pairwise separated.

    The base roots are spread over the complex plane (separation ~1), so the
    sinusoidal wobble never drives a collision on realistic windows.
    """
    base = np.array(
        [0.6 + 0.45j, -1.15 - 0.35j, 1.7 + 0.3j, -1.9 + 0.95j,
         2.2 - 0.75j, -0.45 - 1.5j, 1.05 + 1.6j, -2.3 - 1.1j]
    )[:n]
    poly = np.poly(base)  # monic, descending degree
    offsets = poly[::-1][:-1]  # ascending f[0 .. n-1]
    amps = 0.05 * (1 + np.arange(n) % 3)
    return RecurrenceSpec(
        order=n,
        coeffs=tuple(
            SinusoidalInEpsK(a, o, epsilon=epsilon) for a, o in zip(amps, offsets)
        ),
        k_start=k_start,
        horizon=horizon,
    )


class TestExactStepGeneral:
    def test_constant_frames_diagonal_action(self, rng):
        y = complex_array(rng, 4)
        r = np.array([0.5, -1.2, 2.0, 0.3 + 1j])
        out = exact_step_general(
            ComponentVector(k=0, y=y), frame(r, 0), frame(r, 1)
        )
        assert_allclose(out.y, r * y, rtol=1e-12)

    def test_order3_matches_explicit_step(self, rng):
        spec = sin_family(epsilon=0.02, horizon=2)
        frames = root_frames(spec)
        y = complex_array(rng, 3)
        a = exact_step_general(ComponentVector(k=0, y=y), frames[0], frames[1])
        b = explicit_step(ComponentVector(k=0, y=y), frames[0], frames[1])
        assert_allclose(a.y, b.y, rtol=1e-10)

    def test_order5_hundred_steps_vs_oracle(self, rng):
        spec = sin_family_order(5, epsilon=0.008, horizon=100, rng=rng)
        init = complex_array(rng, 5)
        frames = root_frames(spec)
        Y = decompose_initial(init, power_gauge(frames[0]))
        values = [reconstruct(Y)]
        for s in range(100):
            Y = exact_step_general(Y, frames[s], frames[s + 1])
            values.append(reconstruct(Y))
        oracle = direct_solve(spec, init).values[:101]
        assert_allclose(values, oracle, rtol=1e-9)

    def test_agrees_with_generic_gauge_step(self, rng):
        spec = sin_family_order(4, epsilon=0.01, horizon=2, rng=rng)
        frames = root_frames(spec)
        y = complex_array(rng, 4)
        a = exact_step_general(ComponentVector(k=0, y=y), frames[0], frames[1])
        b = step(
            ComponentVector(k=0, y=y),
            power_gauge(frames[0]),
            power_gauge(frames[1]),
            spec.coeff_array(0),
        )
        assert_allclose(a.y, b.y, rtol=1e-10)


class TestWkbStepGeneral:
    def test_constant_frames_gain_is_roots(self, rng):
        y = complex_array(rng, 4)
        r = np.array([0.5, -1.2, 2.0, 0.3 + 1j])
        out, report = wkb_step_general(ComponentVector(k=0, y=y), frame(r, 0), frame(r, 1))
        assert_allclose(report.diagonal_gain, r, rtol=1e-12)
        assert report.offdiag_norm < 1e-13 * np.max(np.abs(r)) ** 4
        assert report.k == 1
        assert_allclose(out.y, report.diagonal_gain * y)

    def test_gain_at_own_nodes_is_exact(self, rng):
        # the diagonal gain is the root times its Lagrange cardinal value,
        # which is exactly one on its own node set
        for _ in range(10):
            n = int(rng.integers(2, 7))
            roots = complex_array(rng, n, scale=1.5)
            if min_separation(roots) < 0.1:
                continue
            gain = wkb_diagonal_gain(frame(roots, 0), frame(roots, 1))
            assert np.max(np.abs(gain - roots)) < 1e-12 * max(1, np.max(np.abs(roots)))

    def test_order3_gain_matches_hand_multipliers_small_increment(self, rng):
        # the hand-derived multipliers are linear in the root increments, so
        # they agree with the exact diagonal gain only up to second order;
        # at increments of 5e-7 the difference sits well below 1e-10
        worst = 0.0
        for _ in range(100):
            roots = complex_array(rng, 3, scale=1.2)
            if min_separation(roots) < 0.5:
                continue
            d = 5e-7 * complex_array(rng, 3)
            gain = wkb_diagonal_gain(frame(roots, 0), frame(roots + d, 1))
            mult = wkb3_multipliers(frame(roots, 0), frame(roots + d, 1))
            worst = max(worst, float(np.max(np.abs(gain - mult))))
        assert worst < 1e-10

    def test_order2_gain_matches_hand_multiplier_small_increment(self, rng):
        # order-2 specialisation of the diagonal gain: the linearised
        # multiplier is r_i (1 - (R_i - r_i)/(R_i - R_m)) for the other
        # branch m, agreeing with the exact gain up to second order
        worst = 0.0
        for _ in range(100):
            roots = complex_array(rng, 2, scale=1.2)
            if min_separation(roots) < 0.5:
                continue
            d = 5e-7 * complex_array(rng, 2)
            R = roots + d
            gain = wkb_diagonal_gain(frame(roots, 0), frame(R, 1))
            mult = np.array(
                [
                    roots[0] * (1 - (R[0] - roots[0]) / (R[0] - R[1])),
                    roots[1] * (1 - (R[1] - roots[1]) / (R[1] - R[0])),
                ]
            )
            worst = max(worst, float(np.max(np.abs(gain - mult))))
        assert worst < 1e-10

    def test_offdiag_scales_linearly_with_epsilon(self, rng):
        spec_big = sin_family(epsilon=0.02, horizon=2)
        spec_small = sin_family(epsilon=0.01, horizon=2)
        y = complex_array(rng, 3)
        norms = {}
        for label, spec in (("big", spec_big), ("small", spec_small)):
            frames = root_frames(spec)
            _, report = wkb_step_general(
                ComponentVector(k=0, y=y), frames[0], frames[1]
            )
            norms[label] = report.offdiag_norm
        ratio = norms["small"] / norms["big"]
        assert 0.5 / 1.5 < ratio < 0.5 * 1.5

    def test_wkb_error_shrinks_with_epsilon_order4(self, rng):
        init = complex_array(rng, 4)
        errs = []
        for eps in (0.01, 0.005):
            spec = sin_family_order(4, epsilon=eps, horizon=400, rng=rng)
            frames = root_frames(spec)
            Y = decompose_initial(init, power_gauge(frames[0]))
            for s in range(400):
                Y = wkb_step_general(Y, frames[s], frames[s + 1])[0]
            oracle = direct_solve(spec, init).value_at(400)
            errs.append(abs(reconstruct(Y) - oracle) / abs(oracle))
        assert errs[1] < errs[0]


class TestCompareMethods:
    def test_exact_methods_stay_exact(self, rng):
        spec = sin_family(epsilon=0.01, horizon=80)
        init = complex_array(rng, 3)
        table = compare_methods(spec, init, ["companion", "gauge-exact"])
        assert float(np.max(table.rel_errors["companion"])) < 1e-10
        assert float(np.max(table.rel_errors["gauge-exact"])) < 1e-10

    def test_wkb_general_exact_at_constant_coefficients(self, rng):
        spec = sin_family(epsilon=0.0, horizon=150)
        init = complex_array(rng, 3)
        table = compare_methods(spec, init, ["wkb-general", "wkb3", "explicit3"])
        for name in ("wkb-general", "wkb3", "explicit3"):
            assert float(np.max(table.rel_errors[name])) < 1e-10

    def test_sweep_monotone_terminal_errors(self, rng):
        spec = sin_family(epsilon=0.02, horizon=200)
        init = np.array([1 + 0.3j, 0.5 - 0.2j, 0.8 + 0.1j])
        sweep = epsilon_sweep(spec, init, ["wkb-general"], [0.02, 0.01, 0.005])
        errs = sweep.terminal_errors["wkb-general"]
        assert errs[1] < errs[0] and errs[2] < errs[1]

    def test_method_order_preserved_and_deduped(self, rng):
        spec = sin_family(epsilon=0.01, horizon=10)
        init = complex_array(rng, 3)
        table = compare_methods(spec, init, ["wkb3", "direct", "wkb3"])
        assert list(table.values) == ["wkb3", "direct"]

    def test_unknown_method_rejected(self, rng):
        spec = sin_family(epsilon=0.01, horizon=10)
        with pytest.raises(ValueError, match="unknown method"):
            compare_methods(spec, complex_array(rng, 3), ["newton"])

    def test_third_order_method_requires_order3(self, rng):
        spec = constant_spec([-1, -1], horizon=10)
        with pytest.raises(ValueError, match="order 3"):
            compare_methods(spec, complex_array(rng, 2), ["wkb3"])

    def test_homogeneous_only_methods_reject_forcing(self, rng):
        spec = constant_spec([-6, 11, -6], horizon=10, forcing=1.0)
        with pytest.raises(ValueError, match="zero forcing"):
            compare_methods(spec, complex_array(rng, 3), ["riccati"])

    def test_forced_methods_track_oracle(self, rng):
        spec = RecurrenceSpec(
            order=3,
            coeffs=(
                SinusoidalInEpsK(0.2, -6, epsilon=0.01),
                SinusoidalInEpsK(0.1, 11, epsilon=0.01),
                SinusoidalInEpsK(-0.1, -6, epsilon=0.01),
            ),
            k_start=0,
            horizon=60,
            forcing=Tabulated(complex_array(rng, 120), k_first=-5),
        )
        init = complex_array(rng, 3)
        table = compare_methods(spec, init, ["companion", "gauge-exact", "explicit3"])
        for name in ("companion", "gauge-exact", "explicit3"):
            assert float(np.max(table.rel_errors[name])) < 1e-9

    def test_riccati_method_matches_oracle(self):
        spec = sin_family(epsilon=0.01, horizon=50)
        init = np.array([1 + 0.2j, 1.4 - 0.1j, 2.2 + 0.3j])
        table = compare_methods(spec, init, ["riccati"])
        assert float(np.max(table.rel_errors["riccati"])) < 1e-7

    def test_exact_step_composition_error_growth(self, rng):
        # composed exact steps stay within a slowly growing multiple of
        # rounding over long horizons
        spec = sin_family(epsilon=0.01, horizon=300)
        init = complex_array(rng, 3)
        table = compare_methods(spec, init, ["gauge-exact"])
        assert table.terminal_error("gauge-exact") < 1e-9 * 300

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 8),
        epsilon=st.floats(0, 0.02),
        k_start=st.integers(-50, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_riccati_running_products_match_product_solution(self, n, epsilon, k_start, seed):
        # at every order: branches seeded with the root powers rho_n**j, the
        # gauge of their running ratio products, and the solution as branch
        # products; the chain must give those products and track the oracle.
        # The two multiply in different orders, and the branch sum can cancel
        # (by up to ~700x at order 8), so the products are compared on the
        # scale of the components, sum_n |y_n[k]|.
        rng = np.random.default_rng(seed)
        spec = sin_family_order(n, epsilon, horizon=200, rng=rng, k_start=k_start)
        init = complex_array(rng, n)
        rho = root_frames(spec, k_start, k_start)[0].roots
        branches = [
            oracle_ratio_branch(direct_solve(spec, [r**j for j in range(n)]), label=i)
            for i, r in enumerate(rho)
        ]
        Y0 = decompose_initial(init, riccati_gauge(branches, k_start))
        sizes = ComponentVector(k=k_start, y=np.abs(Y0.y))
        size_branches = [RiccatiBranch(np.abs(b.p1), b.k_start) for b in branches]
        ks = range(k_start, k_start + 201)
        want = np.array([product_solution(Y0, branches, k) for k in ks])
        size = np.array([product_solution(sizes, size_branches, k).real for k in ks])
        table = compare_methods(spec, init, ["riccati"])
        assert float(np.max(table.rel_errors["riccati"])) < 1e-7
        assert np.all(np.abs(table.values["riccati"] - want) <= 1e-13 * size)


class TestSharedFrames:
    @pytest.fixture
    def frame_calls(self, monkeypatch):
        # one list per root pass, holding one entry per span: () for the
        # full span, else its range
        calls = []
        original = wkb._root_tables

        def counting(spans, tol):
            full = [(spec.k_start, spec.k_start + spec.horizon) for spec, _, _ in spans]
            ranges = [(k_lo, k_hi) for _, k_lo, k_hi in spans]
            calls.append([() if r == f else r for r, f in zip(ranges, full)])
            return original(spans, tol)

        monkeypatch.setattr(wkb, "_root_tables", counting)
        return calls

    def test_one_frame_pass_for_every_method(self, frame_calls, rng):
        spec = sin_family(epsilon=0.01, horizon=40)
        compare_methods(spec, complex_array(rng, 3), wkb.METHOD_NAMES)
        assert frame_calls == [[()]]

    def test_one_separation_check_for_every_method(self, monkeypatch, rng):
        calls = []
        original = wkb._check_separation

        def counting(roots, ks):
            calls.append(len(ks))
            return original(roots, ks)

        monkeypatch.setattr(wkb, "_check_separation", counting)
        spec = sin_family(epsilon=0.01, horizon=200)
        compare_methods(spec, complex_array(rng, 3), wkb.METHOD_NAMES)
        assert calls == [201]

    def test_root_residual_failure_names_the_first_method_reading_the_row(self, rng):
        spec = sin_family(epsilon=0.01, horizon=200, k_start=5)
        with pytest.raises(NoConvergence) as info:
            compare_methods(
                spec, complex_array(rng, 3), ["riccati", "gauge-exact"], root_tol=1e-18
            )
        assert re.fullmatch(
            r"method 'riccati': root residual \S+ above tolerance", info.value.message
        )
        assert info.value.k == 5
        assert info.value.branch in range(3)

    def test_baselines_compute_no_frames(self, frame_calls, rng):
        spec = sin_family(epsilon=0.01, horizon=40)
        compare_methods(spec, complex_array(rng, 3), ["direct", "companion"])
        assert frame_calls == []

    def test_riccati_alone_computes_only_the_first_frame(self, frame_calls, rng):
        spec = sin_family(epsilon=0.01, horizon=40, k_start=5)
        compare_methods(spec, complex_array(rng, 3), ["riccati"])
        assert frame_calls == [[(5, 5)]]


RICCATI_DIGESTS = {
    "near-tie": "e5efe93a5e7b248ac4228f94cd28605018b01582116e32009adea5ed82ab1d24",
    "squeeze": "54502c880aa41f30532a02e93bd60d089ae7740cfea3a90199acef0acd912884",
    "readme": "0b9e5308dd9c8e337837d191bad259f0a1d3546400ec803ea11d4aa12a58c584",
}


@pytest.mark.parametrize(
    "make, failure",
    [
        (near_tie_spec, AmbiguousTracking),
        (partial(squeeze_spec, 3, 4, 1.5), DegenerateRoots),
        (partial(sin_family, 0.01, 200), None),
    ],
    ids=list(RICCATI_DIGESTS),
)
def test_riccati_values_are_pinned(request, make, failure):
    """riccati reads root row 0 only: its values keep their bits, and a root
    pass failing at k=4 (a tie; a degenerate pair from there on) is charged
    to a method reading every row, not to riccati."""
    spec, init = make(), np.array([1 + 0.3j, 0.5 - 0.2j, 0.8 + 0.1j])
    values = compare_methods(spec, init, ["riccati"]).values["riccati"]
    digest = RICCATI_DIGESTS[request.node.callspec.id]
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest
    if failure is not None:
        with pytest.raises(failure) as info:
            compare_methods(spec, init, ["riccati", "gauge-exact"])
        assert info.value.message.startswith("method 'gauge-exact': ")
        assert info.value.k == 4


@pytest.mark.parametrize(
    "methods, named",
    [
        (
            ["riccati", "wkb-general", "gauge-exact", "direct"],
            ["riccati", "riccati", "gauge-exact", "riccati"],
        ),
        (
            ["wkb-general", "gauge-exact", "riccati", "direct"],
            ["riccati", "wkb-general", "gauge-exact", "wkb-general"],
        ),
    ],
    ids=["riccati-first", "riccati-last"],
)
def test_several_failing_problems_in_one_batch_each_fail_as_alone(methods, named):
    # four problems failing in other stages (riccati's ratios; riccati's
    # start or the power start; gauge-exact's steps at k=5; the root pass at
    # k=3, charged to wkb-general unless riccati's values break first)
    # between five good ones: each batched stage computes the failing
    # problems' rows too, and none of them is read
    failing = [setup_failure(), cube_roots(1e-5), shrinking_roots(), root_pass_failure()]
    good = [sin_family(e, 6) for e in (0.01, 0.02, 0.03, 0.04, 0.05)]
    specs = [spec for pair in zip(good, failing) for spec in pair] + good[-1:]
    outcomes = wkb._outcomes(specs, INITIAL, methods, DEFAULT_ROOT_TOL)
    got = []
    for spec, outcome in zip(specs, outcomes):
        try:
            want = compare_methods(spec, INITIAL, methods)
        except RecurrenceError as exc:
            assert (type(outcome), str(outcome), outcome.k) == (type(exc), str(exc), exc.k)
            got.append(re.match(r"method '([^']+)'", str(exc))[1])
        else:
            assert_same_table(outcome, want)
    assert got == named


class TestOneRootTable:
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_list_view_and_run_path_see_the_same_numbers(self, n, rng):
        spec = replace(
            sin_family_order(n, epsilon=0.01, horizon=40, rng=rng),
            k_start=6,
            forcing=SinusoidalInEpsK(0.4, 0.2, epsilon=0.01),
        )
        frames = root_frames(spec, 9, 30)
        roots, residuals = _root_table(spec, 9, 30, DEFAULT_ROOT_TOL)
        assert np.array_equal(np.array([f.roots for f in frames]), roots)
        assert np.array_equal(np.array([f.residuals for f in frames]), residuals)

        names = [
            name
            for name, method in wkb._METHODS.items()
            if method.roots and not wkb.check_methods(spec, [name])
        ]
        assert len(names) == (4 if n == 3 else 2)
        init = complex_array(rng, n)
        table = compare_methods(spec, init, names)
        for name in names:
            got = compare_methods(spec, init, [name]).values[name]
            assert np.array_equal(got, table.values[name]), name


class TestRobustness:
    def test_shifted_window_all_methods(self, rng):
        # every driver must respect a nonzero window start
        spec = sin_family(epsilon=0.01, horizon=60, k_start=17)
        init = complex_array(rng, 3)
        methods = ["direct", "companion", "gauge-exact", "explicit3", "wkb3", "riccati", "wkb-general"]
        table = compare_methods(spec, init, methods)
        assert table.k[0] == 17 and table.k[-1] == 77
        for name in ("companion", "gauge-exact", "explicit3", "riccati"):
            assert float(np.max(table.rel_errors[name])) < 1e-7

    def test_max_order_exact_methods(self, rng):
        spec = sin_family_order(8, epsilon=0.004, horizon=60, rng=rng)
        init = complex_array(rng, 8)
        table = compare_methods(spec, init, ["companion", "gauge-exact"])
        assert float(np.max(table.rel_errors["companion"])) < 1e-9
        assert float(np.max(table.rel_errors["gauge-exact"])) < 1e-8


def forced_dominant_family(n, epsilon, horizon):
    """Forced order-n family: n-1 roots near radius 1.2 and one near 3, spread
    round the circle (a well-conditioned Vandermonde matrix), each wobbling
    by 0.05 as a sinusoid in ``eps * k``, and a forcing sinusoidal in
    ``eps * k``.  The dominant root keeps the solution away from zero, so
    its largest relative error follows the WKB truncation error."""
    rng = np.random.default_rng(n)
    angles = 2 * np.pi * (np.arange(n) + 0.3 * rng.random(n)) / n
    base = np.where(np.arange(n) == n - 1, 3.0, 1.2) * np.exp(1j * angles)
    amp = 0.05 * np.exp(2j * np.pi * rng.random(n))
    phase = rng.uniform(0, 2 * np.pi, n)
    ks = np.arange(horizon + n + 1)[:, None]
    paths = base + amp * np.sin(epsilon * ks + phase)
    coeffs = np.array([np.poly(row)[::-1][:n] for row in paths])
    return RecurrenceSpec(
        order=n,
        coeffs=tuple(Tabulated(values=coeffs[:, j], k_first=0) for j in range(n)),
        k_start=0,
        horizon=horizon,
        forcing=SinusoidalInEpsK(0.5, 1.0 + 0.5j, epsilon=epsilon),
    )


@pytest.mark.parametrize("n", range(2, 9))
def test_wkb_general_tracks_the_forced_oracle(n):
    init = np.ones(n, dtype=complex)

    def worst(epsilon, horizon):
        spec = forced_dominant_family(n, epsilon, horizon)
        table = compare_methods(spec, init, ["wkb-general"])
        return float(np.max(table.rel_errors["wkb-general"]))

    # constant coefficients: the diagonal step and its forcing term are exact
    assert worst(0.0, 100) < 1e-12
    # at fixed eps * H = 2 the error is first order in eps
    assert worst(0.005, 400) <= 0.6 * worst(0.01, 200)
