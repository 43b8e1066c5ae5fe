import numpy as np
import pytest
from numpy.testing import assert_allclose

from wkbrec import (
    Breakdown,
    ComponentVector,
    GaugeSet,
    RiccatiBranch,
    RootFrame,
    decompose_initial,
    decoupled_step,
    direct_solve,
    explicit_step,
    oracle_ratio_branch,
    power_gauge,
    product_solution,
    reconstruct,
    riccati_forward,
    riccati_gauge,
    riccati_residual,
    root_frames,
    step,
    wkb3_step,
    x_terms,
)
from conftest import complex_array, constant_spec, sin_family

F123 = np.array([-6.0, 11.0, -6.0], dtype=complex)


def frame(roots, k=0):
    roots = np.asarray(roots, dtype=complex)
    return RootFrame(k=k, roots=roots, residuals=np.zeros(len(roots)))


class TestXTerms:
    def test_power_gauge_annihilates(self):
        xt = x_terms(power_gauge(frame([1, 2, 3])), F123)
        assert np.max(np.abs(xt.as_array())) < 1e-12

    def test_power_gauge_annihilates_random(self, rng):
        for _ in range(20):
            spec = sin_family(epsilon=0.01, horizon=4)
            k = int(rng.integers(0, 5))
            fr = root_frames(spec, k, k)[0]
            xt = x_terms(power_gauge(fr), spec.coeff_array(k))
            f = spec.coeff_array(k)
            scale = 1 + float(np.max(np.abs(fr.roots))) ** 3 + float(np.max(np.abs(f)))
            assert np.max(np.abs(xt.as_array())) < 1e-10 * scale

    def test_shifted_second_row(self):
        roots = np.array([1.0, 2.0, 3.0])
        gauge = GaugeSet(k=0, g=np.vstack([roots, roots**2 + 1.0]))
        xt = x_terms(gauge, F123)
        assert_allclose([xt.x1, xt.x2, xt.x3], [-1, -1, -1])

    def test_zero_gauge_quartet(self):
        gauge = GaugeSet(k=0, g=np.zeros((2, 3)))
        f0 = 0.7 - 0.4j
        xt = x_terms(gauge, np.array([f0, 0, 0]))
        assert_allclose([xt.x4, xt.x5, xt.x6], [f0, f0, f0])


class TestExplicitStep:
    def test_constant_roots_diagonal_action(self, rng):
        y = complex_array(rng, 3)
        f_k = 0.4 - 0.1j
        r = np.array([1.0, 2.0, 3.0])
        out = explicit_step(
            ComponentVector(k=0, y=y), frame(r, 0), frame(r, 1), f_k
        )
        D = (r[1] - r[0]) * (r[2] - r[0]) * (r[2] - r[1])
        delta = np.array([r[2] - r[1], r[0] - r[2], r[1] - r[0]])
        assert_allclose(out.y, r * y - f_k * delta / D, rtol=1e-13)

    def test_zero_state_zero_forcing(self):
        out = explicit_step(
            ComponentVector(k=0, y=np.zeros(3)), frame([1, 2, 3], 0), frame([1, 2, 3], 1)
        )
        assert_allclose(out.y, np.zeros(3))

    def test_matches_generic_step(self, rng):
        # the hand expansion and the solve-based path must agree
        spec = sin_family(epsilon=0.02, horizon=3)
        frames = root_frames(spec)
        y = complex_array(rng, 3)
        f_k = 0.3 + 0.2j
        hand = explicit_step(ComponentVector(k=0, y=y), frames[0], frames[1], f_k)
        generic = step(
            ComponentVector(k=0, y=y),
            power_gauge(frames[0]),
            power_gauge(frames[1]),
            spec.coeff_array(0),
            forcing=f_k,
        )
        assert_allclose(hand.y, generic.y, rtol=1e-10)


class TestWkb3Step:
    def test_equal_frames_match_explicit(self, rng):
        y = complex_array(rng, 3)
        f_k = -0.2 + 0.5j
        r = np.array([0.9, 2.1, 3.2])
        a = wkb3_step(ComponentVector(k=0, y=y), frame(r, 0), frame(r, 1), f_k)
        b = explicit_step(ComponentVector(k=0, y=y), frame(r, 0), frame(r, 1), f_k)
        assert np.array_equal(a.y, b.y)

    def test_single_branch_geometric_update(self):
        r = np.array([0.9, 2.1, 3.2])
        R = r + 1e-3
        y = np.array([0.0, 1.5, 0.0], dtype=complex)
        out = wkb3_step(ComponentVector(k=0, y=y), frame(r, 0), frame(R, 1))
        assert out.y[0] == 0 and out.y[2] == 0
        coupling = 1 / (R[1] - R[0]) + 1 / (R[1] - R[2])
        assert out.y[1] == pytest.approx(r[1] * 1.5 * (1 - 1e-3 * coupling), rel=1e-12)

    def test_error_shrinks_with_epsilon(self, rng):
        init = np.array([1 + 0.3j, 0.5 - 0.2j, 0.8 + 0.1j])
        errs = []
        for eps in (0.02, 0.01):
            spec = sin_family(epsilon=eps, horizon=200)
            frames = root_frames(spec)
            Y = decompose_initial(init, power_gauge(frames[0]))
            for s in range(200):
                Y = wkb3_step(Y, frames[s], frames[s + 1], 0.0)
            oracle = direct_solve(spec, init).value_at(200)
            errs.append(abs(reconstruct(Y) - oracle) / abs(oracle))
        assert errs[1] < errs[0]


class TestRiccatiResidual:
    def test_constant_root_fixed_point(self):
        assert riccati_residual(2.0, 2.0, 2.0, F123) == 0

    def test_oracle_ratio_identity(self, rng):
        spec = sin_family(epsilon=0.01, horizon=40)
        traj = direct_solve(spec, [1 + 0.2j, 1.4 - 0.1j, 2.2 + 0.3j])
        p = oracle_ratio_branch(traj).p1
        for s in range(30):
            f = spec.coeff_array(s)
            res = riccati_residual(p[s], p[s + 1], p[s + 2], f)
            scale = (
                1
                + abs(p[s + 2] * p[s + 1] * p[s])
                + abs(f[2] * p[s + 1] * p[s])
                + abs(f[1] * p[s])
                + abs(f[0])
            )
            assert abs(res) < 1e-9 * scale

    def test_zero_coefficients(self):
        res = riccati_residual(2.0, 3.0, 4.0, np.zeros(3))
        assert res == 24.0


class TestRiccatiForward:
    def test_constant_root_is_fixed_point(self):
        spec = constant_spec([-6, 11, -6], horizon=20)
        p = riccati_forward(2.0, 2.0, spec, count=18)
        assert_allclose(p, np.full(20, 2.0), rtol=1e-12)

    def test_dominant_branch_tracks_root(self):
        eps = 0.005
        spec = sin_family(epsilon=eps, horizon=60)
        frames = root_frames(spec)
        rho3 = np.array([f.roots[2] for f in frames])
        p = riccati_forward(rho3[0], rho3[1], spec, count=50)
        deviation = np.abs(p[: len(rho3)] - rho3[: len(p)])
        assert np.max(deviation[:52]) < 20 * eps

    def test_residual_satisfied_by_construction(self, rng):
        spec = sin_family(epsilon=0.01, horizon=30)
        p = riccati_forward(3.0 + 0.1j, 3.0, spec, count=25)
        for s in range(25):
            f = spec.coeff_array(s)
            res = riccati_residual(p[s], p[s + 1], p[s + 2], f)
            scale = 1 + abs(p[s + 2] * p[s + 1] * p[s])
            assert abs(res) < 1e-12 * scale

    def test_matches_oracle_ratios(self):
        spec = sin_family(epsilon=0.01, horizon=40)
        traj = direct_solve(spec, [1 + 0.2j, 1.4 - 0.1j, 2.2 + 0.3j])
        ratios = oracle_ratio_branch(traj).p1
        p = riccati_forward(ratios[0], ratios[1], spec, count=38)
        assert_allclose(p, ratios[: len(p)], rtol=1e-9)

    def test_breakdown_on_vanishing_product(self):
        spec = constant_spec([-6, 11, -6], horizon=20)
        with pytest.raises(Breakdown):
            riccati_forward(1e-13, 1e-13, spec, count=5)


class TestDecoupledStep:
    def test_homogeneous_componentwise_product(self, rng):
        y = complex_array(rng, 3)
        g_now = complex_array(rng, 3)
        out = decoupled_step(ComponentVector(k=0, y=y), g_now, complex_array(rng, 3))
        assert np.array_equal(out.y, y * g_now)

    def test_constant_characteristic_branches_match_explicit(self, rng):
        y = complex_array(rng, 3)
        r = np.array([1.0, 2.0, 3.0])
        f_k = 0.7 - 0.3j
        a = decoupled_step(ComponentVector(k=0, y=y), r, r, f_k, g1_row_after=r)
        b = explicit_step(ComponentVector(k=0, y=y), frame(r, 0), frame(r, 1), f_k)
        assert_allclose(a.y, b.y, rtol=1e-12)

    def test_constant_branches_need_no_row_after(self, rng):
        # for constant branches the Vandermonde determinant of g1_next is the
        # gauge determinant, so the step without g1_row_after is exact
        Y = ComponentVector(k=0, y=complex_array(rng, 3))
        r = complex_array(rng, 3)
        f_k = 0.7 - 0.3j
        fallback = decoupled_step(Y, r, r, f_k)
        exact = decoupled_step(Y, r, r, f_k, g1_row_after=r)
        assert np.max(np.abs(fallback.y - exact.y)) <= 1e-14 * np.max(np.abs(exact.y))

    def test_forced_step_matches_generic_with_row_after(self, rng):
        # with the k+2 branch values supplied, the forced decoupled step must
        # agree with the generic gauge step under the branch gauge; the basis
        # solutions are branch-seeded so their ratios stay distinct
        spec = sin_family(epsilon=0.01, horizon=60)
        rho = root_frames(spec, 0, 0)[0].roots
        basis = [
            oracle_ratio_branch(
                direct_solve(spec, [1.0, rho[n], rho[n] ** 2]), label=n
            )
            for n in range(3)
        ]
        k = 10
        g_now = riccati_gauge(basis, k)
        g_next = riccati_gauge(basis, k + 1)
        y = complex_array(rng, 3)
        f_k = 0.25 + 0.4j
        generic = step(ComponentVector(k=k, y=y), g_now, g_next, spec.coeff_array(k), f_k)
        fast = decoupled_step(
            ComponentVector(k=k, y=y),
            g_now.g[0],
            g_next.g[0],
            f_k,
            g1_row_after=np.array([b.g1_at(k + 2) for b in basis]),
        )
        assert_allclose(fast.y, generic.y, rtol=1e-9)

    def test_reconstruction_matches_oracle_50_steps(self, rng):
        spec = sin_family(epsilon=0.01, horizon=55)
        target = np.array([1 + 0.2j, 1.4 - 0.1j, 2.2 + 0.3j])
        oracle = direct_solve(spec, target)
        rho = root_frames(spec, 0, 0)[0].roots
        basis = [
            oracle_ratio_branch(
                direct_solve(spec, [1.0, rho[n], rho[n] ** 2]), label=n
            )
            for n in range(3)
        ]
        Y = decompose_initial(target, riccati_gauge(basis, 0))
        for s in range(50):
            g_now = np.array([b.g1_at(s) for b in basis])
            g_next = np.array([b.g1_at(s + 1) for b in basis])
            Y = decoupled_step(Y, g_now, g_next)
        got = reconstruct(Y)
        want = oracle.value_at(50)
        assert abs(got - want) / abs(want) < 1e-8


class TestProductSolution:
    def test_constant_roots_power_sums(self):
        branches = [
            RiccatiBranch(p1=np.full(6, float(r)), k_start=0, label=i)
            for i, r in enumerate((1, 2, 3))
        ]
        Y0 = ComponentVector(k=0, y=np.ones(3))
        assert product_solution(Y0, branches, 4) == pytest.approx(98)

    def test_empty_product_at_start(self, rng):
        y0 = complex_array(rng, 3)
        branches = [RiccatiBranch(p1=complex_array(rng, 4), k_start=0) for _ in range(3)]
        assert product_solution(ComponentVector(k=0, y=y0), branches, 0) == pytest.approx(
            np.sum(y0)
        )

    def test_slowly_varying_matches_oracle(self):
        spec = sin_family(epsilon=0.01, horizon=55)
        target = np.array([1 + 0.2j, 1.4 - 0.1j, 2.2 + 0.3j])
        oracle = direct_solve(spec, target)
        rho = root_frames(spec, 0, 0)[0].roots
        branches = [
            oracle_ratio_branch(
                direct_solve(spec, [1.0, rho[n], rho[n] ** 2]), label=n
            )
            for n in range(3)
        ]
        Y0 = decompose_initial(target, riccati_gauge(branches, 0))
        got = product_solution(Y0, branches, 50)
        want = oracle.value_at(50)
        assert abs(got - want) / abs(want) < 1e-7

    def test_ratio_branch_p2_consistency(self):
        spec = sin_family(epsilon=0.01, horizon=20)
        branch = oracle_ratio_branch(direct_solve(spec, [1.0, 1.3, 1.9]))
        p = branch.p1
        rows = [riccati_gauge([branch] * 3, k).g[1, 0] for k in range(len(p) - 1)]
        assert_allclose(rows, p[:-1] * p[1:], rtol=1e-12)

    def test_breakdown_on_zero_solution_value(self):
        spec = constant_spec([-1, 0, 0], horizon=6)
        traj = direct_solve(spec, [0.0, 1.0, 1.0])
        with pytest.raises(Breakdown):
            oracle_ratio_branch(traj)
