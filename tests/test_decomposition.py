import numpy as np
import pytest
from numpy.testing import assert_allclose

from wkbrec import (
    ComponentVector,
    GaugeSet,
    RecurrenceSpec,
    SingularGauge,
    Tabulated,
    build_H,
    build_M,
    decompose_initial,
    direct_solve,
    propagate,
    reconstruct,
    step,
    transfer_matrix,
)
from wkbrec.decomposition import ADMISSIBILITY_THRESHOLD
from conftest import complex_array, constant_spec, sin_family

GOLDEN = (1 + np.sqrt(5)) / 2
GOLDEN_CONJ = (1 - np.sqrt(5)) / 2


def power_gauge_at(values, k=0):
    """Gauge rows (v, v**2, ..., v**(N-1)) from plain numbers."""
    v = np.asarray(values, dtype=complex)
    return GaugeSet(k=k, g=v[None, :] ** np.arange(1, len(v))[:, None])


def random_admissible_gauge(rng, n, k, min_ratio=1e-2):
    while True:
        gauge = GaugeSet(k=k, g=complex_array(rng, (n - 1, n)))
        if gauge.admissibility() > min_ratio:
            return gauge


def random_gauge_sequence(rng, spec, min_ratio=1e-2):
    return [
        random_admissible_gauge(rng, spec.order, spec.k_start + j, min_ratio)
        for j in range(spec.horizon + 1)
    ]


class TestBuildM:
    def test_vandermonde_rows(self):
        gauge = GaugeSet(k=0, g=[[1, 2, 3], [1, 4, 9]])
        assert_allclose(build_M(gauge), [[1, 1, 1], [1, 2, 3], [1, 4, 9]])

    def test_equal_gauge_rows_singular(self):
        gauge = GaugeSet(k=0, g=[[GOLDEN, GOLDEN]])
        with pytest.raises(SingularGauge):
            build_M(gauge)

    def test_admissibility_is_scale_free(self):
        gauge = GaugeSet(k=0, g=[[1, 2, 3], [1, 4, 9]])
        ratio = gauge.admissibility()
        assert 0 < ratio <= 1
        # scaling a column's gauge entries must not change the verdict much
        scaled = GaugeSet(k=0, g=[[1, 2, 3000], [1, 4, 9e6]])
        assert scaled.admissibility() > ADMISSIBILITY_THRESHOLD
        singular = GaugeSet(k=0, g=[[1, 1, 3], [2, 2, 9]])
        assert singular.admissibility() < 1e-15

    def test_random_admissible_has_small_solve_residual(self, rng):
        # nonzero determinant confirmed through the elimination residual
        gauge = random_admissible_gauge(rng, 4, 0)
        m = build_M(gauge)
        rhs = complex_array(rng, 4)
        x = np.linalg.solve(m, rhs)
        assert np.max(np.abs(m @ x - rhs)) < 1e-10 * np.max(np.abs(rhs))


class TestBuildH:
    def test_characteristic_identity_order3(self):
        # roots of x^3 - 6x^2 + 11x - 6 are 1, 2, 3; the folded last row must
        # reproduce their cubes
        gauge = power_gauge_at([1, 2, 3])
        h = build_H(gauge, np.array([-6, 11, -6], dtype=complex))
        assert_allclose(h[-1], [1, 8, 27], atol=1e-12)
        assert_allclose(h[:2], gauge.g)

    def test_zero_coefficients_zero_row(self, rng):
        gauge = random_admissible_gauge(rng, 3, 0)
        h = build_H(gauge, np.zeros(3, dtype=complex))
        assert_allclose(h[-1], np.zeros(3))

    def test_characteristic_identity_order2(self):
        gauge = power_gauge_at([GOLDEN, GOLDEN_CONJ])
        h = build_H(gauge, np.array([-1, -1], dtype=complex))
        assert_allclose(h[-1], [GOLDEN**2, GOLDEN_CONJ**2], atol=1e-12)


class TestDecomposeInitial:
    def test_vandermonde_window(self):
        # scalar window sampled from 1**k + 2**k + 3**k
        Y = decompose_initial([3, 6, 14], power_gauge_at([1, 2, 3]))
        assert_allclose(Y.y, [1, 1, 1], atol=1e-12)

    def test_zero_window(self):
        Y = decompose_initial(np.zeros(3), power_gauge_at([1, 2, 3]))
        assert_allclose(Y.y, np.zeros(3))

    def test_two_by_two(self):
        Y = decompose_initial([1, 2], power_gauge_at([2, 5]))
        assert_allclose(Y.y, [1, 0], atol=1e-14)

    def test_gauge_conditions_reproduced(self, rng):
        # uniqueness: the solved components reproduce the scalar window
        gauge = random_admissible_gauge(rng, 4, 0)
        window = complex_array(rng, 4)
        Y = decompose_initial(window, gauge)
        assert reconstruct(Y) == pytest.approx(window[0], rel=1e-10)
        for m in range(3):
            assert gauge.g[m] @ Y.y == pytest.approx(window[m + 1], rel=1e-10)


class TestStep:
    def test_constant_characteristic_gauge_diagonalises(self, fib_spec):
        gauge0 = power_gauge_at([GOLDEN, GOLDEN_CONJ], k=0)
        gauge1 = power_gauge_at([GOLDEN, GOLDEN_CONJ], k=1)
        Y = ComponentVector(k=0, y=np.array([0.7, -0.3 + 0.4j]))
        Y1 = step(Y, gauge0, gauge1, fib_spec.coeff_array(0))
        assert_allclose(Y1.y, [GOLDEN * 0.7, GOLDEN_CONJ * (-0.3 + 0.4j)], rtol=1e-12)

    def test_zero_state_zero_forcing(self, rng):
        gauge0 = random_admissible_gauge(rng, 3, 0)
        gauge1 = random_admissible_gauge(rng, 3, 1)
        Y = ComponentVector(k=0, y=np.zeros(3))
        Y1 = step(Y, gauge0, gauge1, complex_array(rng, 3))
        assert_allclose(Y1.y, np.zeros(3))

    def test_index_mismatch_rejected(self, rng):
        gauge0 = random_admissible_gauge(rng, 3, 0)
        Y = ComponentVector(k=0, y=np.zeros(3))
        with pytest.raises(ValueError):
            step(Y, gauge0, gauge0, np.zeros(3))

    def test_hundred_steps_track_oracle(self, rng):
        spec = sin_family(epsilon=0.01, horizon=100)
        init = complex_array(rng, 3)
        values, _ = propagate(spec, init, random_gauge_sequence(rng, spec))
        oracle = direct_solve(spec, init).values[:101]
        assert_allclose(values, oracle, rtol=1e-10)


class TestReconstruct:
    def test_sum(self):
        assert reconstruct(ComponentVector(k=0, y=np.array([1.0, 1.0, 1.0]))) == 3

    def test_cancellation(self):
        c = 2.5 - 1j
        assert reconstruct(ComponentVector(k=0, y=np.array([c, -c, 0.0]))) == 0

    def test_decomposed_fibonacci_at_ten(self, rng):
        spec = constant_spec([-1, -1], horizon=10)
        gauges = [power_gauge_at([GOLDEN, GOLDEN_CONJ], k=j) for j in range(11)]
        values, _ = propagate(spec, [0, 1], gauges)
        assert values[10] == pytest.approx(55, rel=1e-12)


class TestTransferMatrix:
    def test_constant_characteristic_gauge_is_diagonal(self, cubic123_spec):
        gauge0 = power_gauge_at([1, 2, 3], k=0)
        gauge1 = power_gauge_at([1, 2, 3], k=1)
        t = transfer_matrix(gauge0, gauge1, cubic123_spec.coeff_array(0))
        assert_allclose(t, np.diag([1, 2, 3]), atol=1e-10)

    def test_step_consistency(self, rng):
        spec = sin_family(epsilon=0.02, horizon=4)
        gauge0 = random_admissible_gauge(rng, 3, 0)
        gauge1 = random_admissible_gauge(rng, 3, 1)
        coeffs = spec.coeff_array(0)
        f_k = 0.37 - 0.21j
        t = transfer_matrix(gauge0, gauge1, coeffs)
        Y = ComponentVector(k=0, y=complex_array(rng, 3))
        via_step = step(Y, gauge0, gauge1, coeffs, forcing=f_k)
        forcing_vec = np.zeros(3, dtype=complex)
        forcing_vec[-1] = -f_k
        direct = t @ Y.y + np.linalg.solve(build_M(gauge1), forcing_vec)
        assert_allclose(via_step.y, direct, rtol=1e-10, atol=1e-12)

    def test_order2_offdiagonal_proportional_to_increment(self):
        # closed form for the 2x2 characteristic gauge:
        #   T[0,1] = r2 (R2 - r2) / (R2 - R1),  T[1,0] = r1 (r1 - R1) / (R2 - R1)
        # so the off-diagonal entries carry exactly one factor of the root
        # increment each; verified against the solve-based path at two
        # increment sizes.
        r = np.array([0.8, 2.0])
        # ascending coefficients of (x - r1)(x - r2): f0 = r1 r2, f1 = -(r1 + r2)
        coeffs = np.array([r[0] * r[1], -(r[0] + r[1])], dtype=complex)
        for h in (1e-3, 5e-4):
            R = r + np.array([h, -2 * h])
            t = transfer_matrix(power_gauge_at(r, 0), power_gauge_at(R, 1), coeffs)
            expected_01 = r[1] * (R[1] - r[1]) / (R[1] - R[0])
            expected_10 = r[0] * (r[0] - R[0]) / (R[1] - R[0])
            assert t[0, 1] == pytest.approx(expected_01, rel=1e-10)
            assert t[1, 0] == pytest.approx(expected_10, rel=1e-10)

    def test_identical_gauges_no_offdiagonal(self):
        # when the gauge does not move, the characteristic gauge decouples
        r = np.array([0.8, 2.0])
        coeffs = np.array([r[0] * r[1], -(r[0] + r[1])], dtype=complex)
        t = transfer_matrix(power_gauge_at(r, 0), power_gauge_at(r, 1), coeffs)
        assert abs(t[0, 1]) < 1e-14
        assert abs(t[1, 0]) < 1e-14

    def test_step_matrices_bundle(self, rng):
        gauge0 = random_admissible_gauge(rng, 3, 0)
        gauge1 = random_admissible_gauge(rng, 3, 1)
        coeffs = complex_array(rng, 3)
        m, h = build_M(gauge1), build_H(gauge0, coeffs)
        t = transfer_matrix(gauge0, gauge1, coeffs)
        assert_allclose(m[0], np.ones(3))
        assert_allclose(m[1:], gauge1.g)
        assert_allclose(h[:2], gauge0.g)
        assert_allclose(h[-1], -(coeffs[1:] @ gauge0.g + coeffs[0]))
        assert np.max(np.abs(m @ t - h)) < 1e-10 * np.max(np.abs(h))


class TestExactnessProperties:
    def test_exact_for_any_admissible_gauge(self, rng):
        for n in (2, 3, 4):
            tabs = tuple(
                Tabulated(values=complex_array(rng, 160) + 1.5, k_first=-1)
                for _ in range(n)
            )
            spec = RecurrenceSpec(order=n, coeffs=tabs, k_start=0, horizon=100)
            init = complex_array(rng, n)
            values, _ = propagate(spec, init, random_gauge_sequence(rng, spec))
            oracle = direct_solve(spec, init).values[:101]
            assert_allclose(values, oracle, rtol=1e-10, atol=1e-12)

    def test_gauge_covariance(self, rng):
        # two different admissible gauges split differently but reconstruct
        # the same scalar values
        spec = sin_family(epsilon=0.015, horizon=60)
        init = complex_array(rng, 3)
        values_a, comps_a = propagate(spec, init, random_gauge_sequence(rng, spec))
        values_b, comps_b = propagate(spec, init, random_gauge_sequence(rng, spec))
        assert_allclose(values_a, values_b, rtol=1e-10)
        assert not np.allclose(comps_a[30].y, comps_b[30].y)

    def test_forcing_superposition(self, rng):
        def forced(forcing_values):
            spec = RecurrenceSpec(
                order=3,
                coeffs=(
                    Tabulated(complex_array(rng, 60) + 2.0, k_first=0),
                    Tabulated(complex_array(rng, 60), k_first=0),
                    Tabulated(complex_array(rng, 60), k_first=0),
                ),
                k_start=0,
                horizon=40,
                forcing=Tabulated(forcing_values, k_first=0),
            )
            return spec

        base = complex_array(rng, 60)
        f1 = complex_array(rng, 60)
        f2 = complex_array(rng, 60)
        rng_state = rng.bit_generator.state
        specs = {}
        for name, f in (("f1", f1), ("f2", f2), ("sum", f1 + f2), ("zero", np.zeros(60))):
            rng.bit_generator.state = rng_state
            specs[name] = forced(f)
        init = complex_array(rng, 3)
        t = {name: direct_solve(s, init).values for name, s in specs.items()}
        lhs = t["sum"] - t["zero"]
        rhs = (t["f1"] - t["zero"]) + (t["f2"] - t["zero"])
        scale = np.max(np.abs(t["zero"]))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale

    def test_uniqueness_round_trip(self, rng):
        gauge = random_admissible_gauge(rng, 5, 0)
        window = complex_array(rng, 5)
        Y = decompose_initial(window, gauge)
        rebuilt = gauge.stacked() @ Y.y
        assert_allclose(rebuilt, window, rtol=1e-10)

    def test_types_copy_their_arrays(self):
        # mutating the caller's buffers afterwards must not leak in; the
        # types are shareable across threads once built
        raw = np.array([[1.0, 2.0, 3.0], [1.0, 4.0, 9.0]], dtype=complex)
        gauge = GaugeSet(k=0, g=raw)
        raw[0, 0] = 999
        assert gauge.g[0, 0] == 1.0
        y = np.ones(3, dtype=complex)
        Y = ComponentVector(k=0, y=y)
        y[0] = 999
        assert Y.y[0] == 1.0
