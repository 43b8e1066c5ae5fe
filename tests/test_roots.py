import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wkbrec import (
    AmbiguousTracking,
    DegenerateRoots,
    NoConvergence,
    RootFrame,
    ZeroCoefficient,
    characteristic_roots,
    min_separation,
    power_gauge,
    root_frames,
    root_residuals,
    sigma_excluding,
    track_branches,
    vandermonde_inverse,
)
from conftest import complex_array, sin_family


def sorted_roots(roots):
    return np.sort_complex(np.asarray(roots))


def frame(roots, k=0):
    roots = np.asarray(roots, dtype=complex)
    return RootFrame(k=k, roots=roots, residuals=np.zeros(len(roots)))


def brute_force_sigma(roots, i):
    """Independent oracle: explicit subset enumeration."""
    others = [r for j, r in enumerate(roots) if j != i]
    out = np.zeros(len(roots), dtype=complex)
    out[0] = 1.0
    for degree in range(1, len(roots)):
        out[degree] = sum(
            np.prod(comb) for comb in itertools.combinations(others, degree)
        )
    return out


class TestCharacteristicRoots:
    def test_cubic_with_integer_roots(self):
        roots = characteristic_roots(np.array([-6, 11, -6], dtype=complex))
        assert_allclose(sorted_roots(roots), [1, 2, 3], atol=1e-10)

    def test_residual_above_tolerance_raises(self):
        with pytest.raises(NoConvergence, match=r"root residual \S+ above tolerance"):
            characteristic_roots(np.array([-6, 11, -6], dtype=complex), tol=1e-18)

    def test_golden_ratio_quadratic(self):
        roots = characteristic_roots(np.array([-1, -1], dtype=complex))
        expected = sorted_roots([(1 + np.sqrt(5)) / 2, (1 - np.sqrt(5)) / 2])
        assert_allclose(sorted_roots(roots), expected, atol=1e-12)

    def test_cube_roots_of_unity(self):
        roots = characteristic_roots(np.array([-1, 0, 0], dtype=complex))
        expected = sorted_roots(np.exp(2j * np.pi * np.arange(3) / 3))
        assert_allclose(sorted_roots(roots), expected, atol=1e-12)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroCoefficient):
            characteristic_roots(np.array([0, 1, 1], dtype=complex))

    def test_residual_bound_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            f = complex_array(rng, n, scale=3.0)
            if abs(f[0]) < 0.1:
                f[0] += 0.5
            roots = characteristic_roots(f)
            res = root_residuals(f, roots)
            scale = (1 + np.abs(f).sum()) * np.maximum(1, np.abs(roots)) ** n
            assert np.all(res <= 1e-10 * scale)

    def test_matches_numpy_roots_multiset(self, rng):
        # independent solver as oracle for the whole multiset
        for _ in range(25):
            n = int(rng.integers(2, 8))
            f = complex_array(rng, n, scale=2.0)
            if abs(f[0]) < 0.1:
                f[0] += 0.5
            mine = sorted_roots(characteristic_roots(f))
            ref = sorted_roots(np.roots(np.concatenate(([1.0 + 0j], f[::-1]))))
            assert_allclose(mine, ref, rtol=1e-8, atol=1e-8)

    def test_vieta(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            f = complex_array(rng, n, scale=2.0)
            if abs(f[0]) < 0.1:
                f[0] += 0.5
            roots = characteristic_roots(f)
            assert np.sum(roots) == pytest.approx(-f[-1], rel=1e-9, abs=1e-9)
            assert np.prod(roots) == pytest.approx(
                (-1) ** n * f[0], rel=1e-9, abs=1e-9
            )

    def test_warm_start_converges_fast(self):
        f = np.array([-6, 11, -6], dtype=complex)
        first = characteristic_roots(f)
        again = characteristic_roots(f, seed=first)
        assert_allclose(sorted_roots(again), sorted_roots(first), atol=1e-12)

    def test_real_to_complex_transition(self):
        # two real roots merge and leave the axis along this family; the
        # warm-started finder must follow them off the axis
        spec = sin_family(epsilon=0.01, horizon=900, amplitudes=(0.3, 0.2, 0.0))
        prev = None
        for k in range(0, 120, 10):
            prev_roots = None if prev is None else prev
            prev = characteristic_roots(spec.coeff_array(k), seed=prev_roots)
        assert prev is not None


class TestTrackBranches:
    def test_nearest_matching(self):
        prev = frame([1, 2, 3])
        new = track_branches(prev, [3.01, 0.99, 2.02])
        assert_allclose(new.roots, [0.99, 2.02, 3.01])
        assert new.k == prev.k + 1

    def test_identity_on_identical_sets(self):
        prev = frame([1 + 1j, 2, 3 - 0.5j])
        new = track_branches(prev, prev.roots.copy())
        assert np.array_equal(new.roots, prev.roots)

    def test_ambiguous_on_coincident_roots(self):
        prev = frame([1, 2, 3])
        with pytest.raises(AmbiguousTracking):
            track_branches(prev, [1.5, 1.5, 3.0])

    def test_residuals_permuted_with_roots(self):
        prev = frame([1, 2])
        new = track_branches(prev, [2.1, 0.9], residuals=[5.0, 7.0])
        assert_allclose(new.roots, [0.9, 2.1])
        assert_allclose(new.residuals, [7.0, 5.0])

    def test_slow_family_jump_bound(self):
        eps = 0.01
        spec = sin_family(epsilon=eps, horizon=1000)
        frames = root_frames(spec)
        max_rho = max(float(np.max(np.abs(f.roots))) for f in frames)
        jumps = [
            np.max(np.abs(frames[j + 1].roots - frames[j].roots))
            for j in range(len(frames) - 1)
        ]
        assert max(jumps) <= 10 * eps * max_rho


class TestPowerGauge:
    def test_rows_are_powers(self):
        gauge = power_gauge(frame([1, 2, 3]))
        assert_allclose(gauge.g, [[1, 2, 3], [1, 4, 9]])

    def test_degenerate_roots_rejected(self):
        with pytest.raises(DegenerateRoots):
            power_gauge(frame([1.7, 1.7]))

    def test_golden_pair_single_row(self):
        phi = (1 + np.sqrt(5)) / 2
        psi = (1 - np.sqrt(5)) / 2
        gauge = power_gauge(frame([phi, psi]))
        assert gauge.g.shape == (1, 2)
        assert_allclose(gauge.g[0], [phi, psi])


class TestSigma:
    def test_exclude_first_of_123(self):
        assert_allclose(sigma_excluding([1, 2, 3], 0), [1, 5, 6])

    def test_exclude_last_of_123(self):
        assert_allclose(sigma_excluding([1, 2, 3], 2), [1, 3, 2])

    def test_sigma_zero_is_one(self, rng):
        roots = complex_array(rng, 6)
        for i in range(6):
            assert sigma_excluding(roots, i)[0] == 1

    def test_matches_brute_force(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            roots = complex_array(rng, n, scale=2.0)
            for i in range(n):
                assert_allclose(
                    sigma_excluding(roots, i),
                    brute_force_sigma(roots, i),
                    rtol=1e-12,
                    atol=1e-12,
                )

    def test_matches_polynomial_division(self):
        # excluding root i equals dividing the full product polynomial
        # prod_s (x + r_s) by its (x + r_i) factor; the quotient's descending
        # coefficients are exactly (sigma_0, sigma_1, sigma_2)
        roots = np.array([1.5, -2.0, 0.5 + 1j], dtype=complex)
        full = np.poly(-roots)
        for i in range(3):
            quotient, remainder = np.polydiv(full, np.array([1.0, roots[i]]))
            assert np.max(np.abs(remainder)) < 1e-12
            assert_allclose(quotient, sigma_excluding(roots, i), rtol=1e-12)


class TestVandermondeInverse:
    def test_two_by_two_closed_form(self):
        a, b = 0.7 - 0.2j, 2.0 + 1j
        inv = vandermonde_inverse(frame([a, b]))
        assert_allclose(inv[0], np.array([b, -1]) / (b - a), rtol=1e-13)
        assert_allclose(inv[1], np.array([-a, 1]) / (b - a), rtol=1e-13)

    def test_identity_123(self):
        fr = frame([1, 2, 3])
        m = power_gauge(fr).stacked()
        assert np.max(np.abs(m @ vandermonde_inverse(fr) - np.eye(3))) < 1e-12

    def test_conditioning_sweep(self):
        # shrink one pair separation down to 1e-3; the identity residual is
        # measured relative to the matrix scales since the inverse entries
        # grow like the reciprocal separation
        for sep in (1e-1, 1e-2, 1e-3):
            fr = frame([0.5, 0.5 + sep, -1.0 + 0.8j, 2.0])
            m = power_gauge(fr).stacked()
            inv = vandermonde_inverse(fr)
            resid = np.max(np.abs(m @ inv - np.eye(4)))
            scale = max(1.0, np.max(np.abs(m)) * np.max(np.abs(inv)))
            assert resid / scale < 1e-10

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateRoots):
            vandermonde_inverse(frame([1.0, 1.0, 2.0]))

    def test_identity_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            roots = complex_array(rng, n, scale=1.5)
            if min_separation(roots) < 1e-2:
                continue
            fr = frame(roots)
            m = power_gauge(fr).stacked()
            assert np.max(np.abs(m @ vandermonde_inverse(fr) - np.eye(n))) < 1e-10


class TestRootFrames:
    def test_tracking_stability_long_run(self):
        spec = sin_family(epsilon=0.01, horizon=1000)
        frames = root_frames(spec)
        assert len(frames) == 1001
        assert all(f.k == j for j, f in enumerate(frames))
        assert all(np.all(f.residuals < 1e-8) for f in frames)

    def test_first_frame_deterministic_order(self, cubic123_spec):
        frames = root_frames(cubic123_spec, 0, 0)
        assert_allclose(frames[0].roots, [1, 2, 3], atol=1e-10)
