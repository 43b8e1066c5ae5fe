import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wkbrec import (
    Constant,
    IndexOutOfWindow,
    PolynomialInEpsK,
    RecurrenceSpec,
    SinusoidalInEpsK,
    Tabulated,
    ZeroCoefficient,
    companion_matrix,
    companion_propagate,
    compare_methods,
    direct_solve,
    epsilon_sweep,
)
from wkbrec.wkb import METHOD_NAMES
from conftest import complex_array, constant_spec, sin_family


class TestCoefficientModels:
    def test_constant(self):
        spec = constant_spec([-1.0, 0.5], horizon=3)
        assert spec.coeffs[0](17) == -1.0

    def test_polynomial_in_eps_k(self):
        model = PolynomialInEpsK(coeffs=(2, 1), epsilon=0.1)
        assert model(10) == pytest.approx(3.0)

    def test_sinusoidal_zero_amplitude(self):
        model = SinusoidalInEpsK(amplitude=0, offset=5, epsilon=0.3)
        assert model(123) == 5.0

    def test_epsilon_zero_reduces_to_constant(self):
        poly = PolynomialInEpsK(coeffs=(1.5, 2, 3), epsilon=0.0)
        sine = SinusoidalInEpsK(amplitude=2, offset=-1.5, epsilon=0.0)
        assert all(poly(k) == 1.5 for k in range(-5, 5))
        assert all(sine(k) == -1.5 for k in range(-5, 5))

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            PolynomialInEpsK(coeffs=(1,), epsilon=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda x: PolynomialInEpsK(coeffs=(1, 2), epsilon=x), "polynomial model: epsilon"),
            (lambda x: SinusoidalInEpsK(1, 2, epsilon=x), "sinusoidal model: epsilon"),
            (lambda x: SinusoidalInEpsK(1, 2, frequency=x), "sinusoidal model: frequency"),
            (lambda x: SinusoidalInEpsK(1, 2, phase=x), "sinusoidal model: phase"),
        ],
    )
    def test_non_finite_parameters_are_rejected_by_name(self, build, name, value):
        # nan < 0 is false, so a sign check alone lets a NaN fill the table
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            build(value)

    def test_a_sweep_to_a_nan_epsilon_names_the_parameter(self):
        # with_epsilon rebuilds each model, so the sweep fails before any
        # table is sampled, not as a breakdown of the first method
        with pytest.raises(ValueError, match="^sinusoidal model: epsilon must be finite, got nan$"):
            epsilon_sweep(sin_family(0.01, 20), [1.0, 0.5, 0.25], ["direct"], [0.01, math.nan])

    def test_tabulated_out_of_coverage(self):
        model = Tabulated(values=np.arange(4), k_first=0)
        with pytest.raises(IndexOutOfWindow):
            model(4)

    def test_tabulated_sample_out_of_coverage(self):
        # a bare slice would truncate (4, 6) and wrap (-3, -1) silently
        model = Tabulated(values=np.arange(4), k_first=2)
        assert model.sample(3, 5).tolist() == [1, 2, 3]
        for lo, hi in ((1, 3), (4, 6), (-3, -1)):
            with pytest.raises(IndexOutOfWindow, match=r"covers \[2, 5\]"):
                model.sample(lo, hi)

    def test_coeff_array_and_forcing_value(self):
        spec = constant_spec([-6, 11, -6], horizon=5, forcing=2.0)
        assert_allclose(spec.coeff_array(1), [-6, 11, -6])
        assert spec.forcing_value(1) == 2.0

    def test_coeff_array_outside_window(self):
        spec = constant_spec([-1, -1], horizon=5)
        with pytest.raises(IndexOutOfWindow):
            spec.coeff_array(100)
        with pytest.raises(IndexOutOfWindow):
            spec.forcing_value(100)

    def test_coeff_array_deterministic(self):
        spec = constant_spec([-6, 11, -6], horizon=5, forcing=0.5j)
        assert np.array_equal(spec.coeff_array(2), spec.coeff_array(2))
        assert spec.forcing_value(2) == spec.forcing_value(2)


class TestSpecValidation:
    def test_order_bounds(self):
        with pytest.raises(ValueError):
            constant_spec([-1.0], horizon=3)
        with pytest.raises(ValueError):
            constant_spec([-1.0] * 9, horizon=3)

    def test_zero_f0_rejected(self):
        with pytest.raises(ZeroCoefficient):
            constant_spec([0.0, 1.0], horizon=3)

    def test_zero_f0_inside_window_rejected(self):
        # f0(k) = -0.5 + 0.1*k vanishes at k = 5
        with pytest.raises(ZeroCoefficient):
            RecurrenceSpec(
                order=2,
                coeffs=(PolynomialInEpsK((-0.5, 0.1), epsilon=1.0), Constant(1.0)),
                k_start=0,
                horizon=10,
            )

    def test_window_must_fit_int64(self):
        # order 2, horizon 1: the window is [k_start, k_start + 3]
        for k_start in (2**63 - 3, -(2**63) - 1, 10**20):
            with pytest.raises(ValueError, match=r"the index window \[.*\] must fit in int64"):
                constant_spec([-1.0, -1.0], horizon=1, k_start=k_start)
        for k_start in (2**63 - 4, -(2**63)):
            assert constant_spec([-1.0, -1.0], horizon=1, k_start=k_start).window[0] == k_start

    def test_tabulated_must_cover_window(self):
        values = np.ones(5)
        with pytest.raises(IndexOutOfWindow):
            RecurrenceSpec(
                order=2,
                coeffs=(Tabulated(values, k_first=0), Constant(1.0)),
                k_start=0,
                horizon=10,
            )


values = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
epsilons = st.floats(0.0, 0.5)


@st.composite
def models(draw, lo, hi):
    """A model of a drawn variant, defined on ``[lo, hi]``."""
    variant = draw(st.sampled_from(["constant", "tabulated", "polynomial", "sinusoidal"]))
    if variant == "constant":
        return Constant(draw(values))
    if variant == "tabulated":
        before, after = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        n = hi - lo + 1 + before + after
        table = draw(st.lists(values, min_size=n, max_size=n))
        return Tabulated(values=np.array(table), k_first=lo - before)
    if variant == "polynomial":
        coeffs = draw(st.lists(values, min_size=1, max_size=4))
        return PolynomialInEpsK(coeffs=tuple(coeffs), epsilon=draw(epsilons))
    return SinusoidalInEpsK(
        amplitude=draw(values),
        offset=draw(values),
        frequency=draw(st.floats(-3.0, 3.0)),
        phase=draw(st.floats(-3.0, 3.0)),
        epsilon=draw(epsilons),
    )


@st.composite
def specs(draw):
    n = draw(st.integers(2, 8))
    k_start, horizon = draw(st.integers(-20, 20)), draw(st.integers(1, 30))
    lo, hi = k_start, k_start + horizon + n
    coeffs = tuple(draw(models(lo, hi)) for _ in range(n))
    forcing = draw(models(lo, hi))
    return dict(order=n, coeffs=coeffs, k_start=k_start, horizon=horizon, forcing=forcing)


def sampled(spec_fields, epsilon=None):
    """The rows ``(f[0](k), ..., f[N-1](k), f(k))`` over the window, index by index."""
    columns = (*spec_fields["coeffs"], spec_fields["forcing"])
    if epsilon is not None:
        columns = [m.with_epsilon(epsilon) for m in columns]
    lo = spec_fields["k_start"]
    hi = lo + spec_fields["horizon"] + spec_fields["order"]
    return np.array([[m(k) for m in columns] for k in range(lo, hi + 1)], dtype=complex)


class TestCoefficientTable:
    @settings(max_examples=60, deadline=None)
    @given(fields=specs(), epsilon=epsilons)
    def test_table_is_the_models_index_by_index(self, fields, epsilon):
        wants = sampled(fields), sampled(fields, epsilon)
        assume(all(np.all(want[:, 0] != 0) for want in wants))
        first = RecurrenceSpec(**fields)
        for spec, want in zip((first, first.with_epsilon(epsilon)), wants):
            assert spec.table.shape == want.shape
            assert spec.table.tobytes() == want.tobytes()  # bit for bit
            with pytest.raises(ValueError):
                spec.table[0, 0] = 1.0
            with pytest.raises(ValueError):
                spec.coeff_array(spec.k_start)[0] = 1.0

    @settings(max_examples=30, deadline=None)
    @given(fields=specs(), zeros=st.lists(st.integers(0, 100), min_size=1, max_size=3))
    def test_zero_f0_raises_at_lowest_index(self, fields, zeros):
        lo = fields["k_start"]
        width = fields["horizon"] + fields["order"] + 1
        f0 = np.ones(width, dtype=complex)
        f0[[z % width for z in zeros]] = 0.0
        fields["coeffs"] = (Tabulated(values=f0, k_first=lo), *fields["coeffs"][1:])
        with pytest.raises(ZeroCoefficient) as info:
            RecurrenceSpec(**fields)
        assert info.value.k == lo + min(z % width for z in zeros)


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
real_parts = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([-0.0, 0.0, 5e-324, -1.0, 1.0]),
    st.integers(-(2**53), 2**53).map(lambda m: m * 2.0**-44),  # full mantissas
)
complex_parts = st.builds(complex, real_parts, real_parts)


@st.composite
def windows(draw):
    """An index window of up to 40 indices, often at an int64 edge."""
    width = draw(st.integers(0, 39))
    lo = draw(
        st.one_of(
            st.integers(-(10**6), 10**6),
            st.integers(INT64_MIN, INT64_MAX - width),
            st.sampled_from([INT64_MIN, INT64_MAX - width, -width // 2]),
        )
    )
    return lo, lo + width


parametric_models = st.one_of(
    st.builds(
        SinusoidalInEpsK,
        amplitude=complex_parts,
        offset=complex_parts,
        frequency=real_parts,
        phase=real_parts,
        epsilon=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    ),
    st.builds(
        PolynomialInEpsK,
        coeffs=st.lists(complex_parts, max_size=5).map(tuple),
        epsilon=st.one_of(st.just(0.0), st.floats(0.0, 1e-3)),
    ),
)


def bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64)


class TestVectorisedSample:
    # the table and every written file read these samples, so they must
    # equal the models' own per-index values bit for bit, signed zeros too
    @settings(max_examples=300, deadline=None)
    @given(model=parametric_models, window=windows())
    @example(SinusoidalInEpsK(0.2 + 0.1j, -1, frequency=1.3, phase=0.4, epsilon=0.05), (-20, 20))
    @example(PolynomialInEpsK((1, 0.3 - 0.1j, -0.05), epsilon=0.07), (INT64_MAX - 30, INT64_MAX))
    def test_sample_is_the_model_index_by_index(self, model, window):
        lo, hi = window
        want = [model(k) for k in range(lo, hi + 1)]
        got = model.sample(lo, hi)
        assert got.dtype == complex and got.shape == (hi - lo + 1,)
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize(
        "model",
        [
            SinusoidalInEpsK(complex(5e-324, -0.0), complex(-0.0, 0.0), frequency=0.0, phase=-0.5),
            PolynomialInEpsK((complex(-0.0, 0.0), complex(5e-324, -1.5)), epsilon=0.479),
        ],
    )
    def test_a_product_that_underflows_keeps_the_sign_of_its_zero(self, model):
        # CPython multiplies a complex by a float as by complex(x, 0.0); numpy's
        # complex multiply gives -0.0 where that product has 0.0
        want = [model(k) for k in range(-3, 4)]
        assert np.array_equal(bits(model.sample(-3, 3)), bits(want))

    def test_overflow_gives_the_per_index_values_without_warnings(self):
        # eps * k is infinite from k = 2 on: NaN values, as model(k) gives
        model = PolynomialInEpsK(coeffs=(11, 1e-300 + 1e-300j), epsilon=1e308)
        got, want = model.sample(-3, 3), np.array([model(k) for k in range(-3, 4)])
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[[0, 1, 5, 6]]).all() and np.isfinite(got[2:5]).all()

    def test_infinite_sine_argument_raises_as_the_model_does(self):
        model = SinusoidalInEpsK(amplitude=1, offset=0, frequency=1e300, epsilon=1e10)
        with pytest.raises(ValueError, match="math domain error"):
            model(5)
        with pytest.raises(ValueError, match="math domain error"):
            model.sample(0, 5)

    def test_infinite_sine_argument_names_its_first_index(self):
        # frequency * epsilon is 1e307: the argument is finite for |k| <= 17
        model = SinusoidalInEpsK(amplitude=1, offset=0, frequency=1e307, epsilon=1.0)
        assert np.isfinite(model.sample(-17, 17)).all()
        with pytest.raises(ValueError, match="sine argument is infinite at index k=18 "):
            model.sample(-17, 40)
        with pytest.raises(ValueError, match="at index k=-20 "):
            model.sample(-20, 20)


def counted_evaluations(monkeypatch):
    """Count evaluations per (model, k) of the parametric models, one index
    at a time (``model(k)``) or a window at a time (``model.sample``)."""
    calls = counted_calls(monkeypatch)
    for cls in (PolynomialInEpsK, SinusoidalInEpsK):

        def wrapped(self, lo, hi, original=cls.sample):
            calls.update((id(self), k) for k in range(lo, hi + 1))
            return original(self, lo, hi)

        monkeypatch.setattr(cls, "sample", wrapped)
    return calls


def counted_calls(monkeypatch):
    """Count ``model(k)`` calls per (model, k) for every model variant."""
    calls = Counter()
    for cls in (Constant, Tabulated, PolynomialInEpsK, SinusoidalInEpsK):

        def wrapped(self, k, original=cls.__call__):
            calls[id(self), k] += 1
            return original(self, k)

        monkeypatch.setattr(cls, "__call__", wrapped)
    return calls


class TestSampledOnce:
    def test_each_model_is_evaluated_once_per_index(self, monkeypatch):
        calls = counted_evaluations(monkeypatch)
        spec = sin_family(epsilon=0.01, horizon=50)
        compare_methods(spec, [1.0, 0.5, 0.25], METHOD_NAMES)
        lo, hi = spec.window
        assert calls == Counter({(id(m), k): 1 for m in spec.coeffs for k in range(lo, hi + 1)})

    def test_tabulated_models_are_never_called(self, monkeypatch):
        table = sin_family(epsilon=0.01, horizon=50).table
        calls = counted_calls(monkeypatch)
        spec = RecurrenceSpec(
            order=3,
            coeffs=tuple(Tabulated(values=table[:, j], k_first=0) for j in range(3)),
            k_start=0,
            horizon=50,
        )
        compare_methods(spec, [1.0, 0.5, 0.25], METHOD_NAMES)
        assert calls == Counter()


class TestDirectSolve:
    def test_fibonacci(self, fib_spec):
        traj = direct_solve(fib_spec, [0, 1])
        assert_allclose(traj.values, [0, 1, 1, 2, 3, 5, 8, 13, 21, 34])

    def test_period_three(self):
        # y[k+3] = y[k]
        spec = constant_spec([-1, 0, 0], horizon=6)
        traj = direct_solve(spec, [1, 2, 3])
        assert_allclose(traj.values, [1, 2, 3, 1, 2, 3, 1, 2, 3])

    def test_power_sum_solution(self, cubic123_spec):
        # oracle for the expected values: y[k] = 1**k + 2**k + 3**k solves the
        # recurrence with roots 1, 2, 3; initial window is (3, 6, 14)
        ks = np.arange(13)
        closed_form = 1.0**ks + 2.0**ks + 3.0**ks
        traj = direct_solve(cubic123_spec, closed_form[:3])
        assert traj.value_at(3) == pytest.approx(36)
        assert_allclose(traj.values, closed_form, rtol=1e-13)

    def test_forcing_sign(self):
        # y[k+2] + f[1] y[k+1] + f[0] y[k] + f = 0 with everything else zero
        spec = constant_spec([1e-30, 0.0], horizon=1, forcing=2.5)
        traj = direct_solve(spec, [0, 0])
        assert traj.value_at(2) == pytest.approx(-2.5)

    def test_initial_length_checked(self, fib_spec):
        with pytest.raises(ValueError):
            direct_solve(fib_spec, [1, 2, 3])


class TestCompanion:
    def test_fibonacci_matrix(self, fib_spec):
        assert_allclose(companion_matrix(fib_spec, 0), [[1, 1], [1, 0]])

    def test_zero_coefficient_matrix(self):
        spec = constant_spec([1e-30, 0, 0], horizon=2)
        expected = np.zeros((3, 3))
        expected[1, 0] = expected[2, 1] = 1
        assert_allclose(companion_matrix(spec, 0), expected, atol=1e-29)

    def test_sign_flip(self, cubic123_spec):
        assert_allclose(
            companion_matrix(cubic123_spec, 0), [[6, -11, 6], [1, 0, 0], [0, 1, 0]]
        )

    def test_matches_direct_on_fibonacci(self, fib_spec):
        a = direct_solve(fib_spec, [0, 1]).values
        b = companion_propagate(fib_spec, [0, 1]).values
        assert np.array_equal(a, b)

    def test_matches_direct_on_periodic(self):
        spec = constant_spec([-1, 0, 0], horizon=9)
        a = direct_solve(spec, [1, 2j, 3]).values
        b = companion_propagate(spec, [1, 2j, 3]).values
        assert np.array_equal(a, b)

    def test_oracle_equivalence_random(self, rng):
        # same arithmetic, different bookkeeping
        for n in (2, 3, 4, 5):
            tabs = tuple(
                Tabulated(values=complex_array(rng, 160), k_first=-1) for _ in range(n)
            )
            spec = RecurrenceSpec(
                order=n,
                coeffs=tabs,
                k_start=0,
                horizon=100,
                forcing=Tabulated(values=complex_array(rng, 160), k_first=-1),
            )
            init = complex_array(rng, n)
            a = direct_solve(spec, init).values
            b = companion_propagate(spec, init).values
            assert_allclose(b, a, rtol=1e-12)


def test_lone_loops_step_without_the_dot_dispatcher(monkeypatch):
    # a lone recursion and a lone chain step by the array's own ``dot``:
    # numpy.dot, whose Python-level dispatcher costs more than a product of
    # this size, is never called in their per-index loops
    spec = sin_family(0.01, 120)
    init = np.array([1.0, 0.5 - 0.25j, 0.25])
    calls = (
        lambda: [direct_solve(spec, init).values],
        lambda: [companion_propagate(spec, init).values],
        lambda: list(compare_methods(spec, init, ["direct", "wkb-general"]).values.values()),
    )
    want = [call() for call in calls]

    def no_dot(*args, **kwargs):
        raise AssertionError("numpy.dot called")

    monkeypatch.setattr(np, "dot", no_dot)
    for call, expected in zip(calls, want):
        got = call()
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]


class TestInvariants:
    def test_shift_invariance(self, rng):
        values = complex_array(rng, 40)
        forcing = complex_array(rng, 40)
        init = complex_array(rng, 2)
        trajectories = {}
        for shift in (0, 7):
            spec = RecurrenceSpec(
                order=2,
                coeffs=(
                    Tabulated(values + 1.0, k_first=shift),
                    Tabulated(values[::-1], k_first=shift),
                ),
                k_start=shift,
                horizon=30,
                forcing=Tabulated(forcing, k_first=shift),
            )
            trajectories[shift] = direct_solve(spec, init).values
        assert np.array_equal(trajectories[0], trajectories[7])

    @settings(deadline=None, derandomize=True, max_examples=25)
    @given(
        re=st.floats(-10, 10, allow_nan=False),
        im=st.floats(-10, 10, allow_nan=False),
    )
    def test_homogeneity(self, re, im):
        c = complex(re, im)
        spec = constant_spec([-6, 11, -6], horizon=20)
        base = direct_solve(spec, [1, 1 + 1j, 2]).values
        scaled = direct_solve(spec, c * np.array([1, 1 + 1j, 2])).values
        assert_allclose(scaled, c * base, rtol=1e-12, atol=1e-12)

    def test_trajectory_length(self, rng):
        spec = constant_spec([-1, -1], horizon=13)
        assert len(direct_solve(spec, [1, 1])) == 15


def test_public_api_exports_resolve():
    import wkbrec

    for name in wkbrec.__all__:
        assert hasattr(wkbrec, name), name
