"""Every input check of the library raises its own error and message.

One test per guard of the public (and reference) functions, each asserting
the error's type and its whole message, plus the documented custom-model
path: a ``CoefficientModel`` that defines only ``__call__``.
"""

import runpy
import sys

import numpy as np
import pytest

from wkbrec import (
    CoefficientModel,
    ComponentVector,
    Constant,
    DegenerateRoots,
    GaugeSet,
    IndexOutOfWindow,
    RecurrenceSpec,
    RootFrame,
    ScalarTrajectory,
    SinusoidalInEpsK,
    build_H,
    characteristic_roots,
    compare_methods,
    decompose_initial,
    direct_solve,
    propagate,
    sigma_excluding,
    track_branches,
)
from wkbrec.third_order import (
    RiccatiBranch,
    decoupled_step,
    explicit_step,
    product_solution,
    riccati_forward,
    wkb3_step,
    x_terms,
)
from wkbrec.cli import EXIT_IO
from conftest import constant_spec


def assert_raises(error, message, call):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


def gauge(order, k=0):
    return GaugeSet(k=k, g=np.arange(1, order)[:, None] + np.arange(order)[None, :] * 1j)


def frame(roots, k):
    return RootFrame(k=k, roots=roots, residuals=np.zeros(len(roots)))


# core


def test_the_base_model_has_no_values():
    assert_raises(NotImplementedError, "", lambda: CoefficientModel()(0))


def test_a_negative_epsilon_is_refused():
    assert_raises(
        ValueError,
        "epsilon must be nonnegative",
        lambda: SinusoidalInEpsK(0.1, 2.0, epsilon=-0.01),
    )


def test_the_spec_checks_its_horizon_and_its_model_count():
    models = (Constant(2.0), Constant(-3.0))
    assert_raises(
        ValueError,
        "horizon must be a positive integer",
        lambda: RecurrenceSpec(order=2, coeffs=models, k_start=0, horizon=0),
    )
    assert_raises(
        ValueError,
        "expected 3 coefficient models, got 2",
        lambda: RecurrenceSpec(order=3, coeffs=models, k_start=0, horizon=5),
    )


def test_a_trajectory_covers_its_indices_only():
    traj = ScalarTrajectory(values=[1.0, 2.0, 3.0], k_start=5)
    assert traj.k_last == 7
    assert traj.value_at(7) == 3.0
    for k in (4, 8):
        assert_raises(
            IndexOutOfWindow,
            f"trajectory covers [5, 7] at index k={k}",
            lambda: traj.value_at(k),
        )


class Quadratic(CoefficientModel):
    """A custom model that defines only ``__call__``."""

    def __call__(self, k):
        return complex(-6.0 + 1e-4 * k * k, 1e-3 * k)


def test_a_custom_model_needs_only_call():
    spec = RecurrenceSpec(
        order=3,
        coeffs=(Quadratic(), Constant(11.0), Constant(-6.0)),
        k_start=-4,
        horizon=40,
    )
    lo, hi = spec.window
    want = np.array([Quadratic()(k) for k in range(lo, hi + 1)], dtype=complex)
    assert spec.table[:, 0].tobytes() == want.tobytes()
    initial = [1.0, 2.0, 3.0]
    table = compare_methods(spec, initial, ["direct", "gauge-exact"])
    oracle = direct_solve(spec, initial).values[: spec.horizon + 1]
    assert table.values["direct"].tobytes() == oracle.tobytes()
    assert table.rel_errors["gauge-exact"].max() < 1e-10


# decomposition


def test_a_gauge_set_checks_its_shape_and_order():
    assert_raises(
        ValueError,
        "gauge rows must have shape (N-1, N), got (2, 2)",
        lambda: GaugeSet(k=0, g=np.ones((2, 2))),
    )
    assert_raises(ValueError, "order must be in [2, 8]", lambda: GaugeSet(k=0, g=np.ones((8, 9))))


def test_the_step_and_split_check_their_lengths():
    assert_raises(
        ValueError, "expected 3 coefficients, got (2,)", lambda: build_H(gauge(3), [1.0, 2.0])
    )
    assert_raises(
        ValueError,
        "expected 3 scalar values, got (2,)",
        lambda: decompose_initial([1.0, 2.0], gauge(3)),
    )


def test_propagate_needs_one_gauge_per_index():
    spec = constant_spec([2.0, 0.0, -3.0], 4, k_start=2)
    gauges = [gauge(3, k) for k in range(2, 7)]
    initial = [1.0, 2.0, 3.0]
    assert_raises(
        ValueError, "need 5 gauge sets, got 4", lambda: propagate(spec, initial, gauges[:4])
    )
    gauges[3] = gauge(3, 9)
    assert_raises(
        ValueError, "gauge 3 has k=9, expected 5", lambda: propagate(spec, initial, gauges)
    )


# roots


def test_a_step_checks_its_frames():
    Y = ComponentVector(k=4, y=[1.0, 2.0, 3.0])
    roots = np.array([1.0, 2.0, 3.0])
    for step in (explicit_step, wkb3_step):
        assert_raises(
            ValueError,
            "frame orders do not match the component vector",
            lambda: step(Y, frame(roots[:2], 4), frame(roots, 5)),
        )
        assert_raises(
            ValueError,
            "frame indices (4, 6) do not bracket k=4",
            lambda: step(Y, frame(roots, 4), frame(roots, 6)),
        )


def test_characteristic_roots_checks_its_input():
    assert_raises(ValueError, "need at least one coefficient", lambda: characteristic_roots([]))
    assert_raises(
        ValueError,
        "seed must supply 3 start values",
        lambda: characteristic_roots([-6.0, 11.0, -6.0], seed=[1.0, 2.0]),
    )


def test_coincident_seeds_are_moved_apart():
    roots = characteristic_roots([-6.0, 11.0, -6.0], seed=[1.0, 1.0, 1.0])
    np.testing.assert_allclose(np.sort_complex(roots), [1.0, 2.0, 3.0], atol=1e-12)


def test_tracking_and_sigma_check_their_input():
    prev = frame(np.array([1.0, 2.0, 3.0]), 0)
    assert_raises(
        ValueError, "expected 3 roots, got (2,)", lambda: track_branches(prev, [1.0, 2.0])
    )
    for i in (-1, 3):
        assert_raises(
            ValueError,
            f"branch index {i} out of range for 3 roots",
            lambda: sigma_excluding([1.0, 2.0, 3.0], i),
        )


# third_order


def test_the_third_order_references_need_order_3():
    Y = ComponentVector(k=0, y=[1.0, 2.0])
    pair = frame(np.array([1.0, 2.0]), 0), frame(np.array([1.0, 2.0]), 1)
    assert_raises(
        ValueError, "x terms are defined for order 3 only", lambda: x_terms(gauge(2), [1.0, 2.0])
    )
    for step in (explicit_step, wkb3_step):
        assert_raises(
            ValueError, "third-order step requires order 3 throughout", lambda: step(Y, *pair)
        )
    assert_raises(
        ValueError,
        "the ratio recursion is third-order specific",
        lambda: riccati_forward(1.0, 1.0, constant_spec([2.0, -3.0], 4), 2),
    )
    assert_raises(
        ValueError,
        "decoupled step requires order 3 rows",
        lambda: decoupled_step(Y, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
    )


def test_a_branch_covers_its_indices_only():
    branch = RiccatiBranch(p1=[1.0, 2.0, 3.0], k_start=4)
    assert branch.g1_at(6) == 3.0
    assert_raises(ValueError, "branch covers [4, 6], not k=7", lambda: branch.g1_at(7))


def test_a_collapsed_decoupling_determinant_is_degenerate():
    Y = ComponentVector(k=2, y=[1.0, 2.0, 3.0])
    assert_raises(
        DegenerateRoots,
        "decoupling gauge determinant collapsed at index k=3",
        lambda: decoupled_step(Y, [1.0, 2.0, 3.0], [1.0, 2.0, 2.0], f_k=1.0),
    )


def test_product_solution_checks_its_branches():
    initial = ComponentVector(k=4, y=[1.0, 2.0, 3.0])
    branches = [RiccatiBranch(p1=[1.0, 2.0, 3.0], k_start=4, label=n) for n in range(3)]
    assert product_solution(initial, branches, 7) == 36.0
    assert_raises(
        ValueError,
        "one branch per component required",
        lambda: product_solution(initial, branches[:2], 6),
    )
    assert_raises(
        ValueError,
        "k=3 precedes the initial index 4",
        lambda: product_solution(initial, branches, 3),
    )
    assert_raises(
        ValueError,
        "branch 0 covers [4, 6], needs [4, 7]",
        lambda: product_solution(initial, branches, 8),
    )


# cli


def test_the_cli_module_runs_as_a_script(monkeypatch, capsys, tmp_path):
    # ``python -m wkbrec.cli`` exits with the code of ``main``; the module
    # runs afresh as ``__main__``, as it does from a new interpreter
    missing = str(tmp_path / "missing.json")
    monkeypatch.setattr(sys, "argv", ["wkbrec", "validate", missing])
    monkeypatch.delitem(sys.modules, "wkbrec.cli")
    with pytest.raises(SystemExit) as info:
        runpy.run_module("wkbrec.cli", run_name="__main__")
    assert info.value.code == EXIT_IO
    assert capsys.readouterr().err.startswith("i/o error: ")
