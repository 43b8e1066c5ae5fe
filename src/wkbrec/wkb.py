"""General-order propagation in the characteristic power gauge.

Under the power gauge the step matrices have closed structure: the left-hand
matrix is the Vandermonde matrix of the roots at k+1, and the right-hand
matrix has column n equal to the powers ``(rho[n], rho[n]**2, ..., rho[n]**N)``
of the roots at k.  :func:`exact_step_general` advances the components with a
per-step solve; :func:`wkb_step_general` keeps only the diagonal of the
one-step matrix, computed through the closed-form Vandermonde inverse, which
is the slowly-varying (WKB) approximation for arbitrary order.

:func:`compare_methods` runs any subset of the named propagation methods on
one problem and tabulates per-step relative errors against the scalar
recursion oracle; :func:`epsilon_sweep` repeats that over a list of
slow-variation parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RecurrenceSpec, companion_propagate, direct_solve
from .decomposition import (
    ComponentVector,
    _residual_checked_solve,
    build_M,
    decompose_initial,
    propagate,
    reconstruct,
)
from .errors import RecurrenceError
from .roots import (
    DEFAULT_ROOT_TOL,
    RootFrame,
    power_gauge,
    root_frames,
    vandermonde_inverse,
)
from .third_order import (
    explicit_step,
    oracle_ratio_branch,
    riccati_gauge,
    wkb3_step,
)

METHOD_NAMES = (
    "direct",
    "companion",
    "gauge-exact",
    "explicit3",
    "wkb3",
    "riccati",
    "wkb-general",
)
THIRD_ORDER_METHODS = frozenset({"explicit3", "wkb3", "riccati"})
HOMOGENEOUS_ONLY_METHODS = frozenset({"riccati", "wkb-general"})

_REL_ERROR_FLOOR = 1e-300


@dataclass(frozen=True, eq=False)
class WkbStepReport:
    """Per-step diagnostics of the diagonal approximation at arrival index k.

    ``diagonal_gain[i]`` is the kept multiplier of branch i;
    ``offdiag_norm`` is the largest magnitude among the discarded
    off-diagonal entries of the one-step matrix (zero, up to rounding, when
    the frames at k and k+1 coincide).
    """

    diagonal_gain: np.ndarray
    offdiag_norm: float
    k: int


def _powers_matrix(frame: RootFrame) -> np.ndarray:
    """Column n holds ``(rho[n], rho[n]**2, ..., rho[n]**N)``."""
    n = frame.order
    return frame.roots[None, :] ** np.arange(1, n + 1)[:, None]


def _frames_checked(Y: ComponentVector, frame_now: RootFrame, frame_next: RootFrame):
    if frame_now.order != Y.order or frame_next.order != Y.order:
        raise ValueError("frame orders do not match the component vector")
    if frame_now.k != Y.k or frame_next.k != Y.k + 1:
        raise ValueError(
            f"frame indices ({frame_now.k}, {frame_next.k}) do not bracket k={Y.k}"
        )


def exact_step_general(
    Y: ComponentVector, frame_now: RootFrame, frame_next: RootFrame
) -> ComponentVector:
    """Exact homogeneous power-gauge step via a per-step solve.

    Solves ``M[k+1] Y[k+1] = H Y[k]`` with the Vandermonde left-hand side at
    k+1 and the root-power right-hand side at k.  Independent of the generic
    gauge step (which folds the recurrence coefficients instead of raising
    roots to the N-th power); the two must agree to rounding.
    """
    _frames_checked(Y, frame_now, frame_next)
    m = build_M(power_gauge(frame_next))
    rhs = _powers_matrix(frame_now) @ Y.y
    return ComponentVector(k=Y.k + 1, y=_residual_checked_solve(m, rhs, Y.k + 1))


def wkb_diagonal_gain(frame_now: RootFrame, frame_next: RootFrame) -> np.ndarray:
    """Exact diagonal of the power-gauge one-step matrix.

    Entry i is ``sum_j Minv[i, j] * rho_now[i]**(j+1)`` with the closed-form
    Vandermonde inverse at k+1; equivalently ``rho_now[i]`` times the i-th
    Lagrange cardinal polynomial on the k+1 roots evaluated at
    ``rho_now[i]``, so it reduces to ``rho[i]`` itself when the frames
    coincide.
    """
    minv = vandermonde_inverse(frame_next)
    powers = _powers_matrix(frame_now)
    return np.einsum("ij,ji->i", minv, powers)


def wkb_step_general(
    Y: ComponentVector, frame_now: RootFrame, frame_next: RootFrame
) -> tuple[ComponentVector, WkbStepReport]:
    """Diagonal (WKB) power-gauge step for arbitrary order, homogeneous.

    Branch i is multiplied by its diagonal gain; the discarded off-diagonal
    magnitude is reported for error accounting.  Uses the closed-form inverse
    deliberately, so this path exercises the Vandermonde formula rather than
    a generic solve.
    """
    _frames_checked(Y, frame_now, frame_next)
    minv = vandermonde_inverse(frame_next)
    t = minv @ _powers_matrix(frame_now)
    gain = np.diag(t).copy()
    off = t - np.diag(gain)
    report = WkbStepReport(
        diagonal_gain=gain, offdiag_norm=float(np.max(np.abs(off))), k=Y.k + 1
    )
    return ComponentVector(k=Y.k + 1, y=gain * Y.y), report


@dataclass(frozen=True, eq=False)
class ComparisonTable:
    """Per-step values and relative errors of each method against the oracle."""

    k: np.ndarray
    oracle: np.ndarray
    values: dict[str, np.ndarray]
    rel_errors: dict[str, np.ndarray]

    def terminal_error(self, method: str) -> float:
        return float(self.rel_errors[method][-1])


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Terminal relative error per slow-variation parameter and method."""

    epsilons: np.ndarray
    terminal_errors: dict[str, np.ndarray]


class _Frames:
    """The root frames of one problem, computed on first use and shared by
    every driver of one :func:`compare_methods` call."""

    def __init__(self, spec: RecurrenceSpec, tol: float):
        self.spec = spec
        self.tol = tol
        self._all: list[RootFrame] | None = None

    def all(self) -> list[RootFrame]:
        """Frames for ``k_start .. k_start + horizon``."""
        if self._all is None:
            self._all = root_frames(self.spec, tol=self.tol)
        return self._all

    def first(self) -> RootFrame:
        """The frame at ``k_start``, without sampling the window for it."""
        if self._all is not None:
            return self._all[0]
        k = self.spec.k_start
        return root_frames(self.spec, k, k, tol=self.tol)[0]


def _run_direct(spec, initial, frames):
    return direct_solve(spec, initial).values[: spec.horizon + 1]


def _run_companion(spec, initial, frames):
    return companion_propagate(spec, initial).values[: spec.horizon + 1]


def _run_gauge_exact(spec, initial, frames):
    gauges = [power_gauge(f) for f in frames.all()]
    values, _ = propagate(spec, initial, gauges)
    return values


def _reconstruct_chain(spec, initial, frames, advance):
    frames = frames.all()
    Y = decompose_initial(np.asarray(initial, dtype=complex), power_gauge(frames[0]))
    values = np.empty(spec.horizon + 1, dtype=complex)
    values[0] = reconstruct(Y)
    for s in range(spec.horizon):
        Y = advance(Y, frames[s], frames[s + 1], s)
        values[s + 1] = reconstruct(Y)
    return values


def _run_explicit3(spec, initial, frames):
    def advance(Y, f_now, f_next, s):
        return explicit_step(Y, f_now, f_next, spec.forcing_value(spec.k_start + s))

    return _reconstruct_chain(spec, initial, frames, advance)


def _run_wkb3(spec, initial, frames):
    def advance(Y, f_now, f_next, s):
        return wkb3_step(Y, f_now, f_next, spec.forcing_value(spec.k_start + s))

    return _reconstruct_chain(spec, initial, frames, advance)


def _run_wkb_general(spec, initial, frames):
    def advance(Y, f_now, f_next, s):
        return wkb_step_general(Y, f_now, f_next)[0]

    return _reconstruct_chain(spec, initial, frames, advance)


def _run_riccati(spec, initial, frames):
    # Three independent scalar solutions seeded branchwise from the roots at
    # the start of the window; their ratio sequences decouple the system and
    # the solution telescopes into branch products (the running products of
    # :func:`product_solution`, accumulated once per branch).
    rho = frames.first().roots
    branches = []
    for n in range(3):
        window = np.array([1.0, rho[n], rho[n] ** 2], dtype=complex)
        traj = direct_solve(spec, window)
        branches.append(oracle_ratio_branch(traj, label=n))
    gauge0 = riccati_gauge(branches, spec.k_start)
    Y0 = decompose_initial(np.asarray(initial, dtype=complex), gauge0)
    growth = np.ones((3, spec.horizon + 1), dtype=complex)
    for n, branch in enumerate(branches):
        growth[n, 1:] = np.cumprod(branch.p1[: spec.horizon])
    return (Y0.y[:, None] * growth).sum(axis=0)


_DRIVERS = {
    "direct": _run_direct,
    "companion": _run_companion,
    "gauge-exact": _run_gauge_exact,
    "explicit3": _run_explicit3,
    "wkb3": _run_wkb3,
    "riccati": _run_riccati,
    "wkb-general": _run_wkb_general,
}


def check_methods(spec: RecurrenceSpec, methods) -> list[str]:
    """Validate a method list against the problem; returns the problems found."""
    issues = []
    for name in methods:
        if name not in _DRIVERS:
            issues.append(f"unknown method '{name}' (known: {', '.join(METHOD_NAMES)})")
            continue
        if name in THIRD_ORDER_METHODS and spec.order != 3:
            issues.append(f"method '{name}' requires order 3, spec has order {spec.order}")
        if name in HOMOGENEOUS_ONLY_METHODS and not spec.is_homogeneous():
            issues.append(f"method '{name}' requires zero forcing")
    return issues


def _relative_errors(values: np.ndarray, oracle: np.ndarray) -> np.ndarray:
    return np.abs(values - oracle) / np.maximum(np.abs(oracle), _REL_ERROR_FLOOR)


def compare_methods(
    spec: RecurrenceSpec,
    initial,
    methods,
    root_tol: float = DEFAULT_ROOT_TOL,
) -> ComparisonTable:
    """Run the requested methods and tabulate errors against the oracle.

    Method order is preserved (duplicates dropped); the oracle is always the
    scalar recursion.  The root frames are computed once, when the first
    method needing them runs, and shared by every root-based method
    (``riccati`` alone needs only the first frame).  Numerical failures
    inside a method are re-raised with the method name and the failing step
    index attached.
    """
    ordered = list(dict.fromkeys(methods))
    issues = check_methods(spec, ordered)
    if issues:
        raise ValueError("; ".join(issues))
    ks = np.arange(spec.k_start, spec.k_start + spec.horizon + 1)
    oracle = direct_solve(spec, initial).values[: spec.horizon + 1]
    frames = _Frames(spec, root_tol)
    values: dict[str, np.ndarray] = {}
    rel_errors: dict[str, np.ndarray] = {}
    for name in ordered:
        try:
            values[name] = _DRIVERS[name](spec, initial, frames)
        except RecurrenceError as exc:
            raise type(exc)(
                f"method '{name}': {exc.message}", k=exc.k, branch=exc.branch
            ) from exc
        rel_errors[name] = _relative_errors(values[name], oracle)
    return ComparisonTable(k=ks, oracle=oracle, values=values, rel_errors=rel_errors)


def epsilon_sweep(
    spec: RecurrenceSpec,
    initial,
    methods,
    epsilons,
    root_tol: float = DEFAULT_ROOT_TOL,
) -> SweepResult:
    """Terminal relative error of each method over a slow-variation sweep."""
    ordered = list(dict.fromkeys(methods))
    eps = np.asarray(list(epsilons), dtype=float)
    terminal: dict[str, list[float]] = {name: [] for name in ordered}
    for value in eps:
        table = compare_methods(spec.with_epsilon(float(value)), initial, ordered, root_tol)
        for name in ordered:
            terminal[name].append(table.terminal_error(name))
    return SweepResult(
        epsilons=eps,
        terminal_errors={name: np.asarray(v) for name, v in terminal.items()},
    )
