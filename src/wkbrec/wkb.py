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
slow-variation parameters.  There each decomposed method is two arrays over
the ``(H+1, N)`` table of tracked roots, the step matrices ``T`` (or their
diagonals) and the forcing terms ``push``, fed to one chain
``Y[k+1] = T[k] Y[k] + push[k]``; the per-step functions are its references.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import RecurrenceSpec, companion_propagate, direct_solve
from .decomposition import (
    ComponentVector,
    GaugeSet,
    _residual_checked_solve,
    _step_arrays,
    build_M,
    decompose_initial,
)
from .errors import Breakdown, RecurrenceError
from .roots import (
    DEFAULT_ROOT_TOL,
    RootFrame,
    _check_separation,
    _differences,
    _frames_checked,
    _spread,
    _vandermonde,
    power_gauge,
    root_frames,
    vandermonde_inverse,
)
from .third_order import (
    _explicit3_matrix,
    _wkb3_gain,
    oracle_ratio_branch,
    riccati_gauge,
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
    rhs = (frame_now.roots * _vandermonde(frame_now.roots)) @ Y.y
    y = _residual_checked_solve(m[None], rhs[None], [Y.k + 1])
    return ComponentVector(k=Y.k + 1, y=y[0])


def _wkb_gain(r: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Diagonal power-gauge gains ``r[i] prod_{m != i} (r[i]-R[m]) / (R[i]-R[m])``
    for root sets ``r`` at k and ``R`` at k+1 (last axis)."""
    return r * (_differences(r, R, 1.0) / _differences(R, R, 1.0)).prod(axis=-1)


def wkb_diagonal_gain(frame_now: RootFrame, frame_next: RootFrame) -> np.ndarray:
    """Exact diagonal of the power-gauge one-step matrix.

    Entry i is ``sum_j Minv[i, j] * rho_now[i]**(j+1)`` with the Vandermonde
    inverse at k+1, computed as ``rho_now[i]`` times the i-th Lagrange
    cardinal polynomial on the k+1 roots at ``rho_now[i]``; it reduces to
    ``rho[i]`` when the frames coincide."""
    _check_separation(frame_next.roots[None], [frame_next.k])
    return _wkb_gain(frame_now.roots, frame_next.roots)


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
    t = minv @ (frame_now.roots * _vandermonde(frame_now.roots))
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


def _chain(Y0: np.ndarray, T: np.ndarray, push: np.ndarray) -> np.ndarray:
    """Sums ``y[s]`` of the chain ``Y[s+1] = T[s] Y[s] + push[s]`` from ``Y0``;
    ``T`` holds the step matrices ``(H, N, N)`` or their diagonals ``(H, N)``."""
    if T.ndim == 2:
        T = T[..., None] * np.eye(T.shape[1])
    Y = np.empty((len(T) + 1, len(Y0)), dtype=complex)
    Y[0] = Y0
    for s in range(len(T)):
        Y[s + 1] = T[s] @ Y[s] + push[s]
    return Y.sum(axis=1)


def _run_power_gauge(spec, initial, roots, kernel=None):
    """A power-gauge method over the ``(H+1, N)`` root table: ``kernel(r, R)``
    gives the step matrices or diagonals from the roots at k and k+1 (the
    forcing is spread by :func:`_spread`); no kernel means the exact step."""
    ks = np.arange(spec.k_start, spec.k_start + spec.horizon + 1)
    _check_separation(roots, ks)
    gauge = GaugeSet(k=spec.k_start, g=_vandermonde(roots[0])[1:])
    Y0 = decompose_initial(np.asarray(initial, dtype=complex), gauge)
    forcing = np.array([spec.forcing_value(k) for k in ks[:-1]], dtype=complex)
    if kernel is None:
        f = np.array([spec.coeff_array(k) for k in ks[:-1]], dtype=complex)
        T, push = _step_arrays(_vandermonde(roots), f, forcing, ks)
    else:
        T, push = kernel(roots[:-1], roots[1:]), -forcing[:, None] * _spread(roots[1:])
    return _chain(Y0.y, T, push)


def _run_companion(spec, initial, roots):
    return companion_propagate(spec, initial).values[: spec.horizon + 1]


def _run_riccati(spec, initial, roots):
    # Scalar solutions seeded from each root at the window start; their ratio
    # sequences decouple the system, so each component is multiplied by its
    # branch ratio per step (the running products of product_solution).
    branches = [
        oracle_ratio_branch(direct_solve(spec, [1.0, rho, rho**2]), label=n)
        for n, rho in enumerate(roots[0])
    ]
    gauge0 = riccati_gauge(branches, spec.k_start)
    Y0 = decompose_initial(np.asarray(initial, dtype=complex), gauge0)
    gains = np.stack([b.p1[: spec.horizon] for b in branches], axis=1)
    return _chain(Y0.y, gains, np.zeros_like(gains))


# ``direct`` is the oracle itself; every other method maps to a driver
# ``(spec, initial, roots) -> values`` over the table of tracked roots.
_DRIVERS = {
    "companion": _run_companion,
    "gauge-exact": _run_power_gauge,
    "explicit3": partial(_run_power_gauge, kernel=_explicit3_matrix),
    "wkb3": partial(_run_power_gauge, kernel=_wkb3_gain),
    "riccati": _run_riccati,
    "wkb-general": partial(_run_power_gauge, kernel=_wkb_gain),
}
# Methods that step through the roots of every index; riccati needs only
# the first index.
_FRAME_METHODS = frozenset({"gauge-exact", "explicit3", "wkb3", "wkb-general"})


def _check_finite(values: np.ndarray, ks: np.ndarray, what: str) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        raise Breakdown(f"{what}: non-finite value", k=int(ks[np.argmax(bad)]))


def check_methods(spec: RecurrenceSpec, methods) -> list[str]:
    """Validate a method list against the problem; returns the problems found."""
    issues = []
    for name in methods:
        if name not in METHOD_NAMES:
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

    Method order is preserved (duplicates dropped); the oracle is the scalar
    recursion, which ``direct`` reports as is.  The tracked roots are found
    once, when the first method needing them runs (``riccati`` alone needs
    only the first index).  Failures are re-raised with the method name and
    step index attached; a non-finite value in a method's output, or in the
    oracle, raises :class:`Breakdown` at the first index holding one.
    """
    ordered = list(dict.fromkeys(methods))
    issues = check_methods(spec, ordered)
    if issues:
        raise ValueError("; ".join(issues))
    ks = np.arange(spec.k_start, spec.k_start + spec.horizon + 1)
    oracle = direct_solve(spec, initial).values[: spec.horizon + 1]
    roots = None
    values: dict[str, np.ndarray] = {}
    for name in ordered:
        try:
            if roots is None and (name in _FRAME_METHODS or name == "riccati"):
                span = () if _FRAME_METHODS.intersection(ordered) else (spec.k_start,) * 2
                roots = np.array([f.roots for f in root_frames(spec, *span, tol=root_tol)])
            driver = _DRIVERS.get(name)
            values[name] = driver(spec, initial, roots) if driver else oracle
        except RecurrenceError as exc:
            raise type(exc)(
                f"method '{name}': {exc.message}", k=exc.k, branch=exc.branch
            ) from exc
        _check_finite(values[name], ks, f"method '{name}'")
    _check_finite(oracle, ks, "oracle (scalar recursion)")
    rel_errors = {name: _relative_errors(v, oracle) for name, v in values.items()}
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
