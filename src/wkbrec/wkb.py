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
slow-variation parameters, computing each distinct coefficient table once.
There each decomposed method is two arrays over the ``(H+1, N)`` table of
tracked roots, the step matrices ``T`` (or their diagonals) and the forcing
terms ``push``, for the chain ``Y[k+1] = T[k] Y[k] + push[k]``; the per-step
functions are its references.  Each method's setup, which gives its chain
inputs and the readout of its states, the root rows it reads and its
restrictions are one row of the method table.  All of a problem's methods
step in one chain loop, one batched product per index.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .core import RecurrenceSpec, _chain, _companion_chain, direct_solve
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
    _root_table,
    _spread,
    _vandermonde,
    power_gauge,
    vandermonde_inverse,
)
from .third_order import (
    _explicit3_matrix,
    _wkb3_gain,
    oracle_ratio_branch,
    riccati_gauge,
)

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
    Y: ComponentVector, frame_now: RootFrame, frame_next: RootFrame, f_k: complex = 0.0
) -> tuple[ComponentVector, WkbStepReport]:
    """Diagonal (WKB) power-gauge step for arbitrary order.

    Branch i is multiplied by its diagonal gain; the discarded off-diagonal
    magnitude is reported for error accounting.  The forcing ``f_k`` at the
    departure index enters exactly, as ``-f_k`` times the last column of the
    inverse.  Uses the closed-form inverse deliberately, so this path
    exercises the Vandermonde formula rather than a generic solve.
    """
    _frames_checked(Y, frame_now, frame_next)
    minv = vandermonde_inverse(frame_next)
    t = minv @ (frame_now.roots * _vandermonde(frame_now.roots))
    gain = np.diag(t).copy()
    off = t - np.diag(gain)
    report = WkbStepReport(
        diagonal_gain=gain, offdiag_norm=float(np.max(np.abs(off))), k=Y.k + 1
    )
    return ComponentVector(k=Y.k + 1, y=gain * Y.y - f_k * minv[:, -1]), report


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


class _Chained(NamedTuple):
    """One method's chain inputs, the start state ``Y0`` ``(N,)``, the step
    arrays ``T`` and the forcing terms ``push``, and ``read``, which turns
    the chain's states ``(H+1, N)`` into the method's values."""

    Y0: np.ndarray
    T: np.ndarray
    push: np.ndarray
    read: Callable[[np.ndarray], np.ndarray]


_branch_sum = partial(np.sum, axis=1)


def _power_gauge_chain(spec, initial, roots, kernel=None) -> _Chained:
    """A power-gauge method over the ``(H+1, N)`` root table: ``kernel(r, R)``
    gives the step matrices or diagonals from the roots at k and k+1 (the
    forcing is spread by :func:`_spread`); no kernel means the exact step."""
    ks = np.arange(spec.k_start, spec.k_start + spec.horizon + 1)
    gauge = GaugeSet(k=spec.k_start, g=_vandermonde(roots[0])[1:])
    Y0 = decompose_initial(np.asarray(initial, dtype=complex), gauge)
    f, forcing = spec.table[: spec.horizon, :-1], spec.table[: spec.horizon, -1]
    if kernel is None:
        T, push = _step_arrays(_vandermonde(roots), f, forcing, ks)
    else:
        T, push = kernel(roots[:-1], roots[1:]), -forcing[:, None] * _spread(roots[1:])
    return _Chained(Y0.y, T, push, _branch_sum)


def _companion_method_chain(spec, initial, roots) -> _Chained:
    X0, T, push = _companion_chain(spec, initial)
    # the initial window, then the newest value of each state
    return _Chained(X0, T, push, lambda X: np.concatenate((X0[::-1], X[1:, 0]))[: len(X)])


def _riccati_chain(spec, initial, roots) -> _Chained:
    # Scalar solutions seeded with the root powers rho_n**j at the window start
    # (the Vandermonde columns); their ratio sequences decouple the system, so each
    # component is multiplied by its branch ratio per step (as in product_solution).
    branches = [
        oracle_ratio_branch(direct_solve(spec, seed), label=n)
        for n, seed in enumerate(_vandermonde(roots[0]).T)
    ]
    gauge0 = riccati_gauge(branches, spec.k_start)
    Y0 = decompose_initial(np.asarray(initial, dtype=complex), gauge0)
    gains = np.stack([b.p1[: spec.horizon] for b in branches], axis=1)
    return _Chained(Y0.y, gains, np.zeros_like(gains), _branch_sum)


def _run_chains(chained: list[_Chained]) -> list[np.ndarray]:
    """Values of each method, from one chain that steps them all."""
    states = _chain(
        np.stack([c.Y0 for c in chained]), [c.T for c in chained], [c.push for c in chained]
    )
    return [c.read(Y) for c, Y in zip(chained, states)]


class _Method(NamedTuple):
    """One row of the method table: ``setup(spec, initial, roots)`` gives the
    method's chain inputs from the table of tracked roots (None for
    ``direct``, which reports the oracle itself), the root rows it reads
    (``"all"``, ``"first"`` or None) and its restrictions."""

    setup: Callable[..., _Chained] | None = None
    roots: str | None = None
    order3_only: bool = False
    homogeneous_only: bool = False

    def driver(self, spec, initial, roots) -> np.ndarray:
        """The method's values on its own: the chain with one member."""
        return _run_chains([self.setup(spec, initial, roots)])[0]


_METHODS = {
    "direct": _Method(),
    "companion": _Method(_companion_method_chain),
    "gauge-exact": _Method(_power_gauge_chain, "all"),
    "explicit3": _Method(
        partial(_power_gauge_chain, kernel=_explicit3_matrix), "all", order3_only=True
    ),
    "wkb3": _Method(partial(_power_gauge_chain, kernel=_wkb3_gain), "all", order3_only=True),
    "riccati": _Method(_riccati_chain, "first", homogeneous_only=True),
    "wkb-general": _Method(partial(_power_gauge_chain, kernel=_wkb_gain), "all"),
}
METHOD_NAMES = tuple(_METHODS)


def _check_finite(values: np.ndarray, ks: np.ndarray, what: str) -> None:
    """Raise :class:`Breakdown` at the first index of ``ks`` whose row of
    ``values`` (one value or one row per index) holds a non-finite entry."""
    bad = ~np.isfinite(values).reshape(len(ks), -1).all(axis=1)
    if bad.any():
        raise Breakdown(f"{what}: non-finite value", k=int(ks[np.argmax(bad)]))


def check_methods(spec: RecurrenceSpec, methods) -> list[str]:
    """Validate a method list against the problem; returns the problems found."""
    issues = []
    for name in methods:
        method = _METHODS.get(name)
        if method is None:
            issues.append(f"unknown method '{name}' (known: {', '.join(METHOD_NAMES)})")
            continue
        if method.order3_only and spec.order != 3:
            issues.append(f"method '{name}' requires order 3, spec has order {spec.order}")
        if method.homogeneous_only and not spec.is_homogeneous():
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
    recursion, which ``direct`` reports as is.  The root-based methods share
    the ``(H+1, N)`` table of tracked roots from one batched pass, built and
    checked for root separation when the first method reading every row
    sets up; ``riccati`` reads only row 0, of that table or of a one-row
    pass, so a root-pass failure names a method that reads the failing row.
    Every method but ``direct`` then steps on one chain, all methods in one
    loop.  Failures are re-raised with the method name and step index
    attached; a non-finite value in a method's output, in the oracle or in
    a method's relative error (a finite error past double range against a
    tiny oracle value) raises :class:`Breakdown` at the first index holding
    one.  The first failing method in the requested order is the one
    reported: a setup error is raised only after the methods before it
    stepped finitely.
    """
    ordered = list(dict.fromkeys(methods))
    issues = check_methods(spec, ordered)
    if issues:
        raise ValueError("; ".join(issues))
    ks = np.arange(spec.k_start, spec.k_start + spec.horizon + 1)
    roots = None  # the full table, built by the first method reading every row
    chained: dict[str, _Chained | None] = {}
    failure = None
    # overflow is reported below as a Breakdown at its first index
    with np.errstate(over="ignore", invalid="ignore"):
        oracle = direct_solve(spec, initial).values[: spec.horizon + 1]
        for name in ordered:
            method = _METHODS[name]
            try:
                if method.roots == "all" and roots is None:
                    roots, _ = _root_table(spec, spec.k_start, ks[-1], root_tol)
                    _check_separation(roots, ks)
                rows = roots
                if method.roots == "first" and roots is None:
                    rows, _ = _root_table(spec, spec.k_start, spec.k_start, root_tol)
                chained[name] = method.setup(spec, initial, rows) if method.setup else None
            except (RecurrenceError, ValueError) as exc:
                failure = name, exc  # raised once the methods before it stepped
                break
        values = dict.fromkeys(chained, oracle)  # direct reports the oracle
        stepped = {name: c for name, c in chained.items() if c is not None}
        if stepped:
            values.update(zip(stepped, _run_chains(list(stepped.values()))))
        for name, v in values.items():
            _check_finite(v, ks, f"method '{name}'")
        if failure is not None:
            name, exc = failure
            if isinstance(exc, RecurrenceError):
                raise type(exc)(
                    f"method '{name}': {exc.message}", k=exc.k, branch=exc.branch
                ) from exc
            raise exc
        _check_finite(oracle, ks, "oracle (scalar recursion)")
        rel_errors = {name: _relative_errors(v, oracle) for name, v in values.items()}
        for name, errs in rel_errors.items():
            _check_finite(errs, ks, f"method '{name}' relative error")
    return ComparisonTable(k=ks, oracle=oracle, values=values, rel_errors=rel_errors)


def epsilon_sweep(
    spec: RecurrenceSpec,
    initial,
    methods,
    epsilons,
    root_tol: float = DEFAULT_ROOT_TOL,
) -> SweepResult:
    """Terminal relative error of each method over a slow-variation sweep.

    A value whose coefficient table is bit-equal to one already computed
    (a repeated value, or a problem that does not depend on epsilon) reuses
    that :class:`ComparisonTable`: ``compare_methods`` is a deterministic
    function of the table, the window, the initial values, the methods and
    the tolerance, so the result is the same."""
    return _sweep(spec, initial, methods, epsilons, root_tol, {})


def _sweep(spec, initial, methods, epsilons, root_tol, tables: dict) -> SweepResult:
    """:func:`epsilon_sweep` that first looks each value up in ``tables``:
    the ``ComparisonTable`` of each problem with this spec's window, initial
    values, methods and tolerance, keyed by the bytes of its coefficient
    table.  ``run`` passes in the table of the scenario's own problem."""
    ordered = list(dict.fromkeys(methods))
    eps = np.asarray(list(epsilons), dtype=float)
    terminal: dict[str, list[float]] = {name: [] for name in ordered}
    for value in eps:
        problem = spec.with_epsilon(float(value))
        key = problem.table.tobytes()
        if key not in tables:
            tables[key] = compare_methods(problem, initial, ordered, root_tol)
        for name in ordered:
            terminal[name].append(tables[key].terminal_error(name))
    return SweepResult(
        epsilons=eps,
        terminal_errors={name: np.asarray(v) for name, v in terminal.items()},
    )
