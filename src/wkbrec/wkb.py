"""General-order propagation in the characteristic power gauge.

Under the power gauge the left-hand step matrix is the Vandermonde matrix of
the roots ``R`` at k+1, and the right-hand one has column n equal to
``(r[n], r[n]**2, ..., r[n]**N)`` for the roots ``r`` at k, less ``p_k(r[n])``
in row N (p_k the characteristic polynomial at k).  So the one-step matrix
has the closed (Lagrange) form ``T[i, j] = s[i] (r[j] prod_{m != i} (r[j] -
R[m]) - p_k(r[j]))``, ``s`` the last column of the inverse; the array path
builds it so, and :func:`exact_step_general` solves the step instead.  Its
diagonal without the p_k term is the slowly-varying (WKB) gain of
:func:`wkb_step_general`, for arbitrary order.

:func:`compare_methods` runs any subset of the named propagation methods on
one problem and tabulates per-step relative errors against the scalar
recursion oracle; :func:`epsilon_sweep` repeats that over a list of
slow-variation parameters, computing each distinct coefficient table once.
There each decomposed method is two arrays over the ``(H+1, N)`` table of
tracked roots, the step matrices ``T`` (or their diagonals) and the forcing
terms ``push``, for the chain ``Y[k+1] = T[k] Y[k] + push[k]``; the per-step
functions are its references.  Each method's setup, which gives its chain
inputs and the readout of its states, the root rows it reads and its
restrictions are one row of the method table.

Several problems of one order and horizon (a run and its sweep) are
computed as one batch: one root pass over all their rows, one scalar
recursion loop for their oracles and riccati's seed solutions, each method
set up for all problems at once (method by method, over arrays with a
leading problem axis; a setup gives one verdict per problem and computes a
failing problem's rows without reading them), one chain loop for all
methods of all problems, one batched product per index, and one finiteness
and relative-error check of all their tables.
:func:`compare_methods` is the batch of one problem.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .core import RecurrenceSpec, _chain, _companion_chain, _initial, _recur
from .decomposition import (
    ComponentVector,
    _check_admissible,
    _decompose,
    _first_failures,
    _solve_one,
    build_M,
)
from .errors import Breakdown, DegenerateRoots, RecurrenceError
from .roots import (
    DEFAULT_ROOT_TOL,
    RootFrame,
    _check_separation,
    _descending,
    _differences,
    _frames_checked,
    _polyval,
    _root_tables,
    _spread,
    _vandermonde,
    power_gauge,
    vandermonde_inverse,
)
from .third_order import (
    _explicit3_matrix,
    _ratio_gauge,
    _ratios,
    _wkb3_gain,
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
    return ComponentVector(k=Y.k + 1, y=_solve_one(m, rhs, Y.k + 1))


def _wkb_gain(r: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Diagonal power-gauge gains ``r[i] prod_{m != i} (r[i]-R[m]) / (R[i]-R[m])``
    for root sets ``r`` at k and ``R`` at k+1 (last axis)."""
    return r * (_differences(r, R, 1.0) / _differences(R, R, 1.0)).prod(axis=-1)


def _exact_matrix(r: np.ndarray, R: np.ndarray, f: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """Exact power-gauge steps ``M[k+1]^-1 H[k+1]`` for any distinct ``R``, in
    Lagrange form (module docstring): no division, so ``r == R`` stays finite."""
    d = r[..., None, :] - R[..., :, None]  # d[m, j] = r[j] - R[m]
    T = np.ones_like(d)
    np.cumprod(d[..., :-1, :], axis=-2, out=T[..., 1:, :])  # m < i
    np.cumprod(d[..., :0:-1, :], axis=-2, out=d[..., :0:-1, :])
    T[..., :-1, :] *= d[..., 1:, :]  # m > i
    T *= r[..., None, :]
    T -= _polyval(_descending(f), r)[..., None, :]
    T *= spread[..., :, None]
    return T


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


@dataclass(eq=False)
class _Problem:
    """One problem of a batch and what its methods share: the labelled root
    rows of the batch's root pass before the first failing one, with that
    failure (None if every row it was asked for passed), the pass's split of
    the initial values under the power gauge of row 0 (``start``), the
    oracle and riccati's seed trajectories ``(N, H+N)`` from the batch's one
    recursion loop, and the :func:`_spread` of rows 1 .. H.  Then each
    method's chain inputs (None for ``direct``), up to the first method that
    fails, at its root rows or in its setup, with that failure (charged by
    :func:`_set_up` alone)."""

    spec: RecurrenceSpec
    initial: np.ndarray
    roots: np.ndarray
    root_error: Exception | None = None
    start: np.ndarray | None = None
    oracle: np.ndarray | None = None
    seeds: np.ndarray | None = None
    chained: dict[str, _Chained | None] = field(default_factory=dict)
    failure: tuple[str, Exception] | None = None
    values: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def of(cls, spec: RecurrenceSpec, initial, ordered) -> "_Problem":
        """A problem of a batch running the methods ``ordered``, once they
        are checked against it and the initial values against its order."""
        issues = check_methods(spec, ordered)
        if issues:
            raise ValueError("; ".join(issues))
        return cls(spec, _initial(initial, spec.order), np.empty((0, spec.order)))

    @cached_property
    def spread(self) -> np.ndarray:
        return _spread(self.roots[1:])

    @property
    def ks(self) -> np.ndarray:
        return np.arange(self.spec.k_start, self.spec.k_start + self.spec.horizon + 1)

    def table(self, rel_errors, bad, bad_errors, ordered) -> ComparisonTable:
        """The comparison table of the set-up methods' values, from this
        problem's rows of :func:`_tables`: the relative errors ``(methods,
        H+1)`` of the methods ``ordered`` and the first non-finite position
        (-1 if none) of the oracle and each method's values (``bad``) and of
        each method's relative errors (``bad_errors``).  The first failing
        check raises: a set-up method's values in order, the setup failure,
        the oracle, a relative error."""
        ks = self.ks
        set_up = [(j, name) for j, name in enumerate(ordered) if name in self.values]
        for j, name in set_up:
            _check_finite_at(bad[1 + j], ks, f"method '{name}'")
        if self.failure is not None:
            name, exc = self.failure
            if isinstance(exc, RecurrenceError):
                raise type(exc)(
                    f"method '{name}': {exc.message}", k=exc.k, branch=exc.branch
                ) from exc
            raise exc
        _check_finite_at(bad[0], ks, "oracle (scalar recursion)")
        for j, name in set_up:
            _check_finite_at(bad_errors[j], ks, f"method '{name}' relative error")
        rel = {name: rel_errors[j] for j, name in set_up}
        return ComparisonTable(k=ks, oracle=self.oracle, values=self.values, rel_errors=rel)


_branch_sum = partial(np.sum, axis=1)


def _power_gauge_chain(problems: list[_Problem], kernel=None):
    """A power-gauge method over the ``(P, H+1, N)`` root tables of the
    problems, from their ``start``: ``kernel(r, R)`` gives the step matrices
    or diagonals from the roots at k and k+1, and the forcing is spread by
    ``spread``.  No kernel means the exact step, :func:`_exact_matrix` (its
    diagonal less ``-spread[i] p_k(r[i])`` is ``wkb-general``'s gain), which
    takes the admissibility verdict of its Vandermonde matrices."""
    horizon = problems[0].spec.horizon
    roots = np.stack([p.roots for p in problems])
    table = np.stack([p.spec.table[:horizon] for p in problems])
    spread = np.stack([p.spread for p in problems])
    failures = [None] * len(problems)
    if kernel is None:
        failures = _check_admissible(_vandermonde(roots), np.stack([p.ks for p in problems]))
        kernel = partial(_exact_matrix, f=table[..., :-1], spread=spread)
    T, push = kernel(roots[:, :-1], roots[:, 1:]), -table[..., -1:] * spread
    return [_Chained(p.start, t, q, _branch_sum) for p, t, q in zip(problems, T, push)], failures


def _explicit3_chain(problems: list[_Problem]):
    spread = np.stack([p.spread for p in problems])
    return _power_gauge_chain(problems, partial(_explicit3_matrix, spread=spread))


def _no_chain(problems: list[_Problem]):
    return [None] * len(problems), [None] * len(problems)


def _companion_method_chain(problems: list[_Problem]):
    return [_companion_one(p) for p in problems], [None] * len(problems)


def _companion_one(problem: _Problem) -> _Chained:
    X0, T, push = _companion_chain(problem.spec, problem.initial)
    # the initial window, then the newest value of each state
    return _Chained(X0, T, push, lambda X: np.concatenate((X0[::-1], X[1:, 0]))[: len(X)])


def _riccati_seeds(roots: np.ndarray) -> np.ndarray:
    """Start values of riccati's N scalar solutions: the root powers
    ``rho_n**j`` at the window start, the columns of the Vandermonde matrix."""
    return _vandermonde(roots[0]).T


def _riccati_chain(problems: list[_Problem]):
    # The ratio sequences of the seeded solutions decouple the system, so each
    # component is multiplied by its branch ratio per step (as in product_solution).
    n, horizon = problems[0].spec.order, problems[0].spec.horizon
    k_starts = [p.spec.k_start for p in problems]
    ratios, failures = _ratios(np.stack([p.seeds for p in problems]), k_starts, range(n))
    ones = np.ones((len(ratios), 1, n), dtype=complex)
    gauges = np.concatenate([ones, _ratio_gauge(ratios[..., : n - 1])], axis=1)
    Y0, later = _decompose(gauges, np.stack([p.initial for p in problems]), k_starts)
    gains = ratios[..., :horizon].swapaxes(1, 2)
    chained = [_Chained(y, g, np.zeros_like(g), _branch_sum) for y, g in zip(Y0, gains)]
    return chained, _first_failures(failures, later)


def _recurse(problems: list[_Problem], seeded: bool) -> None:
    """Each problem's oracle and, if ``seeded``, riccati's seed trajectories
    of each problem whose root row 0 passed, from one :func:`_recur` loop."""
    starts = [
        [p.initial, *_riccati_seeds(p.roots)] if seeded and len(p.roots) else [p.initial]
        for p in problems
    ]
    horizon = problems[0].spec.horizon
    tables = [p.spec.table[:horizon] for p, s in zip(problems, starts) for _ in s]
    y = _recur(tables, np.array([start for s in starts for start in s]))
    first = 0
    for p, s in zip(problems, starts):
        p.oracle, p.seeds = y[first, : horizon + 1], y[first + 1 : first + len(s)]
        first += len(s)


def _set_up(problems: list[_Problem], ordered) -> None:
    """Each method's chain inputs for all problems at once, method by
    method in the order ``ordered``.  A problem stops at its first failing
    method, which is charged here with its failure: the root rows the
    method reads, then its setup's verdict."""
    for name in ordered:
        method = _METHODS[name]
        rows = problems[0].spec.horizon + 1 if method.roots else int(method.seeded)
        for p in problems:
            if p.failure is None and len(p.roots) < rows:
                p.failure = name, p.root_error
        live = [p for p in problems if p.failure is None]
        if not live:
            return
        chained, failures = method.setup(live)
        for p, c, exc in zip(live, chained, failures):
            if exc is None:
                p.chained[name] = c
            else:
                p.failure = name, exc


def _run_chains(chained: list[_Chained]) -> list[np.ndarray]:
    """Values of each method, from one chain that steps them all."""
    states = _chain(
        np.stack([c.Y0 for c in chained]), [c.T for c in chained], [c.push for c in chained]
    )
    return [c.read(Y) for c, Y in zip(chained, states)]


class _Method(NamedTuple):
    """One row of the method table: ``setup(problems)`` gives the method's
    chain inputs for a list of problems and one verdict per problem (None
    where it passes), both in the order of the list (no chain for
    ``direct``, which reports the oracle itself); whether it reads every row
    of the root table; whether it reads riccati's seed recursions (which
    start from root row 0); and its restrictions."""

    setup: Callable[[list[_Problem]], tuple[list[_Chained | None], list]]
    roots: bool = False
    seeded: bool = False
    order3_only: bool = False
    homogeneous_only: bool = False


_METHODS = {
    "direct": _Method(_no_chain),
    "companion": _Method(_companion_method_chain),
    "gauge-exact": _Method(_power_gauge_chain, True),
    "explicit3": _Method(_explicit3_chain, True, order3_only=True),
    "wkb3": _Method(partial(_power_gauge_chain, kernel=_wkb3_gain), True, order3_only=True),
    "riccati": _Method(_riccati_chain, seeded=True, homogeneous_only=True),
    "wkb-general": _Method(partial(_power_gauge_chain, kernel=_wkb_gain), True),
}
METHOD_NAMES = tuple(_METHODS)


def _first(bad: np.ndarray) -> np.ndarray:
    """Per row (last axis) of the mask ``bad``: its first flagged position, or -1."""
    return np.where(bad.any(axis=-1), bad.argmax(axis=-1), -1)


def _check_finite_at(t, ks: np.ndarray, what: str) -> None:
    """Raise :class:`Breakdown` at ``ks[t]`` unless ``t`` is -1."""
    if t >= 0:
        raise Breakdown(f"{what}: non-finite value", k=int(ks[t]))


def _check_finite(values: np.ndarray, ks: np.ndarray, what: str) -> None:
    """Raise :class:`Breakdown` at the first index of ``ks`` whose row of
    ``values`` (one value or one row per index) holds a non-finite entry."""
    _check_finite_at(_first(~np.isfinite(values).reshape(len(ks), -1).all(axis=1)), ks, what)


def _tables(problems: list[_Problem], ordered) -> list:
    """Each problem's :class:`ComparisonTable`, or the error of its first
    failing check (see :meth:`_Problem.table`).  The oracles and the values
    of the methods ``ordered`` are stacked ``(P, 1 + methods, H+1)`` (a
    method a problem did not set up holds its oracle), and checked for
    finiteness and turned into relative errors at once."""
    stacked = np.stack(
        [[p.oracle, *(p.values.get(name, p.oracle) for name in ordered)] for p in problems]
    )
    rel_errors = _relative_errors(stacked[:, 1:], stacked[:, :1])
    bad, bad_errors = _first(~np.isfinite(stacked)), _first(~np.isfinite(rel_errors))
    return [
        _outcome(p.table, *rows, ordered)
        for p, *rows in zip(problems, rel_errors, bad, bad_errors)
    ]


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
    the ``(H+1, N)`` table of tracked roots from one batched pass, checked
    for root separation once; ``riccati`` reads only its row 0 (a one-row
    pass if no other method reads the table), so a root-pass failure at
    row 0 names the first method reading any row, and one past row 0 the
    first method reading every row.  Every method but ``direct`` then steps
    on one chain, all methods in one loop.  Failures are re-raised with the
    method name and step index attached; a non-finite value in a method's
    output, in the oracle or in a method's relative error (a finite error
    past double range against a tiny oracle value) raises
    :class:`Breakdown` at the first index holding one.  The first failing
    method in the requested order is the one reported: a setup error is
    raised only after the methods before it stepped finitely.

    This is the one-problem view of :func:`_compare_batch`.
    """
    return _compare_batch([spec], initial, methods, root_tol)[0]


def _compare_batch(specs, initial, methods, root_tol: float = DEFAULT_ROOT_TOL) -> list:
    """:func:`compare_methods` of each problem of ``specs``, which share one
    order and horizon, computed as one batch (see :func:`_outcomes`).

    Returns the tables in the order of ``specs``.  The failure of the first
    failing problem in that order is raised, so the result is that of
    ``compare_methods`` called on each problem in turn.
    """
    outcomes = _outcomes(specs, initial, methods, root_tol)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def _outcomes(specs, initial, methods, root_tol: float) -> list:
    """Per problem of ``specs``, in order, its :class:`ComparisonTable` or
    the error ``compare_methods`` raises on it alone, from one batch: one
    root pass over all their rows, one recursion loop for all oracles and
    riccati seeds, each method set up for all problems at once, in the
    requested order (:func:`_set_up`), one chain for all methods of all
    problems, and the checks of all tables at once (:func:`_tables`).  Each
    failure is charged to the problem (and method) that read it.  A problem
    whose window start and coefficient table are bit-equal to an earlier
    one's reuses its outcome: that is a deterministic function of them, the
    initial values, the methods and the tolerance."""
    if len({(spec.order, spec.horizon) for spec in specs}) > 1:
        raise ValueError("a batch takes problems of one order and horizon")
    ordered = list(dict.fromkeys(methods))
    keys = [(spec.k_start, spec.table.tobytes()) for spec in specs]
    problems: dict = {}
    for key, spec in zip(keys, specs):
        if key not in problems:
            problems[key] = _outcome(_Problem.of, spec, initial, ordered)
    live = [p for p in problems.values() if isinstance(p, _Problem)]
    # overflow is reported below as a Breakdown at its first index
    with np.errstate(over="ignore", invalid="ignore"):
        if live:
            _root_pass(live, ordered, root_tol)
            _recurse(live, any(_METHODS[name].seeded for name in ordered))
            _set_up(live, ordered)
            for p in live:
                p.values = dict.fromkeys(p.chained, p.oracle)  # direct reports the oracle
            stepped = [(p, name) for p in live for name, c in p.chained.items() if c is not None]
            if stepped:
                states = _run_chains([p.chained[name] for p, name in stepped])
                for (p, name), values in zip(stepped, states):
                    p.values[name] = values
        tables = iter(_tables(live, ordered) if live else [])
    results = {key: next(tables) if isinstance(p, _Problem) else p for key, p in problems.items()}
    return [results[key] for key in keys]


def _outcome(call, *args):
    """``call(*args)``, or the library error it raises."""
    try:
        return call(*args)
    except (RecurrenceError, ValueError) as exc:
        return exc


def _root_pass(problems: list[_Problem], ordered, tol: float) -> None:
    """Give each problem the root rows its methods read, from one pass: all
    rows ``k_start .. k_start + H``, checked for separation, if a method
    reads them all, else row 0 for riccati's seeds.  Each problem whose rows
    all pass gets its ``start`` from one batched split; a failing check or
    split keeps row 0 and is the problem's root error."""
    readers = [_METHODS[name] for name in ordered]
    if not any(m.roots or m.seeded for m in readers):
        return
    last = problems[0].spec.horizon if any(m.roots for m in readers) else 0
    spans = [(p.spec, p.spec.k_start, p.spec.k_start + last) for p in problems]
    for p, ((roots, _), error) in zip(problems, _root_tables(spans, tol)):
        p.roots, p.root_error = roots, error
        if last:
            try:
                _check_separation(roots, p.ks)
            except DegenerateRoots as exc:
                p.roots, p.root_error = roots[:1], exc
    whole = [p for p in problems if last and p.root_error is None]
    if whole:
        starts, failures = _decompose(
            _vandermonde(np.stack([p.roots[0] for p in whole])),
            np.stack([p.initial for p in whole]),
            [p.spec.k_start for p in whole],
        )
        for p, start, exc in zip(whole, starts, failures):
            p.start = start
            if exc is not None:
                p.roots, p.root_error = p.roots[:1], exc


def epsilon_sweep(
    spec: RecurrenceSpec,
    initial,
    methods,
    epsilons,
    root_tol: float = DEFAULT_ROOT_TOL,
) -> SweepResult:
    """Terminal relative error of each method over a slow-variation sweep:
    the problems ``spec.with_epsilon(e)``, built first, then compared as one
    batch (:func:`_compare_batch`, which computes each distinct coefficient
    table once)."""
    eps = np.asarray(list(epsilons), dtype=float)
    problems = [spec.with_epsilon(float(value)) for value in eps]
    return _sweep_result(eps, _compare_batch(problems, initial, methods, root_tol), methods)


def _sweep_result(epsilons, tables: list[ComparisonTable], methods) -> SweepResult:
    """The terminal errors of the tables of a sweep's problems, in order."""
    names = dict.fromkeys(methods)
    return SweepResult(
        epsilons=np.asarray(epsilons, dtype=float),
        terminal_errors={
            name: np.asarray([t.terminal_error(name) for t in tables]) for name in names
        },
    )
