"""Sum decomposition of a scalar recurrence into N coupled components.

The scalar solution is split as ``y[k] = sum_n y[n,k]`` and the N-1 shifted
values are distributed over the components by gauge rows:

    y[k+m] = sum_n g[m,n,k] y[n,k],    m = 1 .. N-1.

Stacking a row of ones on top of the gauge rows gives the square matrix that
must be nonsingular for the split to be unique.  One index step is then the
exact linear system

    M[k+1] Y[k+1] = H[k+1] Y[k] + (0, ..., 0, -f(k))

where M[k+1] carries the gauge at k+1, the first N-1 rows of H[k+1] carry the
gauge at k, and the last row of H folds the recurrence coefficients through
the gauge.  The transformation is exact for every admissible gauge; the gauge
only changes how the solution is split, never the reconstructed sum.

Linear systems are solved by partial-pivot elimination
(``numpy.linalg.solve``), never by an explicit inverse, for a stack of
indices at once: the step matrices and forcing terms of a whole run come
from one solve, and every solve is residual-checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MAX_ORDER, MIN_ORDER, RecurrenceSpec
from .errors import SingularGauge

# |det| relative to the product of column norms (the Hadamard bound), a
# scale-free measure in [0, 1]; the row of ones keeps every column norm at
# least one.  Scaling by the product rather than a power of the largest norm
# keeps well-conditioned gauges with very unequal column sizes admissible.
ADMISSIBILITY_THRESHOLD = 1e-12

# Relative residual allowed on every per-step linear solve.
SOLVE_RESIDUAL_TOL = 1e-10

_TINY = np.finfo(float).tiny


@dataclass(frozen=True, eq=False)
class GaugeSet:
    """Gauge rows at one index: ``g[m-1, n-1] = g[m,n,k]``, shape (N-1, N)."""

    k: int
    g: np.ndarray

    def __post_init__(self):
        g = np.array(self.g, dtype=complex)
        if g.ndim != 2 or g.shape[0] != g.shape[1] - 1:
            raise ValueError(f"gauge rows must have shape (N-1, N), got {g.shape}")
        if not MIN_ORDER <= g.shape[1] <= MAX_ORDER:
            raise ValueError(f"order must be in [{MIN_ORDER}, {MAX_ORDER}]")
        object.__setattr__(self, "g", g)

    @property
    def order(self) -> int:
        return self.g.shape[1]

    def stacked(self) -> np.ndarray:
        """Row of ones stacked on the gauge rows (the M-shaped matrix)."""
        return np.vstack([np.ones(self.order, dtype=complex), self.g])

    def admissibility(self) -> float:
        """``|det|`` of the stacked matrix relative to its Hadamard bound."""
        return float(_admissibility(self.stacked()))


@dataclass(frozen=True, eq=False)
class ComponentVector:
    """Decomposed state ``Y[k] = (y[1,k], ..., y[N,k])``."""

    k: int
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", np.array(self.y, dtype=complex))

    @property
    def order(self) -> int:
        return len(self.y)


def _admissibility(a: np.ndarray) -> np.ndarray:
    """``|det|`` of each stacked matrix (last two axes) over its Hadamard bound."""
    return np.abs(np.linalg.det(a)) / np.prod(np.linalg.norm(a, axis=-2), axis=-1)


def _verdicts(bad: np.ndarray, ks, error) -> np.ndarray:
    """Per group p (leading axis) of the mask ``bad`` ``(P, W)``: a
    :class:`SingularGauge` with message ``error(p, t)`` at ``ks[p][t]``, t
    its lowest flagged position, or None if nothing in the group is flagged."""
    failures = np.full(len(bad), None)
    for p in np.flatnonzero(bad.any(axis=1)):
        t = int(np.argmax(bad[p]))
        failures[p] = SingularGauge(error(p, t), k=int(ks[p][t]))
    return failures


def _first_failures(failures: np.ndarray, later: np.ndarray) -> np.ndarray:
    """Per group, its failure in ``failures``, else its failure in ``later``."""
    return np.where(np.equal(failures, None), later, failures)


def _raised(failures: np.ndarray) -> None:
    """Raise the failure of a group of one."""
    [failure] = failures
    if failure is not None:
        raise failure


def _check_admissible(a: np.ndarray, ks) -> np.ndarray:
    """Per group of the stacked gauge matrices ``a`` ``(P, W, N, N)`` at
    ``ks`` ``(P, W)``: the :class:`SingularGauge` of its lowest index whose
    matrix is not admissible, or None."""
    adm = _admissibility(a)
    return _verdicts(
        ~(adm > ADMISSIBILITY_THRESHOLD),
        ks,
        lambda p, t: f"gauge admissibility {adm[p, t]:.3e} below threshold",
    )


def _residual_checked_solve(a: np.ndarray, b: np.ndarray, ks):
    """Solve ``a[p, t] x[p, t] = b[p, t]``, ``a`` ``(P, W, N, N)``, ``b``
    ``(P, W, N[, M])``.  Returns ``x`` and per group p the
    :class:`SingularGauge` of its lowest index of ``ks[p]`` whose solve fails
    or leaves a residual above ``SOLVE_RESIDUAL_TOL * max|b[p, t]|``, or None."""
    vector = b.ndim == a.ndim - 1
    b = b[..., None] if vector else b
    singular = np.zeros(a.shape[:2], dtype=bool)
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:  # one system at a time: each failing one is marked
        x = np.zeros(b.shape, dtype=complex)
        for i in np.ndindex(singular.shape):
            try:
                x[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError as exc:
                singular[i], failed = True, f"linear solve failed: {exc}"
    residual = np.abs(a @ x - b).max(axis=(-2, -1))
    scale = np.maximum(np.abs(b).max(axis=(-2, -1)), _TINY)
    failures = _verdicts(
        singular | (residual > SOLVE_RESIDUAL_TOL * scale),
        ks,
        lambda p, t: failed
        if singular[p, t]
        else f"solve residual {residual[p, t] / scale[p, t]:.3e} above {SOLVE_RESIDUAL_TOL:g}",
    )
    return (x[..., 0] if vector else x), failures


def _decompose(G: np.ndarray, b: np.ndarray, ks):
    """:func:`decompose_initial` for P problems: the components ``(P, N)``
    of the windows ``b`` ``(P, N)`` under the stacked gauge matrices ``G``
    ``(P, N, N)`` at ``ks`` ``(P,)``, and per problem its admissibility
    failure, else its solve failure, else None."""
    ks = np.reshape(ks, (-1, 1))
    failures = _check_admissible(G[:, None], ks)
    y, solve_failures = _residual_checked_solve(G[:, None], b[:, None], ks)
    return y[:, 0], _first_failures(failures, solve_failures)


def _fold(g: np.ndarray, f: np.ndarray) -> np.ndarray:
    """:func:`build_H` for stacks: ``g`` ``(..., N-1, N)``, ``f`` ``(..., N)``."""
    last = -(f[..., None, 1:] @ g + f[..., None, :1])
    return np.concatenate([g, last], axis=-2)


def _step_arrays(G: np.ndarray, f: np.ndarray, forcing: np.ndarray, ks):
    """``T`` ``(P, H, N, N)`` and ``push`` ``(P, H, N)`` of the exact steps
    ``Y[k+1] = T[k] Y[k] + push[k]`` of P problems, from their stacked gauge
    matrices ``G`` ``(P, H+1, N, N)`` at ``ks`` ``(P, H+1)`` and their
    coefficients ``f`` ``(P, H, N)`` and forcing ``(P, H)`` at ``ks[:, :-1]``:
    one solve ``M [T | c] = [H | e_N]``, and ``push = -f(k) c``.  The third
    result holds per problem its admissibility failure, else its solve
    failure, else None."""
    n = G.shape[-1]
    ks = np.asarray(ks)
    failures = _check_admissible(G, ks)
    e_n = np.zeros(f.shape + (1,), dtype=complex)
    e_n[..., -1, :] = 1.0
    rhs = np.concatenate([_fold(G[:, :-1, 1:], f), e_n], axis=-1)
    x, solve_failures = _residual_checked_solve(G[:, 1:], rhs, ks[:, 1:])
    return x[..., :n], -forcing[..., None] * x[..., n], _first_failures(failures, solve_failures)


def _solve_one(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """``a x = b`` at index ``k`` by the residual-checked solve, raising its verdict."""
    x, failures = _residual_checked_solve(a[None, None], b[None, None], [[k]])
    _raised(failures)
    return x[0, 0]


def build_M(gauge_next: GaugeSet) -> np.ndarray:
    """Left-hand matrix of the step: ones row, then the gauge rows at k+1."""
    a = gauge_next.stacked()
    _raised(_check_admissible(a[None, None], [[gauge_next.k]]))
    return a


def build_H(gauge_now: GaugeSet, coeffs) -> np.ndarray:
    """Right-hand matrix of the step.

    Rows 1..N-1 copy the gauge rows at k.  The last row is

        A[n] = -(sum_{m=1}^{N-1} f[m] g[m,n,k] + f[0])

    which reproduces y[k+N] from the recurrence once the shifted values are
    expressed through the gauge.  With the power gauge of characteristic
    roots it collapses to the N-th powers of the roots.
    """
    f = np.asarray(coeffs, dtype=complex)
    n = gauge_now.order
    if f.shape != (n,):
        raise ValueError(f"expected {n} coefficients, got {f.shape}")
    return _fold(gauge_now.g, f)


def decompose_initial(scalar_values, gauge: GaugeSet) -> ComponentVector:
    """Split a scalar window ``(y[k0], ..., y[k0+N-1])`` into components.

    Solves the stacked gauge system at k0, so the components reproduce both
    the sum and every gauge condition at that index.
    """
    b = np.asarray(scalar_values, dtype=complex)
    if b.shape != (gauge.order,):
        raise ValueError(f"expected {gauge.order} scalar values, got {b.shape}")
    return ComponentVector(k=gauge.k, y=_solve_one(build_M(gauge), b, gauge.k))


def step(
    Y: ComponentVector,
    gauge_now: GaugeSet,
    gauge_next: GaugeSet,
    coeffs,
    forcing: complex = 0.0,
) -> ComponentVector:
    """Advance the component vector one index, exactly.

    ``coeffs`` are ``(f[0](k), ..., f[N-1](k))`` and ``forcing`` is ``f(k)``,
    all at the departure index ``k = Y.k``; the forcing enters the last row
    of the right-hand side with a minus sign.
    """
    if gauge_now.k != Y.k or gauge_next.k != Y.k + 1:
        raise ValueError(
            f"gauge indices ({gauge_now.k}, {gauge_next.k}) do not bracket k={Y.k}"
        )
    m = build_M(gauge_next)
    rhs = build_H(gauge_now, coeffs) @ Y.y
    rhs[-1] -= forcing
    return ComponentVector(k=Y.k + 1, y=_solve_one(m, rhs, Y.k + 1))


def reconstruct(Y: ComponentVector) -> complex:
    """The scalar solution value at Y.k: the sum of the components."""
    return complex(np.sum(Y.y))


def transfer_matrix(gauge_now: GaugeSet, gauge_next: GaugeSet, coeffs) -> np.ndarray:
    """One-step matrix T with ``Y[k+1] = T Y[k]`` for the homogeneous part.

    Obtained by solving ``M T = H`` column by column; the solve residual is
    checked against :data:`SOLVE_RESIDUAL_TOL` relative to ``H``.
    """
    m = build_M(gauge_next)
    h = build_H(gauge_now, coeffs)
    return _solve_one(m, h, gauge_next.k)


def propagate(spec: RecurrenceSpec, initial, gauges) -> tuple[np.ndarray, list[ComponentVector]]:
    """Propagate under a per-index gauge sequence and reconstruct.

    ``gauges`` must supply one :class:`GaugeSet` per index
    ``k_start .. k_start + horizon``.  Returns the reconstructed values
    ``y[k]`` on that range together with the component vectors.
    """
    gauges = list(gauges)
    if len(gauges) != spec.horizon + 1:
        raise ValueError(
            f"need {spec.horizon + 1} gauge sets, got {len(gauges)}"
        )
    for j, gauge in enumerate(gauges):
        if gauge.k != spec.k_start + j:
            raise ValueError(
                f"gauge {j} has k={gauge.k}, expected {spec.k_start + j}"
            )
    Y = decompose_initial(np.asarray(initial, dtype=complex), gauges[0])
    values = np.empty(spec.horizon + 1, dtype=complex)
    values[0] = reconstruct(Y)
    components = [Y]
    for s in range(spec.horizon):
        k = spec.k_start + s
        Y = step(Y, gauges[s], gauges[s + 1], spec.coeff_array(k), spec.forcing_value(k))
        values[s + 1] = reconstruct(Y)
        components.append(Y)
    return values, components
