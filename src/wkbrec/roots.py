"""Characteristic roots per index and the machinery built on them.

At each index k the frozen-coefficient characteristic polynomial

    p(rho) = rho^N + f[N-1](k) rho^(N-1) + ... + f[1](k) rho + f[0](k)

has N complex roots.  :func:`root_frames` finds them for a whole index window
in one batched pass: the eigenvalues of the stacked companion matrices,
polished by simultaneous Aberth-Ehrlich sweeps until every root meets the
residual bound of :func:`characteristic_roots`.  Branch labels are then
carried along the window by matching each unordered root set to the one
before it (a certified nearest-root match, or the exact search over all
permutations when the certificate fails) and composing those matches.

The module also builds the power gauge ``g[m,n,k] = rho[n,k]**m`` whose
stacked matrix is the Vandermonde matrix of the roots, and provides that
matrix's closed-form inverse through elementary symmetric polynomials.
:func:`characteristic_roots` and :func:`track_branches` are the single-index
forms of the root and tracking steps; they share the sweep, the residual
bound and the tie check with the batched pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import RecurrenceSpec
from .decomposition import ComponentVector, GaugeSet
from .errors import (
    AmbiguousTracking,
    DegenerateRoots,
    NoConvergence,
    RecurrenceError,
    ZeroCoefficient,
)

DEFAULT_ROOT_TOL = 1e-10
ABERTH_MAX_ITER = 200
ABERTH_UPDATE_TOL = 1e-13
# Pairwise root separation below this fraction of the largest magnitude is
# treated as a degenerate root set (the decomposition requires distinct roots).
SEPARATION_THRESHOLD = 1e-8
# Two branch assignments whose total distances differ by less than this
# (times the root scale) cannot be told apart.
TIE_THRESHOLD = 1e-12
# A nearest-root match is accepted without the exact search only when its
# lower bound on the tie gap exceeds the tie threshold by this factor, so
# rounding in the two computations cannot separate their verdicts.
_CERTIFY_MARGIN = 4.0


@dataclass(frozen=True, eq=False)
class RootFrame:
    """Labelled characteristic roots at one index.

    ``roots[n]`` is branch n; ``residuals[n]`` is ``|p(roots[n])|`` as a
    diagnostic of root quality (NaN when not computed).
    """

    k: int
    roots: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "roots", np.array(self.roots, dtype=complex))
        object.__setattr__(self, "residuals", np.array(self.residuals, dtype=float))

    @property
    def order(self) -> int:
        return len(self.roots)


@dataclass(frozen=True, eq=False)
class SigmaTable:
    """``entries[i, j]``: degree-j elementary symmetric polynomial of the
    roots with branch i left out; column 0 is identically one."""

    entries: np.ndarray


def _descending(coeffs: np.ndarray) -> np.ndarray:
    """Monic coefficients in descending degree, (1, f[N-1], ..., f[0]), per row."""
    lead = np.ones(coeffs.shape[:-1] + (1,), dtype=complex)
    return np.concatenate((lead, coeffs[..., ::-1]), axis=-1)


def _polyval(c_desc: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Horner evaluation of each row of ``c_desc`` at the same row of ``z``."""
    acc = np.zeros(np.shape(z), dtype=complex) + c_desc[..., :1]
    for j in range(1, c_desc.shape[-1]):
        acc = acc * z + c_desc[..., j : j + 1]
    return acc


def root_residuals(coeffs, roots) -> np.ndarray:
    """``|p(root)|`` for each root of the monic characteristic polynomial."""
    c = _descending(np.asarray(coeffs, dtype=complex))
    return np.abs(_polyval(c, np.asarray(roots, dtype=complex)))


def _differences(a: np.ndarray, b: np.ndarray, diagonal: complex) -> np.ndarray:
    """``a[i] - b[j]`` over the last axis, with ``diagonal`` where i == j."""
    n = a.shape[-1]
    diff = a[..., :, None] - b[..., None, :]
    diff[..., np.arange(n), np.arange(n)] = diagonal
    return diff


def _separations(roots: np.ndarray) -> np.ndarray:
    """Smallest pairwise distance within each root set (last axis)."""
    return np.abs(_differences(roots, roots, np.inf)).min(axis=(-2, -1))


def min_separation(roots) -> float:
    return float(_separations(np.asarray(roots, dtype=complex)))


def _check_separation(roots: np.ndarray, ks) -> None:
    """Raise :class:`DegenerateRoots` at the lowest index of ``ks`` whose
    root set (a row of the ``(W, N)`` table ``roots``) has two roots no
    farther apart than :data:`SEPARATION_THRESHOLD` times its largest one."""
    bad = _separations(roots) <= SEPARATION_THRESHOLD * np.abs(roots).max(axis=-1)
    if bad.any():
        raise DegenerateRoots("root separation below threshold", k=int(ks[np.argmax(bad)]))


def _frames_checked(Y: ComponentVector, frame_now: RootFrame, frame_next: RootFrame):
    """Roots at k and k+1 of a step from ``Y``, once the frames are checked
    for order, for bracketing ``Y.k`` and for separation."""
    if frame_now.order != Y.order or frame_next.order != Y.order:
        raise ValueError("frame orders do not match the component vector")
    if frame_now.k != Y.k or frame_next.k != Y.k + 1:
        raise ValueError(
            f"frame indices ({frame_now.k}, {frame_next.k}) do not bracket k={Y.k}"
        )
    roots = np.stack([frame_now.roots, frame_next.roots])
    _check_separation(roots, [Y.k, Y.k + 1])
    return roots[0], roots[1]


def _prepare_seed(z: np.ndarray, radius: float) -> np.ndarray:
    # Two traps to avoid: exactly coincident iterates blow up the repulsion
    # terms, and exactly real iterates of a real polynomial can never reach
    # a complex-conjugate pair (the real axis is an invariant subspace of
    # the iteration).  A deterministic, branch-dependent nudge off the real
    # axis breaks both; it costs at most a couple of extra sweeps.  The
    # nudge stays well below each seed's distance to its nearest neighbour,
    # so a close pair the seed resolves is not merged before the first sweep.
    spacing = np.abs(_differences(z, z, np.inf)).min(axis=-1)
    nudge = np.minimum(1e-8 * radius, 1e-3 * spacing)
    z = z + 1j * nudge * (np.arange(len(z)) + 1.0)
    for i in range(1, len(z)):
        while np.min(np.abs(z[:i] - z[i])) < 1e-14 * radius:
            z[i] += (i + 1) * 1e-7 * radius * (0.6 + 0.8j)
    return z


def _aberth_update(c: np.ndarray, dc: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Aberth-Ehrlich corrections for the iterates ``z``, row by row.

    ``c`` and ``dc`` are the descending coefficients of each row's
    polynomial and of its derivative.  An entry is non-finite where the
    derivative vanishes or two iterates coincide.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = _polyval(c, z) / _polyval(dc, z)
        repulsion = (1.0 / _differences(z, z, np.inf)).sum(axis=-1)
        denom = 1.0 - ratio * repulsion
        return np.where(denom == 0, ratio, ratio / denom)


def _residual_failure(f: np.ndarray, z: np.ndarray, tol: float):
    """Residuals of the roots ``z`` of each row of ``f``, and the first row
    breaking the bound as ``(row, NoConvergence)``, or None if none does.

    The bound is ``|p(root)| <= tol * (1 + sum|f|) * max(1, |root|)**N``.
    """
    residuals = np.abs(_polyval(_descending(f), z))
    scale = (1.0 + np.abs(f).sum(axis=-1, keepdims=True)) * np.maximum(
        1.0, np.abs(z)
    ) ** f.shape[-1]
    bad = (residuals > tol * scale).any(axis=-1)
    if not bad.any():
        return residuals, None
    row = int(np.argmax(bad))
    worst = int(np.argmax(residuals[row] / scale[row]))
    error = NoConvergence(
        f"root residual {residuals[row, worst]:.3e} above tolerance", branch=worst
    )
    return residuals, (row, error)


def characteristic_roots(
    coeffs,
    tol: float = DEFAULT_ROOT_TOL,
    seed=None,
    max_iter: int = ABERTH_MAX_ITER,
) -> np.ndarray:
    """All N roots of the monic characteristic polynomial, unordered.

    ``coeffs`` are ``(f[0], ..., f[N-1])`` in ascending degree.  The roots
    are found by simultaneous Aberth-Ehrlich iteration, initialised on a
    circle of radius ``1 + max|f|`` (a bound on every root) or on ``seed``
    when warm starting from a neighbouring index.  Convergence requires the
    largest update to drop below ``1e-13`` times that radius within
    ``max_iter`` sweeps, and every root must satisfy

        |p(root)| <= tol * (1 + sum|f|) * max(1, |root|)**N

    or :class:`NoConvergence` is raised.
    """
    f = np.asarray(coeffs, dtype=complex)
    n = len(f)
    if n < 1:
        raise ValueError("need at least one coefficient")
    if f[0] == 0:
        raise ZeroCoefficient("zero constant term implies a zero root")
    c = _descending(f)
    dc = c[:-1] * np.arange(n, 0, -1)
    radius = 1.0 + float(np.max(np.abs(f)))
    if seed is None:
        angles = 2.0 * np.pi * np.arange(n) / n + np.pi / (2.0 * n) + 0.3 / n
        z = radius * np.exp(1j * angles)
    else:
        z = np.asarray(seed, dtype=complex)
        if z.shape != (n,):
            raise ValueError(f"seed must supply {n} start values")
        z = _prepare_seed(z, radius)

    converged = False
    for _ in range(max_iter):
        w = _aberth_update(c, dc, z)
        finite = np.isfinite(w)
        if not np.all(finite):
            z = np.where(finite, z, z * (1.0 + 1e-7) + 1e-7 * radius)
            continue
        z = z - w
        if np.max(np.abs(w)) < ABERTH_UPDATE_TOL * radius:
            converged = True
            break
    if not converged:
        raise NoConvergence(f"no convergence within {max_iter} iterations")
    _, failure = _residual_failure(f[None], z[None], tol)
    if failure is not None:
        raise failure[1]
    return z


@lru_cache(maxsize=None)
def _permutations(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=int)


def _best_assignment(prev: np.ndarray, new: np.ndarray, k: int) -> np.ndarray:
    """Exact branch assignment: entry i is the index of the new root that
    continues previous root i.

    The permutation minimising the total label-to-root distance is found by
    searching all N! of them.  If the best and second-best totals tie within
    :data:`TIE_THRESHOLD` times the root scale, :class:`AmbiguousTracking`
    is raised at index ``k``.
    """
    n = len(prev)
    cost = np.abs(new[None, :] - prev[:, None])
    perms = _permutations(n)
    totals = cost[np.arange(n)[None, :], perms].sum(axis=1)
    best = int(np.argmin(totals))
    scale = max(1.0, float(np.max(np.abs(new))))
    if np.partition(totals, 1)[1] - totals[best] < TIE_THRESHOLD * scale:
        raise AmbiguousTracking("two branch assignments tie within tolerance", k=k)
    return perms[best]


def track_branches(prev: RootFrame, new_roots, residuals=None) -> RootFrame:
    """Carry branch labels to a new unordered root set.

    Branch n of the returned frame (at index ``prev.k + 1``) is the new root
    assigned to the previous branch n by the permutation minimising the total
    label-to-root distance; the minimisation is exact over all permutations.
    If the best and second-best assignments tie within :data:`TIE_THRESHOLD`
    times the root scale, branches are about to collide and
    :class:`AmbiguousTracking` is raised.
    """
    new = np.asarray(new_roots, dtype=complex)
    n = prev.order
    if new.shape != (n,):
        raise ValueError(f"expected {n} roots, got {new.shape}")
    best = _best_assignment(prev.roots, new, prev.k + 1)
    if residuals is None:
        new_res = np.full(n, np.nan)
    else:
        new_res = np.asarray(residuals, dtype=float)[best]
    return RootFrame(k=prev.k + 1, roots=new[best], residuals=new_res)


def _vandermonde(roots: np.ndarray) -> np.ndarray:
    """Power-gauge matrices, row m = 0 .. N-1 holding ``roots**m``, per root set."""
    return roots[..., None, :] ** np.arange(roots.shape[-1])[:, None]


def _spread(R: np.ndarray) -> np.ndarray:
    """``1 / prod_{m != i} (R[i] - R[m])`` per root set: the last column of
    the inverse Vandermonde matrix, which spreads the forcing over branches."""
    return 1.0 / _differences(R, R, 1.0).prod(axis=-1)


def power_gauge(frame: RootFrame) -> GaugeSet:
    """Gauge rows ``g[m,n] = roots[n]**m`` for m = 1 .. N-1.

    The stacked matrix is then the Vandermonde matrix of the roots, so the
    roots must be pairwise distinct; separations below
    :data:`SEPARATION_THRESHOLD` times the largest magnitude raise
    :class:`DegenerateRoots`.
    """
    _check_separation(frame.roots[None], [frame.k])
    return GaugeSet(k=frame.k, g=_vandermonde(frame.roots)[1:])


def sigma_excluding(roots, i: int) -> np.ndarray:
    """Elementary symmetric polynomials of the roots with branch ``i`` left out.

    Entry j is the sum over all j-subsets of the remaining N-1 roots of the
    subset product; entry 0 is 1 and entry N-1 is the product of all
    remaining roots.
    """
    roots = np.asarray(roots, dtype=complex)
    n = len(roots)
    if not 0 <= i < n:
        raise ValueError(f"branch index {i} out of range for {n} roots")
    sig = np.zeros(n, dtype=complex)
    sig[0] = 1.0
    for r in np.delete(roots, i):
        sig[1:] = sig[1:] + r * sig[:-1]
    return sig


def sigma_table(roots) -> SigmaTable:
    roots = np.asarray(roots, dtype=complex)
    entries = np.vstack([sigma_excluding(roots, i) for i in range(len(roots))])
    return SigmaTable(entries=entries)


def vandermonde_inverse(frame: RootFrame) -> np.ndarray:
    """Closed-form inverse of the stacked power-gauge matrix.

    Row i, column j (zero-based) is

        (-1)**j * sigma_i[N-1-j] / prod_{s != i} (roots[s] - roots[i])

    which is the coefficient of x**j in the i-th Lagrange cardinal polynomial
    on the roots.  Requires pairwise distinct roots.
    """
    _check_separation(frame.roots[None], [frame.k])
    roots = frame.roots
    n = len(roots)
    signs = (-1.0) ** np.arange(n)
    inv = np.empty((n, n), dtype=complex)
    for i in range(n):
        denom = np.prod(np.delete(roots, i) - roots[i])
        inv[i] = signs * sigma_excluding(roots, i)[::-1] / denom
    return inv


def _polish(f: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched Aberth sweeps from the root estimates ``z``, one row per index.

    A row stops once its largest update drops below ``ABERTH_UPDATE_TOL``
    times its radius ``1 + max|f|``, the rule of :func:`characteristic_roots`.
    Returns the polished roots and a mask of the rows that produced a
    non-finite update or did not stop within ``ABERTH_MAX_ITER`` sweeps.
    """
    c = _descending(f)
    dc = c[:, :-1] * np.arange(f.shape[1], 0, -1)
    radius = 1.0 + np.abs(f).max(axis=1, initial=0.0)
    z = z.copy()
    unsettled = np.zeros(len(z), dtype=bool)
    active = np.arange(len(z))
    for _ in range(ABERTH_MAX_ITER):
        if active.size == 0:
            break
        w = _aberth_update(c[active], dc[active], z[active])
        finite = np.isfinite(w).all(axis=1)
        unsettled[active[~finite]] = True
        active, w = active[finite], w[finite]
        z[active] -= w
        active = active[np.abs(w).max(axis=1) >= ABERTH_UPDATE_TOL * radius[active]]
    unsettled[active] = True
    return z, unsettled


def _window_roots(f: np.ndarray, tol: float):
    """Unordered roots and residuals of every row of a ``(W, N)`` coefficient
    table, and the first failing row as ``(row, error)`` (None if none fails).

    Rows from the failing one on are left out of the returned arrays, so
    the caller can still label the rows before it.
    """
    failure = None
    bad = (f[:, 0] == 0) | ~np.isfinite(f).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        if f[row, 0] == 0:
            error = ZeroCoefficient("zero constant term implies a zero root")
        else:
            error = RecurrenceError("non-finite characteristic coefficient")
        failure, f = (row, error), f[:row]
    n = f.shape[1]
    companion = np.zeros((len(f), n, n), dtype=complex)
    companion[:, 0, :] = -f[:, ::-1]
    companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    z, unsettled = _polish(f, np.linalg.eigvals(companion))
    for row in np.flatnonzero(unsettled):
        try:
            z[row] = characteristic_roots(f[row], tol=tol)
        except RecurrenceError as exc:
            failure, f, z = (int(row), exc), f[:row], z[:row]
            break
    residuals, bad_residual = _residual_failure(f, z, tol)
    if bad_residual is not None:
        row = bad_residual[0]
        failure, z, residuals = bad_residual, z[:row], residuals[:row]
    return z, residuals, failure


def _matches(roots: np.ndarray, ks) -> np.ndarray:
    """Row t: for each root of unordered set t, the index of the root of set
    t+1 that continues it (the assignment of :func:`track_branches`).

    The nearest-root map is taken as is when it is a permutation and the two
    smallest row gaps (second-nearest minus nearest distance) sum to well
    above the tie threshold: any other permutation differs from it in at
    least two rows and pays at least their gaps, so it is then the unique
    minimiser and no tie is possible.  Every other row takes the exact
    search, which raises :class:`AmbiguousTracking` on a tie.
    """
    prev, new = roots[:-1], roots[1:]
    n = roots.shape[1]
    cost = np.abs(new[:, None, :] - prev[:, :, None])
    nearest = cost.argmin(axis=2)
    two = np.partition(cost, 1, axis=2)
    gaps = two[..., 1] - two[..., 0]
    bound = np.partition(gaps, 1, axis=1)[:, :2].sum(axis=1)
    scale = np.maximum(1.0, np.abs(new).max(axis=1, initial=0.0))
    certified = (np.sort(nearest, axis=1) == np.arange(n)).all(axis=1) & (
        bound > _CERTIFY_MARGIN * TIE_THRESHOLD * scale
    )
    for t in np.flatnonzero(~certified):
        nearest[t] = _best_assignment(prev[t], new[t], ks[t + 1])
    return nearest


def root_frames(
    spec: RecurrenceSpec,
    k_lo: int | None = None,
    k_hi: int | None = None,
    tol: float = DEFAULT_ROOT_TOL,
) -> list[RootFrame]:
    """Tracked root frames for ``k = k_lo .. k_hi``.

    Defaults to ``k_start .. k_start + horizon``, which is what one
    propagation pass needs.  The coefficients of the window are sampled
    into one table and its roots are found and labelled in one batched pass
    (see the module docstring).  Rows whose polish does not settle are
    solved by :func:`characteristic_roots` instead.  The first frame is
    labelled by ascending real, then imaginary part.  A failure raises the
    error of the lowest failing index, with that index attached: a
    non-finite or zero-constant coefficient row, a root residual above
    ``tol`` (:class:`NoConvergence`), or a tie in the tracking
    (:class:`AmbiguousTracking`).
    """
    if k_lo is None:
        k_lo = spec.k_start
    if k_hi is None:
        k_hi = spec.k_start + spec.horizon
    ks = range(k_lo, k_hi + 1)
    f = np.array([spec.coeff_array(k) for k in ks], dtype=complex)
    roots, residuals, failure = _window_roots(f.reshape(len(ks), spec.order), tol)
    frames: list[RootFrame] = []
    if len(roots):
        matches = _matches(roots, ks)
        labels = np.lexsort((roots[0].imag, roots[0].real))
        for t in range(len(roots)):
            if t:
                labels = matches[t - 1][labels]
            frames.append(
                RootFrame(k=ks[t], roots=roots[t, labels], residuals=residuals[t, labels])
            )
    if failure is not None:
        row, error = failure
        raise error.with_context(k=ks[row]) from error
    return frames
