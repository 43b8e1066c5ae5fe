"""Characteristic roots per index and the machinery built on them.

At each index k the frozen-coefficient characteristic polynomial

    p(rho) = rho^N + f[N-1](k) rho^(N-1) + ... + f[1](k) rho + f[0](k)

has N complex roots.  :func:`_root_tables` finds them for index windows of
several problems in one batched pass, as labelled ``(W, N)`` arrays per
window (:func:`root_frames` lists the frames of one window).  Where the
coefficients vary slowly, the roots of row t lie near those of its anchor,
row ``t - t % WARM_STRIDE`` of its window.  So only the distinct anchor
rows are solved from nothing, by one ``eigvals`` call on their companion
matrices and simultaneous Aberth-Ehrlich sweeps (or else the cold start of
:func:`characteristic_roots`); every other row is swept from its anchor's
roots, and goes the anchor's way when that does not settle or its roots
break their residual bound.  Branch labels are carried along the window
by matching each unordered root set to the one before it (a certified
nearest-root match, or the exact search over all permutations when the
certificate fails) and composing those matches.

The module also builds the power gauge ``g[m,n,k] = rho[n,k]**m`` whose
stacked matrix is the Vandermonde matrix of the roots, and provides that
matrix's closed-form inverse through elementary symmetric polynomials.
:func:`characteristic_roots` and :func:`track_branches` are the single-index
forms of the root and tracking steps; they share the sweep, the residual
check and the tie check with the batched pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import RecurrenceSpec, _companion
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
# The root pass solves from nothing only every this many rows of a span (its
# anchors) and polishes the rows between from their anchor's roots.
WARM_STRIDE = 8


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


def _check_tolerance(tol: float) -> None:
    if not 0 < tol < np.inf:
        raise ValueError(f"root tolerance must be positive and finite, got {tol!r}")


def _residual_check(f: np.ndarray, z: np.ndarray, unsettled: np.ndarray, tol: float):
    """Residuals of the roots ``z`` of each row of ``f``, and per row its
    :class:`NoConvergence` (None if it passes): its polish did not settle
    (``unsettled``), else a root breaks the bound of
    :func:`characteristic_roots` (naming the branch of the worst one)."""
    residuals = np.abs(_polyval(_descending(f), z))
    scale = (1.0 + np.abs(f).sum(axis=-1, keepdims=True)) * np.maximum(
        1.0, np.abs(z)
    ) ** f.shape[-1]
    failures = np.full(len(f), None)
    for row in np.flatnonzero(unsettled | (residuals > tol * scale).any(axis=-1)):
        if unsettled[row]:
            failures[row] = NoConvergence(f"no convergence within {ABERTH_MAX_ITER} iterations")
        else:
            worst = int(np.argmax(residuals[row] / scale[row]))
            message = f"root residual {residuals[row, worst]:.3e} above tolerance"
            failures[row] = NoConvergence(message, branch=worst)
    return residuals, failures


def _circle(f: np.ndarray) -> np.ndarray:
    """Cold start values for the roots of each row of ``f``: N points on the
    circle of radius ``1 + max|f|``, a bound on every root."""
    n = f.shape[-1]
    angles = 2.0 * np.pi * np.arange(n) / n + np.pi / (2.0 * n) + 0.3 / n
    return (1.0 + np.abs(f).max(axis=-1, keepdims=True)) * np.exp(1j * angles)


def characteristic_roots(coeffs, tol: float = DEFAULT_ROOT_TOL, seed=None) -> np.ndarray:
    """All N roots of the monic characteristic polynomial, unordered.

    ``coeffs`` are ``(f[0], ..., f[N-1])`` in ascending degree.  The
    Aberth-Ehrlich sweeps of :func:`_polish` start from :func:`_circle`, or
    from ``seed`` when warm starting from a neighbouring index.  Unless they
    settle and every root meets ``|p(root)| <= tol * (1 + sum|f|) *
    max(1, |root|)**N``, :class:`NoConvergence` is raised.
    """
    f = np.asarray(coeffs, dtype=complex)
    n = len(f)
    if n < 1:
        raise ValueError("need at least one coefficient")
    if f[0] == 0:
        raise ZeroCoefficient("zero constant term implies a zero root")
    if seed is None:
        z = _circle(f)
    else:
        z = np.asarray(seed, dtype=complex)
        if z.shape != (n,):
            raise ValueError(f"seed must supply {n} start values")
        z = _prepare_seed(z, 1.0 + float(np.max(np.abs(f))))
    _check_tolerance(tol)
    z, unsettled = _polish(f[None], z[None])
    _, [failure] = _residual_check(f[None], z, unsettled, tol)
    if failure is not None:
        raise failure
    return z[0]


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
    times its radius ``1 + max|f|``.  In a row whose update has a
    non-finite entry (a vanishing derivative or two coincident iterates)
    the finite iterates stay and the others move off by ``1e-7`` of the
    radius; that sweep counts.  Returns the polished roots and a mask of
    the rows that did not stop within ``ABERTH_MAX_ITER`` sweeps.
    """
    c = _descending(f)
    dc = c[:, :-1] * np.arange(f.shape[1], 0, -1)
    radius = 1.0 + np.abs(f).max(axis=1, initial=0.0)
    z = z.copy()
    active = np.arange(len(z))
    for _ in range(ABERTH_MAX_ITER):
        if active.size == 0:
            break
        za, r = z[active], radius[active, None]
        # the Aberth-Ehrlich corrections
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = _polyval(c[active], za) / _polyval(dc[active], za)
            denom = 1.0 - ratio * (1.0 / _differences(za, za, np.inf)).sum(axis=-1)
            w = np.where(denom == 0, ratio, ratio / denom)
        finite = np.isfinite(w)
        whole = finite.all(axis=1)
        z[active] = np.where(
            whole[:, None], za - w, np.where(finite, za, za * (1.0 + 1e-7) + 1e-7 * r)
        )
        settled = whole & (np.abs(w).max(axis=1) < ABERTH_UPDATE_TOL * r[:, 0])
        active = active[~settled]
    unsettled = np.zeros(len(z), dtype=bool)
    unsettled[active] = True
    return z, unsettled


def _cold_roots(f: np.ndarray, tol: float):
    """Roots of each row of ``f`` from nothing, with their residuals and
    verdicts (:func:`_residual_check`): one :func:`_polish` of the
    eigenvalues of the companion stack, and a second from :func:`_circle`
    of the rows that did not settle, which gives those rows the bits of
    :func:`characteristic_roots` (rows are independent)."""
    z, unsettled = _polish(f, np.linalg.eigvals(_companion(f)))
    restart = np.flatnonzero(unsettled)
    if restart.size:
        z[restart], unsettled[restart] = _polish(f[restart], _circle(f[restart]))
    return (z, *_residual_check(f, z, unsettled, tol))


def _byte_keys(a: np.ndarray) -> np.ndarray:
    """Each row of the 2-D array ``a`` as one void scalar of its bytes."""
    return np.ascontiguousarray(a).view(np.dtype((np.void, a.itemsize * a.shape[1])))[:, 0]


def _matches(roots: np.ndarray, k_lo: int) -> tuple[np.ndarray, AmbiguousTracking | None]:
    """Row t: for each root of unordered set t (at index ``k_lo + t``), the
    index of the root of set t+1 that continues it (the assignment of
    :func:`track_branches`), for the rows before the first tie, and that
    tie's :class:`AmbiguousTracking` (None if there is none).

    The nearest-root map is taken as is when it is a permutation and the two
    smallest row gaps (second-nearest minus nearest distance) sum to well
    above the tie threshold: any other permutation differs from it in at
    least two rows and pays at least their gaps, so it is then the unique
    minimiser and no tie is possible.  Every other row takes the exact
    search, which finds the ties.
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
        try:
            nearest[t] = _best_assignment(prev[t], new[t], k_lo + int(t) + 1)
        except AmbiguousTracking as tie:
            return nearest[:t], tie
    return nearest, None


def _labelled(z, residuals, k_lo: int, stop: int, error):
    """The rest of :func:`_root_tables` for one span: the roots ``z`` and
    ``residuals`` of its rows (from index ``k_lo``) before ``stop``, its
    lowest failing row (``error``; None if no row fails), labelled, and
    that error with its index attached.  A tracking tie before ``stop``
    cuts the rows there instead and is the error."""
    matches, tie = _matches(z[:stop], k_lo)
    if tie is not None:
        stop, error = len(matches) + 1, tie
    z, residuals = z[:stop], residuals[:stop]
    # labels[t] = matches[t-1][labels[t-1]], as a prefix scan in log2(W) gathers
    labels = np.concatenate((np.lexsort((z[:1].imag, z[:1].real)), matches))
    d = 1
    while d < stop:
        labels[d:] = np.take_along_axis(labels[d:], labels[:-d], axis=1)
        d *= 2
    roots = np.take_along_axis(z, labels, axis=1), np.take_along_axis(residuals, labels, axis=1)
    return roots, None if error is None else error.with_context(k=k_lo + stop)


def _root_tables(spans, tol: float) -> list:
    """The batched pass of the module docstring for several spans ``(spec,
    k_lo, k_hi)`` of one order, each inside its window or empty (``k_hi =
    k_lo - 1``).  The row at offset t of a span has as its anchor the row
    at offset ``t - t % WARM_STRIDE``.  The distinct anchor rows (by their
    bytes) of all spans are solved by :func:`_cold_roots`; a row of its
    anchor's bytes, or of a failing anchor, takes the anchor's roots and
    verdict.  The other rows, distinct by their bytes and their anchor's,
    are polished in one :func:`_polish` from the anchor's roots, and those
    that do not settle or fail the residual check are solved again by
    :func:`_cold_roots`.  Each row's roots and verdict depend on its bytes
    and its anchor's alone, so a span's roots do not depend on the spans
    beside it.

    Returns, per span, the labelled ``(roots, residuals)`` ``(W, N)`` of the
    rows before its lowest failing index, and the error of that index (None
    if no row fails; the failures of :func:`root_frames`), so that a failing
    span leaves the others whole.  A root tolerance that is not positive and
    finite is a ``ValueError`` of every nonempty span, which has no rows.
    """
    parts = []  # per span: its coefficient rows, the first non-finite one and its error
    for spec, k_lo, k_hi in spans:
        f = spec.table[k_lo - spec.k_start : k_hi - spec.k_start + 1, :-1]
        bad = ~np.isfinite(f).all(axis=1)
        stop = int(np.argmax(bad)) if bad.any() else len(f)
        error = RecurrenceError("non-finite characteristic coefficient") if stop < len(f) else None
        parts.append((f, stop, error))
    rows = np.concatenate([f[:stop] for f, stop, _ in parts])
    try:
        _check_tolerance(tol)
    except ValueError as exc:  # the error of every span with rows
        return [((rows[:0], rows[:0].real), exc if len(f) else error) for f, _, error in parts]
    offsets = np.concatenate([np.arange(stop) for _, stop, _ in parts])
    anchors = np.arange(len(rows)) - offsets % WARM_STRIDE
    keys = _byte_keys(rows)
    _, first, spread = np.unique(keys[anchors], return_index=True, return_inverse=True)
    z, residuals, failures = (a[spread] for a in _cold_roots(rows[anchors[first]], tol))
    warm = np.flatnonzero((keys != keys[anchors]) & np.equal(failures, None))
    if warm.size:
        pairs = _byte_keys(np.concatenate((rows[warm], rows[anchors[warm]]), axis=1))
        _, first, spread = np.unique(pairs, return_index=True, return_inverse=True)
        f = rows[warm[first]]
        wz, unsettled = _polish(f, z[warm[first]])
        wres, wfail = _residual_check(f, wz, unsettled, tol)
        cold = np.flatnonzero(np.not_equal(wfail, None))
        if cold.size:
            wz[cold], wres[cold], wfail[cold] = _cold_roots(f[cold], tol)
        z[warm], residuals[warm], failures[warm] = wz[spread], wres[spread], wfail[spread]
    tables, lo = [], 0
    for (_, stop, error), (_, k_lo, _) in zip(parts, spans):
        span = slice(lo, lo + stop)
        lo += stop
        failed = np.flatnonzero(np.not_equal(failures[span], None))
        if failed.size:
            stop, error = int(failed[0]), failures[span][failed[0]]
        tables.append(_labelled(z[span], residuals[span], k_lo, stop, error))
    return tables


def root_frames(
    spec: RecurrenceSpec,
    k_lo: int | None = None,
    k_hi: int | None = None,
    tol: float = DEFAULT_ROOT_TOL,
) -> list[RootFrame]:
    """Tracked root frames for ``k = k_lo .. k_hi`` (by default ``k_start ..
    k_start + horizon``, what one propagation pass needs), one per row of
    :func:`_root_tables` over this span.  Row 0 is labelled by ascending real,
    then imaginary part.  Raises the error of the lowest failing index, with
    that index: outside the window (:class:`IndexOutOfWindow`, checked before
    the pass), a non-finite coefficient row, a root residual above ``tol`` or
    an unsettled polish (:class:`NoConvergence`), or a tracking tie."""
    k_lo = spec.k_start if k_lo is None else k_lo
    k_hi = spec.k_start + spec.horizon if k_hi is None else k_hi
    if k_hi < k_lo:
        return []
    spec.check_window(k_lo)
    spec.check_window(min(k_hi, spec.window[1] + 1))
    [((roots, residuals), error)] = _root_tables([(spec, k_lo, k_hi)], tol)
    if error is not None:
        raise error
    return [RootFrame(k_lo + t, roots[t], residuals[t]) for t in range(len(roots))]
