"""Fully explicit third-order machinery.

For N = 3 the characteristic-gauge step can be written out by hand.  This
module carries that expansion (:func:`explicit_step`), its diagonal
truncation for slowly varying coefficients (:func:`wkb3_step`), the x-term
diagnostics that vanish exactly on the power gauge, and the ratio route: a
second-order nonlinear recursion in ``p[k]`` (the discrete analogue of a
Riccati equation) whose solutions decouple the system so that each component
evolves by plain multiplication; the branch gauge and products hold at any N.

Notation below: ``r = roots at k``, ``R = roots at k+1``,
``D = (R[1]-R[0]) (R[2]-R[0]) (R[2]-R[1])`` the Vandermonde determinant at
k+1, and ``delta = (R[2]-R[1], R[0]-R[2], R[1]-R[0])`` the signed root
differences distributing the forcing over the branches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RecurrenceSpec, ScalarTrajectory
from .decomposition import ComponentVector, GaugeSet
from .errors import Breakdown, DegenerateRoots
from .roots import SEPARATION_THRESHOLD, RootFrame, _differences, _frames_checked, _spread

# Denominator threshold for the ratio recursion, scaled by coefficient size.
RICCATI_BREAKDOWN_TOL = 1e-12


@dataclass(frozen=True)
class XTerms:
    """The six gauge diagnostics for one index.

    ``x1..x3`` measure how far each branch's second gauge row is from the
    square of its first; ``x4..x6`` measure how far each branch is from
    satisfying the characteristic relation.  All six vanish when the gauge
    is the power gauge of characteristic roots.
    """

    x1: complex
    x2: complex
    x3: complex
    x4: complex
    x5: complex
    x6: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3, self.x4, self.x5, self.x6])


def x_terms(gauge: GaugeSet, coeffs) -> XTerms:
    """Evaluate the six diagnostics for an order-3 gauge at one index."""
    if gauge.order != 3:
        raise ValueError("x terms are defined for order 3 only")
    f0, f1, f2 = np.asarray(coeffs, dtype=complex)
    g1, g2 = gauge.g
    quad = g1**2 - g2
    cubic = g1 * g2 + f2 * g2 + f1 * g1 + f0
    return XTerms(*quad, *cubic)


def _explicit3_matrix(r: np.ndarray, R: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """Step matrices of :func:`explicit_step`: roots ``r`` at k, ``R`` at k+1, ``_spread(R)``."""
    S = R[..., [1, 2, 0]] + R[..., [2, 0, 1]]
    coupling = (S[..., :, None] - (R + r)[..., None, :]) * (r * (R - r))[..., None, :]
    t = spread[..., :, None] * coupling
    t[..., np.arange(3), np.arange(3)] += r
    return t


def _wkb3_gain(r: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Multipliers of :func:`wkb3_step`, roots ``r`` at k, ``R`` at k+1."""
    return r * (1.0 - (R - r) * (1.0 / _differences(R, R, np.inf)).sum(axis=-1))


def explicit_step(
    Y: ComponentVector,
    frame_now: RootFrame,
    frame_next: RootFrame,
    f_k: complex = 0.0,
) -> ComponentVector:
    """The hand-expanded characteristic-gauge step for N = 3.

    Branch i picks up a leading ``r[i] y[i]`` plus correction terms driven by
    the per-branch root increments ``R[j] - r[j]``:

        y'[i] = r[i] y[i]
                + sum_j y[j] r[j] (R[j]-r[j]) delta[i] (S[i]-(R[j]+r[j])) / D
                - f_k delta[i] / D

    with ``S = (R[2]+R[1], R[0]+R[2], R[1]+R[0])``.  This is an independent
    derivation of the generic solve-based step and must agree with it to
    rounding; the test suite pins that equivalence.
    """
    if Y.order != 3:
        raise ValueError("third-order step requires order 3 throughout")
    r, R = _frames_checked(Y, frame_now, frame_next)
    spread = _spread(R)
    y = _explicit3_matrix(r, R, spread) @ Y.y - f_k * spread
    return ComponentVector(k=Y.k + 1, y=y)


def wkb3_step(
    Y: ComponentVector,
    frame_now: RootFrame,
    frame_next: RootFrame,
    f_k: complex = 0.0,
) -> ComponentVector:
    """Diagonal (WKB) truncation of :func:`explicit_step`.

    Each branch keeps only its own multiplier, linearised in the root
    increment:

        y'[i] = r[i] y[i] - r[i] y[i] (R[i]-r[i]) sum_{m != i} 1/(R[i]-R[m])
                - f_k delta[i] / D

    For constant coefficients the increment vanishes and the step coincides
    with the exact one; for slowly varying coefficients the neglected terms
    are of second order in the increments.
    """
    if Y.order != 3:
        raise ValueError("third-order step requires order 3 throughout")
    r, R = _frames_checked(Y, frame_now, frame_next)
    y = _wkb3_gain(r, R) * Y.y - f_k * _spread(R)
    return ComponentVector(k=Y.k + 1, y=y)


def riccati_residual(p_k: complex, p_k1: complex, p_k2: complex, coeffs) -> complex:
    """Left-hand side of the ratio recursion at one index.

    ``p[k+2] p[k+1] p[k] + f[2] p[k+1] p[k] + f[1] p[k] + f[0]``; zero for
    the ratio sequence ``p[k] = y[k+1]/y[k]`` of any nonvanishing homogeneous
    solution, and for constant coefficients it collapses to the
    characteristic polynomial at the fixed point ``p == rho``.
    """
    f0, f1, f2 = np.asarray(coeffs, dtype=complex)
    return p_k2 * p_k1 * p_k + f2 * p_k1 * p_k + f1 * p_k + f0


def riccati_forward(
    p0: complex,
    p1: complex,
    spec: RecurrenceSpec,
    count: int,
) -> np.ndarray:
    """Iterate the ratio recursion forward from two seed values.

    Returns ``p[k]`` for ``k = k_start .. k_start + count + 1`` (the seeds plus
    ``count`` generated values), each new value solving the recursion at the
    oldest index of its triple:

        p[k+2] = -(f[2](k) p[k+1] p[k] + f[1](k) p[k] + f[0](k)) / (p[k+1] p[k])

    Raises :class:`Breakdown` when ``|p[k+1] p[k]|`` falls below
    ``1e-12 * (1 + max|f|)``, which signals a branch collision or a zero of
    the underlying solution.  Forward iteration is stable only along the
    dominant branch; subdominant seeds drift dominant-ward at a rate set by
    the root-magnitude ratios, so keep those horizons short.
    """
    if spec.order != 3:
        raise ValueError("the ratio recursion is third-order specific")
    p = np.empty(count + 2, dtype=complex)
    p[0], p[1] = complex(p0), complex(p1)
    for s in range(count):
        k = spec.k_start + s
        f = spec.coeff_array(k)
        denom = p[s + 1] * p[s]
        scale = 1.0 + float(np.max(np.abs(f)))
        if abs(denom) <= RICCATI_BREAKDOWN_TOL * scale:
            raise Breakdown(f"|p[k+1] p[k]| = {abs(denom):.3e} too small", k=k)
        p[s + 2] = -(f[2] * denom + f[1] * p[s] + f[0]) / denom
    return p


@dataclass(frozen=True, eq=False)
class RiccatiBranch:
    """One decoupling branch: the first-row gauge values ``p[k]``.

    The further gauge rows are running products of these ratios, which
    :func:`riccati_gauge` forms."""

    p1: np.ndarray
    k_start: int
    label: int = 0

    def __post_init__(self):
        object.__setattr__(self, "p1", np.array(self.p1, dtype=complex))

    @property
    def k_last(self) -> int:
        return self.k_start + len(self.p1) - 1

    def g1_at(self, k: int) -> complex:
        i = k - self.k_start
        if i < 0 or i >= len(self.p1):
            raise ValueError(f"branch covers [{self.k_start}, {self.k_last}], not k={k}")
        return complex(self.p1[i])


def _ratios(y: np.ndarray, k_starts, labels):
    """Ratio sequences ``y[..., 1:] / y[..., :-1]`` of the solutions ``y``
    ``(P, B, W)`` of P problems, those of branch b labelled ``labels[b]``
    and starting at ``k_starts[p]``.  Returns the ratios ``(P, B, W-1)``
    and per problem the :class:`Breakdown` at the first vanishing (or
    underflowed) value of its lowest such branch, or None."""
    tiny = np.abs(y[..., :-1]) <= np.finfo(float).tiny
    failures = np.full(len(y), None)
    for p in np.flatnonzero(tiny.any(axis=(1, 2))):
        b = int(np.argmax(tiny[p].any(axis=1)))
        k = int(k_starts[p]) + int(np.argmax(tiny[p, b]))
        failures[p] = Breakdown("solution value vanishes, ratio undefined", k=k, branch=labels[b])
    with np.errstate(all="ignore"):
        return y[..., 1:] / y[..., :-1], failures


def oracle_ratio_branch(traj: ScalarTrajectory, label: int = 0) -> RiccatiBranch:
    """Ratio sequence ``p[k] = y[k+1]/y[k]`` of a scalar solution.

    Exact zeros (or underflowed values) of the solution make the ratio
    singular; they raise :class:`Breakdown` instead of being masked.
    """
    ratios, [failure] = _ratios(traj.values[None, None], [traj.k_start], [label])
    if failure is not None:
        raise failure
    return RiccatiBranch(p1=ratios[0, 0], k_start=traj.k_start, label=label)


def _ratio_gauge(ratios: np.ndarray) -> np.ndarray:
    """Gauge rows ``(..., N-1, N)`` from the first N-1 ratios ``(..., N,
    N-1)`` of each of N branches: row m of branch n is the running product of
    its ratios up to m, taken on Python complexes (object dtype), which
    numpy's complex multiply may round otherwise."""
    return np.cumprod(ratios.astype(object), axis=-1).swapaxes(-1, -2).astype(complex)


def riccati_gauge(branches, k: int) -> GaugeSet:
    """Gauge rows at k from N branches: row m of branch n is ``y_n[k+m]/y_n[k]``,
    the running product of the ratios ``p_n[k] .. p_n[k+m-1]``."""
    ratios = [[b.g1_at(k + j) for j in range(len(branches) - 1)] for b in branches]
    return GaugeSet(k=k, g=_ratio_gauge(np.array(ratios, dtype=complex)))


def decoupled_step(
    Y: ComponentVector,
    g1_row_now,
    g1_row_next,
    f_k: complex = 0.0,
    g1_row_after=None,
) -> ComponentVector:
    """One step under a decoupling gauge: componentwise multiplication.

    For a homogeneous problem each component evolves independently,
    ``y'[n] = g1_now[n] y[n]``.  Forcing is spread over the components with
    the signed differences of ``g1_next`` divided by the gauge determinant at
    k+1.  That determinant involves the second gauge row, i.e. the branch
    values one further index ahead; pass them as ``g1_row_after`` for the
    exact forced step.  When omitted, the Vandermonde determinant of
    ``g1_next`` is used instead, which coincides with the exact one for
    constant branches.
    """
    a = np.asarray(g1_row_now, dtype=complex)
    b = np.asarray(g1_row_next, dtype=complex)
    if Y.order != 3 or a.shape != (3,) or b.shape != (3,):
        raise ValueError("decoupled step requires order 3 rows")
    out = Y.y * a
    if f_k != 0:
        if g1_row_after is None:
            D = (b[1] - b[0]) * (b[2] - b[0]) * (b[2] - b[1])
        else:
            c = np.asarray(g1_row_after, dtype=complex)
            D = np.linalg.det(np.vstack([np.ones(3, dtype=complex), b, b * c]))
        scale = max(1.0, float(np.max(np.abs(b)))) ** 3
        if abs(D) <= SEPARATION_THRESHOLD * scale:
            raise DegenerateRoots("decoupling gauge determinant collapsed", k=Y.k + 1)
        delta = np.array([b[2] - b[1], b[0] - b[2], b[1] - b[0]])
        out = out - f_k * delta / D
    return ComponentVector(k=Y.k + 1, y=out)


def product_solution(initial: ComponentVector, branches, k: int) -> complex:
    """Homogeneous solution value at k from branch products.

    ``y[k] = sum_n y[n, k0] * prod_{s=k0}^{k-1} p_n[s]`` with the empty
    product equal to one at ``k = k0``.
    """
    branches = list(branches)
    if len(branches) != initial.order:
        raise ValueError("one branch per component required")
    k0 = initial.k
    if k < k0:
        raise ValueError(f"k={k} precedes the initial index {k0}")
    total = 0.0 + 0.0j
    for y0, branch in zip(initial.y, branches):
        if k0 < branch.k_start or k - 1 > branch.k_last:
            raise ValueError(
                f"branch {branch.label} covers [{branch.k_start}, {branch.k_last}], "
                f"needs [{k0}, {k - 1}]"
            )
        lo = k0 - branch.k_start
        total += y0 * np.prod(branch.p1[lo : lo + (k - k0)])
    return complex(total)
