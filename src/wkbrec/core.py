"""Problem definition and baseline propagators for linear difference equations.

An order-N linear difference equation

    y[k+N] + f[N-1](k) y[k+N-1] + ... + f[1](k) y[k+1] + f[0](k) y[k] + f(k) = 0

is described by a :class:`RecurrenceSpec`: N coefficient models ``f[0..N-1]``,
a forcing model ``f`` and an integer index window.  The spec samples its
models once, at construction, into a read-only coefficient table; everything
downstream reads that table.  Two reference propagators live here:
:func:`direct_solve`, the plain scalar recursion used as the oracle
throughout the test suite, and :func:`companion_propagate`, the equivalent
companion-matrix bookkeeping.  The former is one member of the one scalar
recursion loop, which steps all the recursions of a batch of problems
together; the latter runs on the one step chain ``Y[k+1] = T[k] Y[k] +
push[k]`` that every decomposed method shares.

All arithmetic is complex double precision even for real inputs; the
characteristic roots of real problems are generically complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import IndexOutOfWindow, ZeroCoefficient

MIN_ORDER = 2
MAX_ORDER = 8


def _float_indices(lo: int, hi: int) -> np.ndarray:
    """``float(k)`` for ``k = lo .. hi``, as ``x * k`` converts an int ``k``."""
    return (lo + np.arange(hi - lo + 1)).astype(float)


def _times_real(z, x: np.ndarray) -> np.ndarray:
    """``z * x`` for a complex ``z`` (a number or an array) and a float array
    ``x``, with the bits of ``complex * float`` in CPython 3.11: the textbook
    product with ``complex(x, 0.0)``.  numpy's complex multiply can differ
    from it in the sign of a zero part."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(x.shape, dtype=complex)
    out.real = z.real * x - z.imag * 0.0
    out.imag = z.real * 0.0 + z.imag * x
    return out


class CoefficientModel:
    """A complex-valued sequence over integer indices, ``model(k) -> complex``.

    Parametric models sample smooth functions at ``eps * k``; ``eps`` is the
    slow-variation parameter and ``eps = 0`` reduces them to constants.
    """

    def __call__(self, k: int) -> complex:
        raise NotImplementedError

    def sample(self, lo: int, hi: int) -> np.ndarray:
        """Values at ``k = lo .. hi`` (inclusive): ``self(k)`` index by index."""
        return np.array([self(k) for k in range(lo, hi + 1)], dtype=complex)

    def with_epsilon(self, epsilon: float) -> "CoefficientModel":
        """Copy with the slow-variation parameter replaced (no-op if absent)."""
        return self


@dataclass(frozen=True)
class Constant(CoefficientModel):
    value: complex

    def __call__(self, k: int) -> complex:
        return complex(self.value)

    def sample(self, lo: int, hi: int) -> np.ndarray:
        return np.full(hi - lo + 1, complex(self.value))


@dataclass(frozen=True, eq=False)
class Tabulated(CoefficientModel):
    """Explicit values for ``k = k_first .. k_first + len(values) - 1``."""

    values: np.ndarray
    k_first: int

    def __post_init__(self):
        object.__setattr__(self, "values", np.array(self.values, dtype=complex))

    def __call__(self, k: int) -> complex:
        i = k - self.k_first
        if i < 0 or i >= len(self.values):
            raise IndexOutOfWindow(
                f"tabulated model covers [{self.k_first}, "
                f"{self.k_first + len(self.values) - 1}]",
                k=k,
            )
        return complex(self.values[i])

    def sample(self, lo: int, hi: int) -> np.ndarray:
        last = self.k_first + len(self.values) - 1
        if lo < self.k_first or hi > last:
            raise IndexOutOfWindow(
                f"model covers [{self.k_first}, {last}] but the window is [{lo}, {hi}]"
            )
        return self.values[lo - self.k_first : hi - self.k_first + 1]


@dataclass(frozen=True)
class PolynomialInEpsK(CoefficientModel):
    """Polynomial in ``eps * k`` with coefficients in ascending degree."""

    coeffs: tuple[complex, ...]
    epsilon: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")

    def __call__(self, k: int) -> complex:
        x = self.epsilon * k
        acc = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sample(self, lo: int, hi: int) -> np.ndarray:
        """``self(k)`` for ``k = lo .. hi``, bit for bit: the same Horner
        steps, on arrays."""
        acc = np.zeros(hi - lo + 1, dtype=complex)
        with np.errstate(all="ignore"):  # overflow is inf or nan, as in __call__
            x = self.epsilon * _float_indices(lo, hi)
            for c in reversed(self.coeffs):
                acc = _times_real(acc, x) + c
        return acc

    def with_epsilon(self, epsilon: float) -> "PolynomialInEpsK":
        return replace(self, epsilon=epsilon)


@dataclass(frozen=True)
class SinusoidalInEpsK(CoefficientModel):
    """``offset + amplitude * sin(frequency * eps * k + phase)``."""

    amplitude: complex
    offset: complex
    frequency: float = 1.0
    phase: float = 0.0
    epsilon: float = 0.0

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")

    def __call__(self, k: int) -> complex:
        arg = self.frequency * self.epsilon * k + self.phase
        return complex(self.offset) + complex(self.amplitude) * math.sin(arg)

    def sample(self, lo: int, hi: int) -> np.ndarray:
        """``self(k)`` for ``k = lo .. hi``, bit for bit: the arguments on
        arrays, then ``math.sin`` (``np.sin`` may round differently).  An
        infinite argument, where ``math.sin`` fails, raises a ``ValueError``
        naming its first k (a NaN argument gives NaN, as in ``__call__``)."""
        with np.errstate(all="ignore"):
            args = (self.frequency * self.epsilon) * _float_indices(lo, hi) + self.phase
        infinite = np.isinf(args)
        if infinite.any():
            k = lo + int(np.argmax(infinite))
            raise ValueError(
                f"sinusoidal model: sine argument is infinite at index k={k} (math domain error)"
            )
        s = np.array(list(map(math.sin, args.tolist())))
        return complex(self.offset) + _times_real(self.amplitude, s)

    def with_epsilon(self, epsilon: float) -> "SinusoidalInEpsK":
        return replace(self, epsilon=epsilon)


@dataclass(frozen=True, eq=False)
class RecurrenceSpec:
    """Order, coefficient models ``f[0..N-1]``, forcing and index window.

    The window is ``[k_start, k_start + horizon + order]`` inclusive; every
    model must be defined on all of it, and ``f[0]`` must be nonzero there.
    ``horizon`` is the number of recursion steps taken by the propagators.

    ``table`` holds the models sampled once over the window, read-only:
    row t is index ``k_start + t``, columns ``f[0] .. f[N-1]`` and then the
    forcing.  Non-finite entries are kept; the consumers report them.
    """

    order: int
    coeffs: tuple[CoefficientModel, ...]
    k_start: int
    horizon: int
    forcing: CoefficientModel = Constant(0.0)
    table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not MIN_ORDER <= self.order <= MAX_ORDER:
            raise ValueError(
                f"order must be in [{MIN_ORDER}, {MAX_ORDER}], got {self.order}"
            )
        if self.horizon < 1:
            raise ValueError("horizon must be a positive integer")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) != self.order:
            raise ValueError(
                f"expected {self.order} coefficient models, got {len(self.coeffs)}"
            )
        lo, hi = self.window
        if lo < -(2**63) or hi >= 2**63:
            raise ValueError(f"the index window [{lo}, {hi}] must fit in int64")
        try:
            table = np.empty((hi - lo + 1, self.order + 1), dtype=complex)
        except (MemoryError, ValueError):  # numpy refuses the shape, or memory runs out
            raise ValueError(f"the index window [{lo}, {hi}] is too long to tabulate") from None
        for j, model in enumerate((*self.coeffs, self.forcing)):
            table[:, j] = model.sample(lo, hi)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        zero = np.flatnonzero(table[:, 0] == 0)
        if zero.size:
            raise ZeroCoefficient("f[0] vanishes inside the window", k=lo + int(zero[0]))

    @property
    def window(self) -> tuple[int, int]:
        return self.k_start, self.k_start + self.horizon + self.order

    def check_window(self, k: int) -> None:
        lo, hi = self.window
        if not lo <= k <= hi:
            raise IndexOutOfWindow(f"window is [{lo}, {hi}]", k=k)

    def coeff_array(self, k: int) -> np.ndarray:
        """``(f[0](k), ..., f[N-1](k))`` as a complex vector (read-only)."""
        self.check_window(k)
        return self.table[k - self.k_start, :-1]

    def forcing_value(self, k: int) -> complex:
        self.check_window(k)
        return complex(self.table[k - self.k_start, -1])

    def is_homogeneous(self) -> bool:
        return not self.table[:, -1].any()

    def with_epsilon(self, epsilon: float) -> "RecurrenceSpec":
        """Copy with the slow-variation parameter replaced in every model."""
        return replace(
            self,
            coeffs=tuple(m.with_epsilon(epsilon) for m in self.coeffs),
            forcing=self.forcing.with_epsilon(epsilon),
        )


@dataclass(frozen=True, eq=False)
class ScalarTrajectory:
    """Solution values ``y[k]`` for ``k = k_start .. k_start + len - 1``."""

    values: np.ndarray
    k_start: int

    def __post_init__(self):
        object.__setattr__(self, "values", np.array(self.values, dtype=complex))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def k_last(self) -> int:
        return self.k_start + len(self.values) - 1

    def value_at(self, k: int) -> complex:
        i = k - self.k_start
        if i < 0 or i >= len(self.values):
            raise IndexOutOfWindow(
                f"trajectory covers [{self.k_start}, {self.k_last}]", k=k
            )
        return complex(self.values[i])


def _initial(initial, order: int) -> np.ndarray:
    """The initial values ``y[k_start] .. y[k_start + N - 1]`` as a complex
    vector, which must have length N."""
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (order,):
        raise ValueError(f"initial data must have length {order}")
    return initial


def _recur(tables, initial: np.ndarray) -> np.ndarray:
    """Values ``(M, H+N)`` of M scalar recursions, member m stepping on the
    coefficient rows ``tables[m]`` ``(H, N+1)`` (``f[0] .. f[N-1]``, then the
    forcing) from ``initial[m]`` ``(N,)``: the one scalar-recursion loop.

    Each index takes one batched product ``(M, 1, N) @ (M, N, 1)``, which
    numpy computes bit for bit as each member's ``f[s] @ y[s:s+N]``, so a
    member's values do not depend on the members beside it.  A lone member
    steps on that 1-D product by the row's own ``dot`` (``np.dot``'s C
    routine without its Python-level ``__array_function__`` dispatcher),
    faster than ``@`` or a batch of one, and its table is not copied."""
    M, H, n = len(tables), len(tables[0]), tables[0].shape[1] - 1
    y = np.empty((M, H + n), dtype=complex)
    y[:, :n] = initial
    if M == 1:
        f, forcing, y1 = tables[0][:, :-1], tables[0][:, -1], y[0]
        for k, row, window, c in zip(range(n, H + n), f, sliding_window_view(y1, n), forcing):
            y1[k] = -(row.dot(window) + c)
        return y
    tables = np.stack(tables, axis=1)  # (H, M, N+1)
    f, forcing = tables[:, :, None, :-1], tables[:, :, -1]
    # window s: each member's column y[m, s:s+N], as (M, N, 1)
    windows = sliding_window_view(y[:, :, None], n, axis=1).swapaxes(-1, -2).swapaxes(0, 1)
    for k, row, window, c in zip(range(n, H + n), f, windows, forcing):
        y[:, k] = -((row @ window)[:, 0, 0] + c)
    return y


def direct_solve(spec: RecurrenceSpec, initial) -> ScalarTrajectory:
    """Run the scalar recursion; the oracle for every other propagator.

    ``initial`` supplies ``y[k_start] .. y[k_start + N - 1]``.  Each step
    evaluates ``y[k+N] = -(f[N-1](k) y[k+N-1] + ... + f[0](k) y[k] + f(k))``
    in double-precision complex arithmetic, and the returned trajectory has
    ``horizon + N`` values: the one-member view of :func:`_recur`.
    """
    initial = _initial(initial, spec.order)
    y = _recur([spec.table[: spec.horizon]], initial[None])[0]
    return ScalarTrajectory(values=y, k_start=spec.k_start)


def _companion(f: np.ndarray) -> np.ndarray:
    """:func:`companion_matrix` of each coefficient row ``f[..., :]``."""
    n = f.shape[-1]
    t = np.zeros(f.shape[:-1] + (n, n), dtype=complex)
    t[..., 0, :] = -f[..., ::-1]
    t[..., np.arange(1, n), np.arange(n - 1)] = 1.0
    return t


def companion_matrix(spec: RecurrenceSpec, k: int) -> np.ndarray:
    """N x N one-step matrix: first row ``(-f[N-1], ..., -f[0])``, ones below."""
    return _companion(spec.coeff_array(k))


def _chain(Y0: np.ndarray, T, push) -> np.ndarray:
    """States ``(M, H+1, N)`` of M chains ``Y[m, s+1] = T[m][s] Y[m, s] +
    push[m][s]``, stepped together from the rows of ``Y0`` ``(M, N)``.
    ``T[m]`` holds chain m's step matrices ``(H, N, N)`` or their diagonals
    ``(H, N)``, and ``push[m]`` its forcing terms ``(H, N)``.  Every compared
    method but the scalar recursion steps on it.

    Each index takes one batched product ``(M, N, N) @ (M, N, 1)``, which
    numpy computes bit for bit as the M products ``(N, N) @ (N,)``, so a
    chain's states do not depend on the chains stepped beside it.  Each chain
    is written once into one ``(H, M, N, N)`` step array (diagonals as ``diag
    * I``).  A lone chain steps in 2-D by ``ndarray.dot`` (``np.dot``
    without its Python-level dispatcher), faster than ``np.matmul`` or a
    batch of one, and on its step matrices uncopied."""
    M, N = np.shape(Y0)
    H = len(T[0])
    if M == 1 and T[0].ndim == 3:
        steps = T[0][:, None]
    else:
        steps = np.empty((H, M, N, N), dtype=complex)
        for m, t in enumerate(T):
            if t.ndim == 2:
                np.multiply(t[..., None], np.eye(N), out=steps[:, m])
            else:
                steps[:, m] = t
    if M == 1:
        steps, push, Y = steps[:, 0], push[0], np.empty((H + 1, N), dtype=complex)
    else:
        push = np.stack(push, axis=1)[..., None]
        Y = np.empty((H + 1, M, N, 1), dtype=complex)
    Y[0] = np.reshape(Y0, Y.shape[1:])
    step = np.ndarray.dot if M == 1 else np.matmul
    for t, p, y, y_next in zip(steps, push, Y, Y[1:]):
        step(t, y, out=y_next)
        y_next += p
    return np.reshape(Y, (H + 1, M, N)).swapaxes(0, 1)


def _companion_chain(spec: RecurrenceSpec, initial) -> tuple[np.ndarray, ...]:
    """Chain inputs of the stacked window: the initial window reversed
    (newest value first), the companion matrices and
    ``push = (-f(k), 0, ..., 0)``."""
    initial = _initial(initial, spec.order)
    n = spec.order
    rows = spec.table[: spec.horizon]
    push = np.zeros((spec.horizon, n), dtype=complex)
    push[:, 0] = -rows[:, -1]
    return initial[::-1], _companion(rows[:, :-1]), push


def companion_propagate(spec: RecurrenceSpec, initial) -> ScalarTrajectory:
    """Propagate the stacked window ``X[k+1] = T(k) X[k] + F(k)``.

    Forcing enters as ``F(k) = (-f(k), 0, ..., 0)`` so the update matches the
    scalar recursion with the forcing moved to the right-hand side.  The
    result is the same trajectory as :func:`direct_solve` up to rounding.
    """
    X0, T, push = _companion_chain(spec, initial)
    X = _chain(X0[None], [T], [push])[0]
    return ScalarTrajectory(values=np.concatenate((X0[::-1], X[1:, 0])), k_start=spec.k_start)
