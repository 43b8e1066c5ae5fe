"""Correctness checks applied to every benchmark operation.

Each check returns a list of human-readable problems; an operation fails when
any check reports one.  The tolerances are those of the acceptance suite:
exact methods must match the scalar-recursion oracle to 1e-9 pointwise
relative error (criterion 1), the ratio route to 1e-7 (criterion 6), and each
halving of the slow-variation parameter must shrink the WKB terminal error by
at least the factor 0.75 (criterion 5).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np

EXACT_TOL = {
    "direct": 1e-9,
    "companion": 1e-9,
    "gauge-exact": 1e-9,
    "explicit3": 1e-9,
    "riccati": 1e-7,
}
WKB_METHODS = ("wkb3", "wkb-general")
WKB_MAX_RATIO = 0.75


def scalar_oracle(coeffs: np.ndarray, forcing: np.ndarray, initial) -> np.ndarray:
    """The scalar recursion, written independently of the library.

    ``coeffs[s]`` holds ``(f[0], ..., f[N-1])`` and ``forcing[s]`` holds
    ``f`` at step s; returns ``y`` for steps ``0 .. len(coeffs)``.
    """
    initial = np.asarray(initial, dtype=complex)
    n = len(initial)
    steps = len(coeffs)
    y = np.empty(steps + n, dtype=complex)
    y[:n] = initial
    for s in range(steps):
        y[s + n] = -(coeffs[s] @ y[s : s + n] + forcing[s])
    return y[: steps + 1]


def relative_errors(values, oracle) -> np.ndarray:
    oracle = np.asarray(oracle)
    return np.abs(np.asarray(values) - oracle) / np.maximum(np.abs(oracle), 1e-300)


def check_finite(label: str, values) -> list[str]:
    arr = np.asarray(values)
    if arr.size and not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr.ravel()))[0])
        return [f"{label}: non-finite value at position {bad}"]
    return []


def check_against_oracle(method: str, values, oracle) -> list[str]:
    """Finite values; exact methods within their tolerance of the oracle."""
    problems = check_finite(f"{method} values", values)
    if problems:
        return problems
    if len(values) != len(oracle):
        return [f"{method}: {len(values)} values, oracle has {len(oracle)}"]
    tol = EXACT_TOL.get(method)
    if tol is not None:
        worst = float(np.max(relative_errors(values, oracle)))
        if not worst <= tol:
            return [f"{method}: max relative error {worst:.3e} above {tol:g}"]
    return []


def check_reported_errors(method: str, errors) -> list[str]:
    """The program's own error table: finite, and exact methods in tolerance."""
    problems = check_finite(f"{method} reported errors", errors)
    tol = EXACT_TOL.get(method)
    if not problems and tol is not None and len(errors):
        worst = float(np.max(errors))
        if not worst <= tol:
            problems.append(f"{method}: reported error {worst:.3e} above {tol:g}")
    return problems


def check_wkb_ratios(method: str, terminal_errors) -> list[str]:
    errs = np.asarray(terminal_errors, dtype=float)
    problems = check_finite(f"{method} sweep errors", errs)
    if problems:
        return problems
    ratios = errs[1:] / errs[:-1]
    if np.any(~(ratios <= WKB_MAX_RATIO)):
        return [f"{method}: sweep error ratios {np.round(ratios, 3).tolist()} above {WKB_MAX_RATIO}"]
    return []


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(text: str):
    """Parse JSON, rejecting the NaN/Infinity tokens Python would accept."""
    return json.loads(text, parse_constant=_reject_constant)


def read_json(path: Path) -> tuple[object, list[str]]:
    try:
        return strict_json(path.read_text(encoding="utf-8")), []
    except ValueError as exc:
        return None, [f"{path.name}: invalid JSON ({exc})"]


def read_csv_columns(path: Path) -> tuple[dict[str, np.ndarray], list[str]]:
    """Numeric CSV as name -> column; unparsable cells are reported."""
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    if not rows:
        return {}, [f"{path.name}: empty table"]
    header, body = rows[0], rows[1:]
    columns: dict[str, np.ndarray] = {}
    for j, name in enumerate(header):
        try:
            columns[name] = np.array([float(row[j]) for row in body])
        except (ValueError, IndexError):
            return {}, [f"{path.name}: column {name!r} is not numeric"]
    return columns, []


def digest_files(directory: Path) -> str:
    """Hash of every file's name and bytes, for the byte-stability check."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def digest_arrays(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()
