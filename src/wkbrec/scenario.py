"""Scenario files: a small JSON schema describing one batch run.

A scenario holds the problem (order, coefficient models, forcing, window),
the initial values, the list of propagation methods, an optional list of
slow-variation parameters to sweep, and the output destination.  Complex
numbers are written as decimal literals with an optional imaginary part
("2", "-1.5", "0.3+0.25j") or as two-element [re, im] arrays.

Coefficient models (the ``coefficients`` list runs from f[0] up to f[N-1]):

    {"variant": "constant",   "value": <complex>}
    {"variant": "tabulated",  "values": [<complex>, ...], "k_first": <int>}
    {"variant": "polynomial", "coeffs": [<complex>, ...], "epsilon": <float>}
    {"variant": "sinusoidal", "amplitude": <complex>, "offset": <complex>,
                              "frequency": <float>, "phase": <float>,
                              "epsilon": <float>}

Validation returns a plain list of human-readable diagnostics so the front
end can report every problem at once instead of failing on the first.
"""

from __future__ import annotations

import cmath
import gc
import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import (
    MAX_ORDER,
    MIN_ORDER,
    CoefficientModel,
    Constant,
    PolynomialInEpsK,
    RecurrenceSpec,
    SinusoidalInEpsK,
    Tabulated,
)
from .errors import RecurrenceError
from .wkb import METHOD_NAMES, check_methods

OUTPUT_FORMATS = ("csv", "json")

_TOP_KEYS = {
    "order",
    "k_start",
    "horizon",
    "coefficients",
    "forcing",
    "initial",
    "methods",
    "epsilon_sweep",
    "output",
}


class ScenarioError(ValueError):
    """Scenario file rejected; ``diagnostics`` lists every problem found."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


@dataclass(frozen=True, eq=False)
class Scenario:
    """A validated scenario; ``sweep_problems`` holds the problem
    ``spec.with_epsilon(e)`` of each ``epsilon_sweep`` value, built once."""

    spec: RecurrenceSpec
    initial: np.ndarray
    methods: tuple[str, ...]
    epsilon_sweep: tuple[float, ...] | None
    output_path: str
    output_format: str
    sweep_problems: tuple[RecurrenceSpec, ...] = ()


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _finite(x) -> bool:
    """``math.isfinite``, reading an int past the float range as infinite."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def parse_complex(value) -> complex:
    """Accept real numbers, [re, im] pairs, and decimal strings like '1-2.5j'.

    NaN and infinite parts are rejected: JSON readers accept bare ``NaN``
    and ``Infinity``, but no model value or initial value may be non-finite.
    Neither may an integer past the float range, nor a boolean.
    """
    z = None
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    try:
        if _number(value):
            z = complex(value)
        elif isinstance(value, str):
            try:
                z = complex(value.replace(" ", ""))
            except ValueError:
                pass
        elif isinstance(value, (list, tuple)) and len(value) == 2:
            re, im = value
            if _number(re) and _number(im):
                z = complex(re, im)
    except OverflowError:  # an int past the float range
        raise ValueError(f"not a finite number: {value!r}") from None
    if z is None:
        raise ValueError(f"cannot parse complex number from {value!r}")
    if not cmath.isfinite(z):
        raise ValueError(f"not a finite number: {value!r}")
    return z


def _pair_array(raw) -> np.ndarray | None:
    """``[parse_complex(v) for v in raw]`` as one array when ``raw`` is a
    nonempty list of finite ``[re, im]`` int or float pairs, which
    ``parse_complex`` accepts as they are; None for any other input, which
    then takes the per-value path and its diagnostics."""
    if not (type(raw) is list and raw):
        return None
    if set(map(type, raw)) != {list} or set(map(len, raw)) != {2}:
        return None
    flat = list(chain.from_iterable(raw))
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        parts = np.array(flat, dtype=float)
    except OverflowError:
        return None
    if not np.isfinite(parts).all():
        return None
    # the view keeps each part's bits, -0.0 included (re + 1j * im would not)
    return parts.view(complex)


def _parse_real(value, name: str) -> float:
    if isinstance(value, bool):
        raise ValueError(f"'{name}' must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int past the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"'{name}' must be finite, got {value!r}")
    return x


_MODEL_KEYS = {
    "constant": {"variant", "value"},
    "tabulated": {"variant", "values", "k_first"},
    "polynomial": {"variant", "coeffs", "epsilon"},
    "sinusoidal": {"variant", "amplitude", "offset", "frequency", "phase", "epsilon"},
}


def _listed(entry: dict, key: str) -> list | tuple:
    """``entry[key]``, which must be a list (or tuple) of complex numbers."""
    value = entry[key]
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"'{key}' must be a list of complex numbers, got {value!r}")
    return value


def _parse_model(entry, where: str, errors: list[str]) -> CoefficientModel | None:
    if not isinstance(entry, dict):
        errors.append(f"{where}: expected an object, got {type(entry).__name__}")
        return None
    variant = entry.get("variant")
    keys = _MODEL_KEYS.get(variant, set(entry)) if isinstance(variant, str) else set(entry)
    for key in sorted(set(entry) - keys):
        errors.append(f"{where}: unknown key '{key}' for variant {variant!r}")
    try:
        if variant == "constant":
            return Constant(parse_complex(entry["value"]))
        if variant == "tabulated":
            raw = _listed(entry, "values")
            if not raw:
                raise ValueError("'values' must not be empty")
            values = _pair_array(raw)
            if values is None:
                values = [parse_complex(v) for v in raw]
            k_first = entry["k_first"]
            if not isinstance(k_first, int) or isinstance(k_first, bool):
                raise ValueError(f"'k_first' must be an integer, got {k_first!r}")
            return Tabulated(values=np.array(values), k_first=k_first)
        if variant == "polynomial":
            coeffs = tuple(parse_complex(v) for v in _listed(entry, "coeffs"))
            epsilon = _parse_real(entry.get("epsilon", 0.0), "epsilon")
            return PolynomialInEpsK(coeffs=coeffs, epsilon=epsilon)
        if variant == "sinusoidal":
            return SinusoidalInEpsK(
                amplitude=parse_complex(entry["amplitude"]),
                offset=parse_complex(entry["offset"]),
                frequency=_parse_real(entry.get("frequency", 1.0), "frequency"),
                phase=_parse_real(entry.get("phase", 0.0), "phase"),
                epsilon=_parse_real(entry.get("epsilon", 0.0), "epsilon"),
            )
    except KeyError as exc:
        errors.append(f"{where}: missing field {exc}")
        return None
    except (ValueError, TypeError) as exc:
        errors.append(f"{where}: {exc}")
        return None
    errors.append(
        f"{where}: unknown variant {variant!r} "
        "(expected constant, tabulated, polynomial or sinusoidal)"
    )
    return None


def _check_order(order, errors: list[str]) -> int | None:
    """``order`` if supported, else None with its diagnostic in ``errors``."""
    if not isinstance(order, int) or isinstance(order, bool):
        errors.append("'order' must be an integer")
    elif not MIN_ORDER <= order <= MAX_ORDER:
        errors.append(f"'order' must be in [{MIN_ORDER}, {MAX_ORDER}], got {order}")
    else:
        return order
    return None


def _build(data) -> tuple[Scenario | None, list[str]]:
    errors: list[str] = []
    if not isinstance(data, dict):
        return None, ["scenario must be a JSON object"]
    for key in sorted(set(data) - _TOP_KEYS):
        errors.append(f"unknown key '{key}'")

    order = _check_order(data.get("order"), errors)

    k_start = data.get("k_start", 0)
    if not isinstance(k_start, int) or isinstance(k_start, bool):
        errors.append("'k_start' must be an integer")
        k_start = 0

    horizon = data.get("horizon")
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 1:
        errors.append("'horizon' must be a positive integer")
        horizon = None

    coeff_entries = data.get("coefficients")
    models: list[CoefficientModel] = []
    if not isinstance(coeff_entries, list):
        errors.append("'coefficients' must be a list of model objects")
    else:
        if order is not None and len(coeff_entries) != order:
            errors.append(
                f"'coefficients' must list {order} models (f[0] first), "
                f"got {len(coeff_entries)}"
            )
        for i, entry in enumerate(coeff_entries):
            model = _parse_model(entry, f"coefficients[{i}]", errors)
            if model is not None:
                models.append(model)

    forcing = Constant(0.0)
    if "forcing" in data:
        parsed = _parse_model(data["forcing"], "forcing", errors)
        if parsed is not None:
            forcing = parsed

    initial = None
    raw_initial = data.get("initial")
    if not isinstance(raw_initial, list):
        errors.append("'initial' must be a list of complex numbers")
    else:
        try:
            initial = np.array([parse_complex(v) for v in raw_initial], dtype=complex)
        except ValueError as exc:
            errors.append(f"initial: {exc}")
        if initial is not None and order is not None and len(initial) != order:
            errors.append(f"'initial' must supply {order} values, got {len(initial)}")
            initial = None

    methods = data.get("methods")
    if (
        not isinstance(methods, list)
        or not methods
        or not all(isinstance(m, str) for m in methods)
    ):
        errors.append(f"'methods' must be a nonempty list drawn from {METHOD_NAMES}")
        methods = None

    sweep = None
    if data.get("epsilon_sweep") is not None:
        raw = data["epsilon_sweep"]
        if (
            not isinstance(raw, list)
            or not raw
            or not all(map(_number, raw))
            or not all(_finite(e) and e >= 0 for e in raw)
        ):
            errors.append(
                "'epsilon_sweep' must be a nonempty list of finite nonnegative numbers"
            )
        else:
            sweep = tuple(float(e) for e in raw)

    out_path, out_format = ".", "csv"
    if "output" in data:
        out = data["output"]
        if not isinstance(out, dict):
            errors.append("'output' must be an object with 'path' and 'format'")
        else:
            out_path = out.get("path", ".")
            out_format = out.get("format", "csv")
            if not isinstance(out_path, str):
                errors.append("'output.path' must be a string")
                out_path = "."
            elif "\0" in out_path:
                errors.append("'output.path' must not contain a NUL character")
            if out_format not in OUTPUT_FORMATS:
                errors.append(f"'output.format' must be one of {OUTPUT_FORMATS}")
                out_format = "csv"

    if errors or order is None or horizon is None or initial is None or methods is None:
        return None, errors

    try:
        spec = RecurrenceSpec(
            order=order,
            coeffs=tuple(models),
            k_start=k_start,
            horizon=horizon,
            forcing=forcing,
        )
    except (RecurrenceError, ValueError) as exc:
        return None, [str(exc)]

    # each sweep problem is built here, once, for validate and run alike
    sweep_problems, sweep_errors = _sweep_problems(spec, sweep or (), "epsilon_sweep")
    errors = sweep_errors + check_methods(spec, methods)
    if errors:
        return None, errors
    return (
        Scenario(
            spec=spec,
            initial=initial,
            methods=tuple(dict.fromkeys(methods)),
            epsilon_sweep=sweep,
            output_path=out_path,
            output_format=out_format,
            sweep_problems=sweep_problems,
        ),
        [],
    )


def _sweep_problems(
    spec: RecurrenceSpec, epsilons, where: str
) -> tuple[tuple[RecurrenceSpec, ...], list[str]]:
    """The problem ``spec.with_epsilon(e)`` of each sweep value, and one
    diagnostic per value whose problem cannot be built, naming the value and
    ``where`` it was given."""
    problems, errors = [], []
    for e in epsilons:
        try:
            problems.append(spec.with_epsilon(e))
        except (RecurrenceError, ValueError) as exc:
            errors.append(f"{where} value {e!r}: {exc}")
    return tuple(problems), errors


def validate_scenario_dict(data) -> list[str]:
    """All schema and consistency problems of one scenario, without solving."""
    _, diagnostics = _build(data)
    return diagnostics


def scenario_from_dict(data) -> Scenario:
    scenario, diagnostics = _build(data)
    if scenario is None:
        raise ScenarioError(diagnostics)
    return scenario


def load_scenario(path) -> Scenario:
    """The scenario of the JSON file at ``path``; a :class:`ScenarioError`
    lists what is wrong with it, and a file that is not valid JSON (bytes
    that are not UTF-8, an int past 4300 digits, or nesting deeper than the
    decoder's recursion limit) is the one diagnostic ``not valid JSON: ...``.

    The file is decoded and the scenario built with the cyclic garbage
    collector paused, when it is enabled at entry: a long coefficient table
    is tens of thousands of ``[re, im]`` lists, whose allocation would
    otherwise set off a hundred collector passes that can free nothing,
    since a decoded JSON tree holds no reference cycle.  The pause is safe
    in a library: cycles made meanwhile by other threads wait at most one
    parse, a collector the caller disabled stays disabled, and no thread
    can observe the pause except in when cycles get collected.  The decoded
    tree is dropped before the collector resumes, so the resume does not
    set off a pass over it either.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            # ValueError: also bytes that are not UTF-8, and an int past 4300 digits
            except (ValueError, RecursionError) as exc:
                raise ScenarioError([f"not valid JSON: {exc}"]) from exc
        scenario = scenario_from_dict(data)
        del data
        return scenario
    finally:
        if paused:
            gc.enable()


def _pairs(values: np.ndarray) -> list[list[float]]:
    return np.column_stack((values.real, values.imag)).tolist()


def _resolved_payload(scenario: Scenario) -> dict:
    """:func:`resolved_dict` with the columns and ``initial`` left as complex
    arrays, which the CLI's JSON writer takes as they are."""
    spec = scenario.spec
    columns = [
        {"variant": "tabulated", "values": column, "k_first": spec.k_start}
        for column in spec.table.T
    ]
    return {
        "order": spec.order,
        "k_start": spec.k_start,
        "horizon": spec.horizon,
        "coefficients": columns[:-1],
        "forcing": columns[-1],
        "initial": scenario.initial,
        "methods": list(scenario.methods),
        "output": {"path": scenario.output_path, "format": scenario.output_format},
    }


def resolved_dict(scenario: Scenario) -> dict:
    """Scenario with every model exported as tabulated values over the window.

    The values are the columns of ``spec.table`` as [re, im] pairs: plain
    JSON data, the list view of the ``_resolved.json`` file ``run`` writes.
    Re-ingesting it reproduces the run exactly, since the pairs round-trip
    through JSON at full double precision.  A sweep list is not carried
    over: tabulated models no longer depend on the slow-variation parameter.
    """
    data = _resolved_payload(scenario)
    for model in (*data["coefficients"], data["forcing"]):
        model["values"] = _pairs(model["values"])
    return {**data, "initial": _pairs(data["initial"])}
