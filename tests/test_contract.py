"""The CLI contract over schema-valid scenarios: once ``validate`` accepts a
scenario, ``run`` (and ``sweep``, when the scenario has a sweep) either
succeeds with strict output, or reports one numerical breakdown and writes
nothing.

The scenarios are drawn across every model variant, orders 2-8, optional
forcing, magnitudes out to 1e+-300 and windows near 0, near +-2**62 and at
the int64 edge, with method lists biased toward ones the problem accepts.
A draw that ``validate`` rejects passes vacuously.
"""

import cmath
import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wkbrec.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_SCHEMA, main
from wkbrec.wkb import METHOD_NAMES

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

# mostly O(1), sometimes far out in either direction
exponents = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-300, 300))
epsilons = st.one_of(st.just(0.0), st.floats(0.0, 0.1), st.floats(0.0, 1e300))


@st.composite
def numbers(draw, away_from_zero=False):
    """A complex value written in one of the forms the schema accepts."""
    magnitude = 10.0 ** draw(exponents) * draw(st.floats(0.5 if away_from_zero else 0.0, 2.0))
    z = cmath.rect(magnitude, draw(st.floats(0.0, 2 * math.pi)))
    form = draw(st.sampled_from(["pair", "string", "real"]))
    if form == "pair":
        return [z.real, z.imag]
    return str(z) if form == "string" else z.real


@st.composite
def models(draw, lo, hi, away_from_zero=False):
    """A model covering the window ``[lo, hi]``; with ``away_from_zero`` its
    value stays off zero there (the role of ``f[0]``)."""
    variant = draw(st.sampled_from(["constant", "tabulated", "polynomial", "sinusoidal"]))
    value = numbers(away_from_zero)
    if variant == "constant":
        return {"variant": variant, "value": draw(value)}
    if variant == "tabulated":
        before, after = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        cycle = draw(st.lists(value, min_size=1, max_size=4))
        count = hi - lo + 1 + before + after
        return {
            "variant": variant,
            "values": [cycle[i % len(cycle)] for i in range(count)],
            "k_first": lo - before,
        }
    if variant == "polynomial":
        coeffs = [draw(value), *draw(st.lists(numbers(), max_size=3))]
        return {"variant": variant, "coeffs": coeffs, "epsilon": draw(epsilons)}
    offset = draw(value)
    # below one in ratio, the amplitude cannot cancel the offset
    ratio = draw(st.floats(0.0, 0.9)) if away_from_zero else 10.0 ** draw(exponents)
    z = complex(*offset) if isinstance(offset, list) else complex(offset)
    amplitude = cmath.rect(ratio * abs(z), draw(st.floats(0.0, 2 * math.pi)))
    model = {"variant": variant, "amplitude": [amplitude.real, amplitude.imag], "offset": offset}
    for key, values in (("frequency", st.floats(-10, 10)), ("phase", st.floats(-10, 10))):
        if draw(st.booleans()):
            model[key] = draw(values)
    model["epsilon"] = draw(epsilons)
    return model


@st.composite
def scenarios(draw):
    order = draw(st.integers(2, 8))
    horizon = draw(st.integers(1, 40))
    span = horizon + order
    k_start = draw(
        st.one_of(
            st.integers(-5, 5),
            st.integers(2**62 - 5, 2**62 + 5),
            st.integers(-(2**62) - 5, -(2**62) + 5),
            st.integers(INT64_MIN, INT64_MIN + 2),
            st.integers(INT64_MAX - span - 2, INT64_MAX - span + 1),
        )
    )
    lo, hi = k_start, k_start + span
    coefficients = [draw(models(lo, hi, away_from_zero=True))]
    coefficients += [draw(models(lo, hi)) for _ in range(order - 1)]
    forced = draw(st.booleans())
    accepted = [
        name
        for name in METHOD_NAMES
        if not (name in ("explicit3", "wkb3") and order != 3)
        and not (name == "riccati" and forced)
    ]
    names = st.sampled_from(accepted) if draw(st.integers(0, 9)) else st.sampled_from(METHOD_NAMES)
    data = {
        "order": order,
        "k_start": k_start,
        "horizon": horizon,
        "coefficients": coefficients,
        "initial": [draw(numbers()) for _ in range(order)],
        "methods": draw(st.lists(names, min_size=1, max_size=4)),
        "output": {"path": ".", "format": draw(st.sampled_from(["csv", "json"]))},
    }
    if forced:
        data["forcing"] = draw(models(lo, hi))
    if draw(st.booleans()):
        data["epsilon_sweep"] = draw(st.lists(epsilons, min_size=1, max_size=3))
    return data


def call(argv):
    """``main(argv)`` with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def reject_constant(name):
    raise AssertionError(f"non-strict JSON constant {name}")


def assert_strict(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        json.loads(text, parse_constant=reject_constant)
        return
    for line in text.splitlines()[1:]:
        assert all(math.isfinite(float(cell)) for cell in line.split(",")), line


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=scenarios())
def test_validated_scenarios_succeed_or_report_one_breakdown(data):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        root = Path(tmp)
        scenario = root / "scenario.json"
        scenario.write_text(json.dumps(data), encoding="utf-8")
        code, _, _ = call(["validate", str(scenario)])
        assert code in (EXIT_OK, EXIT_SCHEMA)
        if code != EXIT_OK:
            return
        commands = ["run", "sweep"] if "epsilon_sweep" in data else ["run"]
        for command in commands:
            outdir = root / command
            code, _, err = call([command, str(scenario), "--output-dir", str(outdir)])
            if code == EXIT_NUMERICAL:
                lines = err.splitlines()
                assert len(lines) == 1 and err.endswith("\n"), err
                assert lines[0].startswith("numerical breakdown: "), err
                assert "at index k=" in lines[0], err
                assert not outdir.exists()
                continue
            assert (code, err) == (EXIT_OK, "")
            written = sorted(outdir.iterdir())
            assert len(written) == (1 if command == "sweep" else 2 + len(commands))
            for path in written:
                assert_strict(path)
