"""Scenario files fuzzed against the CLI's one failure policy.

Valid scenarios (every model variant, forced or not, with or without an
epsilon sweep) have one or two nodes replaced, deleted or inserted from a
pool of JSON edge cases.  Whatever the file holds, ``validate`` and ``run``
exit with a code of the policy and print no traceback; a file that
``validate`` accepts is not a schema error of ``run``; and the resolved file
of a successful run reads back to the same coefficient table.
"""

import contextlib
import copy
import io
import json
import os
import random
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wkbrec.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_SCHEMA, main
from wkbrec.scenario import load_scenario
from wkbrec.wkb import METHOD_NAMES

VARIANTS = ("constant", "tabulated", "polynomial", "sinusoidal")
WRONG_MODELS = [
    {"variant": "constant", "value": "1"},
    {"variant": "tabulated", "values": ["1", "2"], "k_first": 0},
    {"variant": "polynomial", "coeffs": ["1", "0.5"], "epsilon": 0.01},
    {"variant": "sinusoidal", "amplitude": "0.1", "offset": "1", "epsilon": 0.01},
]
POOL = [
    None, True, False, 0, -0.0, 1e308, -1e308, 1e-320, 2**63, 2**70,
    "", "nan", "1e999", "a\x00b", [], {}, [[]], [[[0]]], [[1, 2], [3]],
    *WRONG_MODELS,
]  # fmt: skip
KEYS = ["order", "horizon", "k_start", "variant", "value", "values", "methods", "extra"]


def text(z: complex) -> str:
    return f"{z.real!r}{z.imag:+.17g}j"


def model(variant: str, value: complex, window: range) -> dict:
    """A model of ``variant`` within about 0.1 of ``value`` over ``window``."""
    if variant == "constant":
        return {"variant": variant, "value": text(value)}
    if variant == "tabulated":
        values = [[value.real + 1e-3 * t, value.imag] for t in range(len(window))]
        return {"variant": variant, "values": values, "k_first": window.start}
    if variant == "polynomial":
        return {"variant": variant, "coeffs": [text(value), "0.5"], "epsilon": 0.01}
    return {"variant": variant, "amplitude": "0.1", "offset": text(value), "epsilon": 0.01}


@st.composite
def scenarios(draw) -> dict:
    n = draw(st.integers(2, 4))
    horizon = draw(st.integers(1, 12))
    k_start = draw(st.integers(-5, 5))
    window = range(k_start, k_start + horizon + n + 1)
    # distinct magnitudes keep the roots apart
    units = draw(st.lists(st.sampled_from([1.0, -1.0, 1j, -1j]), min_size=n, max_size=n))
    f = np.poly([(j + 1) * u for j, u in enumerate(units)])[1:][::-1]
    variants = st.sampled_from(VARIANTS)
    data = {
        "order": n,
        "k_start": k_start,
        "horizon": horizon,
        "coefficients": [model(draw(variants), complex(c), window) for c in f],
        "initial": [text(complex(1.0, 0.5 * j)) for j in range(n)],
        "output": {"path": "out", "format": draw(st.sampled_from(["csv", "json"]))},
    }
    forced = draw(st.booleans())
    if forced:
        data["forcing"] = model(draw(variants), 0.3 + 0.2j, window)
    allowed = [
        name
        for name in METHOD_NAMES
        if (n == 3 or name not in ("explicit3", "wkb3")) and not (forced and name == "riccati")
    ]
    data["methods"] = draw(st.lists(st.sampled_from(allowed), min_size=1, unique=True))
    if draw(st.booleans()):
        sweep = st.sampled_from([0.005, 0.01, 0.02])
        data["epsilon_sweep"] = draw(st.lists(sweep, min_size=1, max_size=3))
    return data


def nodes(tree, path=()):
    """The path of every node below ``tree``."""
    if isinstance(tree, (dict, list)):
        for key, child in tree.items() if isinstance(tree, dict) else enumerate(tree):
            yield path + (key,)
            yield from nodes(child, path + (key,))


def pick(paths, rng: random.Random):
    """One of ``paths``: a field of the schema (a path with its list
    indices left out), each alike, then one node of that field, so that the
    long lists of table values do not take most mutations."""
    fields: dict = {}
    for path in paths:
        fields.setdefault(tuple("*" if type(key) is int else key for key in path), []).append(path)
    return rng.choice(fields[rng.choice(sorted(fields))])


def mutate(tree, rng: random.Random) -> None:
    """Replace, delete or insert one node of ``tree`` with a pool value."""
    paths = list(nodes(tree))
    value = copy.deepcopy(rng.choice(POOL))
    action = rng.choice(["replace", "delete", "insert"])
    if action == "insert":
        containers = [()] + [p for p in paths if isinstance(at(tree, p), (dict, list))]
        parent = at(tree, pick(containers, rng))
        if isinstance(parent, dict):
            parent[rng.choice(KEYS)] = value
        else:
            parent.insert(rng.randint(0, len(parent)), value)
        return
    path = pick(paths, rng)
    parent = at(tree, path[:-1])
    if action == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value


def at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def cli(*argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and all it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue() + err.getvalue()


@contextlib.contextmanager
def in_temporary_directory():
    """A fresh working directory, so that any output path of a mutated file
    lies inside it."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield Path(tmp)
        finally:
            os.chdir(cwd)


def check_policy(scenario) -> tuple[int, int]:
    """The exit codes of ``validate`` and ``run`` on ``scenario``, once they
    are checked against the failure policy."""
    with in_temporary_directory() as tmp:
        path = tmp / "s.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        validated, printed = cli("validate", str(path))
        assert validated in (EXIT_OK, EXIT_SCHEMA, EXIT_NUMERICAL, EXIT_IO), printed
        assert "Traceback" not in printed
        ran, printed = cli("run", str(path))
        assert ran in (EXIT_OK, EXIT_SCHEMA, EXIT_NUMERICAL, EXIT_IO), printed
        assert "Traceback" not in printed
        if validated == EXIT_OK:
            assert ran != EXIT_SCHEMA, printed
        if ran == EXIT_OK:
            loaded = load_scenario(path)
            resolved = Path(loaded.output_path) / "s_resolved.json"
            assert cli("validate", str(resolved)) == (EXIT_OK, "")
            assert load_scenario(resolved).spec.table.tobytes() == loaded.spec.table.tobytes()
    return validated, ran


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=scenarios(), seed=st.integers(0, 2**32 - 1), count=st.integers(1, 2))
def test_mutated_scenarios_keep_the_failure_policy(scenario, seed, count):
    # the mutations draw from their own generator: Hypothesis's draws lean
    # to the first choices, which would mostly hit the first fields
    rng = random.Random(seed)
    for _ in range(count):
        mutate(scenario, rng)
    check_policy(scenario)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(scenario=scenarios())
def test_the_unmutated_scenarios_validate_and_run(scenario):
    assert check_policy(scenario) == (EXIT_OK, EXIT_OK)
