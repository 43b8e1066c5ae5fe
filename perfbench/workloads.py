"""The three benchmark workloads: seeded inputs, one operation, its checks.

Each workload is chosen so that a different layer dominates its operation:

* ``order3-run-sweep``: one in-process ``wkbrec run`` of the README order-3
  family with all seven methods and a three-value epsilon sweep, CSV output.
  Root finding dominates (every root-based method recomputes the frames).
* ``order8-forced``: one library ``compare_methods`` call at the maximal
  order with sinusoidal forcing.  Brute-force branch tracking over all 8!
  permutations dominates; frames are computed once per call.
* ``tabulated-baselines``: one in-process ``wkbrec run`` of a long tabulated
  order-4 problem with the two baselines only, JSON output.  No roots are
  computed; coefficient sampling, scenario parsing and file writing share
  the operation.

The seed draws only the inputs listed per workload; the program sees nothing
but the generated scenario file or parameter file.  Every workload computes
its own scalar-recursion oracle, independently of the library, to check the
program's output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import checks
from setup_probe import build_inputs

ALL_METHODS = (
    "direct",
    "companion",
    "gauge-exact",
    "explicit3",
    "wkb3",
    "riccati",
    "wkb-general",
)


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _complex_normal(rng, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _sinusoid(amplitude: complex, offset: complex, epsilon: float, k: int) -> complex:
    # offset + amplitude * sin(frequency * eps * k + phase), frequency 1, phase 0
    return complex(offset) + complex(amplitude) * math.sin(1.0 * epsilon * k + 0.0)


class Workload:
    """One workload at one seed; ``prepare`` must run before ``op``."""

    name = ""
    stem = "input"
    input_kind = "scenario"  # how setup_probe.build_inputs reads the input file
    reference_kind = "python"  # the reference.Reference loop that times it
    methods: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.smoke = smoke
        self.input_path = self.workdir / f"{self.stem}.json"
        self.first_digest: str | None = None

    @property
    def steps_per_op(self) -> int:
        """Method-steps one operation takes (horizon x methods x problems)."""
        raise NotImplementedError

    def prepare(self, wkbrec) -> None:
        raise NotImplementedError

    def before_op(self) -> None:
        """Untimed reset between operations."""

    def op(self, wkbrec):
        raise NotImplementedError

    def problems(self, out) -> tuple[list[str], str]:
        """Problems found in one operation's output, and its digest."""
        raise NotImplementedError

    def check(self, out) -> list[str]:
        problems, digest = self.problems(out)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("output bytes differ from the first operation of this run")
        return problems

    def method_inputs(self, wkbrec):
        """(spec, initial) on which single-method timings are taken."""
        raise NotImplementedError

    def output_size(self) -> tuple[int, int]:
        """(files, bytes) the last operation wrote."""
        return 0, 0


class CliRun(Workload):
    """One in-process ``wkbrec run`` on a generated scenario file."""

    fmt = "csv"

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        self.outdir = self.workdir / "out"

    def scenario(self, rng) -> dict:
        raise NotImplementedError

    def coefficient_table(self) -> np.ndarray:
        """``(horizon, N)`` coefficients at the scenario's own epsilon."""
        raise NotImplementedError

    def prepare(self, wkbrec) -> None:
        rng = np.random.default_rng(self.seed)
        self.data = self.scenario(rng)
        self.horizon = self.data["horizon"]
        self.initial = np.array([complex(*z) for z in self.data["initial"]])
        self.input_path.write_text(json.dumps(self.data), encoding="utf-8")
        self.oracle = checks.scalar_oracle(
            self.coefficient_table(), np.zeros(self.horizon, dtype=complex), self.initial
        )

    def before_op(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)

    def op(self, wkbrec):
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = ["run", str(self.input_path), "--output-dir", str(self.outdir)]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = wkbrec.cli.main(argv)
        return code, stderr.getvalue()

    def _table(self, kind: str):
        """Read one output table as (k, name -> column), plus problems."""
        path = self.outdir / f"{self.stem}_{kind}.{self.fmt}"
        if not path.is_file():
            return None, {}, [f"missing output {path.name}"]
        if self.fmt == "csv":
            cols, problems = checks.read_csv_columns(path)
            first = "epsilon" if kind == "sweep" else "k"
            return cols.pop(first, None), cols, problems
        payload, problems = checks.read_json(path)
        if problems:
            return None, {}, problems
        if kind == "trajectory":
            cols = {}
            for name, parts in payload["methods"].items():
                cols[f"{name}_re"] = np.array(parts["re"], dtype=float)
                cols[f"{name}_im"] = np.array(parts["im"], dtype=float)
            return np.array(payload["k"]), cols, []
        if kind == "errors":
            cols = {f"{n}_relerr": np.array(v, dtype=float) for n, v in payload["relative_error"].items()}
            return np.array(payload["k"]), cols, []
        cols = {
            f"{n}_terminal_relerr": np.array(v, dtype=float)
            for n, v in payload["terminal_relative_error"].items()
        }
        return np.array(payload["epsilon"], dtype=float), cols, []

    def problems(self, out):
        code, stderr = out
        if code != 0:
            return [f"wkbrec run exited {code}: {stderr.strip()[:200]}"], ""
        problems: list[str] = []
        expected_k = np.arange(self.horizon + 1)
        k, traj, found = self._table("trajectory")
        problems += found
        if not found:
            if k is None or not np.array_equal(k, expected_k):
                problems.append("trajectory table has the wrong k column")
            for m in self.methods:
                re, im = traj.get(f"{m}_re"), traj.get(f"{m}_im")
                if re is None or im is None:
                    problems.append(f"trajectory table lacks method {m}")
                    continue
                problems += checks.check_against_oracle(m, re + 1j * im, self.oracle)
        k, errs, found = self._table("errors")
        problems += found
        if not found:
            for m in self.methods:
                if f"{m}_relerr" not in errs:
                    problems.append(f"error table lacks method {m}")
                    continue
                problems += checks.check_reported_errors(m, errs[f"{m}_relerr"])
        problems += self.extra_problems()
        resolved = self.outdir / f"{self.stem}_resolved.json"
        if not resolved.is_file():
            problems.append(f"missing output {resolved.name}")
        else:
            problems += checks.read_json(resolved)[1]
        digest = checks.digest_files(self.outdir) if self.outdir.is_dir() else ""
        return problems, digest

    def extra_problems(self) -> list[str]:
        return []

    def method_inputs(self, wkbrec):
        scenario = build_inputs(wkbrec, self.input_kind, str(self.input_path))
        return scenario.spec, scenario.initial

    def output_size(self):
        files = [p for p in self.outdir.iterdir() if p.is_file()] if self.outdir.is_dir() else []
        return len(files), sum(p.stat().st_size for p in files)


class Order3RunSweep(CliRun):
    """README order-3 family, all seven methods, epsilon sweep, CSV output.

    Seed draws: the three initial values, each the README value times
    ``1 + 0.2 (a + ib)`` with standard normal a, b.  They stay near the
    README values because acceptance criterion 5 (each halving of eps cuts
    the WKB terminal error by at least 0.75) is a property of that data, not
    of every initial vector: standard normal draws break it for about one
    seed in forty (0.77 at seed 104) with the program unchanged.
    """

    name = "order3-run-sweep"
    stem = "order3"
    methods = ALL_METHODS
    amplitudes = (0.2, 0.1, -0.1)
    offsets = (-6.0, 11.0, -6.0)
    epsilon = 0.01
    sweep = (0.02, 0.01, 0.005)
    readme_initial = np.array([1 + 0.3j, 0.5 - 0.2j, 0.8 + 0.1j])

    def scenario(self, rng):
        horizon = 20 if self.smoke else 200
        return {
            "order": 3,
            "k_start": 0,
            "horizon": horizon,
            "coefficients": [
                {"variant": "sinusoidal", "amplitude": repr(a), "offset": repr(o), "epsilon": self.epsilon}
                for a, o in zip(self.amplitudes, self.offsets)
            ],
            "initial": [_pair(z) for z in self.readme_initial * (1 + 0.2 * _complex_normal(rng, 3))],
            "methods": list(self.methods),
            "epsilon_sweep": list(self.sweep),
            "output": {"path": "out", "format": self.fmt},
        }

    @property
    def steps_per_op(self):
        return self.horizon * len(self.methods) * (1 + len(self.sweep))

    def coefficient_table(self):
        return np.array(
            [
                [_sinusoid(a, o, self.epsilon, k) for a, o in zip(self.amplitudes, self.offsets)]
                for k in range(self.horizon)
            ]
        )

    def extra_problems(self):
        eps, cols, problems = self._table("sweep")
        if problems:
            return problems
        if eps is None or not np.array_equal(eps, self.sweep):
            problems.append("sweep table has the wrong epsilon column")
        for m in self.methods:
            errs = cols.get(f"{m}_terminal_relerr")
            if errs is None:
                problems.append(f"sweep table lacks method {m}")
            elif m in checks.WKB_METHODS:
                problems += checks.check_wkb_ratios(m, errs)
            else:
                problems += checks.check_reported_errors(m, errs)
        return problems


class TabulatedBaselines(CliRun):
    """Long tabulated order-4 problem, baselines only, JSON output.

    The coefficients are those of ``prod (x - exp(i theta_n(k)))`` with
    ``theta_n(k) = base_n + a_n sin(w_n k + phi_n)``: roots of modulus one
    whose angles wobble one to three times over the horizon, so the solution
    stays O(1).  Seed draws: the angle offsets, wobble amplitudes,
    frequencies and phases, and the four initial values.
    """

    name = "tabulated-baselines"
    stem = "tabulated"
    methods = ("direct", "companion")
    fmt = "json"
    order = 4

    def scenario(self, rng):
        n = self.order
        horizon = 300 if self.smoke else 20000
        base = 2 * np.pi * np.arange(n) / n + rng.uniform(-0.3, 0.3, n)
        amp = rng.uniform(0.05, 0.15, n)
        freq = 2 * np.pi * rng.uniform(1, 3, n) / horizon
        phase = rng.uniform(0, 2 * np.pi, n)
        k = np.arange(horizon + n + 1)
        roots = np.exp(1j * (base + amp * np.sin(np.outer(k, freq) + phase)))
        # ascending f[0 .. N-1] of the monic polynomial with these roots
        self.coeffs = np.array([np.poly(r)[::-1][:-1] for r in roots])
        return {
            "order": n,
            "k_start": 0,
            "horizon": horizon,
            "coefficients": [
                {"variant": "tabulated", "values": [_pair(z) for z in self.coeffs[:, j]], "k_first": 0}
                for j in range(n)
            ],
            "initial": [_pair(z) for z in _complex_normal(rng, n)],
            "methods": list(self.methods),
            "output": {"path": "out", "format": self.fmt},
        }

    @property
    def steps_per_op(self):
        return self.horizon * len(self.methods)

    def coefficient_table(self):
        return self.coeffs[: self.horizon]


class Order8Forced(Workload):
    """Order 8, well-separated base roots, sinusoidal forcing, library call.

    The base roots are those of ``tests/test_wkb.py::sin_family_order``.
    Seed draws: the eight initial values and the forcing offset.
    """

    name = "order8-forced"
    stem = "order8"
    methods = ("direct", "companion", "gauge-exact")
    input_kind = "spec"
    reference_kind = "array"
    base_roots = np.array(
        [0.6 + 0.45j, -1.15 - 0.35j, 1.7 + 0.3j, -1.9 + 0.95j,
         2.2 - 0.75j, -0.45 - 1.5j, 1.05 + 1.6j, -2.3 - 1.1j]
    )
    epsilon = 0.004
    forcing_amplitude = 0.3 + 0.0j

    def prepare(self, wkbrec):
        rng = np.random.default_rng(self.seed)
        n = len(self.base_roots)
        self.horizon = 12 if self.smoke else 150
        offsets = np.poly(self.base_roots)[::-1][:-1]
        amplitudes = 0.05 * (1 + np.arange(n) % 3) + 0j
        initial = _complex_normal(rng, n)
        forcing_offset = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
        params = {
            "order": n,
            "horizon": self.horizon,
            "epsilon": self.epsilon,
            "amplitudes": [_pair(a) for a in amplitudes],
            "offsets": [_pair(o) for o in offsets],
            "forcing_amplitude": _pair(self.forcing_amplitude),
            "forcing_offset": _pair(forcing_offset),
            "initial": [_pair(z) for z in initial],
        }
        self.input_path.write_text(json.dumps(params), encoding="utf-8")
        self.spec, self.initial = build_inputs(wkbrec, self.input_kind, str(self.input_path))
        coeffs = np.array(
            [[_sinusoid(a, o, self.epsilon, k) for a, o in zip(amplitudes, offsets)] for k in range(self.horizon)]
        )
        forcing = np.array(
            [_sinusoid(self.forcing_amplitude, forcing_offset, self.epsilon, k) for k in range(self.horizon)]
        )
        self.oracle = checks.scalar_oracle(coeffs, forcing, initial)

    @property
    def steps_per_op(self):
        return self.horizon * len(self.methods)

    def op(self, wkbrec):
        return wkbrec.compare_methods(self.spec, self.initial, list(self.methods))

    def problems(self, table):
        problems = checks.check_against_oracle("direct", table.oracle, self.oracle)
        for m in self.methods:
            values = table.values.get(m)
            if values is None:
                problems.append(f"result lacks method {m}")
                continue
            problems += checks.check_against_oracle(m, values, self.oracle)
            problems += checks.check_reported_errors(m, table.rel_errors[m])
        arrays = [table.oracle] + [table.values.get(m, []) for m in self.methods]
        return problems, checks.digest_arrays(arrays)

    def method_inputs(self, wkbrec):
        return self.spec, self.initial


WORKLOADS = {w.name: w for w in (Order3RunSweep, Order8Forced, TabulatedBaselines)}
