import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import wkbrec
from wkbrec import cli
from wkbrec.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_SCHEMA, main
from wkbrec.roots import WARM_STRIDE
from wkbrec.wkb import METHOD_NAMES
from test_root_frames import double_root_then_tie_paths, spec_from_roots


def write_scenario(path, data):
    path.write_text(json.dumps(data, indent=2))
    return str(path)


def fibonacci_scenario(outdir):
    return {
        "order": 2,
        "k_start": 0,
        "horizon": 10,
        "coefficients": [
            {"variant": "constant", "value": "-1"},
            {"variant": "constant", "value": "-1"},
        ],
        "initial": ["0", "1"],
        "methods": ["direct", "companion"],
        "output": {"path": str(outdir), "format": "csv"},
    }


def degenerate_scenario(outdir):
    # equal constant roots make the power gauge degenerate
    return {
        "order": 2,
        "k_start": 0,
        "horizon": 5,
        "coefficients": [
            {"variant": "constant", "value": "1"},
            {"variant": "constant", "value": "-2"},
        ],
        "initial": ["1", "1"],
        "methods": ["gauge-exact"],
        "output": {"path": str(outdir), "format": "csv"},
    }


def sweep_scenario(outdir):
    return {
        "order": 3,
        "k_start": 0,
        "horizon": 200,
        "coefficients": [
            {"variant": "sinusoidal", "amplitude": "0.2", "offset": "-6", "epsilon": 0.02},
            {"variant": "sinusoidal", "amplitude": "0.1", "offset": "11", "epsilon": 0.02},
            {"variant": "sinusoidal", "amplitude": "-0.1", "offset": "-6", "epsilon": 0.02},
        ],
        "initial": ["1+0.3j", "0.5-0.2j", "0.8+0.1j"],
        "methods": ["wkb-general"],
        "epsilon_sweep": [0.02, 0.01, 0.005],
        "output": {"path": str(outdir), "format": "csv"},
    }


def overflow_scenario(outdir):
    # eps * k overflows from k=2 on, so f[1] = 11 + c * eps * k is finite up
    # to k=1 and NaN after
    data = sweep_scenario(outdir)
    data["coefficients"][1] = {
        "variant": "polynomial",
        "coeffs": ["11", "1e-300+1e-300j"],
        "epsilon": 1e308,
    }
    data.pop("epsilon_sweep")
    return data


def all_variants_scenario():
    """Order 4 with every model variant, a varying forcing and a -0.0 entry;
    the window is [3, 19]."""
    tabulated = [[2 + 0.1 * i, -0.0 if i % 3 == 0 else 0.05 * i] for i in range(21)]
    return {
        "order": 4,
        "k_start": 3,
        "horizon": 12,
        "coefficients": [
            {"variant": "tabulated", "values": tabulated, "k_first": 1},
            {"variant": "constant", "value": "-0.75+0.5j"},
            {"variant": "polynomial", "coeffs": ["1", "0.3-0.1j", "-0.05"], "epsilon": 0.07},
            {
                "variant": "sinusoidal",
                "amplitude": "0.2+0.1j",
                "offset": "-1",
                "frequency": 1.3,
                "phase": 0.4,
                "epsilon": 0.05,
            },
        ],
        "forcing": {
            "variant": "sinusoidal",
            "amplitude": "0.5",
            "offset": "0.1-0.2j",
            "frequency": 2.0,
            "phase": -0.3,
            "epsilon": 0.11,
        },
        "initial": ["1", "0.5j", "-0.3", "0.2+0.1j"],
        "methods": ["direct", "companion"],
        "output": {"path": "out", "format": "csv"},
    }


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestRun:
    def test_fibonacci_identical_columns(self, tmp_path):
        scenario = write_scenario(tmp_path / "fib.json", fibonacci_scenario(tmp_path))
        assert main(["run", scenario]) == EXIT_OK
        header, rows = read_csv(tmp_path / "fib_trajectory.csv")
        assert header == ["k", "direct_re", "direct_im", "companion_re", "companion_im"]
        fib = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
        for row, expected in zip(rows, fib):
            assert float(row[1]) == expected
            assert row[1:3] == row[3:5]
        _, err_rows = read_csv(tmp_path / "fib_errors.csv")
        assert all(float(r[1]) == 0 and float(r[2]) == 0 for r in err_rows)

    def test_constant_order3_wkb_matches_oracle(self, tmp_path):
        # constant coefficients: the diagonal approximation is exact
        data = {
            "order": 3,
            "k_start": 0,
            "horizon": 40,
            "coefficients": [
                {"variant": "constant", "value": "-6"},
                {"variant": "constant", "value": "11"},
                {"variant": "constant", "value": "-6"},
            ],
            "initial": ["3", "6", "14"],
            "methods": ["gauge-exact", "wkb3"],
            "output": {"path": str(tmp_path), "format": "csv"},
        }
        scenario = write_scenario(tmp_path / "c3.json", data)
        assert main(["run", scenario]) == EXIT_OK
        _, rows = read_csv(tmp_path / "c3_errors.csv")
        for row in rows:
            assert float(row[1]) < 1e-10 and float(row[2]) < 1e-10

    def test_deterministic_output(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        data = sweep_scenario(dir_a)
        scenario_a = write_scenario(tmp_path / "s.json", data)
        assert main(["run", scenario_a]) == EXIT_OK
        assert main(["run", scenario_a, "--output-dir", str(dir_b)]) == EXIT_OK
        for name in ("s_trajectory.csv", "s_errors.csv", "s_sweep.csv", "s_resolved.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_resolved_round_trip(self, tmp_path):
        data = sweep_scenario(tmp_path)
        data.pop("epsilon_sweep")
        scenario = write_scenario(tmp_path / "orig.json", data)
        assert main(["run", scenario]) == EXIT_OK
        resolved = json.loads((tmp_path / "orig_resolved.json").read_text())
        resolved["output"]["path"] = str(tmp_path / "again")
        rerun = write_scenario(tmp_path / "orig.json", resolved)
        assert main(["run", rerun]) == EXIT_OK
        assert (tmp_path / "orig_trajectory.csv").read_bytes() == (
            tmp_path / "again" / "orig_trajectory.csv"
        ).read_bytes()

    def test_json_format(self, tmp_path):
        data = fibonacci_scenario(tmp_path)
        data["output"]["format"] = "json"
        scenario = write_scenario(tmp_path / "fib.json", data)
        assert main(["run", scenario]) == EXIT_OK
        payload = json.loads((tmp_path / "fib_trajectory.json").read_text())
        assert payload["k"] == list(range(11))
        assert payload["methods"]["direct"]["re"][-1] == 55

    def test_schema_error_exit_code(self, tmp_path, capsys):
        data = fibonacci_scenario(tmp_path)
        data["order"] = 77
        scenario = write_scenario(tmp_path / "bad.json", data)
        assert main(["run", scenario]) == EXIT_SCHEMA

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == EXIT_IO

    def test_numerical_breakdown_exit_code(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "deg.json", degenerate_scenario(tmp_path))
        assert main(["run", scenario]) == EXIT_NUMERICAL
        assert "breakdown" in capsys.readouterr().err

    def test_unwritable_output_is_io_error(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        data = fibonacci_scenario(target)
        scenario = write_scenario(tmp_path / "fib.json", data)
        assert main(["run", scenario]) == EXIT_IO


class TestValidate:
    def test_valid_scenario_silent_ok(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "ok.json", fibonacci_scenario(tmp_path))
        assert main(["validate", scenario]) == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_zero_f0_diagnostic(self, tmp_path, capsys):
        data = fibonacci_scenario(tmp_path)
        data["coefficients"][0]["value"] = "0"
        scenario = write_scenario(tmp_path / "zero.json", data)
        assert main(["validate", scenario]) == EXIT_SCHEMA
        assert "f[0]" in capsys.readouterr().out

    def test_method_mismatch_diagnostic(self, tmp_path, capsys):
        data = fibonacci_scenario(tmp_path)
        data["methods"] = ["wkb3"]
        scenario = write_scenario(tmp_path / "mismatch.json", data)
        assert main(["validate", scenario]) == EXIT_SCHEMA
        assert "requires order 3" in capsys.readouterr().out

    def test_invalid_json_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert main(["validate", str(path)]) == EXIT_SCHEMA
        assert "JSON" in capsys.readouterr().out


_MODEL = {"variant": "constant", "value": "-1"}


class TestValidatorDiagnostics:
    """Each diagnostic of the scenario validator, alone and exactly, as
    ``validate`` lists it on stdout."""

    @pytest.mark.parametrize(
        "changes, diagnostic",
        [
            pytest.param(
                {"coefficients": [5, _MODEL]},
                "coefficients[0]: expected an object, got int",
                id="model-not-an-object",
            ),
            pytest.param(
                {"coefficients": [{**_MODEL, "scale": 2}, _MODEL]},
                "coefficients[0]: unknown key 'scale' for variant 'constant'",
                id="unknown-model-key",
            ),
            pytest.param(
                {"coefficients": [_MODEL, {"variant": "constant"}]},
                "coefficients[1]: missing field 'value'",
                id="missing-field",
            ),
            pytest.param(
                {"coefficients": [{"variant": "cubic"}, _MODEL]},
                "coefficients[0]: unknown variant 'cubic' "
                "(expected constant, tabulated, polynomial or sinusoidal)",
                id="unknown-variant",
            ),
            pytest.param(
                {"coefficients": [_MODEL, {"variant": "tabulated", "values": 5, "k_first": 0}]},
                "coefficients[1]: 'values' must be a list of complex numbers, got 5",
                id="values-not-a-list",
            ),
            pytest.param(
                {"coefficients": [_MODEL, {"variant": "tabulated", "values": "abc", "k_first": 0}]},
                "coefficients[1]: 'values' must be a list of complex numbers, got 'abc'",
                id="values-a-string",
            ),
            pytest.param(
                {"coefficients": [_MODEL, {"variant": "polynomial", "coeffs": 5}]},
                "coefficients[1]: 'coeffs' must be a list of complex numbers, got 5",
                id="coeffs-not-a-list",
            ),
            pytest.param(
                {"coefficients": [_MODEL, {"variant": "tabulated", "values": [], "k_first": 0}]},
                "coefficients[1]: 'values' must not be empty",
                id="values-empty",
            ),
            pytest.param([1, 2], "scenario must be a JSON object", id="not-an-object"),
            pytest.param({"order": "2"}, "'order' must be an integer", id="order"),
            pytest.param({"k_start": 1.5}, "'k_start' must be an integer", id="k_start"),
            pytest.param({"horizon": 0}, "'horizon' must be a positive integer", id="horizon"),
            pytest.param(
                {"coefficients": {"f0": _MODEL}},
                "'coefficients' must be a list of model objects",
                id="coefficients-not-a-list",
            ),
            pytest.param(
                {"coefficients": [_MODEL] * 3},
                "'coefficients' must list 2 models (f[0] first), got 3",
                id="model-count",
            ),
            pytest.param(
                {"initial": ["0", "1", "1"]},
                "'initial' must supply 2 values, got 3",
                id="initial-length",
            ),
            pytest.param(
                {"output": "out"},
                "'output' must be an object with 'path' and 'format'",
                id="output-not-an-object",
            ),
            pytest.param(
                {"output": {"path": 5, "format": "csv"}},
                "'output.path' must be a string",
                id="output-path",
            ),
            pytest.param(
                {"output": {"path": ".", "format": "xml"}},
                "'output.format' must be one of ('csv', 'json')",
                id="output-format",
            ),
        ],
    )
    def test_each_diagnostic_is_listed(self, tmp_path, capsys, changes, diagnostic):
        data = changes
        if isinstance(changes, dict):
            data = {**fibonacci_scenario(tmp_path), **changes}
        assert wkbrec.validate_scenario_dict(data) == [diagnostic]
        scenario = write_scenario(tmp_path / "bad.json", data)
        assert main(["validate", scenario]) == EXIT_SCHEMA
        assert capsys.readouterr() == (diagnostic + "\n", "")


class TestNonFiniteInput:
    def validate(self, tmp_path, capsys, data):
        scenario = write_scenario(tmp_path / "bad.json", data)
        code = main(["validate", scenario])
        return code, capsys.readouterr().out

    def test_nan_epsilon_rejected(self, tmp_path, capsys):
        data = sweep_scenario(tmp_path)
        data["coefficients"][1]["epsilon"] = float("nan")
        code, out = self.validate(tmp_path, capsys, data)
        assert code == EXIT_SCHEMA
        assert "coefficients[1]: 'epsilon' must be finite" in out

    def test_infinite_frequency_and_phase_rejected(self, tmp_path, capsys):
        data = sweep_scenario(tmp_path)
        data["coefficients"][0]["frequency"] = float("inf")
        data["coefficients"][2]["phase"] = float("-inf")
        code, out = self.validate(tmp_path, capsys, data)
        assert code == EXIT_SCHEMA
        assert "coefficients[0]: 'frequency' must be finite" in out
        assert "coefficients[2]: 'phase' must be finite" in out

    def test_non_finite_complex_values_rejected(self, tmp_path, capsys):
        data = fibonacci_scenario(tmp_path)
        data["coefficients"][1]["value"] = float("nan")
        data["initial"] = ["inf", "1"]
        code, out = self.validate(tmp_path, capsys, data)
        assert code == EXIT_SCHEMA
        assert "coefficients[1]: not a finite number" in out
        assert "initial: not a finite number" in out

    def test_non_finite_sweep_value_rejected(self, tmp_path, capsys):
        data = sweep_scenario(tmp_path)
        data["epsilon_sweep"] = [0.02, float("nan")]
        code, out = self.validate(tmp_path, capsys, data)
        assert code == EXIT_SCHEMA
        assert "'epsilon_sweep' must be a nonempty list of finite" in out

    def test_fractional_k_first_rejected(self, tmp_path, capsys):
        data = fibonacci_scenario(tmp_path)
        data["coefficients"][0] = {"variant": "tabulated", "values": [-1] * 20, "k_first": 2.7}
        code, out = self.validate(tmp_path, capsys, data)
        assert code == EXIT_SCHEMA
        assert "'k_first' must be an integer" in out

    def test_tolerance_must_be_positive_and_finite(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "fib.json", fibonacci_scenario(tmp_path))
        for value in ("-1", "0", "nan", "inf", "abc"):
            with pytest.raises(SystemExit) as info:
                main(["run", scenario, "--tolerance", value])
            assert info.value.code == EXIT_SCHEMA
            assert "--tolerance: must be a positive finite number" in capsys.readouterr().err

    def test_sweep_override_must_be_finite(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "sw.json", sweep_scenario(tmp_path))
        with pytest.raises(SystemExit) as info:
            main(["sweep", scenario, "--epsilons", "0.01", "nan"])
        assert info.value.code == EXIT_SCHEMA
        assert "--epsilons: must be a nonnegative finite number" in capsys.readouterr().err

    def test_overflowing_coefficient_names_its_index(self, tmp_path, capsys):
        # the scenario validates, and the root pass reports where it broke
        data = overflow_scenario(tmp_path)
        data["methods"] = ["gauge-exact"]
        scenario = write_scenario(tmp_path / "overflow.json", data)
        assert main(["validate", scenario]) == EXIT_OK
        assert main(["run", scenario]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "non-finite characteristic coefficient at index k=2" in err
        assert "Traceback" not in err

    def test_sweep_value_whose_problem_cannot_be_built_is_a_schema_error(
        self, tmp_path, capsys
    ):
        # at epsilon 0 the sine argument is the phase; at 0.01 it is
        # 1e298 * 2**62, infinite, so the sweep problem cannot be sampled
        outdir = tmp_path / "out"
        data = readme_window(outdir, 2**62, 5)
        data["coefficients"][0] = {
            "variant": "sinusoidal", "amplitude": "0.2", "offset": "-6",
            "frequency": 1e300, "epsilon": 0,
        }
        data["epsilon_sweep"] = [0, 0.01]
        scenario = write_scenario(tmp_path / "sw.json", data)
        line = (
            "epsilon_sweep value 0.01: sinusoidal model: sine argument is infinite "
            f"at index k={2**62} (math domain error)\n"
        )
        assert main(["validate", scenario]) == EXIT_SCHEMA
        assert capsys.readouterr() == (line, "")
        assert main(["run", scenario]) == EXIT_SCHEMA
        assert capsys.readouterr() == ("", line)
        assert not outdir.exists()

    def test_sweep_override_whose_problem_cannot_be_built_is_a_schema_error(
        self, tmp_path, capsys
    ):
        # the scenario above without its sweep list: the command-line values
        # are built as the scenario's are, and the failing one is named
        outdir = tmp_path / "out"
        data = readme_window(outdir, 2**62, 5)
        data["coefficients"][0] = {
            "variant": "sinusoidal", "amplitude": "0.2", "offset": "-6",
            "frequency": 1e300, "epsilon": 0,
        }
        scenario = write_scenario(tmp_path / "sw.json", data)
        assert main(["validate", scenario]) == EXIT_OK
        line = (
            "--epsilons value 0.01: sinusoidal model: sine argument is infinite "
            f"at index k={2**62} (math domain error)\n"
        )
        assert main(["sweep", scenario, "--epsilons", "0", "0.01"]) == EXIT_SCHEMA
        assert capsys.readouterr() == ("", line)
        assert not outdir.exists()
        assert main(["sweep", scenario, "--epsilons", "0"]) == EXIT_OK


class TestSweep:
    def test_monotone_sweep_summary(self, tmp_path):
        scenario = write_scenario(tmp_path / "sw.json", sweep_scenario(tmp_path))
        assert main(["sweep", scenario]) == EXIT_OK
        header, rows = read_csv(tmp_path / "sw_sweep.csv")
        assert header == ["epsilon", "wkb-general_terminal_relerr"]
        errs = [float(r[1]) for r in rows]
        assert errs[1] < errs[0] and errs[2] < errs[1]

    def test_epsilon_override_flag(self, tmp_path):
        data = sweep_scenario(tmp_path)
        data.pop("epsilon_sweep")
        scenario = write_scenario(tmp_path / "sw.json", data)
        assert main(["sweep", scenario, "--epsilons", "0.02", "0.01"]) == EXIT_OK
        _, rows = read_csv(tmp_path / "sw_sweep.csv")
        assert [float(r[0]) for r in rows] == [0.02, 0.01]

    def test_no_epsilons_is_schema_error(self, tmp_path):
        data = sweep_scenario(tmp_path)
        data.pop("epsilon_sweep")
        scenario = write_scenario(tmp_path / "sw.json", data)
        assert main(["sweep", scenario]) == EXIT_SCHEMA

    def test_json_table_is_strict_and_equals_the_csv_table(self, tmp_path):
        def reject(token):
            raise ValueError(f"not strict JSON: {token}")

        scenario = write_scenario(tmp_path / "sw.json", sweep_scenario(tmp_path))
        assert main(["sweep", scenario, "--format", "json"]) == EXIT_OK
        payload = json.loads((tmp_path / "sw_sweep.json").read_text(), parse_constant=reject)
        assert main(["sweep", scenario]) == EXIT_OK
        header, rows = read_csv(tmp_path / "sw_sweep.csv")
        assert header == ["epsilon", "wkb-general_terminal_relerr"]
        # %.17g reads back to the same double, so equal floats are equal bits
        assert payload["epsilon"] == [float(row[0]) for row in rows]
        assert payload["terminal_relative_error"] == {
            "wkb-general": [float(row[1]) for row in rows]
        }


def readme_scenario(outdir, epsilon):
    """The README scenario with every model at ``epsilon``; its sweep is
    0.02, 0.01, 0.005."""
    data = sweep_scenario(outdir)
    for model in data["coefficients"]:
        model["epsilon"] = epsilon
    data["methods"] = ["direct", "companion", "gauge-exact", "wkb3"]
    return data


class TestSweepReuse:
    """``run`` computes its own problem once, for its tables and for a sweep
    value with the same coefficient table, and all distinct problems in one
    batch: one root pass, one recursion loop and one chain."""

    def count_calls(self, monkeypatch, module, name, size):
        # one entry per call: the size of the batch it was handed
        calls = []
        original = getattr(module, name)

        def counted(*args):
            calls.append(size(*args))
            return original(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    def count_batches(self, monkeypatch):
        wkb = wkbrec.wkb
        return (
            self.count_calls(monkeypatch, wkb, "_root_tables", lambda spans, tol: len(spans)),
            self.count_calls(monkeypatch, wkb, "_recur", lambda tables, initial: len(initial)),
            self.count_calls(monkeypatch, wkb, "_chain", lambda Y0, T, push: len(Y0)),
        )

    def run_and_sweep(self, tmp_path, monkeypatch, epsilon):
        scenario = write_scenario(tmp_path / "readme.json", readme_scenario(tmp_path, epsilon))
        passes, loops, chains = self.count_batches(monkeypatch)
        assert main(["run", scenario, "--output-dir", str(tmp_path / "run")]) == EXIT_OK
        counts = passes.copy(), loops.copy(), chains.copy()
        assert main(["sweep", scenario, "--output-dir", str(tmp_path / "sweep")]) == EXIT_OK
        ran = (tmp_path / "run" / "readme_sweep.csv").read_bytes()
        assert ran == (tmp_path / "sweep" / "readme_sweep.csv").read_bytes()
        return counts

    def test_sweep_value_of_the_run_problem_reuses_its_table(self, tmp_path, monkeypatch):
        # the run at eps=0.01 and the sweep values 0.02, 0.005: three
        # problems in one root pass, one loop of their oracles and one chain
        # of their three chained methods each
        counts = self.run_and_sweep(tmp_path, monkeypatch, 0.01)
        assert counts == ([3], [3], [9])

    def test_other_epsilon_computes_every_sweep_value(self, tmp_path, monkeypatch):
        counts = self.run_and_sweep(tmp_path, monkeypatch, 0.015)
        assert counts == ([4], [4], [12])

    def test_sweep_without_epsilon_dependence_computes_once(self, tmp_path, monkeypatch):
        data = fibonacci_scenario(tmp_path)
        data["epsilon_sweep"] = [0.02, 0.01, 0.0]
        scenario = write_scenario(tmp_path / "fib.json", data)
        passes, loops, chains = self.count_batches(monkeypatch)
        assert main(["sweep", scenario]) == EXIT_OK
        assert (passes, loops, chains) == ([], [1], [1])
        _, rows = read_csv(tmp_path / "fib_sweep.csv")
        assert [float(r[0]) for r in rows] == [0.02, 0.01, 0.0]
        assert len({r[1] for r in rows}) == 1

    def test_run_with_all_methods_and_a_sweep_is_one_batch(self, tmp_path, monkeypatch):
        # the benchmark's order3-run-sweep shape: every method at eps=0.01
        # and the sweep 0.02, 0.01, 0.005 make three problems, with three
        # riccati seed recursions each; one eigvals call, one polish and one
        # residual check over the distinct anchor rows of their tables (every
        # WARM_STRIDE-th row), one polish and one check over the distinct
        # pairs of the other rows and their anchors (none falls back to
        # eigvals), one recursion loop and one chain serve them all, and each
        # method is set up for all three at once: one residual-checked solve
        # of the power starts and one of the riccati starts (gauge-exact's
        # steps take no solve)
        data = readme_scenario(tmp_path, 0.01)
        data["methods"] = list(wkbrec.wkb.METHOD_NAMES)
        scenario = write_scenario(tmp_path / "readme.json", data)
        problems = wkbrec.load_scenario(scenario).sweep_problems
        tables = [p.table[: p.horizon + 1, :-1] for p in problems]
        anchors = len(np.unique(np.concatenate([t[::WARM_STRIDE] for t in tables]), axis=0))
        anchor = [np.arange(len(t)) // WARM_STRIDE * WARM_STRIDE for t in tables]
        pairs = np.concatenate([np.hstack((t, t[a])) for t, a in zip(tables, anchor)])
        pairs = len(np.unique(pairs[(pairs[:, :3] != pairs[:, 3:]).any(axis=1)], axis=0))
        assert (anchors, pairs) == (13, 484)
        passes, loops, chains = self.count_batches(monkeypatch)
        loops += self.count_calls(monkeypatch, wkbrec.core, "_recur", lambda t, i: len(i))
        polish = self.count_calls(monkeypatch, wkbrec.roots, "_polish", lambda f, z: len(f))
        eigvals = self.count_calls(monkeypatch, np.linalg, "eigvals", len)
        checks = self.count_calls(
            monkeypatch, wkbrec.roots, "_residual_check", lambda f, z, unsettled, tol: len(f)
        )
        solves = self.count_calls(
            monkeypatch, wkbrec.decomposition, "_residual_checked_solve", lambda a, b, ks: a[..., 0, 0].size
        )
        assert main(["run", scenario]) == EXIT_OK
        assert (passes, loops, chains) == ([3], [12], [18])
        assert eigvals == [anchors]
        assert (polish, checks) == ([anchors, pairs], [anchors, pairs])
        assert solves == [3, 3]


class TestFailureOrder:
    """``run`` computes its own problem and its sweep in one batch, yet
    reports their failures as if it computed them in turn: the run's own
    problem first, then the sweep values in order."""

    def scenario(self, tmp_path, epsilon, sweep):
        # f[1] = 11 + 1e-320 * eps * k stays near 11 until eps * k overflows,
        # and the root pass fails there: at k=5 for eps=4e307, at k=2 for
        # eps=1e308
        data = sweep_scenario(tmp_path)
        data["coefficients"] = [
            {"variant": "constant", "value": "-6"},
            {"variant": "polynomial", "coeffs": ["11", "1e-320"], "epsilon": epsilon},
            {"variant": "constant", "value": "-6"},
        ]
        data.update(horizon=10, methods=["gauge-exact"], epsilon_sweep=sweep)
        return write_scenario(tmp_path / "order.json", data)

    def failure(self, spec):
        with pytest.raises(wkbrec.RecurrenceError) as info:
            wkbrec.compare_methods(spec, [1.0, 0.5, 0.25], ["gauge-exact"])
        return f"numerical breakdown: {info.value}\n"

    def test_the_run_problem_fails_before_its_sweep(self, tmp_path, capsys):
        scenario = self.scenario(tmp_path, 4e307, [1e308])
        spec = wkbrec.load_scenario(scenario).spec
        line = self.failure(spec)
        assert "at index k=5" in line
        assert self.failure(spec.with_epsilon(1e308)) != line
        assert main(["run", scenario]) == EXIT_NUMERICAL
        assert capsys.readouterr() == ("", line)

    def test_sweep_values_fail_in_order(self, tmp_path, capsys):
        scenario = self.scenario(tmp_path, 0.0, [0.0, 4e307, 1e308])
        spec = wkbrec.load_scenario(scenario).spec
        assert main(["sweep", scenario]) == EXIT_NUMERICAL
        assert capsys.readouterr() == ("", self.failure(spec.with_epsilon(4e307)))


class TestGenerate:
    def test_generated_scenario_validates_and_runs(self, tmp_path):
        out = tmp_path / "gen.json"
        assert main(["generate", "--order", "3", "--seed", "5", "--out", str(out)]) == EXIT_OK
        assert main(["validate", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        data["output"]["path"] = str(tmp_path)
        write_scenario(out, data)
        assert main(["run", str(out)]) == EXIT_OK

    def test_stdout_holds_the_bytes_out_writes(self, tmp_path, capsys):
        out, printed = tmp_path / "gen.json", tmp_path / "printed.json"
        assert main(["generate", "--seed", "3", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr() == ("", "")
        assert main(["generate", "--seed", "3"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        printed.write_bytes(captured.out.encode())
        assert printed.read_bytes() == out.read_bytes()
        assert main(["validate", str(printed)]) == EXIT_OK

    def test_rejected_draw_is_reported_on_stderr(self, capsys):
        assert main(["generate", "--order", "9"]) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "'order' must be in [2, 8], got 9\n")

    def test_an_order_out_of_range_is_rejected_before_any_draw(self, capsys, monkeypatch):
        # the draws grow with the order, so a huge one must not reach them
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"generate drew with {name} before checking the order")

        monkeypatch.setattr(np.random, "default_rng", lambda seed: NoDraws())
        assert main(["generate", "--order", "1000000000"]) == EXIT_SCHEMA
        assert capsys.readouterr() == ("", "'order' must be in [2, 8], got 1000000000\n")

    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_seed_must_be_a_nonnegative_integer(self, capsys, seed):
        with pytest.raises(SystemExit) as info:
            main(["generate", "--seed", seed])
        assert info.value.code == EXIT_SCHEMA
        assert capsys.readouterr().err.endswith(
            f"argument --seed: must be a nonnegative integer, got {seed!r}\n"
        )

    def test_seed_changes_draw(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--seed", "1", "--out", str(a)])
        main(["generate", "--seed", "2", "--out", str(b)])
        assert a.read_text() != b.read_text()
        main(["generate", "--seed", "1", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestOutputDirectory:
    """The output directory is made once, before the first file is written."""

    def test_run_with_a_sweep_makes_its_directory_once(self, tmp_path, monkeypatch):
        outdir = tmp_path / "missing" / "nested"
        scenario = write_scenario(tmp_path / "readme.json", readme_scenario(outdir, 0.01))
        made = []

        def recording(path, mode=0o777, parents=False, exist_ok=False):
            made.append(path)
            os.makedirs(path, mode, exist_ok=exist_ok)

        monkeypatch.setattr(Path, "mkdir", recording)
        assert main(["run", scenario]) == EXIT_OK
        assert made == [outdir]
        assert sorted(path.name for path in outdir.iterdir()) == [
            "readme_errors.csv",
            "readme_resolved.json",
            "readme_sweep.csv",
            "readme_trajectory.csv",
        ]

    def test_generate_makes_the_parent_of_its_output(self, tmp_path):
        out = tmp_path / "missing" / "nested" / "gen.json"
        assert main(["generate", "--seed", "1", "--out", str(out)]) == EXIT_OK
        assert main(["validate", str(out)]) == EXIT_OK


class TestAtomicWrite:
    def test_a_failed_replace_leaves_no_temporary_file(self, tmp_path, capsys, monkeypatch):
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        outdir = tmp_path / "out"
        scenario = write_scenario(tmp_path / "fib.json", fibonacci_scenario(outdir))
        assert main(["run", scenario]) == EXIT_IO
        assert capsys.readouterr() == ("", "i/o error: replace refused\n")
        assert list(outdir.iterdir()) == []


def long_readme_scenario(outdir):
    # the README family grows like 3**k and leaves double range at k=649
    # of a 2000-step horizon
    data = sweep_scenario(outdir)
    for entry in data["coefficients"]:
        entry["epsilon"] = 0.01
    data.pop("epsilon_sweep")
    data.update(
        horizon=2000,
        methods=["direct", "companion", "gauge-exact"],
        output={"path": str(outdir), "format": "json"},
    )
    return data


class TestNonFiniteOutput:
    def test_overflowing_run_exits_numerical_and_writes_nothing(self, tmp_path, capsys):
        # a breakdown, not a table full of NaN
        outdir = tmp_path / "out"
        scenario = write_scenario(tmp_path / "long.json", long_readme_scenario(outdir))
        assert main(["run", scenario]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "method 'direct': non-finite value at index k=649" in err
        assert "Traceback" not in err
        assert not outdir.exists()

    def test_overflow_is_reported_in_one_line_without_warnings(self, tmp_path, capsys):
        # numpy's overflow warnings would quote a library source line; with
        # warnings as errors they would escape as an exception instead
        scenario = write_scenario(tmp_path / "long.json", long_readme_scenario(tmp_path / "out"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", scenario]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical breakdown: method 'direct': non-finite value at index k=649\n"
        )

    def test_overflow_past_the_horizon_writes_nothing(self, tmp_path, capsys):
        # at horizon 1 every method reads k = 0 and 1 only, but the resolved
        # file tabulates the window [0, 4], which is NaN from k=2 on
        data = overflow_scenario(tmp_path)
        data.update(horizon=1, methods=["direct", "gauge-exact"])
        scenario = write_scenario(tmp_path / "overflow.json", data)
        assert main(["run", scenario]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "coefficient table: non-finite value at index k=2" in err
        assert [p.name for p in tmp_path.iterdir()] == ["overflow.json"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_relative_error_past_double_range_is_a_breakdown(self, tmp_path, capsys, fmt):
        # the oracle is exactly 0 at k=1 while gauge-exact, whose components
        # are O(1e300), misses it by far more than 1e-300 * 1.8e308
        outdir = tmp_path / "out"
        data = {
            "order": 3,
            "horizon": 5,
            "coefficients": [{"variant": "constant", "value": v} for v in ("-6", "11", "-6")],
            "forcing": {"variant": "constant", "value": 1e300},
            "initial": ["1", "0", "1"],
            "methods": ["direct", "gauge-exact"],
            "output": {"path": str(outdir), "format": fmt},
        }
        scenario = write_scenario(tmp_path / "forced.json", data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", scenario]) == EXIT_NUMERICAL
        assert capsys.readouterr() == (
            "",
            "numerical breakdown: method 'gauge-exact' relative error: "
            "non-finite value at index k=1\n",
        )
        assert not outdir.exists()

    def test_json_tables_refuse_non_finite_numbers(self):
        from wkbrec.cli import _error_chunks
        from wkbrec.wkb import ComparisonTable

        k = np.arange(2)
        table = ComparisonTable(
            k=k, oracle=np.ones(2), values={}, rel_errors={"direct": np.array([0.0, np.nan])}
        )
        with pytest.raises(ValueError):
            "".join(_error_chunks(table, "json"))


def test_resolved_file_is_pinned(tmp_path):
    # the resolved file depends only on model arithmetic and float repr;
    # the digest guards its bytes across changes to how models are sampled
    scenario = write_scenario(tmp_path / "mixed.json", all_variants_scenario())
    assert main(["run", scenario, "--output-dir", str(tmp_path / "out")]) == EXIT_OK
    data = (tmp_path / "out" / "mixed_resolved.json").read_bytes()
    digest = "b707729389f805d7b473bc8eedbb482558328568c2a491a3d21a66a4b90ebe9d"
    assert hashlib.sha256(data).hexdigest() == digest


def test_resolved_dict_is_the_list_view_of_the_written_file(tmp_path):
    data = all_variants_scenario()
    data["initial"][1] = [-0.0, 0.5]
    path = write_scenario(tmp_path / "mixed.json", data)
    assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == EXIT_OK
    text = (tmp_path / "out" / "mixed_resolved.json").read_text()
    scenario = wkbrec.load_scenario(path)
    resolved = wkbrec.resolved_dict(scenario)
    assert resolved == json.loads(text)
    # the same text, so the same key order and every zero's sign
    assert json.dumps(resolved, indent=2) + "\n" == text
    assert resolved["initial"][1] == [-0.0, 0.5] and str(resolved["initial"][1][0]) == "-0.0"
    again = wkbrec.scenario_from_dict(resolved).spec.table
    assert again.tobytes() == scenario.spec.table.tobytes()  # bit for bit
    assert np.signbit(again.imag).any()


def test_json_tables_are_pinned(tmp_path):
    # the JSON tables of the README scenario with every method, in --format
    # json: the digests guard their bytes across changes to the writer
    data = readme_scenario(tmp_path / "out", 0.01)
    data["methods"] = list(METHOD_NAMES)
    scenario = write_scenario(tmp_path / "readme.json", data)
    assert main(["run", scenario, "--format", "json"]) == EXIT_OK
    digests = {
        "trajectory": "a78f6b8215428241c67db918d1f7704f80cb05883262efd6a6f517f24c52c8f7",
        "errors": "874c92eb69127a248559839daaf2379c8c9c8ff9dd123ef16873305294255d2d",
        "sweep": "cab3a9fb13c1dc8be74abc62a071955d6295e15262bd9df617f4c7f21f3f8dec",
    }
    for name, digest in digests.items():
        data = (tmp_path / "out" / f"readme_{name}.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_csv_tables_are_pinned(tmp_path):
    # the CSV tables of the README scenario with every method, in --format
    # csv: the digests guard their bytes across changes to the writer
    data = readme_scenario(tmp_path / "out", 0.01)
    data["methods"] = list(METHOD_NAMES)
    scenario = write_scenario(tmp_path / "readme.json", data)
    assert main(["run", scenario, "--format", "csv"]) == EXIT_OK
    digests = {
        "trajectory": "6762ddb7de6bb5e8d9abdb450d797ced7736a880298077ea7a28873468856817",
        "errors": "cd1c8198ccbd5dd618a83b89a595a4c0841e2ff3b559b32f5c75ea21ee9c8bfd",
        "sweep": "80843944cd378f6c4f494a53181acfbfbdb6cb140a39cf13073387db821900b9",
    }
    for name, digest in digests.items():
        data = (tmp_path / "out" / f"readme_{name}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


class TestParserCache:
    """One parser per process: each call parses only its own options, and
    the subcommands still look up the batch at call time."""

    def test_one_parser(self):
        assert cli.build_parser() is cli.build_parser()

    def test_options_do_not_carry_over(self, tmp_path, monkeypatch):
        outdir = tmp_path / "out"
        scenario = write_scenario(tmp_path / "sw.json", sweep_scenario(outdir))
        batches = []

        def recording(specs, *args):
            batches.append(len(specs))
            return compare_batch(specs, *args)

        def written(argv):
            assert main(argv) == EXIT_OK
            names = sorted(path.name for path in outdir.iterdir())
            for path in outdir.iterdir():
                path.unlink()
            return names

        compare_batch = cli._compare_batch
        monkeypatch.setattr(cli, "_compare_batch", recording)
        assert written(["sweep", scenario, "--epsilons", "0.1", "0.2"]) == ["sw_sweep.csv"]
        assert main(["sweep", scenario]) == EXIT_OK
        epsilons = [row[0] for row in read_csv(outdir / "sw_sweep.csv")[1]]
        assert epsilons == ["0.02", "0.01", "0.0050000000000000001"]
        (outdir / "sw_sweep.csv").unlink()
        tables = ["sw_errors", "sw_resolved", "sw_sweep", "sw_trajectory"]
        json_names = [f"{name}.json" for name in tables]
        assert written(["run", scenario, "--format", "json"]) == json_names
        csv_names = [f"{name}.json" if name == "sw_resolved" else f"{name}.csv" for name in tables]
        assert written(["run", scenario]) == csv_names
        # the two sweeps, then the two runs with their sweep, all through the patch
        assert batches == [2, 3, 4, 4]
        args = cli.build_parser().parse_args(["sweep", scenario])
        assert args.epsilons is None and args.format is None


def readme_window(outdir, k_start, horizon):
    data = sweep_scenario(outdir)
    data.pop("epsilon_sweep")
    data.update(k_start=k_start, horizon=horizon, methods=["direct", "gauge-exact"])
    return data


class TestIndexWindow:
    # the window [k_start, k_start + horizon + 3] must fit int64; past it the
    # index arrays would overflow or turn into floats
    @pytest.mark.parametrize(
        "k_start, horizon",
        [(10**20, 200), (-(10**20), 200), (2**63 - 10, 20), (2**63 - 23, 20)],
    )
    def test_window_outside_int64_is_a_schema_error(self, tmp_path, capsys, k_start, horizon):
        outdir = tmp_path / "out"
        scenario = write_scenario(tmp_path / "w.json", readme_window(outdir, k_start, horizon))
        line = f"the index window [{k_start}, {k_start + horizon + 3}] must fit in int64\n"
        assert main(["validate", scenario]) == EXIT_SCHEMA
        assert capsys.readouterr().out == line
        assert main(["run", scenario]) == EXIT_SCHEMA
        assert capsys.readouterr().err == line
        assert not outdir.exists()

    @pytest.mark.parametrize("horizon", [2**62, 2**40])
    def test_window_too_long_to_tabulate_is_a_schema_error(
        self, tmp_path, capsys, monkeypatch, horizon
    ):
        # numpy refuses a 2**62-row table by its shape; a 2**40-row one
        # (64 TiB) would be refused by the allocator, so that refusal is
        # patched in rather than tried
        empty = np.empty

        def refusing(shape, *args, **kwargs):
            if isinstance(shape, tuple) and shape[0] > 2**32:
                raise MemoryError("cannot allocate the table")
            return empty(shape, *args, **kwargs)

        if horizon < 2**62:
            monkeypatch.setattr(np, "empty", refusing)
        outdir = tmp_path / "out"
        scenario = write_scenario(tmp_path / "w.json", readme_window(outdir, 0, horizon))
        line = f"the index window [0, {horizon + 3}] is too long to tabulate\n"
        assert main(["validate", scenario]) == EXIT_SCHEMA
        assert capsys.readouterr() == (line, "")
        assert main(["run", scenario]) == EXIT_SCHEMA
        assert capsys.readouterr() == ("", line)
        assert not outdir.exists()

    @pytest.mark.parametrize("k_start", [2**63 - 1 - 23, -(2**63)])
    def test_window_at_the_int64_edge_runs(self, tmp_path, k_start):
        scenario = write_scenario(tmp_path / "w.json", readme_window(tmp_path, k_start, 20))
        assert main(["validate", scenario]) == EXIT_OK
        assert main(["run", scenario]) == EXIT_OK
        _, rows = read_csv(tmp_path / "w_trajectory.csv")
        assert [row[0] for row in rows] == [str(k) for k in range(k_start, k_start + 21)]


class TestFailureReport:
    """``main`` alone turns a failure into its message, stream and exit code."""

    def invoke(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_schema_error_lists_diagnostics_on_stdout_for_validate_only(self, tmp_path, capsys):
        data = fibonacci_scenario(tmp_path)
        data["order"] = 77
        scenario = write_scenario(tmp_path / "bad.json", data)
        line = "'order' must be in [2, 8], got 77\n"
        assert self.invoke(capsys, ["validate", scenario]) == (EXIT_SCHEMA, line, "")
        assert self.invoke(capsys, ["run", scenario]) == (EXIT_SCHEMA, "", line)
        assert self.invoke(capsys, ["sweep", scenario]) == (EXIT_SCHEMA, "", line)

    def test_missing_sweep_values_is_a_schema_error(self, tmp_path, capsys):
        data = sweep_scenario(tmp_path)
        data.pop("epsilon_sweep")
        scenario = write_scenario(tmp_path / "sw.json", data)
        line = "no sweep values: scenario has no 'epsilon_sweep' and no --epsilons given\n"
        assert self.invoke(capsys, ["sweep", scenario]) == (EXIT_SCHEMA, "", line)

    def test_numerical_breakdown(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "deg.json", degenerate_scenario(tmp_path))
        line = (
            "numerical breakdown: method 'gauge-exact': "
            "root separation below threshold at index k=0\n"
        )
        assert self.invoke(capsys, ["run", scenario]) == (EXIT_NUMERICAL, "", line)

    def test_degenerate_roots_before_a_failing_row_are_reported(self, tmp_path, capsys):
        # the roots tie at k=10, and the rows before hold a double root at k=5
        spec = spec_from_roots(double_root_then_tie_paths())
        data = fibonacci_scenario(tmp_path / "out")
        data.update(
            order=4,
            horizon=spec.horizon,
            coefficients=[
                {
                    "variant": "tabulated",
                    "values": [[v.real, v.imag] for v in m.values.tolist()],
                    "k_first": 0,
                }
                for m in spec.coeffs
            ],
            initial=["1"] * 4,
            methods=["riccati", "gauge-exact"],
        )
        scenario = write_scenario(tmp_path / "tie.json", data)
        line = (
            "numerical breakdown: method 'gauge-exact': "
            "root separation below threshold at index k=5\n"
        )
        assert self.invoke(capsys, ["run", scenario]) == (EXIT_NUMERICAL, "", line)
        assert not (tmp_path / "out").exists()
        data["methods"] = ["riccati"]
        scenario = write_scenario(tmp_path / "tie.json", data)
        assert self.invoke(capsys, ["run", scenario])[::2] == (EXIT_OK, "")

    def test_root_residual_above_tolerance_is_one_line(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "sw.json", sweep_scenario(tmp_path / "out"))
        code, out, err = self.invoke(capsys, ["run", scenario, "--tolerance", "1e-18"])
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err.startswith("numerical breakdown: method 'wkb-general': root residual ")
        assert err.count("\n") == 1
        assert " above tolerance at index k=0 branch " in err
        assert not (tmp_path / "out").exists()

    def test_other_value_error_is_a_schema_error(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise ValueError("refused by the library")

        monkeypatch.setattr(cli, "_compare_batch", refuse)
        scenario = write_scenario(tmp_path / "fib.json", fibonacci_scenario(tmp_path))
        line = "refused by the library\n"
        assert self.invoke(capsys, ["run", scenario]) == (EXIT_SCHEMA, "", line)

    @pytest.mark.parametrize("command", ["validate", "run", "sweep"])
    def test_missing_file_is_an_io_error(self, tmp_path, capsys, command):
        path = tmp_path / "absent.json"
        line = f"i/o error: [Errno 2] No such file or directory: '{path}'\n"
        assert self.invoke(capsys, [command, str(path)]) == (EXIT_IO, "", line)


def test_entry_point_reports_like_main(tmp_path):
    """``python -m wkbrec.cli`` as a separate process: exit code, stdout and
    stderr of a success and of each kind of failure."""
    env = {**os.environ, "PYTHONPATH": str(Path(wkbrec.__file__).resolve().parents[1])}

    def cli_process(*argv, flags=()):
        done = subprocess.run(
            [sys.executable, *flags, "-m", "wkbrec.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
            timeout=300,
        )
        return done.returncode, done.stdout, done.stderr

    valid = write_scenario(tmp_path / "ok.json", fibonacci_scenario(tmp_path))
    assert cli_process("validate", valid) == (EXIT_OK, "", "")
    data = fibonacci_scenario(tmp_path)
    data["order"] = 77
    invalid = write_scenario(tmp_path / "bad.json", data)
    assert cli_process("validate", invalid) == (
        EXIT_SCHEMA,
        "'order' must be in [2, 8], got 77\n",
        "",
    )
    missing = tmp_path / "absent.json"
    assert cli_process("validate", str(missing)) == (
        EXIT_IO,
        "",
        f"i/o error: [Errno 2] No such file or directory: '{missing}'\n",
    )
    long = write_scenario(tmp_path / "long.json", long_readme_scenario(tmp_path / "out"))
    assert cli_process("run", long, flags=("-W", "error")) == (
        EXIT_NUMERICAL,
        "",
        "numerical breakdown: method 'direct': non-finite value at index k=649\n",
    )


@pytest.mark.parametrize("stdout", ["pipe", "buffered pipe", "closed"])
def test_a_reader_that_closed_stdout_is_no_error(tmp_path, stdout):
    """Each command writing into a pipe whose reader is gone (as in
    ``wkbrec generate | head -3``), with standard output unbuffered or
    block-buffered, or started with standard output closed: nothing on
    stderr, the exit code of the command, and ``run``'s files all in place."""
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(wkbrec.__file__).resolve().parents[1]),
        "PYTHONUNBUFFERED": "" if stdout == "buffered pipe" else "1",
    }

    def into_closed_pipe(*argv):
        command = [sys.executable, "-m", "wkbrec.cli", *argv]
        if stdout == "closed":
            command = ["sh", "-c", 'exec "$@" >&-', "sh", *command]
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                command,
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                cwd=tmp_path,
                timeout=300,
            )
        finally:
            os.close(write)
        return done.returncode, done.stderr

    assert into_closed_pipe("generate", "--seed", "3") == (EXIT_OK, "")
    scenario = write_scenario(tmp_path / "s.json", fibonacci_scenario(tmp_path))
    assert into_closed_pipe("run", scenario, "--output-dir", "out") == (EXIT_OK, "")
    written = sorted(path.name for path in (tmp_path / "out").iterdir())
    assert written == ["s_errors.csv", "s_resolved.json", "s_trajectory.csv"]
    data = fibonacci_scenario(tmp_path)
    data["order"] = 77
    invalid = write_scenario(tmp_path / "bad.json", data)
    assert into_closed_pipe("validate", invalid) == (EXIT_SCHEMA, "")
