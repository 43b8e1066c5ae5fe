import json

import numpy as np
import pytest

from wkbrec.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_SCHEMA, main


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
        # equal constant roots make the power gauge degenerate
        data = {
            "order": 2,
            "k_start": 0,
            "horizon": 5,
            "coefficients": [
                {"variant": "constant", "value": "1"},
                {"variant": "constant", "value": "-2"},
            ],
            "initial": ["1", "1"],
            "methods": ["gauge-exact"],
            "output": {"path": str(tmp_path), "format": "csv"},
        }
        scenario = write_scenario(tmp_path / "deg.json", data)
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
        for value in ("-1", "0", "nan", "inf"):
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
        # eps * k overflows from k=2 on, so f[1] = 11 + c * eps * k is
        # finite up to k=1 and NaN after; the scenario validates, and the
        # root pass reports where it broke
        data = sweep_scenario(tmp_path)
        data["coefficients"][1] = {
            "variant": "polynomial",
            "coeffs": ["11", "1e-300+1e-300j"],
            "epsilon": 1e308,
        }
        data["methods"] = ["gauge-exact"]
        data.pop("epsilon_sweep")
        scenario = write_scenario(tmp_path / "overflow.json", data)
        assert main(["validate", scenario]) == EXIT_OK
        assert main(["run", scenario]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "non-finite characteristic coefficient at index k=2" in err
        assert "Traceback" not in err


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


class TestGenerate:
    def test_generated_scenario_validates_and_runs(self, tmp_path):
        out = tmp_path / "gen.json"
        assert main(["generate", "--order", "3", "--seed", "5", "--out", str(out)]) == EXIT_OK
        assert main(["validate", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        data["output"]["path"] = str(tmp_path)
        write_scenario(out, data)
        assert main(["run", str(out)]) == EXIT_OK

    def test_seed_changes_draw(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--seed", "1", "--out", str(a)])
        main(["generate", "--seed", "2", "--out", str(b)])
        assert a.read_text() != b.read_text()
        main(["generate", "--seed", "1", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestNonFiniteOutput:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_run_exits_numerical_and_writes_nothing(self, tmp_path, capsys):
        # the README family grows like 3**k and leaves double range at k=649
        # of a 2000-step horizon: a breakdown, not a table full of NaN
        outdir = tmp_path / "out"
        data = sweep_scenario(outdir)
        for entry in data["coefficients"]:
            entry["epsilon"] = 0.01
        data.pop("epsilon_sweep")
        data.update(
            horizon=2000,
            methods=["direct", "companion", "gauge-exact"],
            output={"path": str(outdir), "format": "json"},
        )
        scenario = write_scenario(tmp_path / "long.json", data)
        assert main(["run", scenario]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "method 'direct': non-finite value at index k=649" in err
        assert "Traceback" not in err
        assert not outdir.exists()

    def test_json_tables_refuse_non_finite_numbers(self):
        from wkbrec.cli import _error_tables
        from wkbrec.wkb import ComparisonTable

        k = np.arange(2)
        table = ComparisonTable(
            k=k, oracle=np.ones(2), values={}, rel_errors={"direct": np.array([0.0, np.nan])}
        )
        with pytest.raises(ValueError):
            _error_tables(table, "json")
