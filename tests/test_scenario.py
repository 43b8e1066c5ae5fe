import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkbrec import (
    ScenarioError,
    load_scenario,
    parse_complex,
    resolved_dict,
    scenario_from_dict,
    validate_scenario_dict,
)


def base_scenario():
    return {
        "order": 3,
        "k_start": 0,
        "horizon": 20,
        "coefficients": [
            {"variant": "constant", "value": "-6"},
            {"variant": "constant", "value": "11"},
            {"variant": "constant", "value": "-6"},
        ],
        "forcing": {"variant": "constant", "value": "0"},
        "initial": ["3", "6", "14"],
        "methods": ["direct", "companion"],
        "output": {"path": ".", "format": "csv"},
    }


class TestParseComplex:
    def test_plain_numbers(self):
        assert parse_complex(2) == 2 + 0j
        assert parse_complex(-1.5) == -1.5 + 0j

    def test_strings_with_imaginary_part(self):
        assert parse_complex("0.3+0.25j") == 0.3 + 0.25j
        assert parse_complex("-1e-3-2.5j") == -1e-3 - 2.5j
        assert parse_complex("2") == 2 + 0j

    def test_pairs(self):
        assert parse_complex([1.5, -2.0]) == 1.5 - 2.0j

    def test_rejects_junk(self):
        for bad in ("abc", [1, 2, 3], {"re": 1}, True, None):
            with pytest.raises(ValueError):
                parse_complex(bad)

    def test_rejects_non_finite(self):
        for bad in (float("nan"), float("inf"), "nan", "1+infj", [0.0, float("-inf")]):
            with pytest.raises(ValueError, match="not a finite number"):
                parse_complex(bad)

    @settings(deadline=None, derandomize=True, max_examples=50)
    @given(
        re=st.floats(-1e6, 1e6, allow_nan=False),
        im=st.floats(-1e6, 1e6, allow_nan=False),
    )
    def test_pair_round_trip(self, re, im):
        assert parse_complex([re, im]) == complex(re, im)


class TestValidate:
    def test_valid_scenario_empty_diagnostics(self):
        assert validate_scenario_dict(base_scenario()) == []

    def test_zero_f0_named(self):
        data = base_scenario()
        data["coefficients"][0] = {"variant": "constant", "value": "0"}
        diagnostics = validate_scenario_dict(data)
        assert len(diagnostics) == 1
        assert "f[0]" in diagnostics[0]

    def test_method_order_mismatch(self):
        data = base_scenario()
        data["order"] = 4
        data["coefficients"].append({"variant": "constant", "value": "1"})
        data["initial"].append("30")
        data["methods"] = ["wkb3"]
        diagnostics = validate_scenario_dict(data)
        assert any("requires order 3" in d for d in diagnostics)

    def test_homogeneous_only_method_with_forcing(self):
        data = base_scenario()
        data["forcing"] = {"variant": "constant", "value": "1"}
        data["methods"] = ["riccati"]
        diagnostics = validate_scenario_dict(data)
        assert any("zero forcing" in d for d in diagnostics)

    @pytest.mark.parametrize("roots", [[1, 2], [1, 2, 3, 4, 5, 6, 7, 8]])
    def test_riccati_at_any_order(self, roots):
        # f[j] is the coefficient of x**j in prod (x - r), f[0] first
        data = base_scenario()
        data.update(
            order=len(roots),
            coefficients=[
                {"variant": "constant", "value": float(c)} for c in np.poly(roots)[::-1][:-1]
            ],
            initial=["1"] * len(roots),
            methods=["direct", "riccati"],
        )
        assert validate_scenario_dict(data) == []

    def test_order_out_of_range(self):
        data = base_scenario()
        data["order"] = 9
        assert any("order" in d for d in validate_scenario_dict(data))

    def test_unknown_method(self):
        data = base_scenario()
        data["methods"] = ["direct", "simpson"]
        assert any("unknown method" in d for d in validate_scenario_dict(data))

    def test_unknown_key_flagged(self):
        data = base_scenario()
        data["tolerance"] = 1e-9
        assert any("unknown key" in d for d in validate_scenario_dict(data))

    def test_multiple_diagnostics_collected(self):
        data = base_scenario()
        data["order"] = 1
        data["methods"] = []
        data["initial"] = "nope"
        assert len(validate_scenario_dict(data)) >= 3

    def test_tabulated_coverage_checked(self):
        data = base_scenario()
        data["coefficients"][1] = {
            "variant": "tabulated",
            "values": ["11", "11"],
            "k_first": 0,
        }
        diagnostics = validate_scenario_dict(data)
        assert any("covers" in d for d in diagnostics)

    def test_bad_complex_literal_reported(self):
        data = base_scenario()
        data["initial"] = ["3", "six", "14"]
        assert any("six" in d for d in validate_scenario_dict(data))


class TestScenarioConstruction:
    def test_round_trip_values(self):
        scenario = scenario_from_dict(base_scenario())
        assert scenario.spec.order == 3
        assert scenario.spec.horizon == 20
        np.testing.assert_allclose(scenario.initial, [3, 6, 14])
        assert scenario.methods == ("direct", "companion")
        assert scenario.output_format == "csv"

    def test_raises_with_diagnostics(self):
        data = base_scenario()
        data["order"] = 0
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(data)
        assert info.value.diagnostics

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_resolved_dict_reingests_identically(self):
        data = base_scenario()
        data["coefficients"][0] = {
            "variant": "sinusoidal",
            "amplitude": "0.2",
            "offset": "-6",
            "epsilon": 0.01,
        }
        scenario = scenario_from_dict(data)
        resolved = resolved_dict(scenario)
        assert validate_scenario_dict(resolved) == []
        again = scenario_from_dict(json.loads(json.dumps(resolved)))
        lo, hi = scenario.spec.window
        for k in range(lo, hi + 1):
            np.testing.assert_array_equal(
                scenario.spec.coeff_array(k), again.spec.coeff_array(k)
            )
            assert scenario.spec.forcing_value(k) == again.spec.forcing_value(k)
