"""The CLI's file layer: the indent-2 JSON writer, the table formatters and
the array reader for tabulated ``[re, im]`` pairs, each against the
standard-library or per-value path it replaces."""

import gc
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wkbrec import scenario as scenario_module
from wkbrec.cli import EXIT_SCHEMA, _error_chunks, _json_chunks, _trajectory_chunks, main
from wkbrec.scenario import parse_complex, scenario_from_dict
from wkbrec.wkb import ComparisonTable

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7e308, -1.7e308, 0.1, 1e16]
HUGE = 10**400  # past the float range; json writes it as an int


def reference_text(payload):
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def json_text(payload):
    return "".join(_json_chunks(payload))


def outcome(write, payload):
    try:
        return write(payload)
    except ValueError:
        return ValueError


def numbers(allow_nan):
    return st.one_of(
        st.floats(allow_nan=allow_nan, allow_infinity=allow_nan),
        st.sampled_from(EDGE_FLOATS),
        st.integers(),
        st.just(HUGE),
    )


def payloads(allow_nan=False):
    num = numbers(allow_nan)
    leaves = st.one_of(
        num,
        st.text(),
        st.none(),
        st.booleans(),
        st.lists(num, max_size=6),
        st.lists(st.lists(num, min_size=2, max_size=2), max_size=5),
    )
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=20,
    )


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(payloads())
    @example({"k": [0, 1], "re": [-0.0, 5e-324], "pairs": [[1.7e308, -0.0], [2, 3]]})
    @example([[1, 2], [3, True]])
    @example([[1, 2], [3]])
    @example({"": {}, "é\n\"": [], "x": [None, "s", [1.5, "a"]]})
    @example([[HUGE, 1.0]])
    def test_matches_json_dumps(self, payload):
        assert json_text(payload) == reference_text(payload)

    @settings(max_examples=300, deadline=None)
    @given(payloads(allow_nan=True))
    def test_non_finite_raises_like_json_dumps(self, payload):
        assert outcome(json_text, payload) == outcome(reference_text, payload)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_at_any_depth_raises(self, bad):
        for payload in (
            [bad],
            [1.0, 2, bad],
            [[1.0, 2.0], [3.0, bad]],
            [HUGE, bad],
            {"a": {"b": [[0.0, 1.0], [bad, 0.0]]}},
            {"a": [{"b": [1, "x", bad]}]},
        ):
            with pytest.raises(ValueError):
                json_text(payload)

    def test_numpy_scalars_are_written_as_json_writes_them(self):
        payload = {"x": [np.float64(0.1), 2.5], "y": [[np.float64(-0.0), 1.0]]}
        assert json_text(payload) == reference_text(payload)


INT64_EDGES = [2**63 - 1, -(2**63 - 1), -(2**63), 0, -1]
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS)
)


def listed(payload):
    """``payload`` with each array replaced by the list it stands for."""
    if isinstance(payload, np.ndarray):
        if payload.dtype.kind == "c":
            return [[z.real, z.imag] for z in payload.tolist()]
        return payload.tolist()
    if isinstance(payload, dict):
        return {key: listed(value) for key, value in payload.items()}
    if isinstance(payload, list):
        return [listed(item) for item in payload]
    return payload


@st.composite
def complex_arrays(draw, parts=finite_floats):
    """A complex array, often a strided column of a 2-D table."""
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(1, 3))
    n = rows * cols
    re = draw(st.lists(parts, min_size=n, max_size=n))
    im = draw(st.lists(parts, min_size=n, max_size=n))
    table = np.empty((rows, cols), dtype=complex)
    table.real, table.imag = np.reshape(re, (rows, cols)), np.reshape(im, (rows, cols))
    return table[:, draw(st.integers(0, cols - 1))]


float_arrays = st.lists(finite_floats, max_size=12).map(lambda v: np.array(v, dtype=float))
int_arrays = st.lists(
    st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from(INT64_EDGES)), max_size=12
).map(lambda v: np.array(v, dtype=np.int64))


def array_payloads(arrays):
    leaves = st.one_of(arrays, arrays, st.integers(), st.text(max_size=3), st.none())
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
        max_leaves=8,
    )


class TestArrayBranch:
    @settings(max_examples=200, deadline=None)
    @given(array_payloads(float_arrays))
    @example({"x": np.array(EDGE_FLOATS), "y": [np.array([-0.0]), {"z": np.array([1e16])}]})
    def test_float_arrays_are_written_as_their_lists(self, payload):
        assert json_text(payload) == reference_text(listed(payload))

    @settings(max_examples=200, deadline=None)
    @given(array_payloads(int_arrays))
    @example({"k": np.array(INT64_EDGES, dtype=np.int64)})
    def test_int_arrays_are_written_as_their_lists(self, payload):
        assert json_text(payload) == reference_text(listed(payload))

    @settings(max_examples=200, deadline=None)
    @given(array_payloads(complex_arrays()))
    def test_complex_arrays_are_written_as_re_im_pairs(self, payload):
        assert json_text(payload) == reference_text(listed(payload))

    def test_strided_column_keeps_negative_zero(self):
        table = np.array([[1 - 0j, complex(-0.0, -0.0)], [5e-324j, 1.7e308 + 2j]])
        column = table[:, 1]
        assert not column.flags.c_contiguous
        text = json_text({"values": column})
        assert text == reference_text({"values": [[-0.0, -0.0], [1.7e308, 2.0]]})

    @pytest.mark.parametrize("dtype", [float, complex, np.int64])
    def test_empty_array_is_an_empty_list(self, dtype):
        payload = {"a": np.array([], dtype=dtype), "b": [np.array([], dtype=dtype)]}
        assert json_text(payload) == reference_text({"a": [], "b": [[]]})

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            st.lists(st.floats(), min_size=1, max_size=8).map(np.array),
            complex_arrays(st.floats()),
        ),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.integers(0, 20),
        st.booleans(),
    )
    def test_non_finite_anywhere_raises(self, array, bad, where, in_imag):
        array = array.copy()
        if not array.size:
            array = np.zeros(1, dtype=array.dtype)
        if array.dtype.kind == "c" and in_imag:
            array.imag[where % array.size] = bad
        else:
            array.real[where % array.size] = bad
        for payload in (array, {"a": [1, {"b": array}]}):
            with pytest.raises(ValueError):
                json_text(payload)
            with pytest.raises(ValueError):
                reference_text(listed(payload))


class TestTableFormatters:
    def table(self):
        k = np.arange(3)
        values = np.array([-0.0 - 0.0j, 1.5 - 0.0j, -0.0 + 2.0j])
        errors = np.array([-0.0, 0.25, 1e-17])
        return ComparisonTable(
            k=k, oracle=values, values={"direct": values}, rel_errors={"direct": errors}
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_negative_zero_is_written_as_zero(self, fmt):
        table = self.table()
        for text in ("".join(_trajectory_chunks(table, fmt)), "".join(_error_chunks(table, fmt))):
            assert "-0" not in text

    def test_csv_prints_17_significant_digits(self):
        text = "".join(_trajectory_chunks(self.table(), "csv"))
        assert text.splitlines() == ["k,direct_re,direct_im", "0,0,0", "1,1.5,0", "2,0,2"]
        errors = "".join(_error_chunks(self.table(), "csv"))
        assert errors.splitlines()[3] == "2,1.0000000000000001e-17"

    def test_json_tables_parse_back_exactly(self):
        data = json.loads("".join(_trajectory_chunks(self.table(), "json")))
        direct = {"re": [0.0, 1.5, 0.0], "im": [0.0, 0.0, 2.0]}
        assert data == {"k": [0, 1, 2], "methods": {"direct": direct}}


def tabulated_problem(values):
    """Order 2 with one tabulated coefficient over the window [0, 3]."""
    return {
        "order": 2,
        "horizon": 1,
        "coefficients": [
            {"variant": "tabulated", "values": values, "k_first": 0},
            {"variant": "constant", "value": "-1"},
        ],
        "initial": ["0", "1"],
        "methods": ["direct"],
    }


def per_value(monkeypatch):
    """Turn the array reader off, so every value goes through parse_complex."""
    monkeypatch.setattr(scenario_module, "_pair_array", lambda raw: None)


def bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64)


part = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_FLOATS),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=-(10**300), max_value=10**300),
)


class TestPairReader:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(part, min_size=2, max_size=2), min_size=1, max_size=30))
    def test_array_equals_per_value_bits(self, raw):
        fast = scenario_module._pair_array(raw)
        assert fast is not None
        np.testing.assert_array_equal(bits(fast), bits([parse_complex(v) for v in raw]))

    def test_spec_table_is_bit_equal_through_both_paths(self, monkeypatch):
        raw = [[1.0 + 0.5 * i, -0.0 if i % 2 else 0.25 * i] for i in range(6)]
        raw[2] = [3, -0.0]
        raw[3] = [-0.0, 2**64 + 1]
        fast = scenario_from_dict(tabulated_problem(raw)).spec.table
        per_value(monkeypatch)
        slow = scenario_from_dict(tabulated_problem(raw)).spec.table
        np.testing.assert_array_equal(bits(fast), bits(slow))
        assert np.signbit(fast[1, 0].imag) and np.signbit(fast[3, 0].real)

    @pytest.mark.parametrize(
        "bad",
        [
            [math.nan, 0.0],
            [1.0, math.inf],
            [1.0, 2.0, 3.0],
            [1.0],
            ["1", 0.0],
            "1+2j",
            [True, 0.0],
            [1.0, False],
            True,
            [HUGE, 0],
            HUGE,
            None,
            (1.0, 2.0),
        ],
        ids=[
            "nan", "inf", "triple", "single", "string-part", "string",
            "bool-re", "bool-im", "bool", "huge-pair", "huge", "null", "tuple",
        ],
    )
    def test_same_values_and_diagnostics_as_per_value(self, bad, tmp_path, monkeypatch, capsys):
        raw = [[1.0, 0.0]] * 4
        raw[2] = bad
        path = tmp_path / "tab.json"
        path.write_text(json.dumps(tabulated_problem(raw)))
        fast = main(["validate", str(path)]), capsys.readouterr().out
        per_value(monkeypatch)
        slow = main(["validate", str(path)]), capsys.readouterr().out
        assert fast == slow
        try:
            parse_complex(bad)
        except ValueError as exc:
            assert fast == (EXIT_SCHEMA, f"coefficients[0]: {exc}\n")
        else:
            assert fast == (0, "")

    def test_mixed_list_reads_as_per_value(self, monkeypatch):
        raw = [[1.0, 0.0], "2-0.5j", 3, [4, -0.0]]
        fast = scenario_from_dict(tabulated_problem(raw)).spec.table
        per_value(monkeypatch)
        slow = scenario_from_dict(tabulated_problem(raw)).spec.table
        np.testing.assert_array_equal(bits(fast), bits(slow))

    def test_a_tuple_pair_reads_as_per_value(self, monkeypatch):
        raw = [[1.0, 0.0], (1.0, 2.0), [3, -0.0], [4, 0.5]]
        assert scenario_module._pair_array(raw) is None
        fast = scenario_from_dict(tabulated_problem(raw)).spec.table
        per_value(monkeypatch)
        slow = scenario_from_dict(tabulated_problem(raw)).spec.table
        np.testing.assert_array_equal(bits(fast), bits(slow))
        assert fast[1, 0] == 1 + 2j


def readme_problem():
    return {
        "order": 3,
        "horizon": 20,
        "coefficients": [
            {"variant": "sinusoidal", "amplitude": "0.2", "offset": "-6", "epsilon": 0.01},
            {"variant": "constant", "value": "11"},
            {"variant": "tabulated", "values": [[-6.0, 0.0]] * 24, "k_first": 0},
        ],
        "initial": ["1+0.3j", "0.5-0.2j", "0.8+0.1j"],
        "methods": ["direct"],
        "epsilon_sweep": [0.01],
    }


def run_cli(tmp_path, capsys, text):
    """``validate`` and ``run`` on one scenario text: (exit, output) of each."""
    path = tmp_path / "bad.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    results = []
    outdir = tmp_path / "out"
    for argv in (["validate", str(path)], ["run", str(path), "--output-dir", str(outdir)]):
        code = main(argv)
        captured = capsys.readouterr()
        results.append((code, captured.out + captured.err))
    assert not outdir.exists()
    return results


def put(data, path, value):
    """``data`` with ``value`` stored at the key path ``path``."""
    *head, last = path
    inner = data
    for key in head:
        inner = inner[key]
    inner[last] = value
    return data


HUGE_LITERAL = "1" + "0" * 400  # json.loads reads it as an int past the float range


class TestHugeIntegers:
    @pytest.mark.parametrize(
        "path, value, expected",
        [
            pytest.param(
                ("coefficients", 1, "value"), "@",
                "coefficients[1]: not a finite number: 1000", id="value",
            ),
            pytest.param(
                ("coefficients", 1, "value"), ["@", 0],
                "coefficients[1]: not a finite number: [1000", id="pair",
            ),
            pytest.param(
                ("coefficients", 2, "values", 5), [1, "@"],
                "coefficients[2]: not a finite number: [1, 1000", id="tabulated",
            ),
            pytest.param(
                ("coefficients", 0, "epsilon"), "@",
                "coefficients[0]: 'epsilon' must be finite, got 1000", id="epsilon",
            ),
            pytest.param(
                ("coefficients", 0, "phase"), "@",
                "coefficients[0]: 'phase' must be finite, got 1000", id="phase",
            ),
            pytest.param(("initial", 0), "@", "initial: not a finite number: 1000", id="initial"),
            pytest.param(
                ("epsilon_sweep", 0), "@",
                "'epsilon_sweep' must be a nonempty list of finite", id="sweep",
            ),
        ],
    )
    def test_past_float_range_is_a_schema_error(self, path, value, expected, tmp_path, capsys):
        text = json.dumps(put(readme_problem(), path, value)).replace('"@"', HUGE_LITERAL)
        for code, out in run_cli(tmp_path, capsys, text):
            assert code == EXIT_SCHEMA
            assert out.startswith(expected)
            assert out.count("\n") == 1

    def test_past_the_digit_limit_is_not_valid_json(self, tmp_path, capsys):
        text = json.dumps(put(readme_problem(), ("coefficients", 1, "value"), "@"))
        for code, out in run_cli(tmp_path, capsys, text.replace('"@"', "1" * 5000)):
            assert code == EXIT_SCHEMA
            assert out.startswith("not valid JSON: ")
            assert out.count("\n") == 1

    @pytest.mark.parametrize(
        "prefix, suffix", [("", ""), ('{"order": 3, "coefficients": ', "}")], ids=["bare", "inner"]
    )
    def test_nesting_past_the_recursion_limit_is_not_valid_json(
        self, prefix, suffix, tmp_path, capsys
    ):
        text = prefix + "[" * 100000 + "]" * 100000 + suffix
        for code, out in run_cli(tmp_path, capsys, text):
            assert code == EXIT_SCHEMA
            assert out.startswith("not valid JSON: ")
            assert out.count("\n") == 1
        assert gc.isenabled()

    def test_bytes_that_are_not_utf8_are_not_valid_json(self, tmp_path, capsys):
        text = json.dumps(readme_problem()).replace("direct", "dir\u00e9ct").encode("latin-1")
        for code, out in run_cli(tmp_path, capsys, text):
            assert code == EXIT_SCHEMA
            assert out.startswith("not valid JSON: ")
            assert out.count("\n") == 1


class TestModelAndOutputShapes:
    """A model variant that is not a string, and an output path with a NUL
    character, are schema errors that ``validate`` and ``run`` both report."""

    @pytest.mark.parametrize(
        "path, model, where",
        [
            pytest.param(
                ("forcing",), {"variant": [1], "value": "0"}, "forcing", id="list-forcing"
            ),
            pytest.param(
                ("coefficients", 1), {"variant": {}, "value": "0"}, "coefficients[1]",
                id="object-coefficient",
            ),
        ],
    )
    def test_a_variant_that_is_not_a_string_is_unknown(self, path, model, where, tmp_path, capsys):
        diagnostic = (
            f"{where}: unknown variant {model['variant']!r} "
            "(expected constant, tabulated, polynomial or sinusoidal)\n"
        )
        for code, out in run_cli(tmp_path, capsys, json.dumps(put(readme_problem(), path, model))):
            assert (code, out) == (EXIT_SCHEMA, diagnostic)

    def test_an_output_path_with_a_nul_character_is_rejected(self, tmp_path, capsys):
        data = {**readme_problem(), "output": {"path": "a\u0000b", "format": "csv"}}
        for code, out in run_cli(tmp_path, capsys, json.dumps(data)):
            assert (code, out) == (EXIT_SCHEMA, "'output.path' must not contain a NUL character\n")


class TestBooleans:
    @pytest.mark.parametrize(
        "path, value, expected",
        [
            pytest.param(
                ("coefficients", 1, "value"), [True, 0],
                "coefficients[1]: cannot parse complex number from [True, 0]", id="value",
            ),
            pytest.param(
                ("coefficients", 2, "values", 3), [0, False],
                "coefficients[2]: cannot parse complex number from [0, False]", id="tabulated",
            ),
            pytest.param(
                ("initial", 1), [1.0, True],
                "initial: cannot parse complex number from [1.0, True]", id="initial",
            ),
            pytest.param(
                ("coefficients", 0, "epsilon"), True,
                "coefficients[0]: 'epsilon' must be a number, got True", id="epsilon",
            ),
            pytest.param(
                ("coefficients", 0, "frequency"), False,
                "coefficients[0]: 'frequency' must be a number, got False", id="frequency",
            ),
            pytest.param(
                ("coefficients", 0, "phase"), True,
                "coefficients[0]: 'phase' must be a number, got True", id="phase",
            ),
        ],
    )
    def test_booleans_are_not_numbers(self, path, value, expected, tmp_path, capsys):
        text = json.dumps(put(readme_problem(), path, value))
        for code, out in run_cli(tmp_path, capsys, text):
            assert (code, out) == (EXIT_SCHEMA, expected + "\n")

    def test_pairs_of_booleans_are_rejected_by_parse_complex(self):
        for value in ([True, 0], [0, True], (False, 1.0)):
            with pytest.raises(ValueError, match="cannot parse complex number"):
                parse_complex(value)
