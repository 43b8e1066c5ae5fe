"""Tests of the benchmark itself: the checker, the tracer and the smoke mode.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import wkbrec  # noqa: E402
import wkbrec.cli  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Order3RunSweep, Order8Forced, TabulatedBaselines  # noqa: E402


def prepared(cls, tmp_path, seed=3):
    wl = cls(seed, tmp_path, smoke=True)
    wl.prepare(wkbrec)
    return wl


def run_once(wl):
    wl.before_op()
    return wl.op(wkbrec)


def rewrite(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


@pytest.mark.parametrize("cls", [Order3RunSweep, Order8Forced, TabulatedBaselines])
def test_clean_operations_pass_and_repeat_byte_for_byte(cls, tmp_path):
    wl = prepared(cls, tmp_path)
    assert wl.check(run_once(wl)) == []
    assert wl.check(run_once(wl)) == []


def test_injected_nan_in_csv_is_caught(tmp_path):
    wl = prepared(Order3RunSweep, tmp_path)
    out = run_once(wl)
    path = wl.outdir / "order3_trajectory.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[5].split(",")
    cells[-1] = "nan"  # last column: wkb-general_im, a method with no tolerance
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    problems = wl.check(out)
    assert any("non-finite" in p for p in problems)


def test_wrong_value_of_exact_method_is_caught(tmp_path):
    wl = prepared(Order3RunSweep, tmp_path)
    out = run_once(wl)
    path = wl.outdir / "order3_trajectory.csv"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    col = header.split(",").index("gauge-exact_re")
    cells = rows[7].split(",")
    cells[col] = repr(float(cells[col]) * (1 + 1e-6) + 1e-6)
    rows[7] = ",".join(cells)
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    problems = wl.check(out)
    assert any("gauge-exact: max relative error" in p for p in problems)


def test_nan_token_in_json_is_caught(tmp_path):
    wl = prepared(TabulatedBaselines, tmp_path)
    out = run_once(wl)
    path = wl.outdir / "tabulated_errors.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["relative_error"]["companion"][3] = float("nan")
    path.write_text(json.dumps(payload), encoding="utf-8")  # writes a bare NaN token
    problems = wl.check(out)
    assert any("invalid JSON" in p and "NaN" in p for p in problems)


def test_strict_json_rejects_infinity():
    with pytest.raises(ValueError):
        checks.strict_json('{"x": [1.0, Infinity]}')


def test_wkb_ratio_above_criterion_is_caught():
    assert checks.check_wkb_ratios("wkb3", [1e-2, 4e-3, 2e-3]) == []
    assert checks.check_wkb_ratios("wkb3", [1e-2, 8e-3, 2e-3]) != []


def test_nan_in_library_result_is_caught(tmp_path):
    wl = prepared(Order8Forced, tmp_path)
    table = run_once(wl)
    table.values["companion"][4] = complex("nan")
    problems, _ = wl.problems(table)
    assert any("companion values: non-finite" in p for p in problems)


def test_changed_output_bytes_are_caught(tmp_path):
    wl = prepared(TabulatedBaselines, tmp_path)
    assert wl.check(run_once(wl)) == []
    out = run_once(wl)
    path = wl.outdir / "tabulated_resolved.json"
    path.write_text(path.read_text(encoding="utf-8") + " ", encoding="utf-8")
    assert any("output bytes differ" in p for p in wl.check(out))


def test_failed_cli_run_is_caught(tmp_path):
    wl = prepared(Order3RunSweep, tmp_path)
    wl.input_path.write_text("{}", encoding="utf-8")
    problems = wl.check(run_once(wl))
    assert any("exited 2" in p for p in problems)


def test_tracer_reaches_imported_names_and_restores_them():
    modules = {name: getattr(wkbrec, name) for name in run.LAYER_MODULES}
    originals = (wkbrec.wkb.root_frames, wkbrec.roots.root_frames, wkbrec.compare_methods)
    tracer = Tracer(modules, also_bind=(wkbrec,))
    spec = wkbrec.RecurrenceSpec(
        order=3,
        coeffs=tuple(
            wkbrec.SinusoidalInEpsK(a, o, epsilon=0.01)
            for a, o in zip((0.2, 0.1, -0.1), (-6, 11, -6))
        ),
        k_start=0,
        horizon=10,
    )
    tracer.install()
    try:
        wkbrec.compare_methods(spec, np.ones(3), ["direct", "gauge-exact"])
    finally:
        tracer.uninstall()
    assert (wkbrec.wkb.root_frames, wkbrec.roots.root_frames, wkbrec.compare_methods) == originals
    assert tracer.calls("wkb.compare_methods") == 1
    assert tracer.calls("roots.root_frames") == 1  # called from wkb through its import
    assert tracer.calls("roots.characteristic_roots") == 11
    assert tracer.calls("core.direct_solve") == 2
    self_total = sum(tracer.self_s(m) for m in run.LAYER_MODULES)
    assert self_total == pytest.approx(tracer.top_level_s, rel=1e-9)


def test_smoke_mode_passes(capsys):
    assert run.main(["--smoke"]) == 0
    assert "smoke ok" in capsys.readouterr().out
