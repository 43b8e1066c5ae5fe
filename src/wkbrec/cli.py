"""Batch command line front end.

Subcommands:

    wkbrec validate <scenario.json>   list schema/consistency diagnostics
    wkbrec run      <scenario.json>   run the methods, write result tables
    wkbrec sweep    <scenario.json>   sweep the slow-variation parameter
    wkbrec generate                   emit a random well-posed scenario

``run`` writes, next to each other: a per-step trajectory table with one
re/im column pair per method, a per-step relative-error table against the
scalar-recursion oracle, the resolved scenario (all models tabulated, which
re-ingests to reproduce the run), and, when the scenario carries a sweep
list, a terminal-error summary per parameter value.  All numbers are
formatted with 17 significant digits and files are written atomically, so
identical scenarios produce byte-identical output.

Exit codes: 0 success, 2 schema error, 3 numerical breakdown, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from .errors import RecurrenceError
from .roots import DEFAULT_ROOT_TOL
from .scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    resolved_dict,
    validate_scenario_dict,
)
from .wkb import ComparisonTable, SweepResult, compare_methods, epsilon_sweep

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _num(x: float) -> float:
    # +0.0 and -0.0 must serialise identically for byte-stable output
    return float(x) + 0.0


def _fmt(x: float) -> str:
    return "%.17g" % _num(x)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(payload) -> str:
    # a result table is strict JSON: a NaN or infinity is an error, never a
    # bare token (compare_methods rejects non-finite values before this)
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _csv(columns: dict[str, list[str]]) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(row) for row in zip(*columns.values()))
    return "\n".join(lines) + "\n"


def _trajectory_tables(table: ComparisonTable, fmt: str) -> str:
    if fmt == "json":
        methods = {
            name: {"re": [_num(v.real) for v in vals], "im": [_num(v.imag) for v in vals]}
            for name, vals in table.values.items()
        }
        return _json_text({"k": [int(k) for k in table.k], "methods": methods})
    columns = {"k": [str(int(k)) for k in table.k]}
    for name, values in table.values.items():
        columns[f"{name}_re"] = [_fmt(v.real) for v in values]
        columns[f"{name}_im"] = [_fmt(v.imag) for v in values]
    return _csv(columns)


def _error_tables(table: ComparisonTable, fmt: str) -> str:
    if fmt == "json":
        errors = {name: [_num(e) for e in errs] for name, errs in table.rel_errors.items()}
        return _json_text({"k": [int(k) for k in table.k], "relative_error": errors})
    columns = {"k": [str(int(k)) for k in table.k]}
    for name, errs in table.rel_errors.items():
        columns[f"{name}_relerr"] = [_fmt(e) for e in errs]
    return _csv(columns)


def _sweep_table(result: SweepResult, fmt: str) -> str:
    if fmt == "json":
        errors = {n: [_num(v) for v in e] for n, e in result.terminal_errors.items()}
        epsilons = [_num(e) for e in result.epsilons]
        return _json_text({"epsilon": epsilons, "terminal_relative_error": errors})
    columns = {"epsilon": [_fmt(e) for e in result.epsilons]}
    for name, errs in result.terminal_errors.items():
        columns[f"{name}_terminal_relerr"] = [_fmt(v) for v in errs]
    return _csv(columns)


def _load(path: str) -> Scenario:
    if not os.path.exists(path):
        raise OSError(f"no such file: {path}")
    return load_scenario(path)


def _cmd_validate(args) -> int:
    try:
        load_scenario(args.scenario)
    except ScenarioError as exc:
        for line in exc.diagnostics:
            print(line)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _execute(args, sweep_only: bool) -> int:
    """``run`` and ``sweep``: load, compute everything, then format and
    write one file at a time (only one output text is held at once)."""
    stem = Path(args.scenario).stem
    try:
        scenario = _load(args.scenario)
    except ScenarioError as exc:
        for line in exc.diagnostics:
            print(line, file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    epsilons = scenario.epsilon_sweep
    if sweep_only:
        epsilons = args.epsilons if args.epsilons else epsilons
        if not epsilons:
            print(
                "no sweep values: scenario has no 'epsilon_sweep' and no --epsilons given",
                file=sys.stderr,
            )
            return EXIT_SCHEMA
    spec, initial, methods = scenario.spec, scenario.initial, scenario.methods
    try:
        table = None
        if not sweep_only:
            table = compare_methods(spec, initial, methods, root_tol=args.tolerance)
        sweep = None
        if epsilons:
            sweep = epsilon_sweep(spec, initial, methods, epsilons, root_tol=args.tolerance)
    except RecurrenceError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SCHEMA

    outdir = Path(args.output_dir) if args.output_dir else Path(scenario.output_path)
    fmt = args.format if args.format else scenario.output_format
    files = []  # (file name, formatter) in writing order
    if table is not None:
        files += [
            (f"{stem}_trajectory.{fmt}", lambda: _trajectory_tables(table, fmt)),
            (f"{stem}_errors.{fmt}", lambda: _error_tables(table, fmt)),
            (
                f"{stem}_resolved.json",
                lambda: json.dumps(resolved_dict(scenario), indent=2) + "\n",
            ),
        ]
    if sweep is not None:
        files.append((f"{stem}_sweep.{fmt}", lambda: _sweep_table(sweep, fmt)))
    try:
        for name, text in files:
            _atomic_write(outdir / name, text())
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    # ``run`` names its two tables, ``sweep`` its one
    named = [name for name, _ in files[: 1 if sweep_only else 2]]
    print(f"wrote {', '.join(named)} to {outdir}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    rng = np.random.default_rng(args.seed)
    n = args.order

    def draw() -> str:
        z = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
        return f"{z.real:.6g}{z.imag:+.6g}j"

    coefficients = []
    for i in range(n):
        if i == 0:
            # keep f[0] away from zero over any window
            mag = rng.uniform(0.5, 2.0)
            ang = rng.uniform(0, 2 * np.pi)
            z = mag * np.exp(1j * ang)
            coefficients.append(
                {"variant": "constant", "value": f"{z.real:.6g}{z.imag:+.6g}j"}
            )
        else:
            coefficients.append(
                {
                    "variant": "sinusoidal",
                    "amplitude": f"{rng.uniform(0.05, 0.3):.6g}",
                    "offset": draw(),
                    "frequency": 1.0,
                    "phase": 0.0,
                    "epsilon": 0.01,
                }
            )
    data = {
        "order": n,
        "k_start": 0,
        "horizon": args.horizon,
        "coefficients": coefficients,
        "forcing": {"variant": "constant", "value": "0"},
        "initial": [draw() for _ in range(n)],
        "methods": ["direct", "companion", "gauge-exact"],
        "output": {"path": ".", "format": "csv"},
    }
    diagnostics = validate_scenario_dict(data)
    if diagnostics:
        # a draw can land on a degenerate problem; report rather than retry
        for line in diagnostics:
            print(line, file=sys.stderr)
        return EXIT_SCHEMA
    text = json.dumps(data, indent=2) + "\n"
    try:
        if args.out:
            _atomic_write(Path(args.out), text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _finite_number(allow_zero: bool):
    """argparse type: a finite float, positive (or nonnegative)."""
    word = "nonnegative" if allow_zero else "positive"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and (value > 0 or (allow_zero and value == 0))):
            raise argparse.ArgumentTypeError(f"must be a {word} finite number, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wkbrec",
        description="Propagate linear difference equations by sum decomposition, "
        "exactly or in the slowly-varying (WKB) approximation, and compare "
        "against the direct recursion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output-dir", default=None, help="directory for result tables")
        p.add_argument(
            "--format", choices=["csv", "json"], default=None, help="table format"
        )
        p.add_argument(
            "--tolerance",
            type=_finite_number(allow_zero=False),
            default=DEFAULT_ROOT_TOL,
            help="root-residual tolerance override",
        )

    p_run = sub.add_parser("run", help="run a scenario and write result tables")
    p_run.add_argument("scenario")
    common(p_run)
    p_run.set_defaults(func=partial(_execute, sweep_only=False))

    p_val = sub.add_parser("validate", help="list scenario diagnostics, run nothing")
    p_val.add_argument("scenario")
    p_val.set_defaults(func=_cmd_validate)

    p_sweep = sub.add_parser("sweep", help="sweep the slow-variation parameter")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument(
        "--epsilons",
        type=_finite_number(allow_zero=True),
        nargs="+",
        default=None,
        help="override the scenario's epsilon_sweep list",
    )
    common(p_sweep)
    p_sweep.set_defaults(func=partial(_execute, sweep_only=True))

    p_gen = sub.add_parser("generate", help="emit a random well-posed scenario")
    p_gen.add_argument("--order", type=int, default=3)
    p_gen.add_argument("--horizon", type=int, default=100)
    p_gen.add_argument("--seed", type=int, default=0, help="RNG seed for generation")
    p_gen.add_argument("--out", default=None, help="write to a file instead of stdout")
    p_gen.set_defaults(func=_cmd_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
