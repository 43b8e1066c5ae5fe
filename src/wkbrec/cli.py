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


def _csv(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _trajectory_tables(table: ComparisonTable, fmt: str) -> str:
    methods = list(table.values)
    if fmt == "json":
        payload = {
            "k": [int(k) for k in table.k],
            "methods": {
                name: {
                    "re": [_num(v.real) for v in table.values[name]],
                    "im": [_num(v.imag) for v in table.values[name]],
                }
                for name in methods
            },
        }
        return json.dumps(payload, indent=2) + "\n"
    header = ["k"]
    for name in methods:
        header += [f"{name}_re", f"{name}_im"]
    rows = []
    for i, k in enumerate(table.k):
        row = [str(int(k))]
        for name in methods:
            v = table.values[name][i]
            row += [_fmt(v.real), _fmt(v.imag)]
        rows.append(row)
    return _csv(header, rows)


def _error_tables(table: ComparisonTable, fmt: str) -> str:
    methods = list(table.rel_errors)
    if fmt == "json":
        payload = {
            "k": [int(k) for k in table.k],
            "relative_error": {
                name: [_num(e) for e in table.rel_errors[name]] for name in methods
            },
        }
        return json.dumps(payload, indent=2) + "\n"
    header = ["k"] + [f"{name}_relerr" for name in methods]
    rows = []
    for i, k in enumerate(table.k):
        rows.append(
            [str(int(k))] + [_fmt(float(table.rel_errors[name][i])) for name in methods]
        )
    return _csv(header, rows)


def _sweep_table(result: SweepResult, fmt: str) -> str:
    methods = list(result.terminal_errors)
    if fmt == "json":
        payload = {
            "epsilon": [_num(e) for e in result.epsilons],
            "terminal_relative_error": {
                name: [_num(v) for v in result.terminal_errors[name]]
                for name in methods
            },
        }
        return json.dumps(payload, indent=2) + "\n"
    header = ["epsilon"] + [f"{name}_terminal_relerr" for name in methods]
    rows = []
    for i, eps in enumerate(result.epsilons):
        rows.append(
            [_fmt(float(eps))]
            + [_fmt(float(result.terminal_errors[name][i])) for name in methods]
        )
    return _csv(header, rows)


def _resolve_output(scenario: Scenario, args) -> tuple[Path, str]:
    outdir = Path(args.output_dir) if args.output_dir else Path(scenario.output_path)
    fmt = args.format if args.format else scenario.output_format
    return outdir, fmt


def _load(path: str) -> Scenario:
    if not os.path.exists(path):
        raise OSError(f"no such file: {path}")
    return load_scenario(path)


def _cmd_validate(args) -> int:
    try:
        with open(args.scenario, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                print(f"not valid JSON: {exc}")
                return EXIT_SCHEMA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    diagnostics = validate_scenario_dict(data)
    for line in diagnostics:
        print(line)
    return EXIT_SCHEMA if diagnostics else EXIT_OK


def _cmd_run(args) -> int:
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

    try:
        table = compare_methods(
            scenario.spec, scenario.initial, scenario.methods, root_tol=args.tolerance
        )
        sweep = None
        if scenario.epsilon_sweep:
            sweep = epsilon_sweep(
                scenario.spec,
                scenario.initial,
                scenario.methods,
                scenario.epsilon_sweep,
                root_tol=args.tolerance,
            )
    except RecurrenceError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SCHEMA

    outdir, fmt = _resolve_output(scenario, args)
    try:
        _atomic_write(outdir / f"{stem}_trajectory.{fmt}", _trajectory_tables(table, fmt))
        _atomic_write(outdir / f"{stem}_errors.{fmt}", _error_tables(table, fmt))
        _atomic_write(
            outdir / f"{stem}_resolved.json",
            json.dumps(resolved_dict(scenario), indent=2) + "\n",
        )
        if sweep is not None:
            _atomic_write(outdir / f"{stem}_sweep.{fmt}", _sweep_table(sweep, fmt))
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {stem}_trajectory.{fmt}, {stem}_errors.{fmt} to {outdir}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
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

    epsilons = args.epsilons if args.epsilons else scenario.epsilon_sweep
    if not epsilons:
        print(
            "no sweep values: scenario has no 'epsilon_sweep' and no --epsilons given",
            file=sys.stderr,
        )
        return EXIT_SCHEMA
    try:
        sweep = epsilon_sweep(
            scenario.spec,
            scenario.initial,
            scenario.methods,
            epsilons,
            root_tol=args.tolerance,
        )
    except RecurrenceError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SCHEMA

    outdir, fmt = _resolve_output(scenario, args)
    try:
        _atomic_write(outdir / f"{stem}_sweep.{fmt}", _sweep_table(sweep, fmt))
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {stem}_sweep.{fmt} to {outdir}")
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
    p_run.set_defaults(func=_cmd_run)

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
    p_sweep.set_defaults(func=_cmd_sweep)

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
