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
list, a terminal-error summary per parameter value.  CSV numbers are
formatted with 17 significant digits (``%.17g``), JSON numbers with the
shortest ``repr`` that reads back to the same double (the text of
``json.dumps(..., indent=2)``), so identical scenarios produce
byte-identical output.  The JSON writer takes int64, float64 and complex128
columns as they are, a complex one written as its ``[re, im]`` pairs.

Each file is streamed: its text is formatted one block of ``_BLOCK`` array
entries or table rows at a time and written as it is formatted, so no
file's text is held whole.  The files of a run are written together, each
to a temporary file created exclusively beside its target, in the mode
``open(path, "w")`` gives (0o666 less umask; the umask is never changed),
so a failure while they are written leaves every earlier file as it was.
Then they replace their targets one ``os.replace`` at a time (POSIX has no
multi-file rename), and a failure between two leaves the earlier targets new.

A ``run`` whose coefficient table has more than ``_BLOCK`` rows, on a
platform with ``os.fork``, overlaps the resolved file with the computation:
the resolved file depends on the scenario alone, so right after loading it
the parent creates that file's temporary file and forks a child that
formats the text into it, while the parent runs the batch and writes the
other files; the parent reaps the child before any target is replaced.  The
child is fork-safe although numpy's BLAS may have started threads (the
question Python 3.12's fork ``DeprecationWarning`` asks): it calls no BLAS
routine and roots nothing, takes no lock another thread may hold, and ends
with ``os._exit``.  The parent owns every failure: when the fork or the
child fails it writes the resolved file itself, and when it fails itself it
ends and reaps the child and removes its temporary file, so the bytes,
messages and exit codes are those of the unforked path.  Shorter runs and
``sweep`` do not fork: the fork costs more than it saves on them.

Exit codes: 0 success, 2 schema error, 3 numerical breakdown, 4 I/O error.
Subcommands raise, and only :func:`main` reports a failure: one line on
stderr, except that ``validate`` lists its diagnostics on stdout.  A reader
that closes standard output early (``wkbrec generate | head -3``) is not an
I/O error: the rest of the text is dropped, nothing is printed on stderr,
and the exit code is the one the command had otherwise (0 for ``generate``
and ``run``, whose files are all in place).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import warnings
from contextlib import suppress
from functools import cache, partial
from pathlib import Path

import numpy as np

from .errors import RecurrenceError
from .roots import DEFAULT_ROOT_TOL
from .scenario import (
    ScenarioError,
    _resolved_payload,
    _sweep_problems,
    load_scenario,
    scenario_from_dict,
)
from .wkb import ComparisonTable, SweepResult, _check_finite, _compare_batch, _sweep_result

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# the arrays the JSON writer formats itself: the index, value and table columns
_ARRAY_DTYPES = {np.dtype(np.int64), np.dtype(float), np.dtype(complex)}
# array entries (JSON) or table rows (CSV) formatted per chunk of text
_BLOCK = 4096


def _create(path: Path):
    """A temporary file created exclusively beside ``path``, in the mode
    ``open(path, "w")`` gives (the umask is never changed): its path and its
    open text handle."""
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    return tmp, open(tmp, "x", encoding="utf-8", newline="\n")


class _ForkedWriter:
    """One file's chunks of text written to its temporary file (see
    :func:`_create`) by a forked child while the parent computes; the module
    docstring says when this runs and why the child is safe.

    The child writes through the handle it inherits and ends with
    ``os._exit``: 0 once the text is written, 1 on any failure.  So it never
    returns into the caller's handlers, ``finally`` blocks or ``atexit``,
    and flushes none of the parent's buffers.  :meth:`join` writes the file
    in the parent when the fork or the child failed; :meth:`discard` ends
    and reaps a child not yet reaped and removes the temporary file."""

    def __init__(self, path: Path, chunks):
        self.path, self.chunks = path, chunks
        self.tmp, handle = _create(path)
        with handle:
            try:
                # the warning that a process with threads forks: the module
                # docstring says why this child is safe
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DeprecationWarning)
                    self.pid = os.fork()
            except OSError:  # no child: join writes the file
                self.pid = None
                return
            if self.pid == 0:
                code = 1
                try:
                    handle.writelines(chunks)
                    handle.close()
                    code = 0
                finally:
                    os._exit(code)

    def join(self) -> Path:
        """Reap the child; the temporary file, written here anew unless the
        child wrote it whole."""
        failed = self.pid is None or os.waitpid(self.pid, 0)[1] != 0
        self.pid = None
        if failed:
            os.unlink(self.tmp)
            self.tmp, handle = _create(self.path)
            with handle:
                handle.writelines(self.chunks)
        return self.tmp

    def discard(self) -> None:
        """End and reap the child unless reaped, and remove the temporary file."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        if os.path.exists(self.tmp):
            os.unlink(self.tmp)


def _atomic_write(files, forked: _ForkedWriter | None = None) -> None:
    """Write the text chunks of each (path, chunks) of ``files`` to a
    temporary file (see :func:`_create`), then ``os.replace`` the paths one
    at a time; ``forked`` writes the temporary file of its own path, reaped
    once the others are written.  A failure while writing leaves every path
    as it was, one between two replacements leaves the earlier paths new;
    neither leaves a temp file or a child."""
    temps = {}
    try:
        for path, chunks in files:
            if forked is None or path != forked.path:
                temps[path], handle = _create(path)
                with handle:
                    handle.writelines(chunks)
        if forked is not None:
            temps[forked.path] = forked.join()
        for path, _ in files:
            os.replace(temps[path], path)
    except BaseException:
        if forked is not None:
            forked.discard()
        for tmp in temps.values():
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _emit(obj, pad: str):
    """The chunks of ``json.dumps(obj, indent=2, allow_nan=False)`` written
    at indentation ``pad``.  Dicts with string keys and lists recurse; a 1-D
    array of ``_ARRAY_DTYPES`` is one ``%`` format of a repeated row template
    per block of ``_BLOCK`` entries (``%r`` is json's number text); json
    writes any other value."""
    inner = pad + "  "
    if type(obj) is dict and obj and all(type(key) is str for key in obj):
        sep = "{\n" + inner
        for key, value in obj.items():
            yield sep + json.dumps(key) + ": "
            yield from _emit(value, inner)
            sep = ",\n" + inner
        yield "\n" + pad + "}"
    elif type(obj) is np.ndarray and obj.ndim == 1 and obj.dtype in _ARRAY_DTYPES:
        if not obj.size:
            yield "[]"
            return
        row, sep = "%r", ",\n" + inner
        if obj.dtype.kind == "c":
            row = "[\n" + inner + "  %r,\n" + inner + "  %r\n" + inner + "]"
        for start in range(0, len(obj), _BLOCK):
            block = obj[start : start + _BLOCK]
            if not np.isfinite(block).all():
                raise ValueError("Out of range float values are not JSON compliant")
            rows = ("[\n" + inner if start == 0 else sep) + sep.join([row] * len(block))
            if block.dtype.kind == "c":  # the view keeps each part's bits, -0.0 included
                block = np.ascontiguousarray(block).view(float)
            yield rows % tuple(block.tolist())
        yield "\n" + pad + "]"
    elif type(obj) is list and obj:
        sep = "[\n" + inner
        for item in obj:
            yield sep
            yield from _emit(item, inner)
            sep = ",\n" + inner
        yield "\n" + pad + "]"
    else:
        yield json.dumps(obj, indent=2, allow_nan=False).replace("\n", "\n" + pad)


def _json_chunks(payload):
    """The chunks of ``json.dumps(payload, indent=2, allow_nan=False)`` plus
    a newline, an array standing for its ``tolist()`` (a complex one for its
    [re, im] pairs).  A NaN or infinity raises ``ValueError``, as in json."""
    yield from _emit(payload, "")
    yield "\n"


def _csv(header: list[str], k, numbers: np.ndarray):
    """The chunks of a CSV table: ``header``, then one row per row of the
    floats ``numbers``, each written ``%.17g`` (of the number + 0.0, so -0.0
    and 0.0 print alike) after the int64 ``k[i]`` unless ``k`` is None: one
    ``%`` format of a repeated row template per block of ``_BLOCK`` rows."""
    row = ",".join(["%.17g"] * numbers.shape[1]) + "\n"
    if k is not None:
        row = "%d," + row
    yield ",".join(header) + "\n"
    for start in range(0, len(numbers), _BLOCK):
        cells = numbers[start : start + _BLOCK] + 0.0
        if k is not None:
            ks = k[start : start + _BLOCK].astype(object)
            cells = np.column_stack((ks, cells.astype(object)))
        yield (row * len(cells)) % tuple(cells.ravel().tolist())


def _trajectory_chunks(table: ComparisonTable, fmt: str):
    if fmt == "json":
        methods = {
            name: {"re": vals.real + 0.0, "im": vals.imag + 0.0}
            for name, vals in table.values.items()
        }
        yield from _json_chunks({"k": table.k, "methods": methods})
        return
    header = ["k", *(f"{name}_{part}" for name in table.values for part in ("re", "im"))]
    # each complex column as its re, im pair of float columns
    yield from _csv(header, table.k, np.stack(list(table.values.values()), axis=1).view(float))


def _error_chunks(table: ComparisonTable, fmt: str):
    if fmt == "json":
        errors = {name: errs + 0.0 for name, errs in table.rel_errors.items()}
        yield from _json_chunks({"k": table.k, "relative_error": errors})
        return
    header = ["k", *(f"{name}_relerr" for name in table.rel_errors)]
    yield from _csv(header, table.k, np.stack(list(table.rel_errors.values()), axis=1))


def _sweep_chunks(result: SweepResult, fmt: str):
    epsilons, errors = result.epsilons, result.terminal_errors
    if fmt == "json":
        copies = {name: e + 0.0 for name, e in errors.items()}
        yield from _json_chunks({"epsilon": epsilons + 0.0, "terminal_relative_error": copies})
        return
    header = ["epsilon", *(f"{name}_terminal_relerr" for name in errors)]
    yield from _csv(header, None, np.column_stack((epsilons, *errors.values())))


def _to_stdout(chunks) -> None:
    """Write the text ``chunks`` to standard output and flush it.  A reader
    that closed the pipe early is not an error of the program: the rest of
    the text is dropped, and standard output is pointed at ``os.devnull`` so
    that the interpreter's final flush does not fail again.  A process
    started without standard output drops the text, as ``print`` does."""
    if sys.stdout is None:
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_validate(args) -> int:
    load_scenario(args.scenario)
    return EXIT_OK


def _execute(args, sweep_only: bool) -> int:
    """``run`` and ``sweep``: load, compute everything, then write the
    files together, each as it is formatted, block by block; a long
    ``run`` writes its resolved file in a forked child meanwhile (see the
    module docstring)."""
    stem = Path(args.scenario).stem
    scenario = load_scenario(args.scenario)
    spec, initial, methods = scenario.spec, scenario.initial, scenario.methods
    epsilons, problems = scenario.epsilon_sweep, scenario.sweep_problems
    if sweep_only and args.epsilons:
        epsilons = args.epsilons
        problems, errors = _sweep_problems(spec, epsilons, "--epsilons")
        if errors:
            raise ScenarioError(errors)
    if sweep_only and not epsilons:
        missing = "no sweep values: scenario has no 'epsilon_sweep' and no --epsilons given"
        raise ScenarioError([missing])
    outdir = Path(args.output_dir) if args.output_dir else Path(scenario.output_path)
    fmt = args.format if args.format else scenario.output_format
    forked = None
    if not sweep_only:
        resolved = (outdir / f"{stem}_resolved.json", _json_chunks(_resolved_payload(scenario)))
        if len(spec.table) > _BLOCK and hasattr(os, "fork"):
            made = [path for path in (outdir, *outdir.parents) if not path.exists()]
            outdir.mkdir(parents=True, exist_ok=True)
            forked = _ForkedWriter(*resolved)
    try:
        # one batch: the run's own problem first, then the sweep's
        own = [] if sweep_only else [spec]
        tables = _compare_batch([*own, *problems], initial, methods, args.tolerance)
        table = tables[0] if own else None
        sweep = _sweep_result(epsilons, tables[len(own) :], methods) if epsilons else None
        if table is not None:  # the resolved file tabulates N indices past the horizon
            ks = spec.k_start + np.arange(len(spec.table))
            _check_finite(spec.table, ks, "coefficient table")
    except BaseException:
        if forked is not None:  # as without a child: no file, child or new directory
            forked.discard()
            for path in made:
                with suppress(OSError):
                    path.rmdir()
        raise

    files = []  # (path, its chunks of text) in writing order
    if table is not None:
        files += [
            (outdir / f"{stem}_trajectory.{fmt}", _trajectory_chunks(table, fmt)),
            (outdir / f"{stem}_errors.{fmt}", _error_chunks(table, fmt)),
            resolved,
        ]
    if sweep is not None:
        files.append((outdir / f"{stem}_sweep.{fmt}", _sweep_chunks(sweep, fmt)))
    if forked is None:
        outdir.mkdir(parents=True, exist_ok=True)
    _atomic_write(files, forked)
    # ``run`` names its two tables, ``sweep`` its one
    named = [path.name for path, _ in files[: 1 if sweep_only else 2]]
    _to_stdout([f"wrote {', '.join(named)} to {outdir}\n"])
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
    # a draw can land on a degenerate problem; report rather than retry
    scenario_from_dict(data)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write([(out, _json_chunks(data))])
    else:
        _to_stdout(_json_chunks(data))
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


def _seed(text: str) -> int:
    """argparse type: a nonnegative integer, as numpy's generator takes."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return value


@cache  # one parser per process; parse_args leaves it as it was
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
    p_gen.add_argument("--seed", type=_seed, default=0, help="RNG seed for generation")
    p_gen.add_argument("--out", default=None, help="write to a file instead of stdout")
    p_gen.set_defaults(func=_cmd_generate)

    return parser


def main(argv=None) -> int:
    """Run one subcommand, and turn its failure into a message and exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        lines = [line + "\n" for line in exc.diagnostics]
        if args.command == "validate":
            _to_stdout(lines)
        else:
            sys.stderr.writelines(lines)
        return EXIT_SCHEMA
    except RecurrenceError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # the library's other input errors
        print(str(exc), file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
