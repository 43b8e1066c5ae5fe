"""wkbrec benchmark: one workload per dominant layer, checked against an oracle.

    python3 perfbench/run.py --workload order3-run-sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the library is imported from
``src/`` (the run fails if it is absent).  One client runs operations
back-to-back in this process (a closed loop: the next operation starts when
the previous one returns) for ``--seconds``, after one untimed warm-up
operation.  Every operation's output is checked; see ``checks.py``.  Times
are reported at reference speed; see ``reference.py``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced phase (see ``spans.py`` and ``NOTES.md``).
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--smoke`` runs every workload at a tiny size, once untraced
and once traced, and exits non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

# The library's matrices are at most 8 x 8, far below where threaded BLAS
# helps; one thread keeps the run in one core and its timings steadier.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
MIN_TIMED_OPS = 3
LAYER_MODULES = ("core", "decomposition", "roots", "third_order", "wkb", "scenario", "cli")


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append("; ".join(problems))


class OpTime:
    """Raw wall and CPU seconds of one operation, and its speed factor."""

    def __init__(self, wall: float, cpu: float, scale: float):
        self.wall = wall
        self.cpu = cpu
        self.scale = scale

    @property
    def norm_wall(self) -> float:
        return self.wall * self.scale

    @property
    def norm_cpu(self) -> float:
        return self.cpu * self.scale


def run_op(wl, wkbrec, ref, tally: Tally) -> OpTime:
    """Run and check one operation, bracketed by the reference loop."""
    wl.before_op()

    def measure():
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out, error = wl.op(wkbrec), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        return out, error, time.perf_counter() - t0, time.process_time() - c0

    (out, error, wall, cpu), scale = ref.scale(measure)
    timing = OpTime(wall, cpu, scale)
    if error is None:
        try:
            problems = wl.check(out)
        except Exception as exc:  # malformed output the parsers did not expect
            problems = [f"output check raised {type(exc).__name__}: {exc}"]
    else:
        problems = [error]
    tally.record(problems)
    return timing


def run_for(seconds: float, min_ops: int, body) -> None:
    """Call ``body`` until ``seconds`` have passed and it ran ``min_ops`` times."""
    start = time.perf_counter()
    done = 0
    while done < min_ops or time.perf_counter() - start < seconds:
        body()
        done += 1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (at least two values)."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def setup_seconds(wl, ref) -> float:
    """Median over fresh interpreters of ``import wkbrec`` + input building."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), wl.input_kind, str(wl.input_path)]
    samples = []
    for _ in range(SETUP_REPEATS):
        done, scale = ref.scale(
            lambda: subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-300:]}")
        samples.append(float(done.stdout.strip().splitlines()[-1]) * scale)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> int | str:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def machine_info() -> dict:
    import numpy

    revision = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        if done.returncode == 0:
            revision = done.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
        "git_revision": revision,
    }


# -- end-to-end run ---------------------------------------------------------


def end_to_end(wl, wkbrec, ref, seconds: float, tally: Tally) -> tuple[dict, list[str]]:
    times: list[OpTime] = []
    run_for(seconds, MIN_TIMED_OPS, lambda: times.append(run_op(wl, wkbrec, ref, tally)))
    q1, op_s, q3 = quartiles([t.norm_wall for t in times])
    r1, raw, r3 = quartiles([t.wall for t in times])
    notes = [
        f"op_s quartiles {q1:.6f} / {op_s:.6f} / {q3:.6f} s over {len(times)} ops",
        f"raw wall quartiles {r1:.6f} / {raw:.6f} / {r3:.6f} s, "
        f"median speed factor {statistics.median(t.scale for t in times):.3f}",
    ]
    metrics = {
        "op_s": (op_s, "s"),
        "steps_per_s": (wl.steps_per_op / op_s, "steps/s"),
        "cpu_s": (statistics.median(t.norm_cpu for t in times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, notes


# -- traced run -------------------------------------------------------------


def _frame_key_observer(seen: set):
    def observe(args, kwargs):
        spec = args[0] if args else kwargs["spec"]
        k = args[1] if len(args) > 1 else kwargs["k"]
        seen.add((spec.coeffs, k))

    return observe


def layer_metrics(tr, wall: float, distinct_frames: int, wl) -> dict[str, float]:
    """Per-layer numbers of one traced operation (see NOTES.md)."""
    frames = tr.calls("roots.frame_from_coeffs")
    files, nbytes = wl.output_size()
    m = {
        "roots.find_s": tr.total_s("roots.characteristic_roots"),
        "roots.find_calls": tr.calls("roots.characteristic_roots"),
        "roots.frame_passes": tr.calls("roots.root_frames"),
        "roots.frame_useful_ratio": distinct_frames / frames if frames else 1.0,
        "roots.track_s": tr.total_s("roots.track_branches"),
        "roots.track_calls": tr.calls("roots.track_branches"),
        "roots.gauge_s": tr.total_s("roots.power_gauge", "roots.vandermonde_inverse"),
        "decomposition.step_s": tr.total_s("decomposition.step"),
        "decomposition.step_calls": tr.calls("decomposition.step"),
        "decomposition.decompose_s": tr.total_s("decomposition.decompose_initial"),
        "decomposition.reconstruct_s": tr.total_s("decomposition.reconstruct"),
        "third_order.step_s": tr.total_s(
            "third_order.explicit_step", "third_order.wkb3_step", "third_order.decoupled_step"
        ),
        "third_order.step_calls": tr.calls(
            "third_order.explicit_step", "third_order.wkb3_step", "third_order.decoupled_step"
        ),
        "third_order.riccati_s": tr.total_s(
            "third_order.oracle_ratio_branch",
            "third_order.riccati_gauge",
            "third_order.product_solution",
            "third_order.riccati_forward",
        ),
        "wkb.step_s": tr.total_s(
            "wkb.exact_step_general", "wkb.wkb_step_general", "wkb.wkb_diagonal_gain"
        ),
        "wkb.compare_calls": tr.calls("wkb.compare_methods"),
        "core.coeff_s": tr.total_s(
            "core.RecurrenceSpec.coeff_array", "core.RecurrenceSpec.forcing_value"
        ),
        "core.coeff_calls": tr.calls("core.RecurrenceSpec.coeff_array"),
        "core.direct_s": tr.total_s("core.direct_solve"),
        "core.direct_calls": tr.calls("core.direct_solve"),
        "core.companion_s": tr.total_s("core.companion_propagate"),
        "scenario.load_s": tr.total_s("scenario.load_scenario"),
        "scenario.resolve_s": tr.total_s("scenario.resolved_dict"),
        "cli.bytes_written": nbytes,
        "cli.files_written": files,
        "trace.op_s": wall,
        "trace.unwrapped_s": wall - tr.top_level_s,
        "trace.span_calls": tr.span_calls(),
    }
    for module in LAYER_MODULES:
        m[f"{module}.self_s"] = tr.self_s(module)
    return m


LAYER_UNITS = (
    ("us_per_step", "us/step"),
    ("_frac", "ratio"),
    ("_ratio", "ratio"),
    ("_calls", "count"),
    ("_passes", "count"),
    ("_s", "s"),
)


def layer_unit(name: str) -> str:
    if name == "cli.bytes_written":
        return "bytes"
    if name == "cli.files_written":
        return "count"
    return next(unit for suffix, unit in LAYER_UNITS if name.endswith(suffix))


def per_method_us(wl, wkbrec, seconds: float, tally: Tally) -> dict[str, float]:
    """Median µs per step of single-method ``compare_methods`` calls.

    Each call includes the library's oracle recursion, as every
    ``compare_methods`` call does, and is checked against the workload's own
    oracle like an operation.  Methods a workload does not run read 0.
    """
    from checks import check_against_oracle
    from workloads import ALL_METHODS

    spec, initial = wl.method_inputs(wkbrec)
    out = {}
    budget = seconds / len(wl.methods)
    for method in ALL_METHODS:
        if method not in wl.methods:
            out[f"wkb.method.{method}.us_per_step"] = 0.0
            continue
        samples = []

        def body():
            t0 = time.perf_counter()
            try:
                table = wkbrec.compare_methods(spec, initial, [method])
            except Exception as exc:  # counted as a failed operation
                table, problems = None, [f"{method}: {type(exc).__name__}: {exc}"]
            samples.append(time.perf_counter() - t0)
            if table is not None:
                problems = check_against_oracle(method, table.values[method], wl.oracle)
            tally.record(problems)

        run_for(budget, 1, body)
        out[f"wkb.method.{method}.us_per_step"] = statistics.median(samples) / spec.horizon * 1e6
    return out


def traced(wl, wkbrec, ref, seconds: float, tally: Tally) -> tuple[dict, list[str]]:
    """Untraced ops, then traced ops, then single-method timings."""
    from spans import Tracer

    untraced: list[OpTime] = []
    run_for(0.4 * seconds, MIN_TIMED_OPS, lambda: untraced.append(run_op(wl, wkbrec, ref, tally)))

    seen: set = set()
    tracer = Tracer(
        {name: getattr(wkbrec, name) for name in LAYER_MODULES},
        also_bind=(wkbrec,),
        observers={"roots.frame_from_coeffs": _frame_key_observer(seen)},
    )
    per_op: list[dict] = []
    traced_times: list[OpTime] = []

    def body():
        tracer.reset()
        seen.clear()
        timing = run_op(wl, wkbrec, ref, tally)
        traced_times.append(timing)
        per_op.append(layer_metrics(tracer, timing.wall, len(seen), wl))

    tracer.install()
    try:
        run_for(0.4 * seconds, MIN_TIMED_OPS, body)
    finally:
        tracer.uninstall()

    metrics = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    metrics["trace.untraced_op_s"] = statistics.median(t.wall for t in untraced)
    # compared at reference speed, since the two phases run at different times
    base = statistics.median(t.norm_wall for t in untraced)
    metrics["trace.overhead_frac"] = statistics.median(t.norm_wall for t in traced_times) / base - 1
    metrics.update(per_method_us(wl, wkbrec, 0.2 * seconds, tally))
    op_s = metrics["trace.op_s"]
    shares = sorted(
        ((metrics[f"{m}.self_s"] / op_s, m) for m in LAYER_MODULES), reverse=True
    )
    notes = [
        f"traced over {len(per_op)} ops, untraced over {len(untraced)}; self-time share of the traced op: "
        + ", ".join(f"{m} {share:.1%}" for share, m in shares)
        + f", unwrapped {metrics['trace.unwrapped_s'] / op_s:.1%}"
    ]
    return {name: (value, layer_unit(name)) for name, value in sorted(metrics.items())}, notes


# -- entry point ------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, workdir: Path):
    # numpy and the library load only after main() has pinned the BLAS
    # threads and put src/ on the path
    import wkbrec
    import wkbrec.cli
    from reference import Reference
    from workloads import WORKLOADS

    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name](seed, workdir, smoke=smoke)
    wl.prepare(wkbrec)
    ref = Reference(wl.reference_kind)
    tally = Tally()
    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        metrics["setup_s"] = (setup_seconds(wl, ref), "s")
    run_op(wl, wkbrec, ref, tally)  # warm-up: lazy imports and caches fill here
    if trace:
        found, notes = traced(wl, wkbrec, ref, seconds, tally)
    else:
        found, notes = end_to_end(wl, wkbrec, ref, seconds, tally)
    metrics.update(found)
    return metrics, notes, tally


def report(name: str, seed: int, metrics: dict, notes: list[str], tally: Tally) -> dict:
    print(f"workload {name} seed {seed}")
    for line in notes:
        print("  " + line)
    for metric, (value, unit) in sorted(metrics.items()):
        print(f"  {metric} = {value:.6g} {unit}")
    for reason in tally.reasons:
        print(f"  FAILED: {reason}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="order3-run-sweep, order8-forced or tabulated-baselines")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload, tiny size, once")
    args = parser.parse_args(argv)
    if not args.smoke and not args.workload:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wkbrec" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC / 'wkbrec'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = WORK / str(os.getpid())
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    try:
        if args.smoke:
            ok = True
            for name in WORKLOADS:
                for trace in (False, True):
                    metrics, notes, tally = run_workload(name, args.seed, 0.0, trace, True, workdir)
                    ok = ok and tally.failed == 0
                    report(name, args.seed, metrics, notes, tally)
            print("smoke " + ("ok" if ok else "FAILED"))
            return 0 if ok else 1
        metrics, notes, tally = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), False, workdir
        )
        result = report(args.workload, args.seed, metrics, notes, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
