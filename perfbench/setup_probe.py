"""Set-up probe: time ``import wkbrec`` plus building the program's inputs.

Run in a fresh interpreter so the import is cold:

    python3 perfbench/setup_probe.py <src-dir> <scenario|spec> <input.json>

prints the elapsed seconds.  ``scenario`` loads a scenario file the way the
CLI does; ``spec`` builds a ``RecurrenceSpec`` from the parameter file that
the library workload writes.  Only the standard library is imported before
the clock starts, so numpy's import counts as part of the set-up.
"""

import json
import sys
import time


def build_inputs(wkbrec, kind: str, path: str):
    """The program-side inputs of a workload, built from its input file."""
    if kind == "scenario":
        return wkbrec.load_scenario(path)
    if kind != "spec":
        raise ValueError(f"unknown input kind {kind!r}")
    with open(path, encoding="utf-8") as handle:
        p = json.load(handle)

    def sinusoidal(amplitude, offset):
        return wkbrec.SinusoidalInEpsK(
            complex(*amplitude), complex(*offset), epsilon=p["epsilon"]
        )

    spec = wkbrec.RecurrenceSpec(
        order=p["order"],
        coeffs=tuple(sinusoidal(a, o) for a, o in zip(p["amplitudes"], p["offsets"])),
        k_start=0,
        horizon=p["horizon"],
        forcing=sinusoidal(p["forcing_amplitude"], p["forcing_offset"]),
    )
    return spec, [complex(*z) for z in p["initial"]]


def main(argv) -> int:
    src, kind, path = argv
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import wkbrec

    build_inputs(wkbrec, kind, path)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
