"""One measurement of levyflow in a fresh process.

Usage: python3 child.py SPEC.json RESULT.json

SPEC names a mode:

* ``calls`` times ``levyflow.cli.main`` calls one after another, optionally
  under the span tracer, and records the process's peak resident set size;
  when the spec asks, it also times a fixed reference task before each call
  and after the last, and repeated ``load_config`` calls after that;
* ``check`` re-solves path 0 of a simulate run with ``global_solve`` and
  with ``baseline_direct`` on the same noise at the final level.

The parent pins the thread counts and points PYTHONPATH at the checkout's
``src`` before starting this process.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

from spantrace import Tracer
from workloads import (FFT_FUNCS, FFT_KEY, LAYER_TARGETS, PATH_ROOTS,
                       ROOT_SPAN)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_s() -> float:
    """Wall time of a fixed task that uses no levyflow code.

    Interpreter work on floats and a dict, then small 2-D FFTs, the two
    kinds of work the workloads do (on a 30 x 30 grid, a size no workload
    transforms, so it leaves no cached FFT plan behind for them).  Its time
    follows the host's speed at the moment, so a workload's time divided by
    it is the workload's cost in units of this task, which no change to
    levyflow can move.
    """
    import numpy as np

    grid = np.cos(np.arange(900.0)).reshape(30, 30)
    t0 = time.perf_counter()
    acc, seen = 0.0, {}
    for i in range(180_000):
        acc += (i % 7) * 0.5
        seen[i & 255] = acc
    for _ in range(200):
        grid = np.fft.ifft2(np.fft.fft2(grid)).real
    return time.perf_counter() - t0


def run_calls(spec: dict) -> dict:
    import numpy as np

    from levyflow import cli

    tracer = None
    main = cli.main
    if spec.get("trace"):
        tracer = Tracer(path_roots=PATH_ROOTS)
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "levyflow" or n.startswith("levyflow.")) and m]
        tracer.install(LAYER_TARGETS, modules)
        tracer.count(np.fft, FFT_FUNCS, FFT_KEY,
                     size=lambda a: int(np.asarray(a).size))
        main = tracer.wrap(cli.main, ROOT_SPAN)
    n_ref = spec.get("reference", 0)
    ref = []        # n_ref samples before each call, and after the last
    calls = []
    try:
        for argv in spec["argvs"]:
            if n_ref:
                ref.append([reference_s() for _ in range(n_ref)])
            entry = {"error": None}
            t0 = time.perf_counter()
            try:
                entry["rc"] = main(argv)
            except Exception as exc:   # a crashing path must still be counted
                traceback.print_exc()
                entry["rc"] = None
                entry["error"] = f"{type(exc).__name__}: {exc}"
            entry["wall_s"] = time.perf_counter() - t0
            calls.append(entry)
    finally:
        if tracer is not None:
            tracer.restore()
    result = {"calls": calls, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(spec["trace_file"])
    if n_ref:
        ref.append([reference_s() for _ in range(n_ref)])
        result["ref_s"] = ref
    if spec.get("setup"):
        result["setup"] = time_setup(spec["setup"])
    return result


def time_setup(spec: dict) -> dict:
    """Times of repeated load_config calls, per config and overrides."""
    from levyflow.config import load_config

    out = {}
    for key, entry in spec["configs"].items():
        with open(entry["path"]) as fh:
            text = fh.read()
        times = []
        stop = time.perf_counter() + spec["min_s"]
        while len(times) < spec["min_calls"] or (
                len(times) < spec["max_calls"] and time.perf_counter() < stop):
            t0 = time.perf_counter()
            load_config(text, entry["overrides"])
            times.append(time.perf_counter() - t0)
        out[key] = times
    return out


def run_check(spec: dict) -> dict:
    import numpy as np

    from levyflow import noise, solver
    from levyflow.config import load_config

    with open(spec["config"]) as fh:
        _, setup = load_config(fh.read(), spec["overrides"])
    rec = spec["record"]
    scfg = setup.solver
    real = noise.sample_realization(0.0, scfg.n_steps, scfg.dt, setup.measure,
                                    setup.wiener, int(rec["seed"]))
    fixed = solver.global_solve(real, scfg, setup.model, setup.coeff,
                                setup.measure, setup.u0)
    direct = solver.baseline_direct(real, scfg, setup.model, setup.coeff,
                                    setup.measure, setup.u0,
                                    level=fixed.level_final)
    same_shape = fixed.trajectory.states.shape == direct.states.shape
    gap = (float(np.abs(fixed.trajectory.states - direct.states).max())
           if same_shape else float("inf"))
    return {
        "gap": gap,
        "blowup": bool(fixed.blowup_flag),
        "matches_summary": (fixed.level_final == rec.get("level_final")
                            and list(fixed.stop_times) == rec.get("stop_times")),
    }


MODES = {"calls": run_calls, "check": run_check}


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import levyflow

    where = os.path.realpath(os.path.dirname(levyflow.__file__))
    if not where.startswith(os.path.realpath(spec["src"]) + os.sep):
        print(f"levyflow imported from {where}, not from {spec['src']}",
              file=sys.stderr)
        return 3
    result = MODES[spec["mode"]](spec)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
