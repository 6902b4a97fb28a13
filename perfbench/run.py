"""Benchmark of the levyflow CLI: end-to-end metrics and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N      # every workload, tracing off

Each workload calls ``levyflow.cli.main`` in fresh single-threaded
processes, one at a time.  With ``--trace 0`` the calls repeat with the same
seed for about ``--seconds`` seconds and the end-to-end metrics are medians
over the repeats, their times scaled to a fixed host speed by a reference
task timed in the same process.  With ``--trace 1`` a smaller ensemble runs
once plainly and once under the span tracer, which gives the per-layer
metrics.  Every run checks the program's outputs; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The metrics, the result schema and the reasons for each
workload are in README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (CONFIGS, FFT_KEY, LAYER_TARGETS, ROOT_SPAN, SUITES,
                       WORKLOADS, Call, Workload, layer_name)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

RUN_LIMIT_S = 170.0        # a run ends well inside 180 s
CHILD_LIMIT_S = 150.0
MATCHED_GRID_TOL = 1e-6    # global_solve vs baseline_direct at the same dt
# load_config calls timed after each repeat's CLI calls, per config
SETUP_SAMPLING = {"min_calls": 1, "max_calls": 200, "min_s": 0.1}
# reference task samples a timed child takes before each call, and again
# after the last
REFERENCE_SAMPLES = 3
# median time of the reference task on the machine described in README.md
REFERENCE_S = 0.035
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "child_env": dict.fromkeys(THREAD_VARS, "1"),
    }


def tree_digest(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(out)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def tree_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def load_json(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


class Run:
    """One benchmark run of one workload: children, checks and failure counts."""

    def __init__(self, name: str, seed: int, seconds: int, trace: int):
        self.name = name
        self.workload: Workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.t0 = time.perf_counter()
        self.dir = WORK / f"{name}-seed{seed}-trace{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.configs = {}
        for key, text in CONFIGS.items():
            path = self.dir / f"{key}.ini"
            path.write_text(text)
            self.configs[key] = path
        self.env = child_env()
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.matched_grid_gap = None
        self.unscaled = None

    def fail(self, msg: str) -> None:
        self.errors.append(msg)
        print(f"# check failed: {msg}", file=sys.stderr)

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    # -- child processes ---------------------------------------------------

    def child(self, spec: dict, tag: str) -> dict | None:
        remaining = RUN_LIMIT_S - self.elapsed()
        if remaining < 5.0:
            self.fail(f"{tag}: not started, the run is out of time")
            return None
        spec = dict(spec, src=str(ROOT / "src"))
        spec_path = self.dir / f"{tag}.spec.json"
        result_path = self.dir / f"{tag}.result.json"
        spec_path.write_text(json.dumps(spec))
        log = self.dir / f"{tag}.log"
        cmd = [sys.executable, str(HERE / "child.py"), str(spec_path),
               str(result_path)]
        with open(log, "w") as fh:
            try:
                proc = subprocess.run(cmd, cwd=self.dir, env=self.env,
                                      stdout=fh, stderr=subprocess.STDOUT,
                                      timeout=min(CHILD_LIMIT_S, remaining))
            except subprocess.TimeoutExpired:
                self.fail(f"{tag}: timed out, see {log}")
                return None
        result = load_json(result_path)
        if proc.returncode != 0 or result is None:
            self.fail(f"{tag}: child exited {proc.returncode}, see {log}")
            return None
        return result

    def run_calls(self, tag: str, seed: int | None, trace: bool = False,
                  setup: dict | None = None, reference: int = 0):
        """Run every CLI call of the workload in one fresh process.

        Checks the outputs of each call and counts its items (paths or
        suites) as attempted and failed.  Returns the child's result, or
        None, and the output directory of each call.
        """
        calls = self.workload.calls
        outs = [self.dir / f"{tag}c{j}" for j in range(len(calls))]
        argvs = [c.argv(str(self.configs[c.config]), seed, str(o))
                 for c, o in zip(calls, outs)]
        res = self.child({"mode": "calls", "argvs": argvs, "trace": trace,
                          "trace_file": str(self.dir / f"{tag}.trace.json"),
                          "setup": setup, "reference": reference}, tag)
        for j, (call, out) in enumerate(zip(calls, outs)):
            entry = res["calls"][j] if res is not None else None
            if entry is not None and entry["rc"] != 0:
                self.fail(f"{tag}c{j}: levyflow {call.command} exited {entry['rc']}"
                          + (f" ({entry['error']})" if entry["error"] else ""))
            if call.command == "simulate":
                n = call.paths
                good = self.check_summary(out, n, f"{tag}c{j}")
            else:
                n = len(SUITES[call.command])
                good = self.check_report(out, call.command, f"{tag}c{j}")
            self.attempted += n
            self.failed += n - good
        return res, outs

    # -- output checks -------------------------------------------------------

    def check_summary(self, out: Path, n_paths: int, tag: str) -> int:
        """Paths with a record and blowup false; a missing summary counts 0."""
        summary = load_json(out / "summary.json")
        if summary is None:
            self.fail(f"{tag}: no readable summary.json")
            return 0
        records = summary.get("paths", [])
        if [r.get("path_index") for r in records] != list(range(n_paths)):
            self.fail(f"{tag}: summary.json does not hold one record per path")
        good = {r.get("path_index") for r in records if r.get("blowup") is False}
        good &= set(range(n_paths))
        if len(good) < n_paths:
            self.fail(f"{tag}: {n_paths - len(good)} paths missing or blown up")
        return len(good)

    def check_report(self, out: Path, command: str, tag: str) -> int:
        """Suites of the report that hold pass: true."""
        report = load_json(out / f"report_{command}.json")
        if report is None:
            self.fail(f"{tag}: no readable report_{command}.json")
            return 0
        body = report.get("suites", report)
        passed = [s for s in SUITES[command]
                  if isinstance(body.get(s), dict) and body[s].get("pass") is True]
        if len(passed) < len(SUITES[command]):
            missing = sorted(set(SUITES[command]) - set(passed))
            self.fail(f"{tag}: suites not passing: {', '.join(missing)}")
        return len(passed)

    def check_matched_grid(self, seed: int, out: Path) -> None:
        """Re-solve path 0 both ways on the same noise; they must agree."""
        summary = load_json(out / "summary.json")
        if not summary or not summary.get("paths"):
            return      # already counted as failed
        call = self.workload.calls[0]
        res = self.child({"mode": "check", "config": str(self.configs[call.config]),
                          "overrides": self.overrides(call, seed),
                          "record": summary["paths"][0]}, "check")
        if res is None:
            return
        self.matched_grid_gap = res["gap"]
        if not res["matches_summary"]:
            self.fail("check: re-solved path 0 differs from summary.json")
        if res["blowup"] or not res["gap"] <= MATCHED_GRID_TOL:
            self.fail(f"check: global_solve and baseline_direct differ by "
                      f"{res['gap']:.3g} > {MATCHED_GRID_TOL:g}")

    # -- trace off: end-to-end metrics ----------------------------------------

    @staticmethod
    def overrides(call: Call, seed: int | None) -> list[str]:
        """The overrides the CLI builds from --seed and --paths."""
        out = [] if seed is None else [f"ensemble.seed={seed}"]
        if call.paths is not None:
            out.append(f"ensemble.paths={call.paths}")
        return out

    def setup_spec(self, seed: int | None) -> tuple[dict, list[str]]:
        """load_config inputs of the workload's calls, and each call's key.

        Calls on the same config and path count share a key and are timed
        once; each call still adds its config's set-up time to the sum.
        """
        configs, keys = {}, []
        for call in self.workload.calls:
            overrides = self.overrides(call, seed)
            key = f"{call.config} paths={call.paths}"
            configs[key] = {"path": str(self.configs[call.config]),
                            "overrides": overrides}
            keys.append(key)
        return {"configs": configs, **SETUP_SAMPLING}, keys

    def measure(self) -> dict:
        """End-to-end metrics, each repeat scaled to the reference speed.

        The host's speed drifts by up to 1.8x over minutes (README.md), far
        more than a run can average out.  Each repeat's child therefore also
        times a reference task that uses no levyflow code before each call
        and after the last.  A call's time is multiplied by REFERENCE_S / r,
        with r the mean of the median reference times just before and just
        after it; set-up time, measured last, by REFERENCE_S / (the last
        median).  The unscaled medians go to the result's detail.
        """
        wl = self.workload
        timed, rss, digests = [], [], []
        first_outs = None
        start = time.perf_counter()
        for r in itertools.count():
            seed = wl.cli_seed(self.seed, r)
            setup, keys = self.setup_spec(seed)
            res, outs = self.run_calls(f"r{r}", seed, setup=setup,
                                       reference=REFERENCE_SAMPLES)
            if res is not None:
                refs = [statistics.median(block) for block in res["ref_s"]]
                call_s = [c["wall_s"] for c in res["calls"]]
                setup_raw = sum(statistics.median(res["setup"][k]) for k in keys)
                timed.append({
                    "wall_s": sum(call_s),
                    "setup_s": setup_raw,
                    "reference_s": statistics.mean(refs),
                    "scaled_wall_s": sum(
                        w * 2 * REFERENCE_S / (a + b)
                        for w, a, b in zip(call_s, refs, refs[1:])),
                    "scaled_setup_s": setup_raw * REFERENCE_S / refs[-1],
                })
                rss.append(res["peak_rss_mb"])
            digests.append([tree_digest(o) for o in outs])
            if r >= wl.subseeds and digests[r] != digests[r - wl.subseeds]:
                self.fail(f"repeat {r} wrote other files than repeat "
                          f"{r - wl.subseeds} with the same seed")
            if r == 0:
                first_outs = outs
            else:
                for o in outs:
                    shutil.rmtree(o, ignore_errors=True)
            repeats = r + 1
            spent = time.perf_counter() - start
            compared = repeats > wl.subseeds
            if compared and spent * (1 + 1 / repeats) > self.seconds:
                break
            if self.elapsed() > RUN_LIMIT_S - 40.0:
                if not compared:
                    self.fail("too few repeats to compare outputs")
                break
        fields = ("wall_s", "setup_s", "reference_s", "scaled_wall_s",
                  "scaled_setup_s")
        timed = timed or [dict.fromkeys(fields, float("nan"))]
        rss = rss or [float("nan")]
        med = {k: statistics.median(t[k] for t in timed) for k in fields}
        setup_s = med["scaled_setup_s"]
        if wl.simulate:
            self.check_matched_grid(wl.cli_seed(self.seed, 0), first_outs[0])
        solved = sum(c.solved for c in wl.calls)
        self.unscaled = {k: med[k] for k in ("wall_s", "setup_s", "reference_s")}
        return {
            "wall_s": (med["scaled_wall_s"], "s"),
            "setup_s": (setup_s, "s"),
            "paths_per_s": (statistics.median(solved / (t["scaled_wall_s"] - setup_s)
                                              for t in timed), "paths/s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
            "_repeats": repeats,
        }

    # -- trace on: per-layer metrics -------------------------------------------

    def measure_traced(self) -> dict:
        seed = self.workload.cli_seed(self.seed, 0)
        plain, plain_outs = self.run_calls("u", seed)
        traced, traced_outs = self.run_calls("t", seed, trace=True)
        plain_wall = sum(c["wall_s"] for c in plain["calls"]) if plain else 0.0
        summaries = [traced["trace"]] if traced else []
        if [tree_digest(o) for o in plain_outs] != [tree_digest(o) for o in traced_outs]:
            self.fail("the traced calls wrote other files than the plain ones")
        bytes_written = sum(tree_bytes(o) for o in traced_outs)
        windows_kept = 0
        for out in traced_outs:
            summary = load_json(out / "summary.json") or {}
            windows_kept += sum(len(r.get("windows", ()))
                                for r in summary.get("paths", ()))

        def total(field, name, zero):
            return sum(s[field].get(name, zero) for s in summaries)

        metrics = {}
        absent = {a for s in summaries for a in s["absent"]}
        for target in LAYER_TARGETS:
            name = layer_name(target)
            if name in absent:
                continue
            metrics[f"{name}.calls"] = (total("calls", name, 0), "count")
            metrics[f"{name}.self_s"] = (total("self_s", name, 0.0), "s")
        root_s = sum(s["root_s"] for s in summaries)
        self_sum = sum(s["self_sum_s"] for s in summaries)
        if abs(self_sum - root_s) > 1e-9 * (1.0 + root_s):
            self.fail(f"self times add up to {self_sum!r}, traced wall is {root_s!r}")
        metrics[f"{ROOT_SPAN}.self_s"] = (total("self_s", ROOT_SPAN, 0.0), "s")
        for key in ("calls", "points"):
            metrics[f"{FFT_KEY}.{key}"] = (
                sum(s["counters"].get(f"{FFT_KEY}.{key}", 0) for s in summaries), "count")
        metrics["cli.bytes_written"] = (bytes_written, "bytes")

        def ratio(num, den):
            return num / den if den else 0.0

        calls = {name: total("calls", name, 0) for name in
                 ("solver.global_solve", "solver.concatenate_windows",
                  "solver.picard_local", "solver.solve_linearized",
                  "solver.linear_step")}
        n_paths = sum(s["n_paths"] for s in summaries)
        metrics["solver.level_attempts_per_path"] = (
            ratio(calls["solver.concatenate_windows"], calls["solver.global_solve"]), "ratio")
        metrics["solver.window_accept_ratio"] = (
            ratio(windows_kept, calls["solver.picard_local"]), "ratio")
        metrics["solver.sweeps_per_window"] = (
            ratio(calls["solver.solve_linearized"], calls["solver.picard_local"]), "ratio")
        metrics["solver.steps_per_path"] = (
            ratio(calls["solver.linear_step"], n_paths), "ratio")
        metrics["trace.wall_s"] = (root_s, "s")
        metrics["trace.overhead_ratio"] = (ratio(root_s, plain_wall), "ratio")
        return metrics

    # -- result ----------------------------------------------------------------

    def result(self) -> dict:
        metrics = self.measure_traced() if self.trace else self.measure()
        repeats = metrics.pop("_repeats", 1)
        return {
            "correct": not self.errors and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "_detail": {"workload": self.name, "seed": self.seed,
                        "seconds": self.seconds, "trace": self.trace,
                        "repeats": repeats,
                        "matched_grid_gap": self.matched_grid_gap,
                        "unscaled": self.unscaled,
                        "errors": self.errors, "machine": machine_facts(),
                        "run_s": self.elapsed()},
        }


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    run = Run(name, seed, seconds, trace)
    result = run.result()
    detail = result.pop("_detail")
    (run.dir / "result.json").write_text(json.dumps(dict(result, detail=detail),
                                                    indent=2) + "\n")
    print(f"# {name} seed={seed} trace={trace} repeats={detail['repeats']} "
          f"run_s={detail['run_s']:.1f} machine={json.dumps(detail['machine'])}")
    if detail["unscaled"]:
        print(f"# unscaled medians: {json.dumps(detail['unscaled'])}")
    for key, m in result["metrics"].items():
        print(f"{name:16s} {key:44s} {m['value']!r} {m['unit']}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{name:16s} {'fail_ratio':44s} {ratio!r} failed/attempted")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "levyflow" / "cli.py").is_file():
        print(f"error: no levyflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, args.trace)
               for n in names}
    if args.workload == "all":
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
