"""Golden outputs: a fixed set of CLI calls against their recorded files.

Every call's exit code, standard output, standard error and written files
must match the record under ``tests/golden`` byte for byte.  A change that
moves an output on purpose re-records with

    PYTHONPATH=src python tests/test_golden.py --record

which prints the largest relative deviation of each file from the old
record and refuses to write anything if an exit code, a printed line, a
path status, a stop time, a final level, an iteration count or a PASS/FAIL
verdict moved.  A deviation is taken per array: the largest change of an
entry over the largest magnitude in its JSON list, its CSV column, or, for
the per-mode columns, its state.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from levyflow.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
DEMOS = HERE.parent / "demos" / "configs"
CONFIGS = {
    "dyadic_demo": DEMOS / "dyadic_gradient.ini",
    "nse2d_demo": DEMOS / "nse2d_small.ini",
    "dyadic_bench": GOLDEN / "configs" / "dyadic_bench.ini",
    "nse2d_bench": GOLDEN / "configs" / "nse2d_bench.ini",
    "zero_b": GOLDEN / "configs" / "zero_b.ini",
}
# the per-mode trajectory of nse2d_bench alone would take 0.67 MB
PER_MODE = {name: name != "nse2d_bench" for name in CONFIGS}
CALLS = ([("simulate", name) for name in CONFIGS]
         + [("verify", name) for name in CONFIGS]
         + [("converge", name) for name in ("dyadic_demo", "dyadic_bench")])


def _argv(command: str, name: str, out: Path) -> list[str]:
    argv = [command, "--config", str(CONFIGS[name]), "--out", str(out)]
    if command == "simulate":
        argv += ["--seed", "1", "--paths", "2"]
    if PER_MODE[name]:
        argv += ["--override", "output.per_mode=true"]
    return argv


def run_call(command: str, name: str, out: Path) -> dict:
    """Run one call into ``out``; return its exit code and printed text."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        rc = main(_argv(command, name, out))
    return {"rc": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def _files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


# ---------------------------------------------------------------------------
# what must not move, and how far the numbers did


def invariants(name: str, text: str):
    """The parts of a written file that a re-record must leave equal."""
    if not name.endswith(".json"):
        return None
    doc = json.loads(text)
    if "paths" in doc:
        return [(r["status"], r.get("stop_times"), r.get("level_final"),
                 [(w["iterations_used"], w["converged"]) for w in r.get("windows", ())])
                for r in doc["paths"]]
    body = doc.get("suites", doc)
    return {k: v.get("pass") for k, v in body.items() if isinstance(v, dict)}


def _arrays(name: str, text: str):
    """Every numeric array of a file, keyed by its place."""
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        modes = [i for i, col in enumerate(rows[0]) if col.startswith("c_")]
        # a state's coefficients are one array, the other columns one each
        out = {f"state {k}": [float(r[i]) for i in modes]
               for k, r in enumerate(rows[1:]) if modes}
        out.update((col, [float(r[i]) for r in rows[1:]])
                   for i, col in enumerate(rows[0]) if i not in modes)
        return out
    out = {}

    def walk(node, key):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{key}/{k}")
        elif isinstance(node, list) and node and all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in node):
            out[key] = [float(x) for x in node]
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, f"{key}/{i}")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            out[key] = [float(node)]

    walk(json.loads(text), "")
    return out


def deviation(name: str, old: str, new: str) -> float:
    """Largest relative change of any numeric array of the file."""
    a, b = _arrays(name, old), _arrays(name, new)
    if a.keys() != b.keys() or any(len(a[k]) != len(b[k]) for k in a):
        return float("inf")
    worst = 0.0
    for k in a:
        scale = max(abs(x) for x in a[k])
        gap = max(abs(x - y) for x, y in zip(a[k], b[k]))
        if gap:
            worst = max(worst, gap / scale if scale else float("inf"))
    return worst


def _record_dir(command: str, name: str) -> Path:
    return GOLDEN / name / command


# ---------------------------------------------------------------------------
# the test


@pytest.mark.parametrize("command, name", CALLS, ids=[f"{c}-{n}" for c, n in CALLS])
def test_golden_call(tmp_path, command, name):
    rec = _record_dir(command, name)
    want = json.loads((rec / "call.json").read_text())
    got = run_call(command, name, tmp_path)
    assert got == want
    files = _files(tmp_path)
    golden = {k: v for k, v in _files(rec).items() if k != "call.json"}
    assert sorted(files) == sorted(golden)
    for fname, data in files.items():
        old, new = golden[fname].decode(), data.decode()
        assert invariants(fname, new) == invariants(fname, old), fname
        assert data == golden[fname], (
            f"{fname} moved by {deviation(fname, old, new):.3g} relative")


def record() -> int:
    """Re-run every call; write the records if only numbers moved."""
    runs, problems = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for command, name in CALLS:
            out = Path(tmp) / name / command
            out.mkdir(parents=True)
            got = run_call(command, name, out)
            rec = _record_dir(command, name)
            runs[command, name] = (out, got)
            if not (rec / "call.json").exists():
                print(f"{command} {name}: new record")
                continue
            if got != json.loads((rec / "call.json").read_text()):
                problems.append(f"{command} {name}: exit code or printed text moved")
            old = {k: v for k, v in _files(rec).items() if k != "call.json"}
            new = _files(out)
            if sorted(old) != sorted(new):
                problems.append(f"{command} {name}: other files written")
                continue
            for fname in new:
                o, n = old[fname].decode(), new[fname].decode()
                if invariants(fname, n) != invariants(fname, o):
                    problems.append(f"{command} {name} {fname}: an outcome moved")
                print(f"{command:8s} {name:12s} {fname:22s} "
                      f"max relative deviation {deviation(fname, o, n):.3g}")
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        for (command, name), (out, got) in runs.items():
            rec = _record_dir(command, name)
            shutil.rmtree(rec, ignore_errors=True)
            shutil.copytree(out, rec)
            (rec / "call.json").write_text(json.dumps(got, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    sys.exit(record())
