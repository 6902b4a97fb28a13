"""The README's library quick start runs as written."""

import contextlib
import io
import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    section = README.read_text().split("## Library quick start\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, f"{README}: Library quick start", "exec"), {})
    level_and_stops, residual = printed.getvalue().splitlines()
    # the path stays below the initial level, so the level is never grown
    assert level_and_stops.startswith("8.0 [")
    assert math.isfinite(float(residual))
