import filecmp
import json
import os
import re
import warnings
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from levyflow import cli, models, nse2d, solver
from levyflow.cli import main
from levyflow.config import (ConfigError, RunConfig, load_config, parse_config,
                             resolve_vector)
from levyflow.spaces import PathSegment, h_norm_rows, v_norm_sq_rows

DYADIC_CFG = """
[model]
name = dyadic
modes = 8
u0 = e1:1.0

[measure]
family = compound_gaussian
rate = 3.0
mean = 0.0
sd = 0.3

[wiener]
dims = 8

[coefficient]
g_family = diagonal
g_sigma = 0.25
psi_family = diagonal
psi_sigma = 0.25

[solver]
horizon = 0.3
dt = 0.005
window = 0.1
budget = 0.5
level = 8.0

[ensemble]
paths = 1
seed = 4242

[verify]
structure_samples = 4000
condition_samples = 300
noise_paths = 300
apriori_paths = 0
"""


def _write(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# config parsing


def test_minimal_config_fills_defaults():
    cfg = parse_config("[model]\nname = dyadic\n")
    assert cfg.model.modes == 16
    assert cfg.solver.stepper == "resolvent"
    assert cfg.ensemble.paths == 1


def _text(value) -> str:
    """A key's INI text: floats at 17 significant digits, tuples comma-joined."""
    if isinstance(value, tuple):
        return ", ".join(map(_text, value))
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def test_roundtrip_identity():
    # every key's text form parses back to the same value, for a parsed
    # config and the full-default one
    for cfg in (parse_config(DYADIC_CFG), RunConfig()):
        text = "".join(
            f"[{sec.name}]\n" + "".join(f"{f.name} = {_text(getattr(section, f.name))}\n"
                                     for f in fields(section))
            for sec in fields(cfg) for section in [getattr(cfg, sec.name)])
        assert parse_config(text) == cfg


def test_unknown_section_and_key():
    with pytest.raises(ConfigError, match=r"unknown section"):
        parse_config("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"unknown key 'frobnicate'.*solver"):
        parse_config("[solver]\nfrobnicate = 1\n")
    # the linearized solve takes no inner-iteration keys, the level always
    # doubles, the numerical guards and converge's gates are constants, and
    # each model's certificate owns its bound constant
    for section, line in (("model", "c_b = 0.5"),
                          ("solver", "inner_mode = direct"), ("solver", "max_inner = 5"),
                          ("solver", "level_growth = 3"), ("solver", "tol_picard = 1e-9"),
                          ("solver", "max_picard = 40"), ("solver", "max_levels = 4"),
                          ("solver", "budget_ceiling = 1e6"),
                          ("converge", "ratio_threshold = 0.9"),
                          ("converge", "order_min = 0")):
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=rf"unknown key '{key}' in section \[{section}\]"):
            parse_config(f"[{section}]\n{line}\n")


def test_readme_config_table_lists_every_key():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        rows = [line for line in fh if line.startswith("| `[")]
    listed = {}
    for row in rows:
        section, keys = row.split("|")[1:3]
        keys = re.sub(r"\([^)]*\)", "", keys)   # drop the value lists
        listed[section.strip().strip("`[]")] = set(re.findall(r"`([^`]+)`", keys))
    schema = {f.name: {g.name for g in fields(f.default)} for f in fields(RunConfig)}
    assert listed == schema


def test_missing_required_key():
    with pytest.raises(ConfigError, match=r"missing required key 'name'"):
        parse_config("[solver]\ndt = 0.01\n")


def test_overrides():
    cfg = parse_config(DYADIC_CFG, overrides=["solver.dt=0.01", "ensemble.paths=3"])
    assert cfg.solver.dt == 0.01
    assert cfg.ensemble.paths == 3
    with pytest.raises(ConfigError, match="override"):
        parse_config(DYADIC_CFG, overrides=["nodots"])


def test_resolve_vector():
    assert np.array_equal(resolve_vector("zero", 3, "u0"), np.zeros(3))
    assert np.array_equal(resolve_vector("e2:1.5", 3, "u0"), np.array([0, 1.5, 0]))
    assert np.array_equal(resolve_vector("1, 2, 3", 3, "u0"), np.array([1.0, 2, 3]))
    with pytest.raises(ConfigError):
        resolve_vector("e9:1.0", 3, "u0")
    with pytest.raises(ConfigError):
        resolve_vector("1, 2", 3, "u0")


def test_growth_violation_rejected_at_load():
    bad = DYADIC_CFG.replace("g_family = diagonal", "g_family = gradient")
    bad = bad.replace("g_sigma = 0.25", "g_theta = 1.5")
    bad = bad.replace("sd = 0.3", "sd = 0.57735026918962584")  # m2 = 1
    with pytest.raises(ConfigError, match=r"\[0, 2\)"):
        load_config(bad)


def test_build_setup_objects():
    cfg, setup = load_config(DYADIC_CFG)
    assert setup.model.basis.dim == 8
    assert setup.u0[0] == 1.0
    assert setup.solver.n_steps == 60
    assert setup.coeff.l1 > 0


# ---------------------------------------------------------------------------
# CLI commands


def test_simulate_deterministic_decay(tmp_path):
    text = """
[model]
name = zero_b
modes = 6
u0 = e1:1.0

[solver]
horizon = 0.5
dt = 0.01
stepper = exponential
window = 0.5
budget = 10.0
level = 8.0

[ensemble]
paths = 1
seed = 1
"""
    cfg_path = _write(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg_path, "--out", out]) == 0
    rows = (tmp_path / "out" / "trajectory_0.csv").read_text().strip().splitlines()
    assert rows[0] == "t,h_norm,v_norm,xi_sq"
    lam1 = 4.0  # visc k_1^2 with defaults
    for line in rows[1:]:
        t, h, v, xi = map(float, line.split(","))
        assert abs(h - np.exp(-lam1 * t)) <= 1e-10
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["schema"] == "levyflow-summary-v3"
    assert summary["config"]["solver"]["stepper"] == "exponential"
    assert summary["paths"][0]["level_final"] == 8.0


def test_simulate_reproducible_bytes(tmp_path):
    cfg_path = _write(tmp_path, DYADIC_CFG)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", cfg_path, "--out", out1]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", out2]) == 0
    for name in ("trajectory_0.csv", "summary.json"):
        assert filecmp.cmp(os.path.join(out1, name), os.path.join(out2, name),
                           shallow=False)


def test_simulate_zero_paths_writes_an_empty_summary(tmp_path, capsys):
    # ensemble.paths = 0 passes the config floor: the run solves nothing,
    # writes no trajectory and exits 0
    out = tmp_path / "none"
    assert main(["simulate", "--config", _write(tmp_path, DYADIC_CFG), "--paths", "0",
                 "--out", str(out)]) == 0
    assert os.listdir(out) == ["summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["paths"] == [] and summary["config"]["ensemble"]["paths"] == 0
    assert capsys.readouterr().err == ""


def test_dyadic_records_do_not_depend_on_the_ensemble_size(tmp_path):
    # each row of a lockstep direct block steps and is planned as it would be
    # alone, so the first two of 36 dyadic paths write what a run of 2 writes
    # (nse2d's batched transforms let rows see each other at roundoff)
    cfg_path = Path(__file__).parent.parent / "demos" / "configs" / "dyadic_gradient.ini"
    outs = []
    for paths in ("2", "36"):
        out = tmp_path / paths
        assert main(["simulate", "--config", str(cfg_path), "--seed", "3", "--paths", paths,
                     "--out", str(out)]) == 0
        outs.append(out)
    for i in range(2):
        assert filecmp.cmp(outs[0] / f"trajectory_{i}.csv", outs[1] / f"trajectory_{i}.csv",
                           shallow=False)
    two, many = (json.loads((out / "summary.json").read_text())["paths"] for out in outs)
    assert len(many) == 36 and two == many[:2]


def _g17_rows(table, lead=None) -> tuple[bytes, np.ndarray]:
    """What ``csvtext.format_rows`` returns, one ``"%.17g" % value`` at a time."""
    if lead is not None:
        table = np.column_stack([lead[0][lead[1]], table])
    lines = [",".join("%.17g" % x for x in row) + "\n" for row in np.asarray(table).tolist()]
    return "".join(lines).encode(), np.cumsum([len(line) for line in lines], dtype=np.intp)


@pytest.mark.parametrize("per_mode", (False, True))
def test_a_capped_trajectory_writes_its_whole_path_columns(tmp_path, per_mode):
    # paths formatted in one call each write the rows of their own grid, as
    # whole-path columns at 17 significant digits would: a path that ends
    # before the horizon (a capped one) too
    model = models.dyadic_model(models.DyadicShellParams(n_modes=3, k0=2.0, visc=1.0))
    rng = np.random.default_rng(2)
    trajs = {1: PathSegment.from_states(model.basis, 0.1, 0.03, rng.normal(size=(4, 3))),
             4: PathSegment.from_states(model.basis, 0.1, 0.03,
                                        rng.normal(size=(9, 3)) * 1e-7)}
    cli._write_trajectory(str(tmp_path), trajs, 0.1 + 0.03 * np.arange(9), model.basis,
                          per_mode)
    header = ",".join(["t", "h_norm", "v_norm", "xi_sq"] + ["c_0", "c_1", "c_2"] * per_mode)
    for i, traj in trajs.items():
        states = traj.states
        cols = [traj.grid, h_norm_rows(states),
                np.sqrt(v_norm_sq_rows(states, model.basis)), traj.xi_sq] + [states] * per_mode
        text = (tmp_path / f"trajectory_{i}.csv").read_bytes()
        assert text == (header + "\n").encode() + _g17_rows(np.column_stack(cols))[0]
        assert text.count(b"\n") == len(states) + 1


@pytest.mark.parametrize("overrides", [
    ["output.per_mode=true"],
    ["model.u0=e6:7e78", "solver.level=3e153", "output.per_mode=true"],
])
def test_simulate_writes_every_value_as_g17(tmp_path, monkeypatch, overrides):
    # per-mode columns hold negative values, zeros, subnormals and huge
    # values; the second run ends every path level_cap.  Each file must be
    # the bytes the same run writes with one "%.17g" per value
    cfg_path = str(Path(__file__).parent.parent / "demos" / "configs" / "dyadic_gradient.ini")
    argv = ["simulate", "--config", cfg_path, "--paths", "3", "--seed", "5"]
    for o in overrides:
        argv += ["--override", o]
    main(argv + ["--out", str(tmp_path / "fast")])
    monkeypatch.setattr(cli, "format_rows", _g17_rows)
    main(argv + ["--out", str(tmp_path / "ref")])
    files = sorted(os.listdir(tmp_path / "ref"))
    assert files == ["summary.json"] + [f"trajectory_{i}.csv" for i in range(3)]
    values = np.concatenate([np.loadtxt(tmp_path / "ref" / f, delimiter=",", skiprows=1)[:, 4:]
                             for f in files[1:]])
    if len(overrides) == 1:
        tiny = (values != 0) & (np.abs(values) < 1e-100)
        assert (values < 0).any() and (values == 0).any() and tiny.any()
    else:
        assert (np.abs(values) >= 1e17).any()
    for f in files:
        assert (tmp_path / "fast" / f).read_bytes() == (tmp_path / "ref" / f).read_bytes()


def test_window_past_the_horizon_solves_as_the_horizon(tmp_path):
    # a window of 50 horizons sizes nothing past the path: the same files as
    # a window of one horizon, bar the config echoed in summary.json
    cfg_path = _write(tmp_path, DYADIC_CFG)
    outs = []
    for window in ("0.3", "15"):
        out = tmp_path / window
        assert main(["simulate", "--config", cfg_path, "--paths", "4", "--out", str(out),
                     "--override", f"solver.window={window}"]) == 0
        outs.append(out)
    for i in range(4):
        assert filecmp.cmp(outs[0] / f"trajectory_{i}.csv", outs[1] / f"trajectory_{i}.csv",
                           shallow=False)
    one, fifty = (json.loads((out / "summary.json").read_text()) for out in outs)
    assert one["paths"] == fifty["paths"]
    assert (one["config"]["solver"]["window"], fifty["config"]["solver"]["window"]) == (
        0.3, 15.0)


def test_converge_window_past_the_horizon_studies_the_horizon(tmp_path):
    # the contraction study samples and iterates one window capped at the
    # horizon, so a window of 5 horizons writes what a window of one writes
    cfg_path = Path(__file__).parent.parent / "demos" / "configs" / "dyadic_gradient.ini"
    reports = []
    for window in ("1.0", "5"):
        out = tmp_path / window
        assert main(["converge", "--config", str(cfg_path), "--out", str(out),
                     "--override", f"solver.window={window}"]) == 0
        reports.append(json.loads((out / "report_converge.json").read_text()))
    one, five = reports
    assert one["contraction"] == five["contraction"]
    assert one["sweeps"] == five["sweeps"]


def test_simulate_blowup_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solver, "_MAX_LEVELS", 4)
    text = """
[model]
name = dyadic
modes = 6
u0 = zero

[coefficient]
forcing = e1:100.0

[solver]
horizon = 1.0
dt = 0.01
window = 0.2
budget = 5.0
level = 1.0

[ensemble]
paths = 1
seed = 3
"""
    cfg_path = _write(tmp_path, text)
    rc = main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "blown up" in err


def test_simulate_per_mode_columns(tmp_path):
    cfg_path = _write(tmp_path, DYADIC_CFG + "\n[output]\nper_mode = true\n")
    out = str(tmp_path / "pm")
    assert main(["simulate", "--config", cfg_path, "--out", out]) == 0
    header = (tmp_path / "pm" / "trajectory_0.csv").read_text().splitlines()[0]
    assert header.endswith(",c_7")


def test_trajectory_norms_rebuild_from_the_per_mode_columns(tmp_path):
    # the norm columns are the spaces kernels on the written states, bit for bit
    cfg_path = Path(__file__).parent.parent / "demos" / "configs" / "dyadic_gradient.ini"
    out = tmp_path / "pm"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out), "--seed", "1",
                 "--paths", "2", "--override", "output.per_mode=true"]) == 0
    basis = load_config(cfg_path.read_text())[1].model.basis
    for i in range(2):
        table = np.loadtxt(out / f"trajectory_{i}.csv", delimiter=",", skiprows=1)
        states = table[:, 4:]
        assert np.array_equal(table[:, 1], h_norm_rows(states))
        assert np.array_equal(table[:, 2], np.sqrt(v_norm_sq_rows(states, basis)))


def test_verify_passes_and_catches_bad_constant(tmp_path, monkeypatch):
    cfg_path = _write(tmp_path, DYADIC_CFG)
    assert main(["verify", "--config", cfg_path, "--out", str(tmp_path / "v")]) == 0
    report = json.loads((tmp_path / "v" / "report_verify.json").read_text())
    assert all(entry["pass"] for entry in report["suites"].values())
    # a bound constant below the sharp value must fail the structure suite
    monkeypatch.setattr(models, "shell_structure_search",
                        partial(models.shell_structure_search, c_b=0.5))
    rc = main(["verify", "--config", cfg_path, "--out", str(tmp_path / "v2")])
    assert rc == 1
    report = json.loads((tmp_path / "v2" / "report_verify.json").read_text())
    assert not report["suites"]["structure"]["pass"]


def test_verify_zero_noise_vacuous(tmp_path):
    text = """
[model]
name = dyadic
modes = 6

[solver]
horizon = 0.2
dt = 0.01

[verify]
structure_samples = 2000
condition_samples = 200
"""
    cfg_path = _write(tmp_path, text)
    assert main(["verify", "--config", cfg_path, "--out", str(tmp_path / "vz")]) == 0


def test_verify_zero_b_has_no_structure_to_certify(tmp_path):
    text = """
[model]
name = zero_b
modes = 6

[solver]
horizon = 0.2
dt = 0.01

[verify]
structure_samples = 2000
condition_samples = 200
"""
    cfg_path = _write(tmp_path, text)
    assert main(["verify", "--config", cfg_path, "--out", str(tmp_path / "v")]) == 0
    report = json.loads((tmp_path / "v" / "report_verify.json").read_text())
    assert report["suites"]["structure"] == {"pass": True,
                                             "note": "no convection term to certify"}


def test_converge_contraction_and_order(tmp_path):
    cfg_path = _write(tmp_path, DYADIC_CFG + """
[converge]
iterations = 7
paths = 8
order_paths = 6
""")
    rc = main(["converge", "--config", cfg_path, "--out", str(tmp_path / "c")])
    assert rc == 0
    report = json.loads((tmp_path / "c" / "report_converge.json").read_text())
    assert report["contraction"]["pass"]
    assert report["strong_order"]["pass"]
    assert report["config"]["ensemble"]["seed"] == 4242


def test_converge_linear_scenario_zero_second_increment(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_ORDER_MIN", -10.0)   # 2 order paths are too few to judge
    text = """
[model]
name = zero_b
modes = 6
u0 = e1:1.0

[solver]
horizon = 0.1
dt = 0.01
window = 0.1
budget = 10.0
level = 100.0

[ensemble]
paths = 2
seed = 9

[converge]
iterations = 4
paths = 2
order_paths = 2
"""
    cfg_path = _write(tmp_path, text)
    rc = main(["converge", "--config", cfg_path, "--out", str(tmp_path / "cl")])
    assert rc == 0
    report = json.loads((tmp_path / "cl" / "report_converge.json").read_text())
    assert report["contraction"]["a"][1] == 0.0


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


def test_converge_report_writes_undefined_ratios_as_null(tmp_path):
    # once the increments reach exactly 0 the contraction ratios are 0/0
    cfg = Path(__file__).parent / "golden" / "configs" / "zero_b.ini"
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
    text = (tmp_path / "c" / "report_converge.json").read_text()
    report = json.loads(text, parse_constant=_reject)
    assert None in report["contraction"]["ratios_a"]


def test_converge_sweeps_every_listed_triple(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_ORDER_MIN", -10.0)
    cfg_path = _write(tmp_path, DYADIC_CFG + """
[converge]
iterations = 4
paths = 4
order_paths = 2
t0_list = 0.05, 0.1
dt_list = 0.005, 0.0025
""")
    assert main(["converge", "--config", cfg_path, "--out", str(tmp_path / "c")]) == 0
    report = json.loads((tmp_path / "c" / "report_converge.json").read_text())
    # the window list is the outer loop; the budget falls back to [solver]
    assert [(s["window"], s["budget"], s["dt"]) for s in report["sweeps"]] == [
        (0.05, 0.5, 0.005), (0.05, 0.5, 0.0025), (0.1, 0.5, 0.005), (0.1, 0.5, 0.0025)]
    assert all(np.isfinite(s["max_ratio"]) for s in report["sweeps"])


@pytest.mark.parametrize("key, expected", [
    ("dt_list", [(0.1, 0.5, 0.005), (0.1, 0.5, 0.0025)]),
    ("delta0_list", [(0.1, 0.005, 0.005), (0.1, 0.0025, 0.005)]),
])
def test_converge_sweeps_a_list_set_alone(tmp_path, monkeypatch, key, expected):
    # the lists left empty fall back to [solver]'s window, budget and dt
    monkeypatch.setattr(cli, "_ORDER_MIN", -10.0)
    cfg_path = _write(tmp_path, DYADIC_CFG + f"""
[converge]
iterations = 4
paths = 4
order_paths = 2
{key} = 0.005, 0.0025
""")
    assert main(["converge", "--config", cfg_path, "--out", str(tmp_path / "c")]) == 0
    report = json.loads((tmp_path / "c" / "report_converge.json").read_text())
    assert [(s["window"], s["budget"], s["dt"]) for s in report["sweeps"]] == expected


def test_missing_config_file_is_usage_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.ini")]) == 2


@pytest.mark.parametrize("case", ["config_is_a_directory", "config_not_utf8",
                                  "out_is_a_file"])
def test_unusable_config_or_output_path_exits_2(tmp_path, capsys, case):
    cfg_path, out = _write(tmp_path, DYADIC_CFG), tmp_path / "out"
    if case == "config_is_a_directory":
        cfg_path = named = str(tmp_path)
    elif case == "config_not_utf8":
        bad = tmp_path / "bad.ini"
        bad.write_bytes(b"\xff\xfe[model]\n")
        cfg_path = named = str(bad)
    else:
        out.write_text("")
        named = str(out)
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and repr(named) in err


def test_config_error_exit_code(tmp_path):
    cfg_path = _write(tmp_path, "[model]\nname = dyadic\nbogus = 1\n")
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 2


# values that overflow a step count, a moment or the blow-up guard; each
# must be rejected where it enters, naming the section of its first key
OVERFLOWING = [
    ["solver.horizon=1e308"],
    ["solver.window=1e308"],
    ["solver.dt=1e-300"],
    ["solver.window=1e17"],   # 1e19 steps of dt: finite, but past the index type
    ["measure.mean=1e200"],
    ["measure.family=truncated_power", "measure.alpha=1e308"],
    ["measure.family=truncated_power", "measure.alpha=1.2", "measure.eps_low=1e-300"],
    ["measure.family=truncated_power", "measure.c=1e308"],
    ["measure.sd=1e200"],
    # finite intensities whose expected jump count passes numpy's Poisson limit
    ["measure.family=truncated_power", "measure.eps_low=1e-300"],
    ["measure.rate=1e300"],
]


@pytest.mark.parametrize("overrides", [
    ["coefficient.g_family=diagonal", "coefficient.g_sigma=0.1,0.2"],
    ["solver.dt=0"],
    ["solver.stepper=rk4"],
    ["wiener.dims=-1"],
    ["model.modes=0"],
    ["ensemble.seed=-1"],
    ["ensemble.paths=-1"],
    ["solver.horizon=1.0021"],
    ["verify.structure_samples=0"],
    ["verify.condition_samples=-1"],
    ["verify.noise_paths=1"],
    ["verify.apriori_paths=-1"],
    ["converge.iterations=0"],
    ["converge.paths=0"],
    ["converge.order_paths=0"],
    ["converge.t0_list=-1"],
    ["converge.delta0_list=0"],
    ["converge.dt_list=-1"],
    *OVERFLOWING,
])
def test_semantic_config_errors_exit_2(tmp_path, capsys, overrides):
    cfg_path = _write(tmp_path, DYADIC_CFG)
    argv = ["simulate", "--config", cfg_path, "--out", str(tmp_path / "x")]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", OVERFLOWING)
def test_overflowing_values_name_their_section(overrides):
    section = overrides[0].split(".")[0]
    with pytest.raises(ConfigError, match=rf"section \[{section}\]"):
        load_config(DYADIC_CFG, overrides)


@pytest.mark.parametrize("overrides, key", [
    (["coefficient.g_family=bogus"], "coefficient.g_family"),
    (["coefficient.psi_family=bogus"], "coefficient.psi_family"),
    # an unknown kind is the fault even when its sigma list is wrong too
    (["coefficient.g_family=bogus", "coefficient.g_sigma=1,2,3"], "coefficient.g_family"),
    (["coefficient.g_family=diagonal", "coefficient.g_sigma=1,2,3"], "coefficient.g_sigma"),
    (["coefficient.psi_family=additive", "coefficient.psi_sigma=1,2,3"],
     "coefficient.psi_sigma"),
])
def test_coefficient_errors_name_their_key(overrides, key):
    with pytest.raises(ConfigError, match=rf"^{key}: "):
        load_config(DYADIC_CFG, overrides)


@pytest.mark.parametrize("overrides, prefix", [
    (["model.modes=0"], "section [model]: "),
    (["model.visc=0"], "section [model]: "),
    (["model.k0=1"], "section [model]: "),
    (["model.name=nse2d", "model.modes=0"], "section [model]: "),
    (["model.name=bogus"], "model.name: "),
    (["solver.horizon=1.0021"], "section [solver]: "),
    (["measure.family=bogus"], "measure.family: "),
    (["model.dealias=false"], "model.dealias: only true is accepted"),
    (["model.name=nse2d", "model.modes=2", "model.dealias=false"],
     "model.dealias: only true is accepted"),
    # more Wiener dims than the 8 modes would be drawn and never used; a
    # huge count would fail to allocate
    (["wiener.dims=9"], "wiener.dims: 9 exceeds the basis dimension 8\n"),
    (["wiener.dims=1000000000000"], "wiener.dims: 1000000000000 exceeds the basis dimension 8\n"),
    # a shell spectrum whose largest eigenvalue overflows is rejected before
    # it is built, for either model on it
    (["model.modes=1000000000000"], "section [model]: eigenvalues must be finite"),
    (["model.name=zero_b", "model.modes=1000000000000"],
     "section [model]: eigenvalues must be finite"),
])
def test_config_errors_name_their_section_or_key(tmp_path, capsys, overrides, prefix):
    cfg_path = _write(tmp_path, DYADIC_CFG)
    argv = ["simulate", "--config", cfg_path, "--out", str(tmp_path / "x")]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {prefix}")


@pytest.mark.parametrize("key", ["t0_list", "delta0_list", "dt_list"])
def test_converge_lists_are_checked_before_any_study(tmp_path, capsys, key):
    cfg_path = _write(tmp_path, DYADIC_CFG)
    out = tmp_path / "c"
    argv = ["converge", "--config", cfg_path, "--out", str(out),
            "--override", f"converge.{key}=0.05,-1"]
    assert main(argv) == 2
    assert f"converge.{key} = -1.0" in capsys.readouterr().err
    assert not (out / "report_converge.json").exists()


def test_too_few_apriori_paths_is_a_config_error(tmp_path, capsys):
    # 0 turns the moment check off; 1 to 29 paths are too few to run it
    cfg_path = _write(tmp_path, DYADIC_CFG)
    argv = ["verify", "--config", cfg_path, "--out", str(tmp_path / "v")]
    assert main(argv + ["--override", "verify.apriori_paths=10"]) == 2
    assert capsys.readouterr().err.startswith("config error: verify.apriori_paths: ")
    assert not (tmp_path / "v" / "report_verify.json").exists()
    for m_paths in (0, 30, 60):
        assert main(argv + ["--override", f"verify.apriori_paths={m_paths}"]) == 0
        report = json.loads((tmp_path / "v" / "report_verify.json").read_text())
        apriori = report["suites"]["apriori"]
        if m_paths:
            assert apriori["pass"] and "note" not in apriori
        else:
            assert apriori == {"pass": True, "note": "apriori_paths < 30, check skipped"}


NSE2D_CFG = """
[model]
name = nse2d
modes = 3
u0 = e1:1.0

[solver]
horizon = 0.05
dt = 0.01

[verify]
structure_samples = 500
condition_samples = 100
"""


def test_verify_nse2d_structure_honours_c_b_override(tmp_path, monkeypatch):
    cfg_path = _write(tmp_path, NSE2D_CFG)
    assert main(["verify", "--config", cfg_path, "--out", str(tmp_path / "v")]) == 0
    # far below the Hoelder constant 1: the bound ratios must exceed 1
    monkeypatch.setattr(nse2d, "nse_structure_search",
                        partial(nse2d.nse_structure_search, c_b=0.001))
    rc = main(["verify", "--config", cfg_path, "--out", str(tmp_path / "v2")])
    assert rc == 1
    report = json.loads((tmp_path / "v2" / "report_verify.json").read_text())
    structure = report["suites"]["structure"]
    assert not structure["pass"]
    assert structure["max_bound_ratio"] > 1.0


def test_out_dir_from_env(tmp_path, monkeypatch):
    cfg_path = _write(tmp_path, DYADIC_CFG)
    target = tmp_path / "envout"
    monkeypatch.setenv("LEVYFLOW_OUT", str(target))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", cfg_path]) == 0
    assert (target / "summary.json").exists()


@pytest.mark.parametrize("override, key", [
    ("solver.level=nan", "solver.level"),
    ("solver.horizon=inf", "solver.horizon"),
    ("solver.dt=nan", "solver.dt"),
    ("measure.sd=nan", "measure.sd"),
    ("coefficient.g_theta=nan", "coefficient.g_theta"),
    ("coefficient.g_sigma=0.1,-inf", "coefficient.g_sigma"),
    ("converge.dt_list=0.01,1e400", "converge.dt_list"),
    ("model.u0=e1:nan", "model.u0"),
    ("model.u0=1,2,3,4,5,6,7,nan", "model.u0"),
])
def test_non_finite_values_exit_2_naming_the_key(tmp_path, capsys, override, key):
    cfg_path = _write(tmp_path, DYADIC_CFG)
    rc = main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "x"),
               "--override", override])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error:" in err and key in err and "finite" in err


# overflow: cutoffs far above the state leave the convection on; the direct
# scheme stays finite up to its level crossing, so the paths end level_cap
OVERFLOW = ["model.u0=e3:1e150", "solver.level=1e300", "solver.budget=1e300"]
# the direct scheme itself overflows in its first step, so the paths end nonfinite
SCHEME_OVERFLOW = ["model.u0=e1:1e154", "solver.level=1e300", "solver.budget=1e300"]


def test_overflowing_paths_print_no_numpy_warnings(tmp_path, capsys):
    cfg_path = _write(tmp_path, DYADIC_CFG)
    argv = ["simulate", "--config", cfg_path, "--out", str(tmp_path / "o"),
            "--paths", "2"]
    for item in SCHEME_OVERFLOW:
        argv += ["--override", item]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    failures = [line.split(":")[0] for line in err.splitlines()
                if "state is no longer finite" in line]
    assert failures == ["path 0", "path 1"]


@pytest.mark.parametrize("u0", ["e3:1e150", "e3:1e160"])
def test_overflow_past_the_level_ends_level_cap_with_no_numpy_warnings(tmp_path, capsys,
                                                                     u0):
    # the kept states stay finite, but their norms in the trajectory overflow
    cfg_path = _write(tmp_path, DYADIC_CFG)
    out = tmp_path / "o"
    argv = ["simulate", "--config", cfg_path, "--out", str(out), "--paths", "2"]
    for item in [f"model.u0={u0}", *OVERFLOW[1:]]:
        argv += ["--override", item]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    summary = json.loads((out / "summary.json").read_text())
    assert [r["status"] for r in summary["paths"]] == ["level_cap", "level_cap"]
    assert [line.split(":")[0] for line in err.splitlines()
            if "level cap exhausted" in line] == ["path 0", "path 1"]
    assert (out / "trajectory_0.csv").exists() and (out / "trajectory_1.csv").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("overrides, status, message", [
    pytest.param(SCHEME_OVERFLOW, "nonfinite", "non-finite state at grid index",
                 id="nonfinite"),
])
def test_simulate_records_every_failing_path(tmp_path, capsys, overrides, status, message):
    cfg_path = _write(tmp_path, DYADIC_CFG)
    argv = ["simulate", "--config", cfg_path, "--out", str(tmp_path / "f"),
            "--paths", "2"]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == 1
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((tmp_path / "f" / "summary.json").read_text())
    assert summary["schema"] == "levyflow-summary-v3"
    assert [r["path_index"] for r in summary["paths"]] == [0, 1]
    for record in summary["paths"]:
        assert record["status"] == status and record["blowup"] is True
        assert message in record["error"]


@pytest.mark.parametrize("command, failing, errors", [
    ("verify", {"energy_ledger", "apriori"}, {"apriori"}),
    ("converge", {"contraction", "strong_order"}, {"contraction", "strong_order"}),
], ids=["verify", "converge"])
def test_checks_fail_the_suites_an_overflow_reaches(tmp_path, capsys, command, failing,
                                                    errors):
    # a suite or sweep point that meets a path error FAILs with its message,
    # and a ledger whose residuals overflowed FAILs too; the others still
    # run, and the report is written
    cfg_path = _write(tmp_path, DYADIC_CFG)
    out = tmp_path / "c"
    argv = [command, "--config", cfg_path, "--out", str(out),
            "--override", "verify.apriori_paths=30",
            "--override", "converge.dt_list=0.005,0.0025"]
    for item in OVERFLOW:
        argv += ["--override", item]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    report = json.loads((out / f"report_{command}.json").read_text())
    suites = {name: entry for name, entry in report.get("suites", report).items()
              if isinstance(entry, dict) and "pass" in entry}
    assert {name for name, entry in suites.items() if not entry["pass"]} == failing
    assert {name for name, entry in suites.items() if "error" in entry} == errors
    for name in errors:
        assert "non-finite state at grid index" in suites[name]["error"]
        assert f"{name}: state is no longer finite" in err
    sweeps = report.get("sweeps", [])
    assert len(sweeps) == (2 if command == "converge" else 0)
    for point in sweeps:
        assert not point["pass"] and "non-finite state" in point["error"]


def test_simulate_runs_the_paths_after_a_failure(tmp_path, monkeypatch):
    from levyflow import cli, models, nse2d, solver

    real_solve = solver.ensemble_solve

    def first_path_blows_up(*args, **kwargs):
        outcomes = real_solve(*args, **kwargs)
        outcomes[0] = solver.BlowupError("dissipation integral passed the ceiling")
        return outcomes

    monkeypatch.setattr(cli.solver, "ensemble_solve", first_path_blows_up)
    cfg_path = _write(tmp_path, DYADIC_CFG)
    out = tmp_path / "p"
    assert main(["simulate", "--config", cfg_path, "--out", str(out),
                 "--paths", "3"]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert [r["status"] for r in summary["paths"]] == ["blowup", "ok", "ok"]
    assert [r["blowup"] for r in summary["paths"]] == [True, False, False]
    assert not (out / "trajectory_0.csv").exists()
    assert (out / "trajectory_1.csv").exists() and (out / "trajectory_2.csv").exists()


def test_simulate_level_cap_status(tmp_path, monkeypatch):
    monkeypatch.setattr(solver, "_MAX_LEVELS", 1)
    text = """
[model]
name = dyadic
modes = 6
u0 = e1:1.0

[solver]
horizon = 0.2
dt = 0.01
level = 0.5

[ensemble]
paths = 1
"""
    cfg_path = _write(tmp_path, text)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "c")]) == 1
    record = json.loads((tmp_path / "c" / "summary.json").read_text())["paths"][0]
    assert record["status"] == "level_cap" and record["blowup"] is True
