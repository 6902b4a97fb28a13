"""Command-line entry points: simulate, verify, converge.

Every subcommand is deterministic given (config, seed): ensembles run
sequentially with per-path seeds split from the base seed, and every number
written reads back exactly (17 significant digits in CSV, the shortest
round-trip repr in JSON), so re-running a command with the same inputs
reproduces its files byte for byte.  Exit codes: 0 everything
passed, 1 an invariant failed or a path blew up, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import asdict, fields, replace
from functools import partial

import numpy as np

from . import diagnostics, noise, solver
from .config import ConfigError, RunConfig, Setup, load_config
from .csvtext import format_rows
from .cutoffs import Cutoff
from .spaces import NonFiniteStateError, h_norm_rows, v_norm_sq_rows

SUMMARY_SCHEMA = "levyflow-summary-v2"
REPORT_SCHEMA = "levyflow-report-v1"
OUT_ENV_VAR = "LEVYFLOW_OUT"
_RATIO_MAX = 0.8   # converge's gates: the largest contraction ratio above roundoff
_ORDER_MIN = 0.4   # and the smallest strong order that pass


class UsageError(Exception):
    """A config that cannot be read, or an output directory that cannot be made."""


def _resolve_out_dir(cfg: RunConfig, cli_out: str | None) -> str:
    out = cli_out or cfg.output.dir or os.environ.get(OUT_ENV_VAR) or "levyflow_out"
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {out!r}: {exc.strerror}") from None
    return out


def _load(args) -> tuple[RunConfig, Setup, str]:
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        why = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        raise UsageError(f"cannot read config {args.config!r}: {why}") from None
    overrides = list(args.override or [])
    if args.seed is not None:
        overrides.append(f"ensemble.seed={args.seed}")
    if args.paths is not None:
        overrides.append(f"ensemble.paths={args.paths}")
    cfg, setup = load_config(text, overrides)
    return cfg, setup, _resolve_out_dir(cfg, args.out)


def _write_json(path: str, schema: str, cfg: RunConfig, **body) -> None:
    """Write a report: its schema, the run's config and seed, then ``body``."""
    payload = {"schema": schema, "config": asdict(cfg), "seed": cfg.ensemble.seed, **body}
    # json.dumps without indent runs the C encoder; json.dump never does
    with open(path, "w") as fh:
        fh.write(json.dumps(payload) + "\n")


def _write_csv(path_csv: str, header: list, cols: list) -> None:
    """Write whole-path columns as CSV rows at 17 significant digits."""
    text, _ = format_rows(np.column_stack(cols))
    with open(path_csv, "wb") as fh:
        fh.write((",".join(header) + "\n").encode() + text)


def _write_trajectory(out: str, trajs: dict, grid: np.ndarray, basis,
                      per_mode: bool) -> None:
    """Write ``trajectory_<i>.csv`` for each path i of ``trajs``: t on the
    run's time ``grid``, the norm columns and, with ``per_mode``, the
    coefficients.

    The rows of every path are stacked and formatted by one
    :func:`format_rows` call, which formats the grid's t values once for
    all paths; each file is the header and its path's rows.  (Writing each
    chunk out as it comes would not hold the run's text, about 21 bytes a
    value, but interleaving the file system calls with the formatting made
    it about 3 ms slower on 36 dyadic paths.)
    """
    header = ["t", "h_norm", "v_norm", "xi_sq"]
    if per_mode:
        header += [f"c_{j}" for j in range(basis.dim)]
    sizes = [len(traj.states) for traj in trajs.values()]
    starts = np.cumsum([0] + sizes)
    table = np.empty((starts[-1], len(header) - 1))
    # the norms of a finite state past the level may overflow to inf
    with np.errstate(over="ignore", invalid="ignore"):
        for traj, start in zip(trajs.values(), starts.tolist()):
            s = traj.states
            rows = table[start:start + len(s)]
            # one norm call per path: a BLAS product can round a row by the
            # number of rows in its call
            rows[:, 0] = h_norm_rows(s)
            rows[:, 1] = np.sqrt(v_norm_sq_rows(s, basis))
            rows[:, 2] = traj.xi_sq
            if per_mode:
                rows[:, 3:] = s
    steps = np.arange(starts[-1]) - np.repeat(starts[:-1], sizes)
    text, ends = format_rows(table, lead=(grid, steps))
    bounds = np.concatenate(([0], ends))[starts].tolist()
    head = (",".join(header) + "\n").encode()
    for i, a, b in zip(trajs, bounds, bounds[1:]):
        # one write call: each further one costs a system call
        with open(os.path.join(out, f"trajectory_{i}.csv"), "wb") as fh:
            fh.write(head + text[a:b])


# a path that ends with one of these gets a record with this status and the
# message; the other paths still run
_PATH_FAILURES = {
    solver.BlowupError: ("blowup", "blow-up guard tripped"),
    solver.PicardDivergenceError: ("picard_divergence", "Picard iteration diverged"),
    NonFiniteStateError: ("nonfinite", "state is no longer finite"),
}


def cmd_simulate(args) -> int:
    cfg, setup, out = _load(args)
    reals = noise.sample_ensemble(setup.solver.n_steps, setup.solver.dt, setup.measure,
                                  setup.wiener, cfg.ensemble.seed, cfg.ensemble.paths)
    # an overflow ends the path as `nonfinite`; numpy's warnings add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes = solver.ensemble_solve(reals, setup.solver, setup.model,
                                         setup.coeff, setup.measure, setup.u0)
    # the samplers start at t = 0, and a run of 0 paths has no realization to read
    grid = setup.solver.dt * np.arange(setup.solver.n_steps + 1)
    records, trajs = [], {}
    failed = False
    for i, (real, outcome) in enumerate(zip(reals, outcomes)):
        if isinstance(outcome, Exception):
            status, what = _PATH_FAILURES[type(outcome)]
            print(f"path {i}: {what}: {outcome}", file=sys.stderr)
            records.append({"path_index": i, "seed": real.seed, "status": status,
                            "blowup": True, "error": str(outcome)})
            failed = True
            continue
        trajs[i] = outcome.trajectory
        records.append({
            "path_index": i,
            "seed": real.seed,
            "status": "level_cap" if outcome.blowup_flag else "ok",
            "level_final": outcome.level_final,
            "blowup": outcome.blowup_flag,
            "stop_times": list(outcome.stop_times),
            "windows": [vars(r) for r in outcome.window_reports],
        })
        if outcome.blowup_flag:
            print(f"path {i}: level cap exhausted before the horizon; "
                  "treating the path as blown up", file=sys.stderr)
            failed = True
    _write_trajectory(out, trajs, grid, setup.model.basis, cfg.output.per_mode)
    _write_json(os.path.join(out, "summary.json"), SUMMARY_SCHEMA, cfg, paths=records)
    return 1 if failed else 0


def _suite(name: str, run, *args) -> dict:
    """``run(*args)``'s entry with each NaN or infinity as None (JSON null), or a
    FAIL naming the path error it met (as an overflow does, so numpy's
    warnings add nothing)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return json.loads(json.dumps(run(*args)), parse_constant=lambda _: None)
    except tuple(_PATH_FAILURES) as exc:
        error = f"{_PATH_FAILURES[type(exc)][1]}: {exc}"
        print(f"{name}: {error}", file=sys.stderr)
        return {"pass": False, "error": error}


def _verify_structure(cfg: RunConfig, setup: Setup) -> dict:
    rep = setup.model.structure_search(cfg.verify.structure_samples, cfg.ensemble.seed)
    if rep is None:
        return {"pass": True, "note": "no convection term to certify"}
    return {
        "pass": rep.ok,
        "n_samples": rep.n_samples,
        "max_skew_residual": rep.max_skew_residual,
        "max_interp_ratio": rep.max_interp_ratio,
        "max_bound_ratio": rep.max_bound_ratio,
        "violations": rep.skew_violations + rep.interp_violations + rep.bound_violations,
    }


def _verify_coefficients(cfg: RunConfig, setup: Setup) -> dict:
    rep = noise.condition_report(setup.coeff, setup.measure, setup.model.basis,
                                 n_samples=cfg.verify.condition_samples,
                                 seed=cfg.ensemble.seed)
    return {
        "pass": rep.ok,
        "constants": list(setup.coeff.constants),
        "max_ratio_lipschitz": rep.max_ratio_lipschitz,
        "max_ratio_growth": rep.max_ratio_growth,
    }


def _verify_noise_stats(cfg: RunConfig, setup: Setup) -> dict:
    m_paths = cfg.verify.noise_paths
    horizon = setup.solver.horizon
    rate = setup.measure.total_mass
    if rate == 0.0:
        return {"pass": True, "note": "no jump part configured"}
    marks = noise.sample_jump_marks(setup.solver.n_steps * setup.solver.dt, setup.measure,
                                    cfg.ensemble.seed + 1, m_paths)
    counts = np.array([m.size for m in marks], dtype=float)
    # G is linear in the mark, so at any state v a path's compensated jump sum
    # is G(v, 1) times its compensated mark total sum z - T m1: the totals alone
    # carry the law under test, whatever G and u0 are
    sums = np.array([m.sum() for m in marks]) - horizon * setup.measure.m1
    lam = rate * horizon
    mean_ok = abs(counts.mean() - lam) <= 3.0 * np.sqrt(lam / m_paths)
    disp = counts.var(ddof=1) / counts.mean() if counts.mean() > 0 else 1.0
    disp_ok = abs(disp - 1.0) <= 3.0 * np.sqrt(2.0 / (m_paths - 1))
    se = sums.std(ddof=1) / np.sqrt(m_paths)
    mean_zero_ok = bool(abs(sums.mean()) <= 3.0 * se + 1e-12)
    sq = sums * sums
    zs, ws = setup.measure.quadrature()
    iso_target = horizon * float(np.dot(ws, zs * zs))
    iso_se = sq.std(ddof=1) / np.sqrt(m_paths)
    iso_ok = abs(sq.mean() - iso_target) <= 3.0 * iso_se
    return {
        "pass": bool(mean_ok and disp_ok and mean_zero_ok and iso_ok),
        "mean_count": float(counts.mean()),
        "expected_count": float(lam),
        "dispersion": float(disp),
        "compensated_mean_zero": mean_zero_ok,
        "isometry_sample": float(sq.mean()),
        "isometry_target": float(iso_target),
    }


def _verify_ledger(cfg: RunConfig, setup: Setup, out: str) -> dict:
    scfg = setup.solver
    dim = setup.model.basis.dim
    # systematic part: drift-only residuals halve with the step
    quiet = noise.build_coefficients(noise.family("none", dim),
                                     noise.family("none", dim),
                                     noise.no_jumps(), setup.model.basis,
                                     cfg.model.visc, forcing=setup.coeff.forcing)
    u0 = setup.u0 if setup.u0.any() else np.ones(dim) / np.sqrt(dim)
    sums = {}
    for dt in (scfg.dt, scfg.dt / 2):
        run_cfg = replace(scfg, dt=dt)
        real = noise.sample_realization(0.0, run_cfg.n_steps, dt, noise.no_jumps(),
                                        noise.WienerDriverSpec(0), 0)
        path = solver.baseline_direct(real, run_cfg, setup.model, quiet,
                                      noise.no_jumps(), u0, level=scfg.level)
        led = diagnostics.energy_ledger(path, real, setup.model, quiet,
                                        noise.no_jumps())
        sums[dt] = led.residual_abs
    ratio = sums[scfg.dt] / sums[scfg.dt / 2] if sums[scfg.dt / 2] > 0 else np.inf
    # a residual that overflowed shows no order
    order_ok = np.isfinite([*sums.values()]).all() and (ratio >= 1.5 or sums[scfg.dt] < 1e-12)

    # the configured noise's ledger, written as ledger_0.csv
    real = noise.sample_ensemble(scfg.n_steps, scfg.dt, setup.measure, setup.wiener,
                                 cfg.ensemble.seed + 2, 1)[0]
    path = solver.baseline_direct(real, scfg, setup.model, setup.coeff,
                                  setup.measure, setup.u0, level=scfg.level)
    led = diagnostics.energy_ledger(path, real, setup.model, setup.coeff,
                                    setup.measure)
    _write_ledger_csv(os.path.join(out, "ledger_0.csv"), led, path)
    return {
        "pass": bool(order_ok),
        "drift_residual_dt": sums[scfg.dt],
        "drift_residual_half_dt": sums[scfg.dt / 2],
        "ratio": float(ratio),
    }


def _write_ledger_csv(path_csv: str, led: diagnostics.EnergyLedger, traj) -> None:
    names = [f.name for f in fields(led)]
    _write_csv(path_csv, ["t"] + names,
               [traj.grid[:len(led.residual)]] + [getattr(led, c) for c in names])


def _verify_apriori(cfg: RunConfig, setup: Setup) -> dict:
    m_paths = cfg.verify.apriori_paths
    if m_paths < diagnostics.APRIORI_MIN_PATHS:
        return {"pass": True,
                "note": f"apriori_paths < {diagnostics.APRIORI_MIN_PATHS}, check skipped"}
    scfg = setup.solver
    reals = noise.sample_ensemble(scfg.n_steps, scfg.dt, setup.measure, setup.wiener,
                                  cfg.ensemble.seed + 3, m_paths)
    paths = solver.direct_ensemble(reals, scfg, setup.model, setup.coeff,
                                   setup.measure, setup.u0)
    rep = diagnostics.moment_bound_report(paths, setup.coeff, setup.model.basis,
                                          float(np.dot(setup.u0, setup.u0)),
                                          scfg.horizon)
    return {
        "pass": rep.ok,
        "sup_mean_h_sq": rep.sup_mean_h_sq,
        "bound_sup": rep.bound_sup,
        "mean_xi_sq": rep.mean_xi_sq,
        "bound_xi": rep.bound_xi,
    }


def cmd_verify(args) -> int:
    cfg, setup, out = _load(args)
    suites = {name: _suite(name, run, cfg, setup) for name, run in (
        ("structure", _verify_structure),
        ("coefficients", _verify_coefficients),
        ("noise_stats", _verify_noise_stats),
        ("energy_ledger", partial(_verify_ledger, out=out)),
        ("apriori", _verify_apriori))}
    ok = all(s["pass"] for s in suites.values())
    for name, entry in suites.items():
        print(f"{'PASS' if entry['pass'] else 'FAIL'} {name}")
    _write_json(os.path.join(out, "report_verify.json"), REPORT_SCHEMA, cfg, suites=suites)
    return 0 if ok else 1


def _contraction_run(setup: Setup, scfg, n_paths: int, iterations: int,
                     seed: int) -> diagnostics.ContractionReport:
    cutoff = Cutoff(level=scfg.level, budget=scfg.budget)
    reals = noise.sample_ensemble(scfg.window_steps, scfg.dt, setup.measure,
                                  setup.wiener, seed, n_paths)
    runs = solver.picard_ensemble(reals, scfg, setup.model, setup.coeff,
                                  setup.measure, cutoff, setup.u0, force_n=iterations)
    return diagnostics.contraction_report([rep for _, rep in runs])


def _converge_contraction(cfg: RunConfig, setup: Setup) -> dict:
    base = _contraction_run(setup, setup.solver, cfg.converge.paths,
                            cfg.converge.iterations, cfg.ensemble.seed)
    # judge ratios only while increments sit meaningfully above the
    # floating-point floor of the converged iteration
    live = base.a[1:] > 1e-12 * base.a[0] if base.a[0] > 0 else np.zeros(0, bool)
    ratios = base.ratios_a[1:][live[1:]] if live.size else np.zeros(0)
    return {"a": list(base.a), "b": list(base.b),
            "ratios_a": list(base.ratios_a), "ratios_b": list(base.ratios_b),
            "pass": bool(np.all(ratios[np.isfinite(ratios)] <= _RATIO_MAX))}


def _converge_order(cfg: RunConfig, setup: Setup) -> dict:
    order, e1, e2 = solver.strong_order_study(
        setup.solver, setup.model, setup.coeff, setup.measure, setup.wiener, setup.u0,
        n_paths=cfg.converge.order_paths, base_seed=cfg.ensemble.seed + 7)
    order_ok = bool(order >= _ORDER_MIN) if np.isfinite(order) else True
    return {"order": order, "err_dt": e1, "err_half_dt": e2, "pass": order_ok}


def _sweep_point(cfg: RunConfig, setup: Setup, sw_cfg) -> dict:
    rep = _contraction_run(setup, sw_cfg, max(4, cfg.converge.paths // 4),
                           cfg.converge.iterations, cfg.ensemble.seed + 11)
    fin = rep.ratios_a[1:][np.isfinite(rep.ratios_a[1:])]
    return {"max_ratio": float(fin.max()) if fin.size else 0.0}


def cmd_converge(args) -> int:
    cfg, setup, out = _load(args)
    conv, scfg = cfg.converge, setup.solver
    contraction = _suite("contraction", _converge_contraction, cfg, setup)
    order = _suite("strong_order", _converge_order, cfg, setup)

    # sweep each (window, budget, dt) of the lists; an empty list gives [solver]'s value
    sweeps, lists = [], (conv.t0_list, conv.delta0_list, conv.dt_list)
    grid = [v or (d,) for v, d in zip(lists, (scfg.window, scfg.budget, scfg.dt))]
    for t0, d0, dt in itertools.product(*grid) if any(lists) else ():
        sw_cfg = replace(scfg, window=t0, budget=d0, dt=dt)
        sweeps.append({"window": t0, "budget": d0, "dt": dt,
                       **_suite("sweep", _sweep_point, cfg, setup, sw_cfg)})

    print(f"{'PASS' if contraction['pass'] else 'FAIL'} contraction")
    value = f" ({order['order']:.3f})" if order.get("order") is not None else ""
    print(f"{'PASS' if order['pass'] else 'FAIL'} strong_order{value}")
    _write_json(os.path.join(out, "report_converge.json"), REPORT_SCHEMA, cfg,
                contraction=contraction, strong_order=order, sweeps=sweeps)
    ok = contraction["pass"] and order["pass"] and all("error" not in s for s in sweeps)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levyflow",
        description="simulate and verify spectral hydrodynamic models driven "
                    "by multiplicative Levy noise")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("verify", cmd_verify),
                     ("converge", cmd_converge)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to the run config")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--paths", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--override", action="append", default=[],
                        metavar="SECTION.KEY=VALUE")
        sp.set_defaults(func=fn)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
