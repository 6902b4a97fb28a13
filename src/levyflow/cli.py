"""Command-line entry points: simulate, verify, converge.

Every subcommand is deterministic given (config, seed): ensembles run
sequentially with per-path seeds split from the base seed, and all numeric
output uses 17 significant digits, so re-running a command with the same
inputs reproduces its files byte for byte.  Exit codes: 0 everything
passed, 1 an invariant failed or a path blew up, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import diagnostics, noise, solver
from .config import ConfigError, RunConfig, Setup, load_config
from .cutoffs import Cutoff
from .spaces import NonFiniteStateError

SUMMARY_SCHEMA = "levyflow-summary-v2"
REPORT_SCHEMA = "levyflow-report-v1"
OUT_ENV_VAR = "LEVYFLOW_OUT"


def _resolve_out_dir(cfg: RunConfig, cli_out: str | None) -> str:
    out = cli_out or cfg.output.dir or os.environ.get(OUT_ENV_VAR) or "levyflow_out"
    os.makedirs(out, exist_ok=True)
    return out


def _load(args) -> tuple[RunConfig, Setup, str]:
    with open(args.config) as fh:
        text = fh.read()
    overrides = list(args.override or [])
    if args.seed is not None:
        overrides.append(f"ensemble.seed={args.seed}")
    if args.paths is not None:
        overrides.append(f"ensemble.paths={args.paths}")
    cfg, setup = load_config(text, overrides)
    return cfg, setup, _resolve_out_dir(cfg, args.out)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")


def _write_csv(path_csv: str, header: list, cols: list) -> None:
    """Write whole-path columns as CSV rows at 17 significant digits."""
    table = np.column_stack(cols)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path_csv, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(row * table.shape[0] % tuple(table.ravel().tolist()))


def _write_trajectory(path_csv: str, traj, basis, per_mode: bool) -> None:
    s = traj.states
    header = ["t", "h_norm", "v_norm", "xi_sq"]
    cols = [traj.grid, np.sqrt(np.vecdot(s, s)),
            np.sqrt(np.vecdot(s * s, basis.eigenvalues)), traj.xi_sq]
    if per_mode:
        header += [f"c_{j}" for j in range(basis.dim)]
        cols.append(s)
    _write_csv(path_csv, header, cols)


# a path that ends with one of these gets a record with this status and the
# message; the other paths still run
_PATH_FAILURES = {
    solver.BlowupError: ("blowup", "blow-up guard tripped"),
    solver.PicardDivergenceError: ("picard_divergence", "Picard iteration diverged"),
    NonFiniteStateError: ("nonfinite", "state is no longer finite"),
}


def cmd_simulate(args) -> int:
    cfg, setup, out = _load(args)
    seeds = noise.path_seeds(cfg.ensemble.seed, cfg.ensemble.paths)
    reals = [noise.sample_realization(0.0, setup.solver.n_steps, setup.solver.dt,
                                      setup.measure, setup.wiener, int(s))
             for s in seeds]
    # an overflow ends the path as `nonfinite`; numpy's warnings add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes = solver.ensemble_solve(reals, setup.solver, setup.model,
                                         setup.coeff, setup.measure, setup.u0)
    records = []
    failed = False
    for i, (s, outcome) in enumerate(zip(seeds, outcomes)):
        if isinstance(outcome, Exception):
            status, what = _PATH_FAILURES[type(outcome)]
            print(f"path {i}: {what}: {outcome}", file=sys.stderr)
            records.append({"path_index": i, "seed": int(s), "status": status,
                            "blowup": True, "error": str(outcome)})
            failed = True
            continue
        _write_trajectory(os.path.join(out, f"trajectory_{i}.csv"),
                          outcome.trajectory, setup.model.basis,
                          cfg.output.per_mode)
        records.append({
            "path_index": i,
            "seed": int(s),
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
    _write_json(os.path.join(out, "summary.json"), {
        "schema": SUMMARY_SCHEMA,
        "config": asdict(cfg),
        "seed": cfg.ensemble.seed,
        "paths": records,
    })
    return 1 if failed else 0


def _verify_structure(cfg: RunConfig, setup: Setup) -> dict:
    # setup.model.c_b carries the [model] c_b override
    rep = setup.model.structure_search(cfg.verify.structure_samples,
                                       cfg.ensemble.seed, setup.model.c_b)
    if rep is None:
        return {"pass": True, "note": "no convection term to certify"}
    out = {
        "pass": rep.ok,
        "n_samples": rep.n_samples,
        "max_skew_residual": rep.max_skew_residual,
        "max_interp_ratio": rep.max_interp_ratio,
        "max_bound_ratio": rep.max_bound_ratio,
        "violations": rep.skew_violations + rep.interp_violations + rep.bound_violations,
    }
    if rep.a0_doubling_stable is not None:
        out["a0_doubling_stable"] = rep.a0_doubling_stable
    return out


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
    n_steps = setup.solver.n_steps
    rate = setup.measure.total_mass
    if rate == 0.0:
        return {"pass": True, "note": "no jump part configured"}
    counts = np.empty(m_paths)
    mark_totals = np.empty(m_paths)
    v = setup.u0 if np.linalg.norm(setup.u0) > 0 else np.ones(setup.model.basis.dim)
    for i, s in enumerate(noise.path_seeds(cfg.ensemble.seed + 1, m_paths)):
        real = noise.sample_realization(0.0, n_steps, setup.solver.dt,
                                        setup.measure, noise.WienerDriverSpec(0), int(s))
        counts[i], mark_totals[i] = real.jump_times.size, real.jump_marks.sum()
    # G is linear in the mark: a path's jump sum is (sum of its marks) G(v, 1)
    unit = noise.jump_coefficient(setup.coeff, v, 1.0)
    drift = horizon * noise.compensator_drift(setup.coeff, v, setup.measure)
    sums = mark_totals[:, None] * unit - drift
    lam = rate * horizon
    mean_ok = abs(counts.mean() - lam) <= 3.0 * np.sqrt(lam / m_paths)
    disp = counts.var(ddof=1) / counts.mean() if counts.mean() > 0 else 1.0
    disp_ok = abs(disp - 1.0) <= 3.0 * np.sqrt(2.0 / (m_paths - 1))
    se = sums.std(axis=0, ddof=1) / np.sqrt(m_paths)
    mean_zero_ok = bool(np.all(np.abs(sums.mean(axis=0)) <= 3.0 * se + 1e-12))
    sq = np.einsum("ij,ij->i", sums, sums)
    zs, ws = setup.measure.quadrature()
    iso_target = horizon * float(np.dot(ws, zs * zs)) * float(np.dot(unit, unit))
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


def _verify_ledger(cfg: RunConfig, setup: Setup) -> dict:
    scfg = setup.solver
    dim = setup.model.basis.dim
    # systematic part: drift-only residuals halve with the step
    quiet = noise.build_coefficients(noise.family("none", dim),
                                     noise.family("none", dim),
                                     noise.no_jumps(), setup.model.basis,
                                     cfg.model.visc, forcing=setup.coeff.forcing)
    u0 = setup.u0 if np.linalg.norm(setup.u0) > 0 else np.ones(dim) / np.sqrt(dim)
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
    order_ok = ratio >= 1.5 or sums[scfg.dt] < 1e-12

    # accounting part: with the configured noise every step reconstructs
    seeds = noise.path_seeds(cfg.ensemble.seed + 2, 1)
    real = noise.sample_realization(0.0, scfg.n_steps, scfg.dt, setup.measure,
                                    setup.wiener, int(seeds[0]))
    path = solver.baseline_direct(real, scfg, setup.model, setup.coeff,
                                  setup.measure, setup.u0, level=scfg.level)
    led = diagnostics.energy_ledger(path, real, setup.model, setup.coeff,
                                    setup.measure)
    h_sq = np.einsum("ij,ij->i", path.states, path.states)
    recon = (-led.dissipation + led.forcing + led.wiener_mart + led.jump_mart
             + led.jump_quad + led.wiener_quad + led.residual)
    gap = float(np.abs(recon - np.diff(h_sq)).max())
    complete_ok = gap <= 1e-10 * max(1.0, float(np.abs(h_sq).max()))

    return {
        "pass": bool(order_ok and complete_ok),
        "drift_residual_dt": sums[scfg.dt],
        "drift_residual_half_dt": sums[scfg.dt / 2],
        "ratio": float(ratio),
        "completeness_gap": gap,
    }, led, path


def _write_ledger_csv(path_csv: str, led: diagnostics.EnergyLedger, traj) -> None:
    names = ["dissipation", "forcing", "wiener_mart", "jump_mart", "jump_quad",
             "wiener_quad", "residual"]
    _write_csv(path_csv, ["t"] + names,
               [traj.grid[:len(led.residual)]] + [getattr(led, c) for c in names])


def _verify_apriori(cfg: RunConfig, setup: Setup) -> dict:
    m_paths = cfg.verify.apriori_paths
    if m_paths < 30:
        return {"pass": True, "note": "apriori_paths < 30, check skipped"}
    scfg = setup.solver
    reals = [noise.sample_realization(0.0, scfg.n_steps, scfg.dt, setup.measure,
                                      setup.wiener, int(s))
             for s in noise.path_seeds(cfg.ensemble.seed + 3, m_paths)]
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
    ledger_suite, led, traj = _verify_ledger(cfg, setup)
    _write_ledger_csv(os.path.join(out, "ledger_0.csv"), led, traj)
    suites = {
        "structure": _verify_structure(cfg, setup),
        "coefficients": _verify_coefficients(cfg, setup),
        "noise_stats": _verify_noise_stats(cfg, setup),
        "energy_ledger": ledger_suite,
        "apriori": _verify_apriori(cfg, setup),
    }
    ok = all(s["pass"] for s in suites.values())
    for name, entry in suites.items():
        print(f"{'PASS' if entry['pass'] else 'FAIL'} {name}")
    _write_json(os.path.join(out, "report_verify.json"), {
        "schema": REPORT_SCHEMA,
        "config": asdict(cfg),
        "seed": cfg.ensemble.seed,
        "suites": suites,
    })
    return 0 if ok else 1


def _contraction_run(setup: Setup, scfg, n_paths: int, iterations: int,
                     seed: int) -> diagnostics.ContractionReport:
    cutoff = Cutoff(level=scfg.level, budget=scfg.budget)
    reals = [noise.sample_realization(0.0, scfg.window_steps, scfg.dt,
                                      setup.measure, setup.wiener, int(s))
             for s in noise.path_seeds(seed, n_paths)]
    runs = solver.picard_ensemble(reals, scfg, setup.model, setup.coeff,
                                  setup.measure, cutoff, setup.u0, force_n=iterations)
    return diagnostics.contraction_report([rep for _, rep in runs])


def cmd_converge(args) -> int:
    cfg, setup, out = _load(args)
    conv = cfg.converge
    scfg = setup.solver
    base = _contraction_run(setup, scfg, conv.paths, conv.iterations,
                            cfg.ensemble.seed)
    # judge ratios only while increments sit meaningfully above the
    # floating-point floor of the converged iteration
    live = base.a[1:] > 1e-12 * base.a[0] if base.a[0] > 0 else np.zeros(0, bool)
    ratios = base.ratios_a[1:][live[1:]] if live.size else np.zeros(0)
    finite = ratios[np.isfinite(ratios)]
    ratios_ok = bool(np.all(finite <= conv.ratio_threshold)) if finite.size else True

    order, e1, e2 = solver.strong_order_study(
        scfg, setup.model, setup.coeff, setup.measure, setup.wiener, setup.u0,
        n_paths=conv.order_paths, base_seed=cfg.ensemble.seed + 7)
    order_ok = bool(order >= conv.order_min) if np.isfinite(order) else True

    sweeps = []
    for t0 in conv.t0_list or ():
        for d0 in conv.delta0_list or (scfg.budget,):
            for dt in conv.dt_list or (scfg.dt,):
                sw_cfg = replace(scfg, window=t0, budget=d0, dt=dt)
                rep = _contraction_run(setup, sw_cfg, max(4, conv.paths // 4),
                                       conv.iterations, cfg.ensemble.seed + 11)
                fin = rep.ratios_a[1:][np.isfinite(rep.ratios_a[1:])]
                sweeps.append({
                    "window": t0, "budget": d0, "dt": dt,
                    "max_ratio": float(fin.max()) if fin.size else 0.0,
                })

    payload = {
        "schema": REPORT_SCHEMA,
        "config": asdict(cfg),
        "seed": cfg.ensemble.seed,
        "contraction": {
            "a": list(base.a),
            "b": list(base.b),
            "ratios_a": [float(r) for r in base.ratios_a],
            "ratios_b": [float(r) for r in base.ratios_b],
            "pass": ratios_ok,
        },
        "strong_order": {"order": order, "err_dt": e1, "err_half_dt": e2,
                         "pass": order_ok},
        "sweeps": sweeps,
    }
    print(f"{'PASS' if ratios_ok else 'FAIL'} contraction")
    print(f"{'PASS' if order_ok else 'FAIL'} strong_order ({order:.3f})")
    _write_json(os.path.join(out, "report_converge.json"), payload)
    return 0 if ratios_ok and order_ok else 1


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
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
