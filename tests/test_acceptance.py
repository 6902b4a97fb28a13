"""Acceptance suite: one test per shipped claim, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`.  Everything is seeded and
finishes in under a minute on a 2-core host.
"""

import filecmp
import os
from dataclasses import replace

import numpy as np
import reference_solver

from levyflow import (Cutoff, DyadicShellParams, SolverConfig, WienerDriverSpec,
                      baseline_direct, build_coefficients, compound_gaussian,
                      condition_report, contraction_report, direct_ensemble,
                      dyadic_model, energy_ledger, ensemble_solve, family,
                      global_solve, jump_coefficient, moment_bound_report,
                      no_jumps, path_seeds, picard_ensemble, picard_local,
                      sample_realization, shell_structure_search)
from levyflow.cli import main
from levyflow.config import ConfigError, load_config
from levyflow.noise import NoiseRealization, compensator_drift
from levyflow.nse2d import Nse2dParams, nse_structure_search


def _verdict(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    assert ok, label


def _empty_noise(n_steps, dt, dims=0):
    return NoiseRealization(t0=0.0, dt=dt, wiener=np.zeros((n_steps, dims)),
                            jump_times=np.zeros(0), jump_marks=np.zeros(0),
                            jump_steps=np.zeros(0, dtype=int), seed=0)


def test_c01_skew_symmetry_zero_violations():
    dy = shell_structure_search(DyadicShellParams(n_modes=24), 100_000, seed=101)
    ns = nse_structure_search(Nse2dParams(modes_per_axis=8), 100_000, seed=102)
    ok = dy.skew_violations == 0 and ns.skew_violations == 0
    _verdict(ok, "criterion 1: skew-symmetry pairing residual <= 1e-12 scale "
                 f"on 1e5 triples (dyadic max {dy.max_skew_residual:.2e}, "
                 f"nse max {ns.max_skew_residual:.2e})")


def test_c02_certified_constants_survive_search():
    dy = shell_structure_search(DyadicShellParams(n_modes=24), 100_000, seed=201)
    ns = nse_structure_search(Nse2dParams(modes_per_axis=8), 20_000, seed=202)
    ok = (dy.interp_violations == 0 and dy.bound_violations == 0
          and ns.interp_violations == 0 and ns.bound_violations == 0)
    _verdict(ok, "criterion 2: certified shell constants survive 1e5 samples "
                 f"(interp max {dy.max_interp_ratio:.4f}, bound max "
                 f"{dy.max_bound_ratio:.4f}); nse a0 and Hoelder c_b survive "
                 f"2e4 samples (interp max {ns.max_interp_ratio:.4f}, bound max "
                 f"{ns.max_bound_ratio:.4f})")


def test_c03_coefficient_conditions():
    model = dyadic_model(DyadicShellParams(n_modes=12))
    meas = compound_gaussian(rate=5.0, mean=0.0, sd=0.4)  # m2 = 0.8
    wiener = WienerDriverSpec(12)
    reports_ok = True
    for g, psi in (
        (family("additive", 12, sigma=0.3), family("additive", 12, sigma=0.2)),
        (family("diagonal", 12, sigma=0.3), family("diagonal", 12, sigma=0.3)),
        (family("gradient", 12, theta=np.sqrt(1.0 / meas.m2)), family("none", 12)),
    ):
        coeff = build_coefficients(g, psi, meas, model.basis, 1.0, wiener)
        rep = condition_report(coeff, meas, model.basis, n_samples=2000, seed=303)
        reports_ok = reports_ok and rep.ok

    base = """
[model]
name = dyadic
modes = 12
u0 = e1:1.0

[measure]
family = compound_gaussian
rate = 5.0
sd = 0.4

[coefficient]
g_family = gradient
g_theta = {theta}

[solver]
horizon = 0.3
dt = 0.005
window = 0.1
budget = 0.5
level = 8.0
"""
    # theta^2 m2 / visc = 2.25 must be rejected when the config is loaded
    rejected = False
    try:
        load_config(base.format(theta=np.sqrt(2.25 / meas.m2)))
    except ConfigError:
        rejected = True
    # theta^2 m2 / visc = 1.0 is accepted and simulates stably
    cfg, setup = load_config(base.format(theta=np.sqrt(1.0 / meas.m2)))
    assert abs(setup.coeff.l5 - 1.0) < 1e-12
    real = sample_realization(0.0, setup.solver.n_steps, setup.solver.dt,
                              setup.measure, setup.wiener, seed=304)
    out = global_solve(real, setup.solver, setup.model, setup.coeff,
                       setup.measure, setup.u0)
    stable = (not out.blowup_flag) and np.all(np.isfinite(out.trajectory.states))
    ok = reports_ok and rejected and stable
    _verdict(ok, "criterion 3: declared constants dominate quadrature checks; "
                 "V-weight 2.25 rejected at load, V-weight 1.0 accepted and "
                 "simulates stably")


def test_c04_linear_exactness():
    model = dyadic_model(DyadicShellParams(n_modes=8))
    coeff = build_coefficients(family("none", 8), family("none", 8), no_jumps(),
                               model.basis, 1.0)
    cfg = SolverConfig(horizon=1.0, dt=0.01, stepper="exponential")
    noise = _empty_noise(100, 0.01)
    u0 = np.zeros(8)
    u0[0] = 1.0
    # the first sweep is the linearized solve along the zero path
    path, _ = picard_local(noise, cfg, model, coeff, no_jumps(), Cutoff(), u0, force_n=1)
    lam1 = model.basis.eigenvalues[0]
    worst = max(abs(np.linalg.norm(path.states[k]) - np.exp(-lam1 * k * 0.01))
                for k in range(101))
    _verdict(worst <= 1e-10,
             f"criterion 4: exponential stepper reproduces exp(-lam1 t) "
             f"(worst deviation {worst:.2e})")


def test_c05_energy_ledger_order():
    model = dyadic_model(DyadicShellParams(n_modes=10))
    u0 = np.zeros(10)
    u0[:3] = [1.0, 0.6, 0.3]
    dts = (1e-2, 5e-3, 2.5e-3)

    coeff0 = build_coefficients(family("none", 10), family("none", 10),
                                no_jumps(), model.basis, 1.0)
    drift_sums = []
    for dt in dts:
        cfg = SolverConfig(horizon=0.5, dt=dt)
        noise = _empty_noise(cfg.n_steps, dt)
        path = baseline_direct(noise, cfg, model, coeff0, no_jumps(), u0)
        led = energy_ledger(path, noise, model, coeff0, no_jumps())
        drift_sums.append(led.residual_abs)
    drift_order = float(np.polyfit(np.log2(dts), np.log2(drift_sums), 1)[0])

    meas = compound_gaussian(rate=4.0, mean=0.0, sd=0.35)
    wiener = WienerDriverSpec(10)
    coeff = build_coefficients(family("diagonal", 10, sigma=0.3),
                               family("diagonal", 10, sigma=0.3),
                               meas, model.basis, 1.0, wiener)
    nets = {dt: [] for dt in dts}
    for s in path_seeds(505, 100):
        for dt in dts:
            cfg = SolverConfig(horizon=0.5, dt=dt)
            real = sample_realization(0.0, cfg.n_steps, dt, meas, wiener, int(s))
            path = baseline_direct(real, cfg, model, coeff, meas, u0)
            led = energy_ledger(path, real, model, coeff, meas)
            nets[dt].append(abs(led.residual_net))
    means = [float(np.mean(nets[dt])) for dt in dts]
    noisy_order = float(np.polyfit(np.log2(dts), np.log2(means), 1)[0])

    ok = drift_order >= 0.9 and noisy_order >= 0.4
    _verdict(ok, f"criterion 5: ledger residual order {drift_order:.2f} "
                 f"(drift-only, >= 0.9) and {noisy_order:.2f} "
                 f"(jump+Wiener, >= 0.4) across dt {dts}")


def test_c06_gronwall_moment_bound():
    model = dyadic_model(DyadicShellParams(n_modes=12))
    meas = compound_gaussian(rate=5.0, mean=0.0, sd=0.4)
    theta = np.sqrt(1.0 / meas.m2)   # V-norm growth weight exactly 1
    coeff = build_coefficients(family("gradient", 12, theta=theta),
                               family("none", 12), meas, model.basis, 1.0)
    assert abs(coeff.l5 - 1.0) < 1e-12
    u0 = np.zeros(12)
    u0[:2] = [1.0, 0.5]
    cfg = SolverConfig(horizon=1.0, dt=5e-3, window=0.1, budget=0.5, level=8.0)
    reals = [sample_realization(0.0, cfg.n_steps, cfg.dt, meas, WienerDriverSpec(0),
                                int(s)) for s in path_seeds(606, 200)]
    outs = ensemble_solve(reals, cfg, model, coeff, meas, u0)
    assert not any(out.blowup_flag for out in outs)
    paths = [out.trajectory for out in outs]
    rep = moment_bound_report(paths, coeff, model.basis, float(u0 @ u0),
                              cfg.horizon)
    _verdict(rep.ok, "criterion 6: 200-path moment statistics within the "
                     f"energy bounds (sup {rep.sup_mean_h_sq:.4f} <= "
                     f"{rep.bound_sup:.4f}+3se, dissipation {rep.mean_xi_sq:.4f}"
                     f" <= {rep.bound_xi:.4f}+3se)")


def test_c07_fixed_point_contraction():
    n = 16
    params = DyadicShellParams(n_modes=n, visc=0.25)
    model = dyadic_model(params)
    meas = compound_gaussian(rate=4.0, mean=0.0, sd=0.35)
    wiener = WienerDriverSpec(n)
    coeff = build_coefficients(family("diagonal", n, sigma=0.35),
                               family("diagonal", n, sigma=0.35),
                               meas, model.basis, params.visc, wiener)
    u0 = np.zeros(n)
    u0[:4] = [1.2, 0.8, 0.5, 0.3]
    cfg = SolverConfig(horizon=0.1, dt=2e-3, window=0.1, budget=0.5, level=8.0)
    cutoff = Cutoff(level=8.0, budget=0.5)
    reals = [sample_realization(0.0, cfg.window_steps, cfg.dt, meas, wiener, int(s))
             for s in path_seeds(707, 50)]
    runs = picard_ensemble(reals, cfg, model, coeff, meas, cutoff, u0, force_n=14)
    cr = contraction_report([rep for _, rep in runs])
    # indices: a[n-1] is the increment of iterate n, so n = 2..5 ratios are
    # ratios_a[1..4]
    band_a = cr.ratios_a[1:5]
    band_b = cr.ratios_b[1:5]
    cauchy = cr.a[-1] <= 1e-6 * cr.a[0] and cr.b[-1] <= 1e-6 * cr.b[0]
    ok = bool(np.all(band_a <= 0.8) and np.all(band_b <= 0.8) and cauchy)
    _verdict(ok, "criterion 7: iterate increments contract "
                 f"(max ratios {band_a.max():.3f}/{band_b.max():.3f} <= 0.8, "
                 f"tail/first {cr.a[-1] / cr.a[0]:.1e})")


def test_c08_scheme_equivalence_strong_error():
    n = 10
    model = dyadic_model(DyadicShellParams(n_modes=n))
    meas = compound_gaussian(rate=4.0, mean=0.0, sd=0.35)
    wiener = WienerDriverSpec(n)
    coeff = build_coefficients(family("diagonal", n, sigma=0.3),
                               family("diagonal", n, sigma=0.3),
                               meas, model.basis, 1.0, wiener)
    u0 = np.zeros(n)
    u0[:2] = [1.0, 0.5]
    level = 8.0
    horizon = 0.5
    dts = (4e-3, 2e-3)
    ref_dt = dts[1] / 16.0
    cfgs = {dt: SolverConfig(horizon=horizon, dt=dt, window=0.1, budget=0.5,
                             level=level) for dt in (ref_dt,) + dts}
    fines = [sample_realization(0.0, int(round(horizon / ref_dt)), ref_dt,
                                meas, wiener, int(s)) for s in path_seeds(808, 100)]
    refs = direct_ensemble(fines, cfgs[ref_dt], model, coeff, meas, u0, level=level)
    diffs = {}
    for dt in dts:
        fac = int(round(dt / ref_dt))
        coarse = [fine.coarsen(fac) for fine in fines]
        outs = ensemble_solve(coarse, cfgs[dt], model, coeff, meas, u0)
        assert all(out.level_final == level for out in outs)
        diffs[dt] = [float(np.sqrt(((out.trajectory.states - ref.states[::fac]) ** 2)
                                   .sum(axis=1)).max()) for out, ref in zip(outs, refs)]
        if dt == dts[0]:
            same_grid = list(zip(coarse[:10], outs))
    # the first 10 coarse realizations: the sequential fixed point against the
    # batched one and against the direct scheme
    direct = direct_ensemble([c for c, _ in same_grid], cfgs[dts[0]], model, coeff,
                             meas, u0, level=level)
    same_dt = []
    for (c, out), bl in zip(same_grid, direct):
        seq = reference_solver.global_solve(c, cfgs[dts[0]], model, coeff, meas, u0)
        same_dt += [float(np.abs(seq.trajectory.states - out.trajectory.states).max()),
                    float(np.abs(seq.trajectory.states - bl.states).max())]
    e1 = float(np.mean(diffs[dts[0]]))
    e2 = float(np.mean(diffs[dts[1]]))
    ratio = e1 / e2
    c1 = e1 / np.sqrt(dts[0])
    c2 = e2 / np.sqrt(dts[1])
    # at matched dt the fixed point and the direct scheme coincide up to the
    # iteration tolerance, which is the strict sense of scheme equivalence
    matched = max(same_dt)
    ok = 1.2 <= ratio <= 2.8 and matched <= 1e-6
    _verdict(ok, "criterion 8: strong error vs refined direct scheme scales "
                 f"(ratio {ratio:.2f} in [1.2, 2.8]; c = {c1:.3f}, {c2:.3f}; "
                 f"matched-grid agreement {matched:.1e})")


def test_c09_level_patching_consistency():
    n = 8
    model = dyadic_model(DyadicShellParams(n_modes=n))
    meas = compound_gaussian(rate=4.0, mean=0.0, sd=0.4)
    wiener = WienerDriverSpec(n)
    coeff = build_coefficients(family("diagonal", n, sigma=0.3),
                               family("diagonal", n, sigma=0.3),
                               meas, model.basis, 1.0, wiener)
    u0 = np.zeros(n)
    u0[0] = 1.0
    cfg = SolverConfig(horizon=0.5, dt=5e-3, window=0.1, budget=0.5, level=8.0)
    ok = True
    for s in path_seeds(909, 10):
        real = sample_realization(0.0, cfg.n_steps, cfg.dt, meas, wiener, int(s))
        out1 = global_solve(real, cfg, model, coeff, meas, u0)
        out2 = global_solve(real, replace(cfg, level=2 * out1.level_final),
                            model, coeff, meas, u0)
        ok = ok and np.array_equal(out1.trajectory.states, out2.trajectory.states) \
            and out1.stop_times == out2.stop_times
    _verdict(ok, "criterion 9: accepted paths re-run at doubled level are "
                 "bit-identical over 10 seeds")


def test_c10_compensated_jump_statistics():
    n = 8
    model = dyadic_model(DyadicShellParams(n_modes=n))
    meas = compound_gaussian(rate=5.0, mean=0.2, sd=0.5)
    coeff = build_coefficients(family("diagonal", n, sigma=0.4),
                               family("none", n), meas, model.basis, 1.0)
    v = np.array([1.0, 0.5, -0.25, 0.1, 0.0, 0.7, -0.3, 0.2])
    horizon = 1.0
    m_paths = 10_000
    sums = np.zeros((m_paths, n))
    drift = horizon * compensator_drift(coeff, v, meas)
    unit = jump_coefficient(coeff, v, 1.0)
    for i, s in enumerate(path_seeds(1010, m_paths)):
        real = sample_realization(0.0, 4, horizon / 4, meas,
                                  WienerDriverSpec(0), int(s))
        sums[i] = float(real.jump_marks.sum()) * unit - drift
    se = sums.std(axis=0, ddof=1) / np.sqrt(m_paths)
    mean_ok = bool(np.all(np.abs(sums.mean(axis=0)) <= 3.0 * se + 1e-14))
    sq = np.einsum("ij,ij->i", sums, sums)
    target = horizon * meas.m2 * float(unit @ unit)
    iso_se = sq.std(ddof=1) / np.sqrt(m_paths)
    iso_ok = abs(sq.mean() - target) <= 3.0 * iso_se
    _verdict(mean_ok and iso_ok,
             "criterion 10: compensated jump sums are mean zero within 3se "
             f"and match the second-moment identity ({sq.mean():.4f} vs "
             f"{target:.4f} +- {3 * iso_se:.4f})")


def test_c11_byte_reproducibility(tmp_path):
    cfg_text = """
[model]
name = dyadic
modes = 8
u0 = e1:1.0

[measure]
family = compound_gaussian
rate = 3.0
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
paths = 2
seed = 1111

[verify]
structure_samples = 3000
condition_samples = 300
noise_paths = 300
apriori_paths = 0
"""
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(cfg_text)
    ok = True
    for sub, report in (("simulate", "summary.json"),
                        ("verify", "report_verify.json")):
        d1, d2 = str(tmp_path / f"{sub}_a"), str(tmp_path / f"{sub}_b")
        assert main([sub, "--config", str(cfg_path), "--out", d1]) == 0
        assert main([sub, "--config", str(cfg_path), "--out", d2]) == 0
        for name in sorted(os.listdir(d1)):
            ok = ok and filecmp.cmp(os.path.join(d1, name),
                                    os.path.join(d2, name), shallow=False)
    _verdict(ok, "criterion 11: identical config+seed re-runs produce "
                 "byte-identical CSV/JSON outputs")
