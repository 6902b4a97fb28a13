"""The constructive solver: cutoffs, fixed point, patching, escalation.

The solution is built window by window.  On each window the equation is
linearized along the previous iterate, with the convection term damped by
two C2 cutoffs (state norm beyond a level m, accumulated dissipation norm
beyond a budget), and iterated to its fixed point.  Windows end when the
budget is spent; the construction restarts from the attained state.  If
the assembled path ever reaches the level m, the level is doubled and the
same noise is solved again, which leaves the path bit-identical wherever
it stayed below the old level.
"""

import numpy as np

from levyflow import (Cutoff, DyadicShellParams, SolverConfig, WienerDriverSpec,
                      baseline_direct, build_coefficients, compound_gaussian,
                      contraction_report, dyadic_model, family, global_solve,
                      picard_local, path_seeds, sample_realization)

n = 12
model = dyadic_model(DyadicShellParams(n_modes=n))
measure = compound_gaussian(rate=4.0, mean=0.0, sd=0.35)
wiener = WienerDriverSpec(n)
coeff = build_coefficients(family("diagonal", n, sigma=0.3),
                           family("diagonal", n, sigma=0.3),
                           measure, model.basis, 1.0, wiener)
u0 = np.zeros(n)
u0[:3] = [1.0, 0.6, 0.3]

# --- fixed-point contraction on one window ----------------------------------
cfg = SolverConfig(horizon=0.1, dt=2e-3, window=0.1, budget=0.5, level=8.0)
cutoff = Cutoff(level=cfg.level, budget=cfg.budget)
reports = []
for s in path_seeds(11, 20):
    real = sample_realization(0.0, cfg.window_steps, cfg.dt, measure, wiener,
                              int(s))
    _, rep = picard_local(real, cfg, model, coeff, measure, cutoff, u0,
                          force_n=10)
    reports.append(rep)
cr = contraction_report(reports)
print("iterate   increment a_n      ratio")
for i, a in enumerate(cr.a):
    ratio = "" if i == 0 else f"{cr.ratios_a[i - 1]:.3f}"
    print(f"{i + 1:<9} {a:.3e}       {ratio}")
print()

# --- window patching over a horizon -----------------------------------------
cfg = SolverConfig(horizon=1.0, dt=5e-3, window=0.1, budget=0.4, level=8.0)
real = sample_realization(0.0, cfg.n_steps, cfg.dt, measure, wiener, seed=23)
out = global_solve(real, cfg, model, coeff, measure, u0)
print(f"windows ended at: {[round(t, 3) for t in out.stop_times]}")
print(f"accepted at level {out.level_final} (blow-up flag {out.blowup_flag})")

# the patched fixed point agrees with the direct self-consistent scheme
base = baseline_direct(real, cfg, model, coeff, measure, u0, level=out.level_final)
gap = np.abs(out.trajectory.states - base.states).max()
print(f"max gap to the direct scheme on the same grid: {gap:.2e}")
print()

# --- level escalation --------------------------------------------------------
big = np.zeros(n)
big[0] = 1.5
cfg = SolverConfig(horizon=0.2, dt=5e-3, window=0.05, budget=1.0, level=1.0)
quiet = sample_realization(0.0, cfg.n_steps, cfg.dt, measure, WienerDriverSpec(0),
                           seed=29)
out = global_solve(quiet, cfg, model, coeff, measure, big)
print(f"|u0| = 1.5 against level 1.0: accepted after escalation to "
      f"level {out.level_final}")
