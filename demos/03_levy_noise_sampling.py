"""Sampling the driving noise and certifying the coefficient families.

A realization freezes every Wiener increment and every jump (time, mark)
so that solver iterations and scheme comparisons can replay the same
randomness.  Coefficient families carry closed-form Lipschitz/growth
constants; the growth weights on the V norm must stay below 2, which is
exactly where the energy balance stops absorbing the noise.
"""

import io

import numpy as np

from levyflow import (DyadicShellParams, GrowthConditionError, WienerDriverSpec,
                      build_coefficients, compensator_drift, compound_gaussian,
                      condition_report, dyadic_model, family, jump_coefficient,
                      path_seeds, read_noise_csv, sample_realization,
                      write_noise_csv)

model = dyadic_model(DyadicShellParams(n_modes=8))
measure = compound_gaussian(rate=5.0, mean=0.2, sd=0.5)
wiener = WienerDriverSpec(dims=8)
print(f"measure: mass {measure.total_mass}, first moment {measure.m1}, "
      f"second moment {measure.m2}")

real = sample_realization(0.0, 50, 0.02, measure, wiener, seed=42)
print(f"one path over [0, 1]: {real.jump_times.size} jumps, "
      f"wiener block {real.wiener.shape}")

# jump counts across seeds follow the Poisson law of the total mass
counts = [sample_realization(0.0, 4, 0.25, measure, WienerDriverSpec(0),
                             int(s)).jump_times.size
          for s in path_seeds(7, 2000)]
print(f"mean jump count over 2000 seeds: {np.mean(counts):.3f} "
      f"(expected {measure.total_mass:.1f})")
print()

# textual export replays bit-exactly
buf = io.StringIO()
write_noise_csv(real, buf)
buf.seek(0)
again = read_noise_csv(buf)
print("csv replay bit-identical:", np.array_equal(again.wiener, real.wiener)
      and np.array_equal(again.jump_marks, real.jump_marks))
print()

# certified constants vs direct quadrature over the measure
for kind, kwargs in (("additive", {"sigma": 0.3}), ("diagonal", {"sigma": 0.3}),
                     ("gradient", {"theta": 0.8})):
    g = family(kind, 8, **kwargs)
    coeff = build_coefficients(g, family("none", 8), measure, model.basis, 1.0,
                               wiener)
    rep = condition_report(coeff, measure, model.basis, n_samples=800, seed=1)
    print(f"{kind:<9} L = {tuple(round(c, 4) for c in coeff.constants)}  "
          f"max check ratios {rep.max_ratio_lipschitz:.3f} / {rep.max_ratio_growth:.3f}")

# the compensator makes jump sums mean zero
v = np.ones(8)
coeff = build_coefficients(family("diagonal", 8, sigma=0.3), family("none", 8),
                           measure, model.basis, 1.0)
comp = compensator_drift(coeff, v, measure)
print(f"\ncompensator drift against mode 1: {comp[0]:.4f} "
      f"(= m1 * action, {measure.m1 * jump_coefficient(coeff, v, 1.0)[0]:.4f})")

# too much energy injection into the V norm is rejected outright
try:
    build_coefficients(family("gradient", 8, theta=1.4),
                       family("none", 8),
                       compound_gaussian(rate=5.0, mean=0.0, sd=0.5),
                       model.basis, 1.0, wiener)
except GrowthConditionError as exc:
    print(f"rejected family: {exc}")
