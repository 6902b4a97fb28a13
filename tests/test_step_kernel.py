"""The one step kernel against a per-mark, per-family reference step.

The reference evaluates every jump coefficient mark by mark and dispatches
on the family kind, as the solver did before the coefficients were stored
in diagonal-affine normal form.  The kernel applies the jumps of a step
through their mark sum, so the two agree up to rounding.
"""

import numpy as np
import pytest

from levyflow import (Cutoff, DyadicShellParams, SolverConfig, WienerDriverSpec,
                      baseline_direct, build_coefficients, compound_gaussian,
                      dyadic_model, family, h_norm, linear_step,
                      sample_realization, solve_linearized, step_factors)
from levyflow.spaces import PathSegment

N = 8
DIMS = 6          # Wiener part on the first 6 of 8 modes
KINDS = ("none", "additive", "diagonal", "gradient")
REL_TOL = 1e-14


def _reference_jump(fam, kappa, v, z):
    if fam.kind == "none":
        return np.zeros_like(v)
    if fam.kind == "additive":
        return z * fam.sigma * np.ones_like(v)
    if fam.kind == "diagonal":
        return z * fam.sigma * v
    return z * fam.theta * kappa * v


def _reference_wiener(fam, kappa, v, dw):
    out = np.zeros_like(v)
    if fam.kind == "none":
        return out
    dw = dw[:DIMS]
    if fam.kind == "additive":
        out[:DIMS] = fam.sigma[:DIMS] * dw
    elif fam.kind == "diagonal":
        out[:DIMS] = fam.sigma[:DIMS] * v[:DIMS] * dw
    else:
        out[:DIMS] = fam.theta * kappa[:DIMS] * v[:DIMS] * dw
    return out


def _reference_step(y, a, a_xi, t, dt, model, g, psi, measure, cutoff, f, dw,
                    marks, factors, h):
    kappa = np.sqrt(model.basis.eigenvalues)   # visc = 1
    c = cutoff.factor(h_norm(a), a_xi)
    acc = y + dt * (f - c * model.b_apply(a, y) if c != 0.0 else f)
    if dw.size:
        acc = acc + _reference_wiener(psi, kappa, h, dw)
    for z in marks:
        acc = acc + _reference_jump(g, kappa, h, float(z))
    if measure.m1 != 0.0 and g.kind != "none":
        acc = acc - dt * measure.m1 * _reference_jump(g, kappa, h, 1.0)
    return factors * acc


def _family(kind, rng):
    if kind in ("additive", "diagonal"):
        return family(kind, N, sigma=rng.uniform(0.1, 0.4, N))
    return family(kind, N, theta=0.5)


def _rel_gap(out, ref):
    return float(np.abs(out - ref).max() / np.abs(ref).max())


@pytest.fixture
def model():
    return dyadic_model(DyadicShellParams(n_modes=N, k0=2.0, visc=1.0))


@pytest.fixture
def measure():
    # m1 = 1.2, so the compensator is active
    return compound_gaussian(rate=4.0, mean=0.3, sd=0.5)


@pytest.mark.parametrize("stepper", ("resolvent", "exponential"))
@pytest.mark.parametrize("psi_kind", KINDS)
@pytest.mark.parametrize("g_kind", KINDS)
def test_single_step_matches_per_mark_reference(model, measure, g_kind, psi_kind,
                                                stepper):
    rng = np.random.default_rng(KINDS.index(g_kind) * 4 + KINDS.index(psi_kind))
    g, psi = _family(g_kind, rng), _family(psi_kind, rng)
    coeff = build_coefficients(g, psi, measure, model.basis, 1.0,
                               WienerDriverSpec(DIMS), forcing=rng.standard_normal(N))
    dt = 0.01
    factors = step_factors(model, dt, stepper)
    y, h, a = rng.standard_normal((3, N))
    dw = rng.standard_normal(DIMS) * np.sqrt(dt)
    marks = rng.normal(0.3, 0.5, 4)
    cutoff = Cutoff(level=10.0, budget=5.0)
    conv = cutoff.factor(h_norm(a), 0.5) * model.b_apply(a, y)
    out = linear_step(y, conv, 0.3, dt, coeff, measure, coeff.forcing, dw,
                      float(marks.sum()), factors, h=h)
    ref = _reference_step(y, a, 0.5, 0.3, dt, model, g, psi, measure, cutoff,
                          coeff.forcing, dw, marks, factors, h)
    assert _rel_gap(out, ref) <= REL_TOL
    # the default noise state is the stepped state itself
    out_y = linear_step(y, conv, 0.3, dt, coeff, measure, coeff.forcing, dw,
                        float(marks.sum()), factors)
    ref_y = _reference_step(y, a, 0.5, 0.3, dt, model, g, psi, measure, cutoff,
                            coeff.forcing, dw, marks, factors, y)
    assert _rel_gap(out_y, ref_y) <= REL_TOL


@pytest.mark.parametrize("stepper", ("resolvent", "exponential"))
def test_paths_match_per_mark_reference_step_by_step(model, stepper):
    rng = np.random.default_rng(5)
    measure = compound_gaussian(rate=1000.0, mean=0.3, sd=0.5)
    g, psi = family("gradient", N, theta=0.05), _family("diagonal", rng)
    wiener = WienerDriverSpec(DIMS)
    coeff = build_coefficients(g, psi, measure, model.basis, 1.0, wiener)
    dt = 0.01
    cfg = SolverConfig(horizon=0.2, dt=dt, stepper=stepper)
    noise = sample_realization(0.0, 20, dt, measure, wiener, seed=11)
    assert np.bincount(noise.jump_steps, minlength=20).min() >= 3
    factors = step_factors(model, dt, stepper)
    u0 = rng.standard_normal(N)
    advecting, noise_path = (
        PathSegment.from_states(model.basis, 0.0, dt, rng.standard_normal((21, N)))
        for _ in range(2))

    solved, _ = solve_linearized(advecting, noise, cfg, model, coeff, measure,
                                 Cutoff(), u0, noise_path=noise_path)
    direct = baseline_direct(noise, cfg, model, coeff, measure, u0)
    for k in range(noise.n_steps):
        t = k * dt
        dw = noise.wiener[k]
        marks = noise.jump_marks[noise.jump_steps == k]
        ref = _reference_step(solved.states[k], advecting.states[k], 0.0, t, dt,
                              model, g, psi, measure, Cutoff(), coeff.forcing, dw,
                              marks, factors, noise_path.states[k])
        assert _rel_gap(solved.states[k + 1], ref) <= REL_TOL, k
        y = direct.states[k]
        ref = _reference_step(y, y, 0.0, t, dt, model, g, psi, measure,
                              Cutoff(), coeff.forcing, dw, marks, factors, y)
        assert _rel_gap(direct.states[k + 1], ref) <= REL_TOL, k
