from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import reference_solver
from reference_solver import PicardDivergenceError, solve_linearized

from levyflow import (BlowupError, Cutoff, DyadicShellParams, SolverConfig, WienerDriverSpec,
                      baseline_direct, build_coefficients, compound_gaussian,
                      dyadic_model, ensemble_solve, family,
                      global_solve, linear_step, no_jumps, picard_ensemble,
                      picard_local, sample_realization, step_factors, zero_b_model)
from levyflow import solver
from levyflow.config import load_config
from levyflow.diagnostics import budget_indicator_integral
from levyflow.noise import NoiseRealization, sample_ensemble
from levyflow.spaces import (NonFiniteStateError, PathSegment, SpectralBasis,
                            h_norm, h_norm_rows, v_norm_sq_rows)

N = 8


@pytest.fixture
def model():
    return dyadic_model(DyadicShellParams(n_modes=N, k0=2.0, visc=1.0))


@pytest.fixture
def guards(monkeypatch):
    """Set numerical guards for one test: ``guards(max_picard=2)`` patches
    ``solver._MAX_PICARD``, which the reference solver reads too."""
    def set_guards(**values):
        for name, value in values.items():
            monkeypatch.setattr(solver, f"_{name.upper()}", value)
    return set_guards


@pytest.fixture
def quiet():
    """No jumps, no Wiener part, zero forcing."""
    return no_jumps(), WienerDriverSpec(0)


def _coeff(model, g=None, psi=None, measure=None, wiener=None, forcing=None):
    measure = measure if measure is not None else no_jumps()
    wiener = wiener if wiener is not None else WienerDriverSpec(0)
    g = g if g is not None else family("none", N)
    psi = psi if psi is not None else family("none", N)
    return build_coefficients(g, psi, measure, model.basis, 1.0, wiener, forcing)


def _empty_noise(n_steps, dt, dims=0):
    return NoiseRealization(t0=0.0, dt=dt, wiener=np.zeros((n_steps, dims)),
                            jump_times=np.zeros(0), jump_marks=np.zeros(0),
                            jump_steps=np.zeros(0, dtype=int), seed=0)


def _e(i, amp=1.0):
    v = np.zeros(N)
    v[i] = amp
    return v


def test_linear_step_resolvent_decay(model, quiet):
    # zero advecting field, no forcing, no noise: one pure resolvent step
    measure, _ = quiet
    coeff = _coeff(model)
    cfg = SolverConfig(horizon=0.1, dt=0.01)
    factors = step_factors(model.basis, 0.01, "resolvent")
    y = np.ones(N)
    out = linear_step(y, np.zeros(N), 0.01, coeff, np.zeros(0), 0.0 - 0.01 * measure.m1,
                      factors)
    assert np.array_equal(out, y / (1.0 + 0.01 * model.basis.eigenvalues))


def test_linear_step_single_jump_hand_oracle(model):
    # one additive jump in the step, stepped by hand
    measure = compound_gaussian(rate=1.0, mean=0.2, sd=0.1)
    coeff = _coeff(model, g=family("additive", N, sigma=0.5), measure=measure)
    dt = 0.02
    factors = step_factors(model.basis, dt, "resolvent")
    y = _e(0)
    z = 0.73
    out = linear_step(y, np.zeros(N), dt, coeff, np.zeros(0), z - dt * measure.m1, factors)
    hand = (y + 0.5 * z * np.ones(N)
            - dt * measure.m1 * 0.5 * np.ones(N)) / (1.0 + dt * model.basis.eigenvalues)
    assert np.allclose(out, hand, rtol=1e-15, atol=0)


def test_cutoff_annihilation(model, quiet):
    # advecting path beyond the level: convection absent no matter its size
    measure, _ = quiet
    coeff = _coeff(model)
    dt = 0.01
    cfg = SolverConfig(horizon=0.1, dt=dt)
    noise = _empty_noise(10, dt)
    y0 = np.ones(N)
    cut = Cutoff(level=2.0, budget=1.0)
    zero = PathSegment.from_states(model.basis, 0.0, dt, np.zeros((11, N)))
    ref, _ = solve_linearized(zero, noise, cfg, model, coeff, measure, Cutoff(), y0)
    huge = PathSegment.from_states(model.basis, 0.0, dt, np.full((11, N), 1e6))
    out, conv = solve_linearized(huge, noise, cfg, model, coeff, measure, cut, y0)
    assert np.array_equal(out.states, ref.states)
    assert conv.shape == (10, N) and np.all(conv == 0.0)
    # spent budget annihilates as well: sqrt(xi_sq) >= 2.5 = 2.5 x budget
    ones = PathSegment.from_states(model.basis, 0.0, dt, np.ones((11, N)))
    spent = replace(ones, xi_sq=ones.xi_sq + 6.25)
    out2, conv2 = solve_linearized(spent, noise, cfg, model, coeff, measure, cut, y0)
    assert np.array_equal(out2.states, ref.states)
    assert np.all(conv2 == 0.0)


def test_solve_linearized_exponential_exactness(model, quiet):
    measure, _ = quiet
    coeff = _coeff(model)
    cfg = SolverConfig(horizon=1.0, dt=0.01, stepper="exponential")
    noise = _empty_noise(100, 0.01)
    # the first sweep is the linearized solve along the zero path
    path, _ = picard_local(noise, cfg, model, coeff, measure, Cutoff(), _e(0), force_n=1)
    lam1 = model.basis.eigenvalues[0]
    for k in range(101):
        expected = np.exp(-lam1 * k * 0.01)
        assert abs(np.linalg.norm(path.states[k]) - expected) <= 1e-12


def test_drift_only_self_convergence_order(quiet):
    # strong error against a dt/16 reference decays at order >= 0.9; the
    # spectrum is kept mildly stiff so the asymptotic regime is reachable
    measure, _ = quiet
    gentle = dyadic_model(DyadicShellParams(n_modes=6, k0=2.0, visc=0.25))
    coeff = build_coefficients(family("none", 6), family("none", 6), measure,
                               gentle.basis, 0.25)
    u0 = np.array([1.0, 0.6, 0.3, 0.1, 0.0, 0.0])

    def run(n):
        dt = 0.4 / n
        cfg = SolverConfig(horizon=0.4, dt=dt)
        return baseline_direct(_empty_noise(n, dt), cfg, gentle, coeff, measure, u0)

    ref = run(5120)
    errs = []
    for n in (160, 320):
        path = run(n)
        errs.append(np.abs(path.states - ref.states[::5120 // n]).max())
    order = np.log2(errs[0] / errs[1])
    assert order >= 0.9


def test_picard_zero_fixed_point(model, quiet):
    measure, wiener = quiet
    coeff = _coeff(model)
    cfg = SolverConfig(horizon=0.1, dt=0.01)
    noise = _empty_noise(10, 0.01)
    path, rep = picard_local(noise, cfg, model, coeff, measure,
                             Cutoff(level=5.0, budget=1.0), np.zeros(N))
    assert rep.converged
    assert rep.iterations_used == 1
    assert np.all(path.states == 0.0)


def test_picard_first_iterate_identity(model, guards):
    measure = compound_gaussian(rate=5.0, mean=0.0, sd=0.4)
    wiener = WienerDriverSpec(N)
    coeff = _coeff(model, g=family("diagonal", N, sigma=0.3),
                   psi=family("diagonal", N, sigma=0.3),
                   measure=measure, wiener=wiener)
    guards(max_picard=1, tol_picard=1e30)
    cfg = SolverConfig(horizon=0.05, dt=0.005)
    noise = sample_realization(0.0, 10, 0.005, measure, wiener, seed=6)
    cut = Cutoff(level=5.0, budget=1.0)
    u0 = _e(0)
    path, rep = picard_local(noise, cfg, model, coeff, measure, cut, u0)
    adv = PathSegment.from_states(model.basis, 0.0, 0.005, np.zeros((11, N)))
    ref, _ = solve_linearized(adv, noise, cfg, model, coeff, measure, cut, u0)
    assert np.array_equal(path.states, ref.states)


def test_first_sweep_makes_no_convection_calls(model):
    # the first sweep advects along the zero path, and B(0, y) = 0
    calls = []

    def b_apply(u, v):
        calls.append(u.copy())
        return model.b_apply(u, v)

    counted = replace(model, b_apply=b_apply)
    measure = compound_gaussian(rate=5.0, mean=0.0, sd=0.4)
    wiener = WienerDriverSpec(N)
    coeff = _coeff(model, g=family("diagonal", N, sigma=0.3),
                   psi=family("diagonal", N, sigma=0.3),
                   measure=measure, wiener=wiener)
    cfg = SolverConfig(horizon=0.05, dt=0.005)
    noise = sample_realization(0.0, 10, 0.005, measure, wiener, seed=6)
    cut = Cutoff(level=5.0, budget=1.0)
    picard_local(noise, cfg, counted, coeff, measure, cut, _e(0), force_n=1)
    assert calls == []
    # the second sweep advects along the first, which is nowhere zero
    path, _ = picard_local(noise, cfg, counted, coeff, measure, cut, _e(0), force_n=2)
    assert len(calls) == 10 and all(u.any() for u in calls)
    ref, _ = picard_local(noise, cfg, model, coeff, measure, cut, _e(0), force_n=2)
    assert path.states.tobytes() == ref.states.tobytes()


def test_picard_additive_contraction(model):
    measure = compound_gaussian(rate=5.0, mean=0.0, sd=0.4)
    wiener = WienerDriverSpec(N)
    coeff = _coeff(model, g=family("additive", N, sigma=0.3),
                   psi=family("additive", N, sigma=0.2),
                   measure=measure, wiener=wiener)
    cfg = SolverConfig(horizon=0.05, dt=0.0025)
    noise = sample_realization(0.0, 20, 0.0025, measure, wiener, seed=7)
    path, rep = picard_local(noise, cfg, model, coeff, measure,
                             Cutoff(level=5.0, budget=1.0), _e(0, 1.5), force_n=8)
    inc = np.array(rep.sup_increments) + np.array(rep.xi_increments)
    ratios = inc[2:6] / inc[1:5]
    assert np.all(ratios < 0.5)


def test_picard_agrees_with_baseline_when_uncut(model, guards):
    # inactive cutoffs, tiny horizon: the limit matches the direct scheme
    measure = compound_gaussian(rate=5.0, mean=0.0, sd=0.4)
    wiener = WienerDriverSpec(N)
    coeff = _coeff(model, g=family("diagonal", N, sigma=0.3),
                   psi=family("diagonal", N, sigma=0.3),
                   measure=measure, wiener=wiener)
    dt = 0.002
    guards(tol_picard=1e-12, max_picard=40)
    cfg = SolverConfig(horizon=0.05, dt=dt)
    noise = sample_realization(0.0, 25, dt, measure, wiener, seed=8)
    u0 = _e(0)
    path, rep = picard_local(noise, cfg, model, coeff, measure,
                             Cutoff(level=1e9, budget=1e9), u0)
    assert rep.converged
    base = baseline_direct(noise, cfg, model, coeff, measure, u0, level=1e9)
    assert np.abs(path.states - base.states).max() <= 1.0 * dt


def _kicked_setup(kicks, steps, scale=0.1):
    """Paths whose direct scheme overflows past its level crossing.

    An 8-mode dyadic model with additive Wiener noise that is zero but for
    one kick per path (None for none): an increment of 10^80.2 in mode 6 at
    step ``j``.  Mode 6 reaches 10^78.9, the next step's convection lifts
    mode 7 to 10^155.3, past the level 10^153.5 (the crossing at j + 2),
    and with the convection cut off mode 7 decays below the level in one
    step, where the convection overflows (index j + 4).  The kick spends the
    dissipation budget, so the fixed-point iterates step past j + 1 with no
    convection and stay finite: on the last level attempt the reference
    iterates the window that holds index j + 4 from zero, and ensemble_solve,
    which keeps no state past the crossing, takes the windows at their plans.
    """
    model = dyadic_model(DyadicShellParams(n_modes=N, k0=2.0, visc=1.0))
    measure, wiener = no_jumps(), WienerDriverSpec(N)
    coeff = _coeff(model, psi=family("additive", N, sigma=1.0), wiener=wiener)
    reals = []
    for j in kicks:
        kick = np.zeros((steps, N))
        if j is not None:
            kick[j, 5] = 10.0 ** 80.2
        reals.append(replace(_empty_noise(steps, 0.005, N), wiener=kick))
    u0 = np.zeros(N)
    u0[:4] = scale * np.array([1.2, 0.8, 0.5, 0.3])
    cfg = SolverConfig(horizon=steps * 0.005, dt=0.005, window=0.32, budget=10.0,
                       level=10.0 ** 153.5)
    return model, coeff, measure, reals, u0, cfg


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_picard_divergence_error(guards):
    # the reference iterates a window whose plan is not finite from zero,
    # and with no sweep converging neither it nor its halvings contract
    guards(tol_picard=0.0, max_picard=2, max_levels=1)
    model, coeff, measure, (noise,), u0, cfg = _kicked_setup([2], steps=10)
    with pytest.raises(PicardDivergenceError, match="^window at step 0 "):
        reference_solver.global_solve(noise, cfg, model, coeff, measure, u0)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_picard_divergence_reports_the_last_window_tried(guards):
    # the reference tries a 64-step window at 64, 32, 16, 8 and 4 steps
    guards(tol_picard=0.0, max_picard=2, max_levels=1)
    model, coeff, measure, (noise,), u0, cfg = _kicked_setup([40], steps=64)
    assert cfg.window_steps == 64
    with pytest.raises(PicardDivergenceError, match="even at 4 steps"):
        reference_solver.global_solve(noise, cfg, model, coeff, measure, u0)


def test_single_window_pure_decay(model, quiet):
    measure, _ = quiet
    coeff = _coeff(model)
    cfg = SolverConfig(horizon=0.2, dt=0.01, window=0.2, budget=5.0, level=5.0)
    noise = _empty_noise(20, 0.01)
    out = global_solve(noise, cfg, model, coeff, measure, _e(0, 0.5))
    assert not out.blowup_flag and out.level_final == 5.0
    assert out.stop_times == [pytest.approx(0.2)]
    assert out.trajectory.n_steps == 20
    norms = np.linalg.norm(out.trajectory.states, axis=1)
    assert np.all(np.diff(norms) < 0.0)


def test_window_trigger_property(model):
    # every stop spends the budget at its trigger or caps at the window length
    measure = compound_gaussian(rate=5.0, mean=0.0, sd=0.5)
    wiener = WienerDriverSpec(N)
    coeff = _coeff(model, g=family("diagonal", N, sigma=0.4),
                   psi=family("diagonal", N, sigma=0.4),
                   measure=measure, wiener=wiener)
    cfg = SolverConfig(horizon=0.5, dt=0.005, window=0.1, budget=0.35, level=10.0)
    noise = sample_realization(0.0, 100, 0.005, measure, wiener, seed=10)
    u0 = _e(0, 1.2)
    out = global_solve(noise, cfg, model, coeff, measure, u0)
    path, stops = out.trajectory, out.stop_times
    assert out.level_final == 10.0
    assert all(b > a for a, b in zip(stops, stops[1:]))
    bounds = [0.0] + [s for s in stops]
    budget_sq = cfg.budget ** 2
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        i0, i1 = round(lo / cfg.dt), round(hi / cfg.dt)
        seg = v_norm_sq_rows(path.states[i0:i1], model.basis)
        spent = cfg.dt * seg.sum()
        window_capped = (i1 - i0) == cfg.window_steps or hi == pytest.approx(0.5)
        if not window_capped:
            assert spent >= budget_sq
            # ... and only by at most one step's overshoot
            assert spent - cfg.dt * seg[-1] < budget_sq


def test_global_level_escalation_count(model, quiet):
    measure, _ = quiet
    coeff = _coeff(model)
    u0 = _e(0, 1.5)   # |u0| between the level and twice the level
    cfg = SolverConfig(horizon=0.2, dt=0.01, window=0.05, budget=1.0, level=1.0)
    noise = _empty_noise(20, 0.01)
    out = global_solve(noise, cfg, model, coeff, measure, u0)
    assert out.level_final == 2.0   # exactly one escalation
    assert not out.blowup_flag


def test_level_crossing_uses_the_norm_of_the_cutoff(quiet):
    # a 12-mode u0 whose H norm, the one reduction of h_norm, the cutoff
    # factor and the level tests, lies above its pairwise-sum norm; at a
    # level equal to the former u0 has reached the level, so both solvers
    # grow it once (where the two reductions never differ, the last draw is
    # used)
    measure, wiener = quiet
    m = 12
    model = dyadic_model(DyadicShellParams(n_modes=m, k0=2.0, visc=1.0))
    coeff = build_coefficients(family("none", m), family("none", m), measure,
                               model.basis, 1.0, wiener)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        u0 = rng.standard_normal(m)
        if h_norm(u0) > np.sqrt((u0 * u0).sum()):
            break
    cfg = SolverConfig(horizon=0.1, dt=0.01, window=0.05, budget=10.0, level=h_norm(u0))
    noise = _empty_noise(10, 0.01)
    out = global_solve(noise, cfg, model, coeff, measure, u0)
    ref = reference_solver.global_solve(noise, cfg, model, coeff, measure, u0)
    assert out.level_final == ref.level_final == 2.0 * cfg.level


def test_level_tests_cross_at_the_state_whose_norm_is_the_level(quiet, guards):
    # with B = 0 the fixed point is the direct path bit for bit, so a level
    # equal to the H norm of an inner direct state is reached exactly there:
    # by the plan's test, and by the accepted window's test on the last level
    measure, wiener = quiet
    basis = SpectralBasis(np.arange(1.0, N + 1.0))
    model = zero_b_model(basis)
    coeff = build_coefficients(family("none", N), family("none", N), measure, basis,
                               1.0, wiener, forcing=np.full(N, 5.0))
    noise, u0, k = _empty_noise(20, 0.01), np.zeros(N), 13
    cfg = SolverConfig(horizon=0.2, dt=0.01, window=0.05, budget=10.0)
    states = baseline_direct(noise, cfg, model, coeff, measure, u0).states
    assert (h_norm_rows(states[:k]) < h_norm(states[k])).all()
    capped = replace(cfg, level=h_norm(states[k]))
    for solve in (global_solve, reference_solver.global_solve):
        guards(max_levels=1)
        out = solve(noise, capped, model, coeff, measure, u0)
        assert out.blowup_flag and out.trajectory.n_steps == k
        guards(max_levels=2)
        grown = solve(noise, capped, model, coeff, measure, u0)
        assert grown.level_final == 2.0 * capped.level and not grown.blowup_flag


def test_a_window_whose_plan_is_not_finite_iterates_from_zero(quiet, guards):
    # on the last level attempt the windows reach the crossing at index 13,
    # and a NaN Wiener increment in step 13 leaves the direct states of the
    # last window past it not finite.  The reference takes the two windows
    # before it at their plans and iterates that window from zero, whose
    # sweeps compute the states past the crossing and meet the NaN at index
    # 14.  ensemble_solve keeps no state past the crossing, so the path ends
    # level_cap at index 13 with the direct states, all finite.
    measure, _ = quiet
    basis = SpectralBasis(np.arange(1.0, N + 1.0))
    model = zero_b_model(basis)
    wiener = WienerDriverSpec(N)
    coeff = build_coefficients(family("none", N), family("none", N), measure, basis,
                               1.0, wiener, forcing=np.full(N, 5.0))
    noise, u0, k = _empty_noise(20, 0.01, dims=N), np.zeros(N), 13
    cfg = SolverConfig(horizon=0.2, dt=0.01, window=0.05, budget=10.0)
    direct = baseline_direct(noise, cfg, model, coeff, measure, u0).states
    capped = replace(cfg, level=h_norm(direct[k]))
    wiener_nan = noise.wiener.copy()
    wiener_nan[k, 0] = np.nan
    noise = replace(noise, wiener=wiener_nan)
    guards(max_levels=1)
    with pytest.raises(NonFiniteStateError, match=f"grid index {k + 1}$"):
        reference_solver.global_solve(noise, capped, model, coeff, measure, u0)
    out = global_solve(noise, capped, model, coeff, measure, u0)
    assert out.blowup_flag and out.level_final == capped.level
    assert out.trajectory.states.tobytes() == direct[:k + 1].tobytes()
    assert out.stop_times == [pytest.approx(0.05), pytest.approx(0.1)]


def test_global_rerun_at_double_level_identical(model):
    measure = compound_gaussian(rate=4.0, mean=0.0, sd=0.4)
    wiener = WienerDriverSpec(N)
    coeff = _coeff(model, g=family("diagonal", N, sigma=0.3),
                   psi=family("diagonal", N, sigma=0.3),
                   measure=measure, wiener=wiener)
    cfg = SolverConfig(horizon=0.3, dt=0.005, window=0.1, budget=0.5, level=8.0)
    noise = sample_realization(0.0, 60, 0.005, measure, wiener, seed=12)
    out1 = global_solve(noise, cfg, model, coeff, measure, _e(0))
    from dataclasses import replace
    out2 = global_solve(noise, replace(cfg, level=2 * out1.level_final),
                        model, coeff, measure, _e(0))
    assert np.array_equal(out1.trajectory.states, out2.trajectory.states)
    assert out1.stop_times == out2.stop_times


def test_global_seed_determinism(model):
    measure = compound_gaussian(rate=4.0, mean=0.0, sd=0.4)
    wiener = WienerDriverSpec(N)
    coeff = _coeff(model, g=family("diagonal", N, sigma=0.3),
                   psi=family("diagonal", N, sigma=0.3),
                   measure=measure, wiener=wiener)
    cfg = SolverConfig(horizon=0.2, dt=0.005, window=0.1, budget=0.5, level=8.0)

    def run():
        noise = sample_realization(0.0, 40, 0.005, measure, wiener, seed=13)
        return global_solve(noise, cfg, model, coeff, measure, _e(0))

    a, b = run(), run()
    assert np.array_equal(a.trajectory.states, b.trajectory.states)
    assert a.stop_times == b.stop_times
    assert a.level_final == b.level_final


def test_blowup_guard(model, quiet, guards):
    measure, _ = quiet
    coeff = _coeff(model)
    guards(budget_ceiling=1e-4)
    cfg = SolverConfig(horizon=0.2, dt=0.01, window=0.05, budget=1.0, level=10.0)
    noise = _empty_noise(20, 0.01)
    with pytest.raises(BlowupError):
        global_solve(noise, cfg, model, coeff, measure, _e(0, 2.0))


def test_level_cap_exhaustion_truncates(model, quiet, guards):
    # strong forcing pushes the norm through every level up to the cap
    measure, _ = quiet
    coeff = _coeff(model, forcing=_e(0, 100.0))
    guards(max_levels=4)
    cfg = SolverConfig(horizon=1.0, dt=0.01, window=0.2, budget=5.0, level=1.0)
    noise = _empty_noise(100, 0.01)
    out = global_solve(noise, cfg, model, coeff, measure, np.zeros(N))
    assert out.blowup_flag
    assert out.level_final == 8.0
    assert out.trajectory.n_steps < 100
    tail = np.linalg.norm(out.trajectory.states[-1])
    assert tail >= out.level_final


def test_baseline_nse_two_mode_decay_vs_refined_oracle(quiet):
    # deterministic 2D spectral flow: the coarse run must sit within 1e-3
    # relative of a 64x refined run of the same scheme
    from levyflow.nse2d import Nse2dParams, nse2d_model

    measure, _ = quiet
    params = Nse2dParams(modes_per_axis=4, visc=0.5)
    model = nse2d_model(params)
    dim = model.basis.dim
    coeff = build_coefficients(family("none", dim), family("none", dim),
                               measure, model.basis, params.visc)
    u0 = np.zeros(dim)
    u0[0] = 0.8
    u0[3] = -0.5

    def run(n):
        dt = 0.1 / n
        cfg = SolverConfig(horizon=0.1, dt=dt)
        noise = NoiseRealization(0.0, dt, np.zeros((n, 0)), np.zeros(0),
                                 np.zeros(0), np.zeros(0, dtype=int), 0)
        return baseline_direct(noise, cfg, model, coeff, measure, u0)

    coarse = run(50)
    ref = run(50 * 64)
    d = coarse.states - ref.states[::64]
    rel = np.sqrt((d * d).sum(axis=1)).max() \
        / np.sqrt((ref.states ** 2).sum(axis=1)).max()
    assert rel <= 1e-3


def test_contraction_degrades_with_window_length():
    # qualitative: longer fixed-point windows contract more slowly
    n = 12
    params = DyadicShellParams(n_modes=n, visc=0.25)
    model = dyadic_model(params)
    measure = compound_gaussian(rate=4.0, mean=0.0, sd=0.35)
    wiener = WienerDriverSpec(n)
    coeff = build_coefficients(family("diagonal", n, sigma=0.35),
                               family("diagonal", n, sigma=0.35),
                               measure, model.basis, params.visc, wiener)
    u0 = np.zeros(n)
    u0[:4] = [1.2, 0.8, 0.5, 0.3]
    first_ratios = []
    for t0 in (0.05, 0.4, 0.8):
        cfg = SolverConfig(horizon=t0, dt=t0 / 50, window=t0, budget=20.0,
                           level=50.0)
        cutoff = Cutoff(level=50.0, budget=20.0)
        ratios = []
        for s in np.random.SeedSequence(2000).generate_state(8, np.uint64):
            real = sample_realization(0.0, 50, cfg.dt, measure, wiener, int(s))
            _, rep = picard_local(real, cfg, model, coeff, measure, cutoff, u0,
                                  force_n=3)
            inc = np.array(rep.xi_increments)
            ratios.append(inc[1] / inc[0])
        first_ratios.append(float(np.mean(ratios)))
    assert first_ratios[0] < first_ratios[1] < first_ratios[2]


def test_baseline_zero_b_equals_linear_solve(quiet):
    measure, wiener = quiet
    basis = SpectralBasis((2.0 ** np.arange(N)) ** 2)
    model0 = zero_b_model(basis)
    coeff = build_coefficients(family("none", N), family("none", N), measure,
                               basis, 1.0, wiener)
    cfg = SolverConfig(horizon=0.2, dt=0.01)
    noise = _empty_noise(20, 0.01)
    u0 = np.ones(N)
    base = baseline_direct(noise, cfg, model0, coeff, measure, u0)
    # the first sweep is the linearized solve along the zero path
    lin, _ = picard_local(noise, cfg, model0, coeff, measure, Cutoff(), u0, force_n=1)
    assert np.array_equal(base.states, lin.states)


def _cross_setup(name):
    """A model, its coefficients, noise, u0 and a budget: the Picard iterates
    sweep the level ramp of level 1 and spend twice the budget."""
    from levyflow.nse2d import Nse2dParams, nse2d_model

    if name == "dyadic":
        model = dyadic_model(DyadicShellParams(n_modes=N, k0=2.0, visc=1.0))
    else:
        model = nse2d_model(Nse2dParams(modes_per_axis=3, visc=0.5))
    dim = model.basis.dim
    measure = compound_gaussian(rate=5.0, mean=0.0, sd=0.4)
    wiener = WienerDriverSpec(dim)
    coeff = build_coefficients(family("diagonal", dim, sigma=0.3),
                               family("additive", dim, sigma=0.3), measure,
                               model.basis, 1.0, wiener)
    noise = sample_realization(0.0, 40, 0.0025, measure, wiener, seed=21)
    u0 = np.zeros(dim)
    u0[:4] = [1.2, 0.8, 0.5, 0.3]
    budget = 0.4 if name == "dyadic" else 0.15
    return model, coeff, measure, noise, u0, budget


@pytest.mark.parametrize("name", ("dyadic", "nse2d"))
def test_forced_picard_sweeps_match_the_reference_iterates(name):
    # each of the first five forced sweeps of the batched loop gives the
    # iterate that the reference's hand-driven linearized solves give, bit
    # for bit, under cutoff factors that are 0 on some steps and strictly
    # between 0 and 1 on others
    model, coeff, measure, noise, u0, budget = _cross_setup(name)
    cfg = SolverConfig(horizon=0.1, dt=noise.dt)
    cut = Cutoff(level=1.0, budget=budget)
    iterates = [PathSegment.from_states(model.basis, 0.0, noise.dt,
                                        np.zeros((noise.n_steps + 1, model.basis.dim)))]
    for _ in range(5):
        cur, _ = solve_linearized(iterates[-1], noise, cfg, model, coeff, measure,
                                  cut, u0)
        iterates.append(cur)
    factors = np.concatenate([cut.along(p.states, p.xi_sq) for p in iterates[1:-1]])
    assert np.any(factors == 0.0)
    assert np.any((factors > 0.0) & (factors < 1.0))
    for n in range(1, 6):
        path, rep = picard_local(noise, cfg, model, coeff, measure, cut, u0, force_n=n)
        assert rep.iterations_used == n
        assert np.array_equal(path.states, iterates[n].states)


def test_picard_without_budget_counts_every_row():
    # a cutoff without a budget caps nothing: the budget integral of two
    # Picard iterates is their plain two-iterate energy integral
    model, coeff, measure, noise, u0, _ = _cross_setup("dyadic")
    cfg = SolverConfig(horizon=0.1, dt=noise.dt)
    cut = Cutoff(level=8.0)
    iterates = [PathSegment.from_states(model.basis, 0.0, noise.dt,
                                        np.zeros((noise.n_steps + 1, model.basis.dim)))]
    for _ in range(2):
        iterates.append(solve_linearized(iterates[-1], noise, cfg, model, coeff,
                                         measure, cut, u0)[0])
    plain = [noise.dt * (v_norm_sq_rows(a.states, model.basis)
                         + v_norm_sq_rows(b.states, model.basis))[:-1].sum()
             for a, b in zip(iterates[:-1], iterates[1:])]
    budget = [budget_indicator_integral(a, b, cut)
              for a, b in zip(iterates[:-1], iterates[1:])]
    assert len(budget) == 2 and plain[1] > 0.0
    assert budget == pytest.approx(plain, rel=1e-14)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_overflowing_state_raises_non_finite_error(model):
    # the kernel does not check finiteness; every solver builds its path
    # through PathSegment.from_states, which names the first bad grid index
    measure = compound_gaussian(rate=4.0, mean=0.0, sd=0.4)
    wiener = WienerDriverSpec(N)
    coeff = _coeff(model, g=family("diagonal", N, sigma=0.3),
                   psi=family("diagonal", N, sigma=0.3),
                   measure=measure, wiener=wiener)
    dt = 0.01
    noise = sample_realization(0.0, 10, dt, measure, wiener, seed=12)
    u0 = np.full(N, 1e200)
    with pytest.raises(NonFiniteStateError, match="grid index 1"):
        baseline_direct(noise, SolverConfig(horizon=0.1, dt=dt), model, coeff,
                        measure, u0)
    adv = PathSegment.from_states(model.basis, 0.0, dt, np.tile(u0, (11, 1)))
    with pytest.raises(NonFiniteStateError, match="grid index 1"):
        solve_linearized(adv, noise, SolverConfig(horizon=0.1, dt=dt), model,
                         coeff, measure, Cutoff(), u0)
    # cutoffs far above the state leave the convection on, and the direct
    # scheme that plans the windows overflows in its first step
    cfg = SolverConfig(horizon=0.1, dt=dt, level=1e300, budget=1e300)
    with pytest.raises(NonFiniteStateError, match="grid index 1"):
        global_solve(noise, cfg, model, coeff, measure, _e(0, 1e154))


def _lanes_setup(name):
    """Five first windows of _ensemble_setup's paths, from u0 = 0, whose Wiener
    increments are scaled by 0 to 10: each lane alone converges after its own
    number of sweeps."""
    model, coeff, measure, reals, _, cfg = _ensemble_setup(name, 5)
    windows = [replace(w, wiener=k * w.wiener) for w, k in zip(
        (reference_solver.slice_steps(r, 0, cfg.window_steps) for r in reals),
        (0.0, 0.3, 1.0, 3.0, 10.0))]
    return (model, coeff, measure, windows, np.zeros(model.basis.dim), cfg,
            Cutoff(cfg.level, cfg.budget))


@pytest.mark.parametrize("name", ("dyadic", "nse2d"))
def test_a_forced_batch_iterates_each_lane_as_alone(name):
    model, coeff, measure, windows, u0, cfg, cut = _lanes_setup(name)
    batch = picard_ensemble(windows, cfg, model, coeff, measure, cut, u0, force_n=7)

    def assert_alike(a, b):
        a, b = np.asarray(a), np.asarray(b)
        if name == "nse2d":
            assert a.shape == b.shape
            assert np.abs(a - b).max(initial=0.0) <= NSE_REL_TOL * np.abs(b).max(initial=0.0)
        else:
            assert a.tobytes() == b.tobytes()

    for window, (path, rep) in zip(windows, batch):
        ref, ref_rep = picard_local(window, cfg, model, coeff, measure, cut, u0, force_n=7)
        assert_alike(path.states, ref.states)
        assert_alike(path.xi_sq, ref.xi_sq)
        assert (rep.iterations_used, rep.converged) == (ref_rep.iterations_used,
                                                        ref_rep.converged) == (7, True)
        for key in ("sup_increments", "xi_increments"):
            assert_alike(getattr(rep, key), getattr(ref_rep, key))


@pytest.mark.parametrize("name", ("dyadic", "nse2d"))
def test_an_unforced_batch_stops_when_its_last_lane_converges(name):
    # every lane sweeps until the slowest has converged, and a lane that
    # converged earlier moves by no more than the tolerance
    model, coeff, measure, windows, u0, cfg, cut = _lanes_setup(name)
    alone = [picard_local(w, cfg, model, coeff, measure, cut, u0) for w in windows]
    counts = [rep.iterations_used for _, rep in alone]
    assert all(rep.converged for _, rep in alone) and len(set(counts)) > 2
    batch = picard_ensemble(windows, cfg, model, coeff, measure, cut, u0)
    last = max(counts)
    for (path, rep), (ref, ref_rep) in zip(batch, alone):
        assert (rep.iterations_used, rep.converged) == (last, True)
        assert len(rep.sup_increments) == len(rep.xi_increments) == last
        assert np.abs(path.states - ref.states).max() <= solver._TOL_PICARD


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_a_lane_that_overflows_ends_the_batch():
    # with no cutoff the second sweep's convection on the kicked lane
    # overflows; the batch stops there and names that lane's first
    # non-finite state, which it reaches alone too
    model, coeff, measure, reals, u0, cfg = _kicked_setup([None, 3, None], steps=10)
    with pytest.raises(NonFiniteStateError, match="grid index 7$"):
        picard_local(reals[1], cfg, model, coeff, measure, Cutoff(), u0)
    for real in reals[::2]:
        picard_local(real, cfg, model, coeff, measure, Cutoff(), u0)
    with pytest.raises(NonFiniteStateError, match="grid index 7$"):
        picard_ensemble(reals, cfg, model, coeff, measure, Cutoff(), u0)
    states, reports = solver._picard_lanes(
        np.stack([r.wiener for r in reals], axis=1),
        np.stack([r.mark_sums for r in reals], axis=1), np.zeros((3, N)), cfg.dt, cfg,
        model, coeff, measure, Cutoff())
    assert [rep.iterations_used for rep in reports] == [1, 1, 1]
    assert np.isfinite(states[[0, 2]]).all()


# ---------------------------------------------------------------------------
# the batched ensemble solve against the sequential reference

NSE_REL_TOL = 1e-13    # the nse2d transforms of a row batch, as in the model contract


def _ensemble_setup(name, n_paths, seed=41, **solver):
    """A model with live convection (zero_b: the dyadic basis with none), its
    coefficients, noises, u0 and config."""
    from levyflow.nse2d import Nse2dParams, nse2d_model

    if name in ("dyadic", "zero_b"):
        model = dyadic_model(DyadicShellParams(n_modes=12, k0=2.0, visc=1.0))
        if name == "zero_b":
            model = zero_b_model(model.basis)
        dt, steps, window = 0.005, 120, 0.1
        measure = compound_gaussian(rate=20.0, mean=0.0, sd=0.6)
    else:
        model = nse2d_model(Nse2dParams(modes_per_axis=3, visc=0.5))
        dt, steps, window = 0.002, 60, 0.04
        measure = compound_gaussian(rate=5.0, mean=0.0, sd=0.4)
    dim = model.basis.dim
    wiener = WienerDriverSpec(dim)
    coeff = build_coefficients(family("diagonal", dim, sigma=0.4),
                               family("additive", dim, sigma=0.3), measure,
                               model.basis, 1.0, wiener)
    cfg = SolverConfig(**{"horizon": steps * dt, "dt": dt, "window": window,
                          "budget": 0.5, "level": 8.0, **solver})
    reals = [sample_realization(0.0, steps, dt, measure, wiener, int(s))
             for s in np.random.SeedSequence(seed).generate_state(n_paths, np.uint64)]
    u0 = np.zeros(dim)
    u0[:4] = [1.2, 0.8, 0.5, 0.3]
    return model, coeff, measure, reals, u0, cfg


def _facts(out):
    """What must be equal between two solves of one path."""
    if isinstance(out, Exception):
        return type(out).__name__, str(out)
    return out.stop_times, out.level_final, out.blowup_flag


def _assert_matches_reference(name, n_paths=6, seed=41, **solver):
    return _assert_solves_as_the_reference(*_ensemble_setup(name, n_paths, seed, **solver))


def _assert_solves_as_the_reference(model, coeff, measure, reals, u0, cfg):
    outs = ensemble_solve(reals, cfg, model, coeff, measure, u0)
    refs = []
    for real in reals:
        try:
            refs.append(reference_solver.global_solve(real, cfg, model, coeff, measure, u0))
        except RuntimeError as exc:
            refs.append(exc)
    assert [_facts(o) for o in outs] == [_facts(r) for r in refs]
    for out, ref in zip(outs, refs):
        if not isinstance(ref, Exception):
            # each grid row against its own largest entry, so that a kicked
            # path's late rows give no slack to its early ones
            a, b = out.trajectory.states, ref.trajectory.states
            assert (np.abs(a - b).max(axis=1) <= 1e-9 * np.abs(b).max(axis=1)).all()
    return outs


@pytest.mark.parametrize("name", ("dyadic", "nse2d"))
def test_ensemble_matches_the_sequential_reference(name):
    outs = _assert_matches_reference(name)
    assert all(out.level_final == 8.0 and not out.blowup_flag for out in outs)


def test_ensemble_grows_the_level_of_some_rows_in_lockstep():
    # |u0| is 1.556; about a quarter of the paths pass 1.6
    outs = _assert_matches_reference("dyadic", n_paths=12, level=1.6)
    levels = [out.level_final for out in outs]
    assert 1.6 in levels and 3.2 in levels


def test_ensemble_rows_at_the_level_cap(guards):
    guards(max_levels=1)
    outs = _assert_matches_reference("dyadic", n_paths=12, level=1.6)
    capped = [out for out in outs if out.blowup_flag]
    assert 0 < len(capped) < len(outs)
    for out in capped:
        assert np.linalg.norm(out.trajectory.states[-1]) >= 1.6


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_ensemble_isolates_a_nonfinite_row_and_a_blowup_row(monkeypatch, guards):
    # one direct block of five rows on the model of _kicked_setup, from
    # u0 = 0 and with additive noise alone: row 0 runs to the horizon on
    # small noise; row 1 is kicked to 10^151.5 in mode 8, where B(e_8, e_8)
    # is 0, past the level but below twice it, and re-runs at the grown
    # level; row 2 has a NaN increment; row 3 is held at 10^151.3 in mode 8,
    # below the level, and its increments of about 10^305 pass the ceiling;
    # row 4 is _kicked_setup's, which crosses every level and on the last
    # attempt, at _kicked_setup's level, overflows past its crossing.  Each
    # level attempt is one direct block of the rows still open.
    guards(max_levels=8, budget_ceiling=1e306)
    model, coeff, measure, (kicked, quiet), _, cfg = _kicked_setup([40, None], steps=64)
    cfg = replace(cfg, level=cfg.level / 2 ** 7)
    grow = 1.0 + cfg.dt * model.basis.eigenvalues[N - 1]   # a step's decay in mode 8
    wiener = np.zeros((5, cfg.n_steps, N))
    wiener[0] = 0.3 * np.sqrt(cfg.dt) * np.random.default_rng(3).normal(size=(cfg.n_steps, N))
    wiener[1, 10, N - 1] = 10.0 ** 151.5 * grow
    wiener[2] = wiener[0]
    wiener[2, 5, 0] = np.nan
    wiener[3, :, N - 1] = 10.0 ** 151.3 * (grow - 1.0)
    reals = [replace(quiet, wiener=w) for w in wiener[:4]] + [kicked]
    blocks = []
    real_direct = solver._direct

    def direct(*args, **kwargs):
        blocks.append(len(args[2]))
        return real_direct(*args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(solver, "_direct", direct)
        ensemble_solve(reals, cfg, model, coeff, measure, np.zeros(N))
    assert blocks == [5, 2] + [1] * 6
    outs = _assert_solves_as_the_reference(model, coeff, measure, reals, np.zeros(N), cfg)
    assert [type(out).__name__ for out in outs] == [
        "SolveOutcome", "SolveOutcome", "NonFiniteStateError", "BlowupError", "SolveOutcome"]
    assert [(out.level_final / cfg.level, out.blowup_flag) for out in outs[0:2] + outs[4:]] \
        == [(1, False), (2, False), (2 ** 7, True)]
    assert str(outs[2]) == "non-finite state at grid index 6"
    assert str(outs[3]) == ("dissipation integral passed the ceiling (1.04e+306 > 1e+306); "
                            "treating the path as blown up")


def _windows_alone(inc, stop, cfg):
    """The windows of one row, cut one at a time: the rule that
    concatenate_windows applies to a block of rows."""
    s, windows = 0, []
    while s < len(inc) and s < stop:
        steps = min(cfg.window_steps, len(inc) - s)
        sums = np.cumsum(inc[s:s + steps])
        trig = np.flatnonzero(sums >= cfg.budget * cfg.budget)
        cut = int(trig[0]) + 1 if trig.size else steps
        windows.append((s, steps, cut, sums[cut - 1]))
        s += cut
    return windows


def test_block_windows_match_each_row_cut_alone():
    cfg = SolverConfig(horizon=0.5, dt=0.01, window=0.08, budget=0.5)
    n, width = cfg.n_steps, cfg.window_steps
    inc = np.random.default_rng(5).uniform(0.0, 0.07, (6, n))
    stop = np.full(6, n + 1)     # n + 1: the row never crosses
    stop[1] = 9                  # crosses its level mid-window
    inc[2, 20], inc[2, 31] = np.nan, np.inf   # holds non-finite states
    inc[3] = 1e-4                # never cut, so its last window ends at the horizon
    inc[4, 0] = 1.0              # cut at its first step
    stop[5] = 0                  # crosses at index 0
    start, steps, cut, xi = solver.concatenate_windows(inc, stop, cfg)
    for r in range(6):
        alone = _windows_alone(inc[r], stop[r], cfg)
        k = len(alone)
        assert (steps[r, k:] == 0).all()
        block = list(zip(start[r, :k].tolist(), steps[r, :k].tolist(), cut[r, :k].tolist()))
        assert block == [w[:3] for w in alone]
        assert xi[r, :k].tobytes() == np.array([w[3] for w in alone]).tobytes()
    # each row shows what it is there for
    assert start[1, 1] < stop[1] < start[1, 1] + cut[1, 1] and steps[1, 2] == 0
    last = np.flatnonzero(steps[3])[-1]
    assert start[3, last] + steps[3, last] == n and steps[3, last] < width
    assert cut[4, 0] == 1 and not steps[5].any()
    assert np.isnan(xi[2]).any() and np.isinf(xi[2]).any()


@pytest.mark.parametrize("cut", (True, False), ids=("cut", "uncut"))
@pytest.mark.parametrize("name", ("dyadic", "nse2d", "zero_b"))
def test_a_window_plan_is_its_fixed_point_up_to_the_cut(name, cut):
    # the scheme is causal and the budget factor is exactly 1 before a
    # window's cut, so one sweep advected by a window's plan (its direct
    # states from its start at the path's level) gives the plan back up to
    # the cut: bit for bit on dyadic and zero_b, and on nse2d up to the
    # roundoff of the batched transforms.  So ensemble_solve takes each
    # window at its plan, and the path is the direct scheme at its level.
    # (with a budget of 1e6, spent by no window, each is cut at its last step)
    budget = (0.15 if name == "nse2d" else 0.5) if cut else 1e6
    model, coeff, measure, reals, u0, cfg = _ensemble_setup(name, 4, budget=budget)
    outs = ensemble_solve(reals, cfg, model, coeff, measure, u0)
    width, dim = cfg.window_steps, model.basis.dim

    def assert_alike(a, b, scale):
        if name == "nse2d":
            assert np.abs(a - b).max() <= NSE_REL_TOL * scale
        else:
            assert a.tobytes() == b.tobytes()

    for out, real in zip(outs, reals):
        states = out.trajectory.states
        scale = np.abs(states).max()
        cuts = [round(t / cfg.dt) for t in out.stop_times]
        for s, end in zip([0] + cuts, cuts):
            steps = min(width, cfg.n_steps - s)
            window = reference_solver.slice_steps(real, s, steps)
            plan = baseline_direct(window, cfg, model, coeff, measure, states[s],
                                   level=out.level_final)
            swept = solver.solve_linearized(
                plan.states[None], plan.xi_sq[None],
                states[s][None], window.wiener[:, None], window.mark_sums[:, None],
                cfg.dt, cfg, model, coeff, measure,
                Cutoff(out.level_final, cfg.budget))
            kept = plan.states[:end - s + 1]
            assert_alike(swept[0, :end - s + 1], kept, scale)
            assert_alike(states[s:end + 1], kept, scale)
        direct = baseline_direct(real, cfg, model, coeff, measure, u0, level=out.level_final)
        assert_alike(states, direct.states, scale)
        if cut:
            assert len(cuts) > cfg.n_steps // width
        else:
            assert cuts == list(range(width, cfg.n_steps + 1, width))
    _assert_sums_are_the_paths_own(outs)


def _assert_sums_are_the_paths_own(outs):
    """Each solved path's dissipation sums, the running sum of the increments
    its windows were cut on, are those of its states summed as one path, bit
    for bit."""
    for out in outs:
        if not isinstance(out, Exception):
            path = out.trajectory
            own = PathSegment.from_states(path.basis, path.t0, path.dt, path.states)
            assert path.xi_sq.tobytes() == own.xi_sq.tobytes()


@pytest.mark.parametrize("name", ("dyadic", "nse2d"))
def test_a_path_alone_solves_as_in_a_batch_of_36(name):
    model, coeff, measure, reals, u0, cfg = _ensemble_setup(
        name, 36, seed=43, level=1.6 if name == "dyadic" else 1.7)
    batch = ensemble_solve(reals, cfg, model, coeff, measure, u0)
    assert len({out.level_final for out in batch}) > 1
    _assert_sums_are_the_paths_own(batch)
    for i in (0, 17, 35):
        alone = ensemble_solve(reals[i:i + 1], cfg, model, coeff, measure, u0)[0]
        _assert_sums_are_the_paths_own([alone])
        assert _facts(alone) == _facts(batch[i])
        a, b = alone.trajectory.states, batch[i].trajectory.states
        if name == "dyadic":
            assert a.tobytes() == b.tobytes()
        else:
            assert np.abs(a - b).max() <= NSE_REL_TOL * np.abs(b).max()


def test_a_capped_path_sums_its_own_states_alone_and_in_a_batch():
    # the dyadic demo at u0 = 7e78 in mode 6 and level 3e153: on the last
    # level attempt the direct plan of every path overflows past its
    # crossing, and the path ends level_cap at the crossing, its states all
    # finite and below the level before it
    demo = Path(__file__).parent.parent / "demos" / "configs" / "dyadic_gradient.ini"
    _, setup = load_config(demo.read_text(), ["model.u0=e6:7e78", "solver.level=3e153"])
    reals = sample_ensemble(setup.solver.n_steps, setup.solver.dt, setup.measure,
                            setup.wiener, 3, 3)
    # the norm of the state at the crossing overflows
    with np.errstate(over="ignore", invalid="ignore"):
        outs = [out for batch in (reals, reals[:1])
                for out in ensemble_solve(batch, setup.solver, setup.model, setup.coeff,
                                          setup.measure, setup.u0)]
        norms = [h_norm_rows(out.trajectory.states) for out in outs]
    for out, norm in zip(outs, norms):
        assert out.blowup_flag and np.isfinite(out.trajectory.states).all()
        assert (norm[:-1] < out.level_final).all() and norm[-1] >= out.level_final
    assert _facts(outs[3]) == _facts(outs[0])
    assert outs[3].trajectory.states.tobytes() == outs[0].trajectory.states.tobytes()
    _assert_sums_are_the_paths_own(outs)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("kicks", ([40, 20, 30, 10, 44], [40], [40, 44], [40, 20, None]),
                         ids=("five", "one", "two", "two-and-quiet"))
@pytest.mark.parametrize("budget", (10.0, 0.03))
@pytest.mark.parametrize("max_levels", (1, 12))
def test_five_kicked_paths_solve_as_the_reference(guards, kicks, budget, max_levels):
    # paths kicked at different steps overflow past their crossings, where
    # the reference iterates (and may halve) the windows from zero, and
    # ensemble_solve keeps no state; at a budget of 0.03 the budget cuts the
    # windows short, so a path passes 6 to 10 cuts before its crossing
    guards(max_levels=max_levels)
    model, coeff, measure, reals, u0, cfg = _kicked_setup(kicks, steps=64)
    _assert_solves_as_the_reference(model, coeff, measure, reals, u0,
                                    replace(cfg, budget=budget))


@pytest.mark.parametrize("name", ("horizon", "dt", "window", "budget", "level"))
def test_solver_config_rejects_nan(name):
    with pytest.raises(ValueError, match=name):
        SolverConfig(**{name: float("nan")})
