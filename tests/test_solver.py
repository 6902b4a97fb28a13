import re
from dataclasses import replace

import numpy as np
import pytest

import reference_solver
from reference_solver import solve_linearized

from levyflow import (BlowupError, Cutoff, DyadicShellParams,
                      PicardDivergenceError, SolverConfig, WienerDriverSpec,
                      baseline_direct, build_coefficients, compound_gaussian,
                      cross_term_series, dyadic_model, ensemble_solve, family,
                      global_solve, linear_step, no_jumps, picard_local,
                      sample_realization, step_factors, zero_b_model)
from levyflow import solver
from levyflow.noise import NoiseRealization
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
    out = linear_step(y, np.zeros(N), 0.01, coeff, measure, np.zeros(0), 0.0,
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
    out = linear_step(y, np.zeros(N), dt, coeff, measure, np.zeros(0), z, factors)
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


def test_picard_divergence_error(model, guards):
    measure = compound_gaussian(rate=5.0, mean=0.0, sd=0.4)
    wiener = WienerDriverSpec(N)
    coeff = _coeff(model, g=family("diagonal", N, sigma=0.3),
                   psi=family("diagonal", N, sigma=0.3),
                   measure=measure, wiener=wiener)
    guards(tol_picard=0.0, max_picard=2)
    # the budget cuts the window before its end, so the tail past the cut,
    # where the budget factor falls below 1, is not the direct plan and the
    # planned window moves in every sweep; its halvings iterate from zero
    cfg = SolverConfig(horizon=0.05, dt=0.005, level=5.0, budget=0.2)
    noise = sample_realization(0.0, 10, 0.005, measure, wiener, seed=9)
    with pytest.raises(PicardDivergenceError):
        global_solve(noise, cfg, model, coeff, measure, _e(0))


def test_picard_divergence_reports_the_last_window_tried(model, guards):
    # a 64-step window is tried at 64, 32, 16, 8 and 4 steps
    measure = compound_gaussian(rate=5.0, mean=0.0, sd=0.4)
    wiener = WienerDriverSpec(N)
    coeff = _coeff(model, g=family("diagonal", N, sigma=0.3),
                   psi=family("diagonal", N, sigma=0.3),
                   measure=measure, wiener=wiener)
    guards(tol_picard=0.0, max_picard=2)
    cfg = SolverConfig(horizon=0.32, dt=0.005, window=0.32, level=5.0)
    assert cfg.window_steps == 64
    noise = sample_realization(0.0, 64, 0.005, measure, wiener, seed=9)
    with pytest.raises(PicardDivergenceError, match="even at 4 steps"):
        global_solve(noise, cfg, model, coeff, measure, _e(0))


def test_single_window_pure_decay(model, quiet):
    measure, _ = quiet
    coeff = _coeff(model)
    cfg = SolverConfig(horizon=0.2, dt=0.01, window=0.2, budget=5.0, level=5.0)
    noise = _empty_noise(20, 0.01)
    out = global_solve(noise, cfg, model, coeff, measure, _e(0, 0.5))
    assert not out.blowup_flag and out.level_final == 5.0
    assert out.stop_times == [pytest.approx(0.2)]
    assert len(out.window_reports) == 1
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


def test_a_window_whose_plan_is_not_finite_iterates_from_zero(monkeypatch, quiet, guards):
    # on the last level attempt the windows reach the crossing at index 13,
    # and a NaN Wiener increment in step 13 leaves the direct states of the
    # last window past it not finite: that window iterates from zero, and
    # meets the NaN itself
    measure, _ = quiet
    basis = SpectralBasis(np.arange(1.0, N + 1.0))
    model = zero_b_model(basis)
    wiener = WienerDriverSpec(N)
    coeff = build_coefficients(family("none", N), family("none", N), measure, basis,
                               1.0, wiener, forcing=np.full(N, 5.0))
    noise, u0, k = _empty_noise(20, 0.01, dims=N), np.zeros(N), 13
    cfg = SolverConfig(horizon=0.2, dt=0.01, window=0.05, budget=10.0)
    capped = replace(cfg, level=h_norm(baseline_direct(noise, cfg, model, coeff, measure,
                                                       u0).states[k]))
    wiener_nan = noise.wiener.copy()
    wiener_nan[k, 0] = np.nan
    noise = replace(noise, wiener=wiener_nan)
    starts = []
    real_lanes = solver._picard_lanes

    def recorded(*args, start=None, **kwargs):
        starts.extend(None if path is None else path.copy() for path in start)
        return real_lanes(*args, start=start, **kwargs)

    monkeypatch.setattr(solver, "_picard_lanes", recorded)
    guards(max_levels=1)
    for solve in (global_solve, reference_solver.global_solve):
        with pytest.raises(NonFiniteStateError, match=f"grid index {k + 1}$"):
            solve(noise, capped, model, coeff, measure, u0)
    assert len(starts) == 3 and starts[2] is None
    assert all(np.isfinite(path).all() for path in starts[:2])


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


# the ids name the sweep, the direct linearized solve, and keep the test ids
# stable
@pytest.mark.parametrize("name", ("dyadic", "nse2d"),
                         ids=("dyadic-direct", "nse2d-direct"))
def test_picard_cross_integrals_match_the_reference_series(name):
    # the Picard loop pairs the convection rows its sweeps applied; driving
    # the iterates by hand and evaluating the trilinear form afresh must
    # give the same cross integrals
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
    ref = np.array([noise.dt * cross_term_series(*iterates[i:i + 3], model, cut)[:-1].sum()
                    for i in range(len(iterates) - 2)])

    path, rep = picard_local(noise, cfg, model, coeff, measure, cut, u0, force_n=5)
    assert np.array_equal(path.states, iterates[-1].states)
    out = np.array(rep.cross_integrals)
    assert out.shape == ref.shape
    assert np.all(ref != 0.0)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_picard_without_budget_counts_every_row():
    # a cutoff without a budget caps nothing: the budget integral is the
    # plain two-iterate energy integral
    model, coeff, measure, noise, u0, _ = _cross_setup("dyadic")
    cfg = SolverConfig(horizon=0.1, dt=noise.dt)
    cut = Cutoff(level=8.0)
    path, rep = picard_local(noise, cfg, model, coeff, measure, cut, u0, force_n=3)
    iterates = [PathSegment.from_states(model.basis, 0.0, noise.dt,
                                        np.zeros((noise.n_steps + 1, model.basis.dim)))]
    for _ in range(2):
        iterates.append(solve_linearized(iterates[-1], noise, cfg, model, coeff,
                                         measure, cut, u0)[0])
    plain = [noise.dt * (v_norm_sq_rows(a.states, model.basis)
                         + v_norm_sq_rows(b.states, model.basis))[:-1].sum()
             for a, b in zip(iterates[:-1], iterates[1:])]
    assert len(rep.budget_integrals) == 2 and len(rep.cross_integrals) == 2
    assert rep.budget_integrals == pytest.approx(plain, rel=1e-14)


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


# ---------------------------------------------------------------------------
# the batched ensemble solve against the sequential reference

NSE_REL_TOL = 1e-13    # the nse2d transforms of a row batch, as in the model contract


def _ensemble_setup(name, n_paths, seed=41, **solver):
    """A model with live convection, its coefficients, noises, u0 and config."""
    from levyflow.nse2d import Nse2dParams, nse2d_model

    if name == "dyadic":
        model = dyadic_model(DyadicShellParams(n_modes=12, k0=2.0, visc=1.0))
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
    return (out.stop_times, out.level_final, out.blowup_flag,
            [(r.iterations_used, r.converged) for r in out.window_reports])


def _assert_matches_reference(name, n_paths=6, seed=41, **solver):
    model, coeff, measure, reals, u0, cfg = _ensemble_setup(name, n_paths, seed, **solver)
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
            a, b = out.trajectory.states, ref.trajectory.states
            assert np.abs(a - b).max() <= 1e-9 * np.abs(b).max()
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


def test_lanes_of_two_levels_share_a_picard_batch(monkeypatch, guards):
    # with 4 sweeps some windows at 1.6 fail to contract and are retried in
    # the round that re-runs the grown paths at 3.2: one batch holds both
    # levels, each lane cut off at its own
    batch_levels = []
    real_lanes = solver._picard_lanes

    def recorded(*args, **kwargs):
        batch_levels.append(set(np.ravel(args[9].level).tolist()))
        return real_lanes(*args, **kwargs)

    monkeypatch.setattr(solver, "_picard_lanes", recorded)
    guards(max_picard=4)
    outs = _assert_matches_reference("dyadic", n_paths=12, level=1.6)
    assert {out.level_final for out in outs} == {1.6, 3.2}
    assert {1.6, 3.2} in batch_levels


def test_ensemble_halves_the_windows_the_reference_halves(monkeypatch, guards):
    failed = []
    real_picard = reference_solver.picard_local

    def counted(*args, **kwargs):
        path, rep = real_picard(*args, **kwargs)
        failed.append(not rep.converged)
        return path, rep

    monkeypatch.setattr(reference_solver, "picard_local", counted)
    guards(max_picard=4)
    _assert_matches_reference("dyadic", n_paths=2)
    assert any(failed)


def test_ensemble_rows_at_the_level_cap(guards):
    guards(max_levels=1)
    outs = _assert_matches_reference("dyadic", n_paths=12, level=1.6)
    capped = [out for out in outs if out.blowup_flag]
    assert 0 < len(capped) < len(outs)
    for out in capped:
        assert np.linalg.norm(out.trajectory.states[-1]) >= 1.6


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_ensemble_isolates_a_nonfinite_row_and_a_blowup_row(guards):
    guards(budget_ceiling=30.0)
    model, coeff, measure, reals, u0, cfg = _ensemble_setup("dyadic", 4, level=1e300)

    # a NaN Wiener increment in step 5 of path 1, a jump of mark 12 in
    # step 2 of path 2
    wiener = reals[1].wiener.copy()
    wiener[5, 0] = np.nan
    r = reals[1]
    reals[1] = NoiseRealization(r.t0, r.dt, wiener, r.jump_times, r.jump_marks,
                                r.jump_steps, r.seed)
    r = reals[2]
    steps = np.append(r.jump_steps, 2)
    order = np.argsort(steps, kind="stable")
    reals[2] = NoiseRealization(r.t0, r.dt, r.wiener,
                                np.append(r.jump_times, 2.5 * r.dt)[order],
                                np.append(r.jump_marks, 12.0)[order], steps[order],
                                r.seed)
    outs = ensemble_solve(reals, cfg, model, coeff, measure, u0)
    assert isinstance(outs[1], NonFiniteStateError)
    assert isinstance(outs[2], BlowupError)
    for i in (1, 2):
        with pytest.raises(type(outs[i]), match=f"^{re.escape(str(outs[i]))}$"):
            reference_solver.global_solve(reals[i], cfg, model, coeff, measure, u0)
    for i in (0, 3):
        ref = reference_solver.global_solve(reals[i], cfg, model, coeff, measure, u0)
        assert _facts(outs[i]) == _facts(ref)
        assert np.abs(outs[i].trajectory.states - ref.trajectory.states).max() \
            <= 1e-9 * np.abs(ref.trajectory.states).max()


@pytest.mark.parametrize("name", ("dyadic", "nse2d"))
def test_a_window_cut_at_its_last_step_starts_at_its_fixed_point(name):
    # no window spends a budget this large, so each is cut at its last step;
    # up to its cut a window's fixed point is the direct scheme, its plan,
    # so its first sweep reproduces the plan (on nse2d, up to the roundoff
    # of the batched transforms) and the path is the direct scheme
    model, coeff, measure, reals, u0, cfg = _ensemble_setup(name, 4, budget=1e6)
    outs = ensemble_solve(reals, cfg, model, coeff, measure, u0)
    width = cfg.window_steps
    for out, real in zip(outs, reals):
        assert out.stop_times == pytest.approx(
            [k * cfg.dt for k in range(width, cfg.n_steps + 1, width)])
        direct = baseline_direct(real, cfg, model, coeff, measure, u0,
                                 level=out.level_final)
        scale = np.abs(direct.states).max()
        for rep in out.window_reports:
            assert (rep.iterations_used, rep.converged) == (1, True)
            assert rep.cross_integrals == rep.budget_integrals == []
            if name == "dyadic":
                assert rep.sup_increments == rep.xi_increments == [0.0]
            else:
                assert rep.sup_increments[0] <= NSE_REL_TOL * scale
                assert rep.xi_increments[0] <= NSE_REL_TOL * scale
        if name == "dyadic":
            assert out.trajectory.states.tobytes() == direct.states.tobytes()
        else:
            assert np.abs(out.trajectory.states - direct.states).max() <= NSE_REL_TOL * scale


@pytest.mark.parametrize("name", ("dyadic", "nse2d"))
def test_a_path_alone_solves_as_in_a_batch_of_36(name):
    model, coeff, measure, reals, u0, cfg = _ensemble_setup(
        name, 36, seed=43, level=1.6 if name == "dyadic" else 1.7)
    batch = ensemble_solve(reals, cfg, model, coeff, measure, u0)
    assert len({out.level_final for out in batch}) > 1
    for i in (0, 17, 35):
        alone = ensemble_solve(reals[i:i + 1], cfg, model, coeff, measure, u0)[0]
        assert _facts(alone) == _facts(batch[i])
        a, b = alone.trajectory.states, batch[i].trajectory.states
        if name == "dyadic":
            assert a.tobytes() == b.tobytes()
            assert [vars(r) for r in alone.window_reports] == \
                [vars(r) for r in batch[i].window_reports]
        else:
            assert np.abs(a - b).max() <= NSE_REL_TOL * np.abs(b).max()


@pytest.mark.parametrize("lanes", (1, 3))
def test_picard_blocks_of_any_size_solve_alike(monkeypatch, lanes):
    # the mixed-level ensemble above, cut into Picard blocks of 1 or 3 lanes
    model, coeff, measure, reals, u0, cfg = _ensemble_setup("dyadic", 36, seed=43,
                                                            level=1.6)
    whole = ensemble_solve(reals, cfg, model, coeff, measure, u0)
    lane_bytes = 8 * (cfg.window_steps + 1) * model.basis.dim
    monkeypatch.setattr(solver, "_BLOCK_BYTES", lanes * lane_bytes)
    blocks = ensemble_solve(reals, cfg, model, coeff, measure, u0)
    assert len({out.level_final for out in whole}) > 1
    for a, b in zip(blocks, whole):
        assert _facts(a) == _facts(b)
        assert a.trajectory.states.tobytes() == b.trajectory.states.tobytes()
        assert [vars(r) for r in a.window_reports] == [vars(r) for r in b.window_reports]


@pytest.mark.parametrize("name", ("horizon", "dt", "window", "budget", "level"))
def test_solver_config_rejects_nan(name):
    with pytest.raises(ValueError, match=name):
        SolverConfig(**{name: float("nan")})
