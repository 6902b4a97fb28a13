from dataclasses import dataclass

import numpy as np
import pytest

from levyflow import (Cutoff, DyadicShellParams, ModelSpec, PathSegment,
                      SolverConfig, WienerDriverSpec, baseline_direct,
                      build_coefficients, compound_gaussian, contraction_report,
                      cross_term_series, dyadic_model, energy_ledger, family,
                      gronwall_bounds, moment_bound_report, no_jumps, path_seeds,
                      picard_local, sample_realization, zero_b_model)
from levyflow.diagnostics import _capped, budget_indicator_integral
from levyflow.noise import NoiseRealization
from levyflow.spaces import SpectralBasis, v_norm_sq_rows

N = 8


@pytest.fixture
def model():
    return dyadic_model(DyadicShellParams(n_modes=N, k0=2.0, visc=1.0))


def _coeff(model, g=None, psi=None, measure=None, wiener=None, forcing=None,
           visc=1.0):
    measure = measure if measure is not None else no_jumps()
    wiener = wiener if wiener is not None else WienerDriverSpec(0)
    g = g if g is not None else family("none", N)
    psi = psi if psi is not None else family("none", N)
    return build_coefficients(g, psi, measure, model.basis, visc, wiener, forcing)


def _empty_noise(n_steps, dt, dims=0):
    return NoiseRealization(t0=0.0, dt=dt, wiener=np.zeros((n_steps, dims)),
                            jump_times=np.zeros(0), jump_marks=np.zeros(0),
                            jump_steps=np.zeros(0, dtype=int), seed=0)


def _e(i, amp=1.0):
    v = np.zeros(N)
    v[i] = amp
    return v


# ---------------------------------------------------------------------------
# energy ledger


def test_ledger_deterministic_identity(model):
    coeff = _coeff(model)
    dt = 0.01
    cfg = SolverConfig(horizon=0.2, dt=dt)
    noise = _empty_noise(20, dt)
    path = baseline_direct(noise, cfg, model, coeff, no_jumps(), _e(0, 1.0))
    led = energy_ledger(path, noise, model, coeff, no_jumps())
    assert np.all(led.forcing == 0.0)
    assert np.all(led.wiener_mart == 0.0)
    assert np.all(led.jump_quad == 0.0)
    # per step the residual is second order in dt
    lam_max = model.basis.eigenvalues[-1]
    scale = dt * dt * float(np.max(np.einsum("ij,ij->i", path.states, path.states)))
    assert np.abs(led.residual).max() <= 3.0 * scale * lam_max


def test_ledger_completeness_per_step(model):
    measure = compound_gaussian(rate=6.0, mean=0.1, sd=0.4)
    wiener = WienerDriverSpec(N)
    coeff = _coeff(model, g=family("diagonal", N, sigma=0.3),
                   psi=family("diagonal", N, sigma=0.3),
                   measure=measure, wiener=wiener, forcing=_e(0, 0.2))
    cfg = SolverConfig(horizon=0.2, dt=0.005)
    noise = sample_realization(0.0, 40, 0.005, measure, wiener, seed=1)
    path = baseline_direct(noise, cfg, model, coeff, measure, _e(0))
    led = energy_ledger(path, noise, model, coeff, measure)
    h_sq = np.einsum("ij,ij->i", path.states, path.states)
    recon = (-led.dissipation + led.forcing + led.wiener_mart + led.jump_mart
             + led.jump_quad + led.wiener_quad + led.residual)
    assert np.allclose(recon, np.diff(h_sq), rtol=0, atol=1e-15)


def test_ledger_jump_quad_recomputation(model):
    # additive jumps only: the quadratic jump column equals sum |sigma z|^2
    measure = compound_gaussian(rate=8.0, mean=0.0, sd=0.5)
    coeff = _coeff(model, g=family("additive", N, sigma=0.4), measure=measure)
    cfg = SolverConfig(horizon=0.25, dt=0.005)
    noise = sample_realization(0.0, 50, 0.005, measure, WienerDriverSpec(0), seed=2)
    path = baseline_direct(noise, cfg, model, coeff, measure, _e(0))
    led = energy_ledger(path, noise, model, coeff, measure)
    per_jump = (0.4 ** 2) * N  # |sigma * z|^2 = z^2 sum sigma_j^2
    expected = np.zeros(50)
    for t, z, k in zip(noise.jump_times, noise.jump_marks, noise.jump_steps):
        expected[k] += per_jump * z * z
    assert np.allclose(led.jump_quad, expected, rtol=1e-13, atol=1e-15)


def test_ledger_residual_halves_with_dt(model):
    coeff = _coeff(model)
    u0 = np.array([1.0, 0.6, 0.3, 0.1, 0.0, 0.0, 0.0, 0.0])
    sums = {}
    for n in (50, 100):
        dt = 0.5 / n
        cfg = SolverConfig(horizon=0.5, dt=dt)
        noise = _empty_noise(n, dt)
        path = baseline_direct(noise, cfg, model, coeff, no_jumps(), u0)
        led = energy_ledger(path, noise, model, coeff, no_jumps())
        sums[n] = led.residual_abs
    ratio = sums[50] / sums[100]
    assert abs(ratio - 2.0) <= 0.4


# ---------------------------------------------------------------------------
# moment bound


def test_moment_bound_zero_noise(model):
    coeff = _coeff(model)
    cfg = SolverConfig(horizon=0.5, dt=0.01)
    noise = _empty_noise(50, 0.01)
    paths = [baseline_direct(noise, cfg, model, coeff, no_jumps(), _e(0))
             for _ in range(30)]
    rep = moment_bound_report(paths, coeff, model.basis, 1.0, 0.5)
    assert rep.ok
    assert rep.bound_sup == 1.0
    assert rep.sup_mean_h_sq <= 1.0


def test_moment_bound_additive_growth(model):
    # L3-only noise from zero data: E|u(t)|^2 <= L3 t
    measure = compound_gaussian(rate=5.0, mean=0.0, sd=0.5)
    coeff = _coeff(model, g=family("additive", N, sigma=0.3), measure=measure)
    assert coeff.l3 > 0 and coeff.l4 == 0 and coeff.l5 == 0
    cfg = SolverConfig(horizon=0.5, dt=0.01)
    paths = []
    for s in path_seeds(3, 60):
        noise = sample_realization(0.0, 50, 0.01, measure, WienerDriverSpec(0), int(s))
        paths.append(baseline_direct(noise, cfg, model, coeff, measure, np.zeros(N)))
    rep = moment_bound_report(paths, coeff, model.basis, 0.0, 0.5)
    assert rep.bound_sup == pytest.approx(coeff.l3 * 0.5, rel=1e-12)
    assert rep.ok


def test_gronwall_bound_monotone_in_constants(model):
    coeff = _coeff(model, forcing=_e(0, 0.1))
    base_sup, base_xi = gronwall_bounds(coeff, model.basis, 1.0, 1.0)
    import dataclasses
    for name in ("l3", "l4", "l5"):
        bumped = dataclasses.replace(coeff, **{name: getattr(coeff, name) + 0.5})
        b_sup, b_xi = gronwall_bounds(bumped, model.basis, 1.0, 1.0)
        assert b_sup >= base_sup
        assert b_xi >= base_xi


# ---------------------------------------------------------------------------
# capped quantities

# The budget-cap bound and the cross-term envelope of the iteration
# argument: only these checks run them, so they live beside the checks.


def _require_budget(cutoff: Cutoff, what: str) -> None:
    if cutoff.budget is None:
        raise ValueError(f"{what} needs a cutoff with a dissipation budget; "
                         "got budget=None")


@dataclass(frozen=True)
class BudgetCapReport:
    integral: float
    bound: float
    overshoot: float

    @property
    def ok(self) -> bool:
        return self.integral <= self.bound


def budget_cap_report(prev: PathSegment, cur: PathSegment,
                      cutoff: Cutoff) -> BudgetCapReport:
    """Check the capped integral against 18 budget^2 plus step overshoot."""
    _require_budget(cutoff, "budget_cap_report")
    basis = cur.basis
    integral = budget_indicator_integral(prev, cur, cutoff)
    over = cur.dt * max(float(v_norm_sq_rows(prev.states, basis).max()),
                        float(v_norm_sq_rows(cur.states, basis).max()))
    bound = 18.0 * cutoff.budget ** 2 + 2.0 * over
    return BudgetCapReport(integral=integral, bound=float(bound), overshoot=float(over))


def cross_term_envelope(prev: PathSegment, cur: PathSegment, nxt: PathSegment,
                        model: ModelSpec, cutoff: Cutoff, eps: float,
                        p: float, c_const: float) -> np.ndarray:
    """Upper envelope for the cross term with a calibrated constant.

    Mirrors the a-priori bound structure: V-norm increments of both
    iterate differences, budget-capped energies weighted by the running
    squared increment, and a level/budget-dependent coefficient on the
    newest squared increment.
    """
    _require_budget(cutoff, "cross_term_envelope")
    basis = cur.basis
    m = cutoff.level if cutoff.level is not None else 0.0
    delta = cutoff.budget
    d0 = cur.states - prev.states
    d1 = nxt.states - cur.states
    d0_h = np.einsum("ij,ij->i", d0, d0)
    d1_h = np.einsum("ij,ij->i", d1, d1)
    d0_v = (d0 * d0) @ basis.eigenvalues
    d1_v = (d1 * d1) @ basis.eigenvalues
    # running squared dissipation norm of the difference, left rule
    d0_xi = np.cumsum(np.concatenate([[0.0], cur.dt * d0_v[:-1]]))
    capped = _capped(prev, cutoff) + _capped(cur, cutoff)
    weight = (1.0 + (m + 2.0) ** 2 + (m + 2.0) ** 2 / delta
              + (m + 1.0) ** 2 * delta ** (-4.0 * p)
              + (m + 1.0) ** 2 * eps ** 3 * delta ** (-4.0 * p)) / eps ** 3
    env = (7.0 * eps * d1_v
           + (2.0 * eps + delta ** (2.0 * p) / np.sqrt(eps)) * d0_v
           + c_const * (eps / delta ** 1.5 + delta ** (2.0 * p - 2.0) / np.sqrt(eps)
                        + eps * delta ** (2.0 * (p - 1.0))) * d0_xi * capped
           + 3.0 * eps * d0_h * capped
           + c_const * weight * capped * d1_h)
    return env


def _path_from_rows(model, rows, dt=0.01):
    return PathSegment.from_states(model.basis, 0.0, dt, np.asarray(rows))


def test_budget_cap_plain_budget(model):
    # tame paths never reach 3x budget: the cap is just the budget accounting
    cut = Cutoff(level=5.0, budget=10.0)
    rows = np.tile(_e(0, 0.1), (21, 1))
    p = _path_from_rows(model, rows)
    rep = budget_cap_report(p, p, cut)
    assert rep.ok
    vsq = model.basis.eigenvalues[0] * 0.01
    assert rep.integral == pytest.approx(2 * 0.2 * vsq, rel=1e-12)


def test_budget_cap_indicator_kills_tail(model):
    # a path crossing 3x budget mid-grid stops contributing afterwards
    cut = Cutoff(level=5.0, budget=0.05)
    big = np.tile(_e(0, 10.0), (41, 1))
    p = _path_from_rows(model, big)
    crossing = int(np.flatnonzero(np.sqrt(p.xi_sq) > 3 * cut.budget)[0])
    assert crossing < 40
    from levyflow.diagnostics import capped_energy_rows
    rows = capped_energy_rows(v_norm_sq_rows(p.states, model.basis), p.xi_sq, cut)
    assert np.all(rows[crossing:] == 0.0)
    assert np.all(rows[:crossing] > 0.0)
    rep = budget_cap_report(p, p, cut)
    assert rep.ok


def test_budget_cap_random_sweep(model):
    measure = compound_gaussian(rate=5.0, mean=0.0, sd=0.5)
    wiener = WienerDriverSpec(N)
    coeff = _coeff(model, g=family("diagonal", N, sigma=0.4),
                   psi=family("diagonal", N, sigma=0.4),
                   measure=measure, wiener=wiener)
    cfg = SolverConfig(horizon=0.3, dt=0.005)
    cut = Cutoff(level=5.0, budget=0.3)
    for s in path_seeds(17, 10):
        noise = sample_realization(0.0, 60, 0.005, measure, wiener, int(s))
        p1 = baseline_direct(noise, cfg, model, coeff, measure, _e(0))
        p2 = baseline_direct(noise, cfg, model, coeff, measure, _e(0, 1.2))
        assert budget_cap_report(p1, p2, cut).ok


def test_budget_diagnostics_reject_a_cutoff_without_budget(model):
    rows = np.random.default_rng(3).standard_normal((21, N))
    p = _path_from_rows(model, rows)
    cut = Cutoff(level=5.0)
    with pytest.raises(ValueError, match="budget_cap_report needs .* budget"):
        budget_cap_report(p, p, cut)
    with pytest.raises(ValueError, match="cross_term_envelope needs .* budget"):
        cross_term_envelope(p, p, p, model, cut, 0.5, 0.25, 1.0)


def test_cross_term_zero_for_equal_iterates(model):
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((21, N))
    p = _path_from_rows(model, rows)
    cut = Cutoff(level=5.0, budget=1.0)
    series = cross_term_series(p, p, p, model, cut)
    assert np.all(series == 0.0)


def test_cross_term_envelope_calibrated(model):
    measure = compound_gaussian(rate=5.0, mean=0.0, sd=0.4)
    wiener = WienerDriverSpec(N)
    coeff = _coeff(model, g=family("diagonal", N, sigma=0.35),
                   psi=family("diagonal", N, sigma=0.35),
                   measure=measure, wiener=wiener)
    cfg = SolverConfig(horizon=0.1, dt=0.002)
    cut = Cutoff(level=6.0, budget=0.5)
    eps, p_exp = 0.5, 0.25

    def triples(seed):
        noise = sample_realization(0.0, 50, 0.002, measure, wiener, seed)
        paths = [None, None, None]
        from reference_solver import solve_linearized

        prev = PathSegment.from_states(model.basis, 0.0, 0.002,
                                       np.zeros((51, model.basis.dim)))
        out = []
        u0 = _e(0, 1.1)
        for _ in range(4):
            cur, _ = solve_linearized(prev, noise, cfg, model, coeff, measure, cut, u0)
            out.append(cur)
            prev = cur
        return out

    # calibrate the constant on one run, verify zero violations on another
    cal = triples(100)
    need = 1.0
    for i in range(2):
        series = cross_term_series(cal[i], cal[i + 1], cal[i + 2], model, cut)
        env1 = cross_term_envelope(cal[i], cal[i + 1], cal[i + 2], model, cut,
                                   eps, p_exp, 1.0)
        env0 = cross_term_envelope(cal[i], cal[i + 1], cal[i + 2], model, cut,
                                   eps, p_exp, 0.0)
        gap = env1 - env0
        over = series - env0
        mask = over > 0
        if mask.any():
            need = max(need, float((over[mask] / np.maximum(gap[mask], 1e-300)).max()))
    c_const = 2.0 * need
    fresh = triples(200)
    violations = 0
    for i in range(2):
        series = cross_term_series(fresh[i], fresh[i + 1], fresh[i + 2], model, cut)
        env = cross_term_envelope(fresh[i], fresh[i + 1], fresh[i + 2], model, cut,
                                  eps, p_exp, c_const)
        violations += int((series > env).sum())
    assert violations == 0


# ---------------------------------------------------------------------------
# contraction aggregation


def test_contraction_linear_scenario_exact_zero():
    # no convection, no noise: the first iterate is already the fixed point
    basis = SpectralBasis((2.0 ** np.arange(N)) ** 2)
    model0 = zero_b_model(basis)
    coeff = build_coefficients(family("none", N), family("none", N), no_jumps(),
                               basis, 1.0)
    cfg = SolverConfig(horizon=0.1, dt=0.01)
    noise = _empty_noise(10, 0.01)
    reports = []
    for _ in range(3):
        _, rep = picard_local(noise, cfg, model0, coeff, no_jumps(),
                              Cutoff(level=1e9, budget=1e9), np.ones(N), force_n=4)
        reports.append(rep)
    cr = contraction_report(reports)
    assert cr.a[1] == 0.0   # a_2 = 0 exactly
    assert cr.b[1] == 0.0


def test_contraction_report_shapes(model):
    measure = compound_gaussian(rate=4.0, mean=0.0, sd=0.4)
    wiener = WienerDriverSpec(N)
    coeff = _coeff(model, g=family("diagonal", N, sigma=0.3),
                   psi=family("diagonal", N, sigma=0.3),
                   measure=measure, wiener=wiener)
    cfg = SolverConfig(horizon=0.1, dt=0.005, window=0.1, budget=0.5, level=8.0)
    reports = []
    for s in path_seeds(55, 5):
        noise = sample_realization(0.0, 20, 0.005, measure, wiener, int(s))
        _, rep = picard_local(noise, cfg, model, coeff, measure,
                              Cutoff(level=8.0, budget=0.5), _e(0), force_n=6)
        reports.append(rep)
    cr = contraction_report(reports)
    assert cr.a.shape == (6,)
    assert cr.ratios_a.shape == (5,)
    assert np.all(cr.a >= 0.0)
