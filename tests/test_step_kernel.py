"""The one step kernel against a per-mark, per-family reference step.

The reference evaluates every jump coefficient mark by mark and dispatches
on the family kind, as the solver did before the coefficients were stored
in diagonal-affine normal form.  It reads the kind and the raw sigma and
theta the test drew, never the fields of the built family, so it does not
share the normal form it checks.  The kernel applies the jumps of a step
through their mark sum, so the two agree up to rounding.

The direct scheme steps an ensemble in lockstep through the same kernel;
every row must come out byte for byte as a one-state-at-a-time loop writes
it, signed zeros included, since the trajectory CSVs write the sign.  The
one exception is an nse2d batch large enough that its matrix transforms sum
in another order than one row's: there a row agrees with its lone run to
``NSE_REL_TOL``.
"""

import os
from collections import namedtuple

import numpy as np
import pytest

from reference_solver import solve_linearized
from test_model_contract import NSE_REL_TOL

from levyflow import (Cutoff, DyadicShellParams, NoiseRealization, SolverConfig,
                      WienerDriverSpec, baseline_direct, build_coefficients,
                      compound_gaussian, direct_ensemble, dyadic_model, family,
                      h_norm, h_norm_rows, jump_coefficient, linear_step, no_jumps,
                      path_seeds, sample_realization, step_factors, wiener_apply)
from levyflow.config import load_config
from levyflow.noise import sample_ensemble
from levyflow.nse2d import Nse2dParams, nse2d_model
from levyflow.solver import _compensated
from levyflow.spaces import PathSegment

N = 8
DIMS = 6          # Wiener part on the first 6 of 8 modes
KINDS = ("none", "additive", "diagonal", "gradient")
REL_TOL = 1e-14

# the family parameters a test drew, as the reference step reads them
Drawn = namedtuple("Drawn", "kind sigma theta")


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


def _reference_step(y, a, a_xi, dt, model, g, psi, measure, cutoff, f, dw,
                    marks, factors):
    kappa = np.sqrt(model.basis.eigenvalues)   # visc = 1
    c = cutoff.factor(h_norm(a), a_xi)
    acc = y + dt * (f - c * model.b_apply(a, y) if c != 0.0 else f)
    if dw.size:
        acc = acc + _reference_wiener(psi, kappa, y, dw)
    for z in marks:
        acc = acc + _reference_jump(g, kappa, y, float(z))
    if measure.m1 != 0.0 and g.kind != "none":
        acc = acc - dt * measure.m1 * _reference_jump(g, kappa, y, 1.0)
    return factors * acc


def _draw(kind, rng):
    sigma = rng.uniform(0.1, 0.4, N) if kind in ("additive", "diagonal") else None
    return Drawn(kind, sigma, 0.5)


def _family(drawn):
    return family(drawn.kind, N, sigma=drawn.sigma, theta=drawn.theta)


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
    g, psi = _draw(g_kind, rng), _draw(psi_kind, rng)
    coeff = build_coefficients(_family(g), _family(psi), measure, model.basis, 1.0,
                               WienerDriverSpec(DIMS), forcing=rng.standard_normal(N))
    dt = 0.01
    factors = step_factors(model.basis, dt, stepper)
    y, a = rng.standard_normal((2, N))
    dw = rng.standard_normal(DIMS) * np.sqrt(dt)
    marks = rng.normal(0.3, 0.5, 4)
    cutoff = Cutoff(level=10.0, budget=5.0)
    conv = cutoff.factor(h_norm(a), 0.5) * model.b_apply(a, y)
    out = linear_step(y, conv, dt, coeff, dw, float(marks.sum()) - dt * measure.m1,
                      factors)
    ref = _reference_step(y, a, 0.5, dt, model, g, psi, measure, cutoff,
                          coeff.forcing, dw, marks, factors)
    assert _rel_gap(out, ref) <= REL_TOL


def _raw_mark_sum_step(y, conv, dt, coeff, measure, dw, mark_sum, factors):
    """The kernel as it was when it took raw mark sums and compensated them itself."""
    acc = y + dt * (coeff.forcing - conv)
    if dw.size:
        acc = acc + wiener_apply(coeff, y, dw)
    z = np.asarray(mark_sum - dt * measure.m1)[..., None]
    if z.any():
        acc = np.where(z != 0.0, acc + jump_coefficient(coeff, y, z), acc)
    return factors * acc


def test_compensated_sums_step_as_the_raw_mark_sums_did(model, measure):
    # step 0: a row that jumps beside a row whose marks sum to dt m1, so its
    # compensated sum is 0; step 1: no row has a jump term.  Row 1 is all
    # -0.0 under a -0.0 forcing, which a zero jump term would turn into +0.0
    coeff = build_coefficients(family("diagonal", N, sigma=0.3), family("none", N),
                               measure, model.basis, 1.0, forcing=np.full(N, -0.0))
    dt = 0.01
    factors = step_factors(model.basis, dt, "resolvent")
    y = np.full((2, N), -0.0)
    y[0] = np.random.default_rng(3).standard_normal(N)
    conv, dw = np.zeros((2, N)), np.zeros((2, 0))
    mark_sums = np.array([[0.8, dt * measure.m1], [dt * measure.m1] * 2])
    steps = _compensated(mark_sums, dt, measure)
    assert steps[0][1] == 0.0 and steps[1] is None
    for k, jumps in enumerate(steps):
        out = np.empty_like(y)
        assert linear_step(y, conv, dt, coeff, dw, jumps, factors, out=out) is out
        old = _raw_mark_sum_step(y, conv, dt, coeff, measure, dw, mark_sums[k], factors)
        assert out.tobytes() == old.tobytes()
        assert np.signbit(out[1]).all() and not np.array_equal(out[0], y[0])


@pytest.mark.parametrize("stepper", ("resolvent", "exponential"))
def test_paths_match_per_mark_reference_step_by_step(model, stepper):
    rng = np.random.default_rng(5)
    measure = compound_gaussian(rate=1000.0, mean=0.3, sd=0.5)
    g, psi = Drawn("gradient", None, 0.05), _draw("diagonal", rng)
    wiener = WienerDriverSpec(DIMS)
    coeff = build_coefficients(_family(g), _family(psi), measure, model.basis, 1.0,
                               wiener)
    dt = 0.01
    cfg = SolverConfig(horizon=0.2, dt=dt, stepper=stepper)
    noise = sample_realization(0.0, 20, dt, measure, wiener, seed=11)
    assert np.bincount(noise.jump_steps, minlength=20).min() >= 3
    factors = step_factors(model.basis, dt, stepper)
    u0 = rng.standard_normal(N)
    advecting = PathSegment.from_states(model.basis, 0.0, dt,
                                        rng.standard_normal((21, N)))

    solved, _ = solve_linearized(advecting, noise, cfg, model, coeff, measure,
                                 Cutoff(), u0)
    direct = baseline_direct(noise, cfg, model, coeff, measure, u0)
    for k in range(noise.n_steps):
        dw = noise.wiener[k]
        marks = noise.jump_marks[noise.jump_steps == k]
        ref = _reference_step(solved.states[k], advecting.states[k], 0.0, dt,
                              model, g, psi, measure, Cutoff(), coeff.forcing, dw,
                              marks, factors)
        assert _rel_gap(solved.states[k + 1], ref) <= REL_TOL, k
        y = direct.states[k]
        ref = _reference_step(y, y, 0.0, dt, model, g, psi, measure,
                              Cutoff(), coeff.forcing, dw, marks, factors)
        assert _rel_gap(direct.states[k + 1], ref) <= REL_TOL, k


# ---------------------------------------------------------------------------
# the lockstep direct scheme


def _one_state_at_a_time(noise, model, coeff, measure, u0, level, stepper):
    """The direct scheme stepping one 1-D state per kernel call."""
    cutoff = Cutoff(level=level)
    factors = step_factors(model.basis, noise.dt, stepper)
    states = [np.asarray(u0, dtype=float)]
    for k in range(noise.n_steps):
        y = states[-1]
        c = cutoff.factor(h_norm(y), 0.0)
        conv = c * model.b_apply(y, y) if c != 0.0 else np.zeros_like(y)
        states.append(linear_step(y, conv, noise.dt, coeff, noise.wiener[k],
                                  noise.mark_sums[k] - noise.dt * measure.m1, factors))
    return np.array(states)


def _assert_rows_match_bytes(reals, model, coeff, measure, u0, level=None,
                             stepper="resolvent"):
    cfg = SolverConfig(horizon=reals[0].n_steps * reals[0].dt, dt=reals[0].dt,
                       stepper=stepper)
    batch = direct_ensemble(reals, cfg, model, coeff, measure, u0, level=level)
    assert len(batch) == len(reals)
    for real, path in zip(reals, batch):
        ref = _one_state_at_a_time(real, model, coeff, measure, u0, level, stepper)
        assert path.states.tobytes() == ref.tobytes(), real.seed
        single = baseline_direct(real, cfg, model, coeff, measure, u0, level=level)
        assert single.states.tobytes() == ref.tobytes(), real.seed
        assert single.xi_sq.tobytes() == path.xi_sq.tobytes()
    return batch


def _ensemble(model, n_paths, n_steps, dt, measure, wiener, seed):
    return [sample_realization(0.0, n_steps, dt, measure, wiener, int(s))
            for s in path_seeds(seed, n_paths)]


@pytest.mark.parametrize("stepper", ("resolvent", "exponential"))
@pytest.mark.parametrize("dims", (0, DIMS))
def test_lockstep_rows_match_one_state_loop(model, dims, stepper):
    # gradient jumps and diagonal Wiener noise, no cutoff
    measure = compound_gaussian(rate=40.0, mean=0.3, sd=0.5)
    wiener = WienerDriverSpec(dims)
    rng = np.random.default_rng(3)
    coeff = build_coefficients(family("gradient", N, theta=0.3),
                               _family(_draw("diagonal", rng)), measure, model.basis,
                               1.0, wiener, forcing=rng.standard_normal(N))
    reals = _ensemble(model, 6, 60, 0.005, measure, wiener, 17)
    u0 = np.zeros(N)
    u0[:3] = [1.0, -0.5, 0.25]
    _assert_rows_match_bytes(reals, model, coeff, measure, u0, stepper=stepper)


def test_lockstep_cutoff_acts_per_row(model):
    # strong noise and a level that some rows cross and others never reach,
    # so a cutoff taken over the whole batch would differ from the rows'
    measure = compound_gaussian(rate=20.0, mean=0.0, sd=1.0)
    wiener = WienerDriverSpec(N)
    coeff = build_coefficients(family("diagonal", N, sigma=0.4),
                               family("diagonal", N, sigma=0.4), measure,
                               model.basis, 1.0, wiener)
    reals = _ensemble(model, 8, 100, 0.005, measure, wiener, 23)
    u0 = np.zeros(N)
    u0[:2] = [1.6, 0.8]
    level = 1.5
    batch = _assert_rows_match_bytes(reals, model, coeff, measure, u0, level=level)
    peaks = [float(h_norm_rows(p.states).max()) for p in batch]
    assert min(peaks) < level + 1.0 < max(peaks)


def _realization(n_steps, dt, jumps):
    """A jump-only realization with the marks ``jumps[step]``."""
    steps = np.array(sorted(jumps), dtype=int)
    return NoiseRealization(t0=0.0, dt=dt, wiener=np.zeros((n_steps, 0)),
                            jump_times=(steps + 0.5) * dt,
                            jump_marks=np.array([jumps[k] for k in steps], dtype=float),
                            jump_steps=steps, seed=int(steps.sum()))


def test_lockstep_keeps_signed_zeros_of_rows_without_jumps(model):
    # -0.0 forcing and -0.0 upper modes keep those entries at -0.0 while
    # convection has not reached them; a row whose step has no jump must
    # keep them, even when another row of the same step jumps
    measure = compound_gaussian(rate=1.0, mean=0.0, sd=1.0)   # m1 = 0
    coeff = build_coefficients(family("gradient", N, theta=0.2), family("none", N),
                               measure, model.basis, 1.0,
                               forcing=np.full(N, -0.0))
    reals = [_realization(6, 0.01, {0: 0.7, 3: -1.1}),
             _realization(6, 0.01, {}),
             _realization(6, 0.01, {1: 0.4})]
    u0 = np.full(N, -0.0)
    u0[0] = 1.0
    batch = _assert_rows_match_bytes(reals, model, coeff, measure, u0)
    first = batch[1].states[1, 2:]   # convection reaches mode 2 in step 2
    assert np.signbit(first).all() and not np.any(first)


def test_lockstep_without_noise_matches(model):
    coeff = build_coefficients(family("none", N), family("none", N), no_jumps(),
                               model.basis, 1.0, forcing=np.linspace(1.0, -1.0, N))
    reals = [_realization(30, 0.01, {}) for _ in range(3)]
    u0 = np.linspace(1.0, 0.0, N)
    _assert_rows_match_bytes(reals, model, coeff, no_jumps(), u0, level=1.2)


def test_lockstep_nse2d_rows_match_one_state_loop():
    model = nse2d_model(Nse2dParams(modes_per_axis=4, visc=0.5))
    dim = model.basis.dim
    measure = compound_gaussian(rate=30.0, mean=0.1, sd=0.3)
    wiener = WienerDriverSpec(5)
    coeff = build_coefficients(family("diagonal", dim, sigma=0.2),
                               family("additive", dim, sigma=0.4), measure,
                               model.basis, 0.5, wiener)
    reals = _ensemble(model, 4, 25, 0.004, measure, wiener, 31)
    u0 = np.zeros(dim)
    u0[:4] = [1.0, 0.6, -0.4, 0.3]
    _assert_rows_match_bytes(reals, model, coeff, measure, u0, level=2.0)


def test_lockstep_nse2d_batch_of_36_matches_lone_paths_to_roundoff():
    # the benchmark's M = 8 config at CLI seed 0: the 36 rows may differ from
    # their lone runs in the last bits, but by no more than NSE_REL_TOL
    ini = os.path.join(os.path.dirname(__file__), "golden", "configs", "nse2d_bench.ini")
    with open(ini) as fh:
        _, setup = load_config(fh.read())
    cfg = setup.solver
    reals = sample_ensemble(cfg.n_steps, cfg.dt, setup.measure, setup.wiener, 0, 36)
    batch = direct_ensemble(reals, cfg, setup.model, setup.coeff, setup.measure,
                            setup.u0, level=cfg.level)
    for real, path in zip(reals, batch):
        alone = baseline_direct(real, cfg, setup.model, setup.coeff, setup.measure,
                                setup.u0, level=cfg.level).states
        assert np.abs(path.states - alone).max() <= NSE_REL_TOL * np.abs(alone).max()


def test_lockstep_rejects_mixed_grids(model):
    coeff = build_coefficients(family("none", N), family("none", N), no_jumps(),
                               model.basis, 1.0)
    reals = [_realization(4, 0.01, {}), _realization(5, 0.01, {})]
    with pytest.raises(ValueError, match="grid"):
        direct_ensemble(reals, SolverConfig(horizon=0.04, dt=0.01), model, coeff,
                        no_jumps(), np.ones(N))
