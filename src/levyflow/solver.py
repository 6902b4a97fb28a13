"""Cutoff fixed-point solver, window concatenation, and the direct scheme.

One time step of the linearized equation treats the operator semi-implicitly
(resolvent, or exact exponential) and everything else explicitly:

    y_{k+1} = S_dt [ y_k + dt (f_k - c_k B(a_k, y_k))
                     + Psi(t_k, y_k) dW_k + G(t_k, y_k, Z_k - dt m1) ],

where a is the frozen advecting path and c_k combines the state-level and
dissipation-budget cutoffs evaluated on it.  Jump coefficients use the
left-endpoint state and are linear in the mark, so the jumps of a step and
the compensator G(t_k, y_k, m1) dt enter through the step's mark sum Z_k.

The fixed-point loop starts from the zero path and re-solves against the
previous iterate until the sup-norm plus dissipation-norm increment falls
below tolerance.  Windows are concatenated at the first grid time whose
accumulated dissipation norm spends the budget (capped at the window
length), and the whole construction is patched in the level m: if the path
reaches level m the level is grown and the same noise is re-solved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diagnostics
from .cutoffs import Cutoff
from .models import ModelSpec
from .noise import (CoefficientSpec, LevyMeasureSpec, NoiseRealization,
                    jump_coefficient, wiener_apply)
from .spaces import (GalerkinVector, PathSegment, h_norm, v_norm_sq_rows,
                     zero_path)


class PicardDivergenceError(RuntimeError):
    """The fixed-point loop failed to contract even after window shrinking."""


class BlowupError(RuntimeError):
    """Accumulated dissipation passed the configured ceiling.

    The continuation criterion is that the dissipation integral stays
    finite up to the horizon; passing the ceiling is treated as numerical
    blow-up.
    """


@dataclass(frozen=True)
class SolverConfig:
    horizon: float = 1.0
    dt: float = 0.01
    tol_picard: float = 1e-8
    max_picard: int = 25
    window: float = 0.1          # local fixed-point window length
    budget: float = 0.5          # dissipation-norm budget per window
    level: float = 10.0          # initial state-norm cutoff level
    level_growth: float = 2.0
    max_levels: int = 12
    stepper: str = "resolvent"   # resolvent | exponential
    budget_ceiling: float = 1e12  # abort when int ||u||^2 passes this

    def __post_init__(self):
        if self.dt <= 0 or self.horizon < self.dt:
            raise ValueError("need 0 < dt <= horizon")
        if self.window <= 0 or self.budget <= 0:
            raise ValueError("window and budget must be positive")
        if self.tol_picard < 0 or self.max_picard < 1:
            raise ValueError("bad fixed-point controls")
        if self.stepper not in ("resolvent", "exponential"):
            raise ValueError(f"unknown stepper {self.stepper!r}")
        if self.level <= 0 or self.level_growth <= 1 or self.max_levels < 1:
            raise ValueError("bad level controls")

    @property
    def n_steps(self) -> int:
        k = int(round(self.horizon / self.dt))
        if abs(k * self.dt - self.horizon) > 1e-9 * max(1.0, self.horizon):
            raise ValueError("horizon must be a whole number of steps")
        return k

    @property
    def window_steps(self) -> int:
        return max(1, int(round(self.window / self.dt)))


@dataclass
class IterationReport:
    """Per-iterate increments and capped diagnostics of one fixed-point run."""

    sup_increments: list = field(default_factory=list)
    xi_increments: list = field(default_factory=list)
    cross_integrals: list = field(default_factory=list)   # convection cross terms
    budget_integrals: list = field(default_factory=list)  # capped energy densities
    converged: bool = False
    iterations_used: int = 0


@dataclass(frozen=True)
class SolveOutcome:
    trajectory: PathSegment
    stop_times: list
    level_final: float
    blowup_flag: bool
    seed: int
    window_reports: list


def step_factors(model: ModelSpec, dt: float, stepper: str) -> np.ndarray:
    lam = model.basis.eigenvalues
    if stepper == "resolvent":
        return 1.0 / (1.0 + dt * lam)
    return np.exp(-dt * lam)


def linear_step(y: GalerkinVector, conv: np.ndarray, t: float, dt: float,
                coeff: CoefficientSpec, measure: LevyMeasureSpec,
                f_k: np.ndarray, dw: np.ndarray, mark_sum: float,
                factors: np.ndarray) -> GalerkinVector:
    """One semi-implicit step with the convection row ``conv`` = c_k B(a_k, y).

    ``mark_sum`` is the sum of the marks of the step's jumps.  Since G is
    linear in the mark, the jumps and the compensator act as the single
    term G(t, y, mark_sum - dt m1).  Finiteness is checked once per path,
    by :meth:`PathSegment.from_states`.
    """
    acc = y + dt * (f_k - conv)
    if dw is not None and dw.size:
        acc = acc + wiener_apply(coeff, t, y, dw)
    compensated = mark_sum - dt * measure.m1
    if compensated != 0.0:
        acc = acc + jump_coefficient(coeff, t, y, compensated)
    return factors * acc


def solve_linearized(advecting: PathSegment, noise: NoiseRealization,
                     cfg: SolverConfig, model: ModelSpec, coeff: CoefficientSpec,
                     measure: LevyMeasureSpec, cutoff: Cutoff,
                     u0: GalerkinVector) -> tuple[PathSegment, np.ndarray]:
    """Solve the equation with convection frozen along the advecting path.

    The noise coefficients are evaluated on the solution itself.  Returns
    the path and the convection rows c_k B(a_k, y_k) of its n steps, zero
    where the cutoff factor c_k is 0.
    """
    n = noise.n_steps
    if advecting.n_steps != n:
        raise ValueError("advecting path and noise grids differ")
    basis = model.basis
    factors = step_factors(model, noise.dt, cfg.stepper)
    c = cutoff.along(advecting)
    states = np.empty((n + 1, basis.dim))
    states[0] = u0
    conv = np.zeros((n, basis.dim))
    f = coeff.f_at(noise.t0)
    for k in range(n):
        if c[k] != 0.0:
            conv[k] = c[k] * model.b_apply(advecting.states[k], states[k])
        states[k + 1] = linear_step(
            states[k], conv[k], noise.t0 + k * noise.dt, noise.dt, coeff,
            measure, f, noise.wiener[k], noise.mark_sums[k], factors)
    return PathSegment.from_states(basis, noise.t0, noise.dt, states), conv


def _path_increment(a: PathSegment, b: PathSegment, basis) -> tuple[float, float]:
    d = b.states - a.states
    sup = float(np.sqrt((d * d).sum(axis=1)).max())
    xi = float(np.sqrt(b.dt * v_norm_sq_rows(d[:-1], basis).sum()))
    return sup, xi


def picard_local(noise: NoiseRealization, cfg: SolverConfig, model: ModelSpec,
                 coeff: CoefficientSpec, measure: LevyMeasureSpec,
                 cutoff: Cutoff, u0: GalerkinVector, start_step: int = 0,
                 n_steps: int | None = None,
                 force_n: int | None = None) -> tuple[PathSegment, IterationReport]:
    """Iterate the linearized solve against its own output on one window.

    The cross integrals pair the difference of the convection rows the last
    two sweeps applied against the newest increment.
    """
    if n_steps is None:
        n_steps = noise.n_steps - start_step
    local = noise.slice_steps(start_step, n_steps)
    basis = model.basis

    report = IterationReport()
    prev = zero_path(basis, local.t0, local.dt, n_steps)
    before_prev = prev_conv = None
    limit = force_n if force_n is not None else cfg.max_picard
    cur = prev
    for n in range(1, limit + 1):
        cur, conv = solve_linearized(prev, local, cfg, model, coeff, measure,
                                     cutoff, u0)
        sup_inc, xi_inc = _path_increment(prev, cur, basis)
        report.sup_increments.append(sup_inc)
        report.xi_increments.append(xi_inc)
        report.iterations_used = n
        if prev_conv is not None:
            test = cur.states[:-1] - prev.states[:-1]
            report.cross_integrals.append(
                float(local.dt * np.einsum("kj,kj->", conv - prev_conv, test)))
            report.budget_integrals.append(
                diagnostics.budget_indicator_integral(before_prev, prev, cutoff))
        if force_n is None and sup_inc + xi_inc <= cfg.tol_picard:
            report.converged = True
            return cur, report
        before_prev, prev, prev_conv = prev, cur, conv
    report.converged = force_n is not None
    return cur, report


def concatenate_windows(noise: NoiseRealization, cfg: SolverConfig,
                        model: ModelSpec, coeff: CoefficientSpec,
                        measure: LevyMeasureSpec, level: float,
                        u0: GalerkinVector, stop_level: float | None = None):
    """Patch local fixed-point windows across the horizon.

    Each window runs until its dissipation budget is spent at a grid time
    (or the window cap), then restarts from the attained state.  Returns
    (path, stop_times, reports, crossing_index); ``crossing_index`` is the
    first global grid index where the H norm reached ``stop_level``, with
    everything after it discarded.
    """
    cutoff = Cutoff(level=level, budget=cfg.budget)
    total = noise.n_steps
    dim = model.basis.dim
    budget_sq = cfg.budget * cfg.budget

    if stop_level is not None and h_norm(u0) >= stop_level:
        path = PathSegment.from_states(model.basis, noise.t0, noise.dt,
                                       np.asarray(u0, dtype=float).reshape(1, dim))
        return path, [], [], 0

    all_states = [np.asarray(u0, dtype=float).reshape(1, dim)]
    stop_times = []
    reports = []
    xi_total = 0.0
    s = 0
    state = np.asarray(u0, dtype=float)
    while s < total:
        # up to five attempts, halving the window after each failure
        for attempt in range(5):
            w_try = max(1, min(cfg.window_steps, total - s) >> attempt)
            path, report = picard_local(noise, cfg, model, coeff, measure,
                                        cutoff, state, start_step=s, n_steps=w_try)
            if report.converged:
                break
        else:
            raise PicardDivergenceError(
                f"window at step {s} failed to contract even at {w_try} steps")
        trig = np.flatnonzero(path.xi_sq[1:] >= budget_sq)
        cut = int(trig[0]) + 1 if trig.size else path.n_steps
        kept = path.states[1:cut + 1]
        if stop_level is not None:
            norms = np.sqrt((kept * kept).sum(axis=1))
            hit = np.flatnonzero(norms >= stop_level)
            if hit.size:
                idx = int(hit[0])
                all_states.append(kept[:idx + 1])
                full = np.vstack(all_states)
                part = PathSegment.from_states(model.basis, noise.t0, noise.dt, full)
                return part, stop_times, reports, s + idx + 1
        all_states.append(kept)
        reports.append(report)
        s += cut
        stop_times.append(noise.t0 + s * noise.dt)
        xi_total += float(path.xi_sq[cut])
        if xi_total > cfg.budget_ceiling:
            raise BlowupError(
                "dissipation integral passed the ceiling "
                f"({xi_total:.3g} > {cfg.budget_ceiling:.3g}); "
                "treating the path as blown up")
        state = path.states[cut]
    full = np.vstack(all_states)
    return (PathSegment.from_states(model.basis, noise.t0, noise.dt, full),
            stop_times, reports, None)


def global_solve(noise: NoiseRealization, cfg: SolverConfig, model: ModelSpec,
                 coeff: CoefficientSpec, measure: LevyMeasureSpec,
                 u0: GalerkinVector) -> SolveOutcome:
    """Escalate the cutoff level until the path never reaches it."""
    level = cfg.level
    last = None
    for attempt in range(cfg.max_levels):
        path, stops, reports, crossing = concatenate_windows(
            noise, cfg, model, coeff, measure, level, u0, stop_level=level)
        last = (path, stops, reports)
        if crossing is None:
            return SolveOutcome(trajectory=path, stop_times=stops,
                                level_final=level, blowup_flag=False,
                                seed=noise.seed, window_reports=reports)
        if attempt < cfg.max_levels - 1:
            level = level * cfg.level_growth
    path, stops, reports = last
    return SolveOutcome(trajectory=path, stop_times=stops, level_final=level,
                        blowup_flag=True, seed=noise.seed, window_reports=reports)


def strong_order_study(cfg: SolverConfig, model: ModelSpec, coeff: CoefficientSpec,
                       measure: LevyMeasureSpec, wiener, u0: GalerkinVector,
                       n_paths: int, base_seed: int, ref_factor: int = 8):
    """Measured strong self-convergence order of the direct scheme.

    Per path one fine realization drives runs at dt and dt/2 (increments
    aggregated onto the coarser grids) against the dt/ref_factor reference;
    the order is log2 of the ratio of mean sup errors on the coarse grid.
    """
    from dataclasses import replace

    from .noise import path_seeds, sample_realization

    dt = cfg.dt
    n = cfg.n_steps
    errs1 = []
    errs2 = []
    seeds = path_seeds(base_seed, n_paths)
    for s in seeds:
        fine = sample_realization(0.0, n * ref_factor, dt / ref_factor,
                                  measure, wiener, int(s))
        ref = baseline_direct(fine, replace(cfg, dt=dt / ref_factor),
                              model, coeff, measure, u0)
        u_c = baseline_direct(fine.coarsen(ref_factor), cfg, model, coeff,
                              measure, u0)
        u_h = baseline_direct(fine.coarsen(ref_factor // 2),
                              replace(cfg, dt=dt / 2), model, coeff, measure, u0)
        ref_on_coarse = ref.states[::ref_factor]
        errs1.append(float(np.sqrt(((u_c.states - ref_on_coarse) ** 2).sum(axis=1)).max()))
        errs2.append(float(np.sqrt(((u_h.states[::2] - ref_on_coarse) ** 2).sum(axis=1)).max()))
    e1 = float(np.mean(errs1))
    e2 = float(np.mean(errs2))
    order = float(np.log2(e1 / e2)) if e2 > 0 else np.inf
    return order, e1, e2


def baseline_direct(noise: NoiseRealization, cfg: SolverConfig, model: ModelSpec,
                    coeff: CoefficientSpec, measure: LevyMeasureSpec,
                    u0: GalerkinVector, level: float | None = None) -> PathSegment:
    """Direct semi-implicit scheme with convection at the current state."""
    basis = model.basis
    cutoff = Cutoff(level=level, budget=None)
    factors = step_factors(model, noise.dt, cfg.stepper)
    n = noise.n_steps
    states = np.empty((n + 1, basis.dim))
    states[0] = np.asarray(u0, dtype=float)
    no_conv = np.zeros(basis.dim)
    f = coeff.f_at(noise.t0)
    for k in range(n):
        y = states[k]
        c = cutoff.factor(h_norm(y), 0.0)
        conv = c * model.b_apply(y, y) if c != 0.0 else no_conv
        states[k + 1] = linear_step(
            y, conv, noise.t0 + k * noise.dt, noise.dt, coeff, measure, f,
            noise.wiener[k], noise.mark_sums[k], factors)
    return PathSegment.from_states(basis, noise.t0, noise.dt, states)
