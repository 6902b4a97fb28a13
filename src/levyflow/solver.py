"""Cutoff fixed-point solver, window concatenation, and the direct scheme.

One time step of the linearized equation treats the operator semi-implicitly
(resolvent, or exact exponential) and everything else explicitly:

    y_{k+1} = S_dt [ y_k + dt (f - c_k B(a_k, y_k))
                     + Psi(y_k) dW_k + G(y_k, Z_k - dt m1) ],

where a is the frozen advecting path and c_k combines the state-level and
dissipation-budget cutoffs evaluated on it.  Jump coefficients use the
left-endpoint state and are linear in the mark, so the jumps of a step and
the compensator G(y_k, m1) dt enter through the step's mark sum Z_k.

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
                    jump_coefficient, path_seeds, sample_realization,
                    wiener_apply)
from .spaces import (GalerkinVector, PathSegment, SpectralBasis, h_norm,
                     v_norm_sq_rows, zero_path)


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
    _MAX_STEPS = np.iinfo(np.intp).max   # a step count must fit the index type

    def __post_init__(self):
        if self.dt <= 0 or self.horizon < self.dt:
            raise ValueError("need 0 < dt <= horizon")
        if self.window <= 0 or self.budget <= 0 or not self.budget_ceiling > 0:
            raise ValueError("window, budget and budget_ceiling must be positive")
        if not max(self.horizon, self.window) / self.dt < self._MAX_STEPS:
            raise ValueError("horizon or window spans more steps of dt than an index holds")
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

    # in the order summary.json writes them
    iterations_used: int = 0
    converged: bool = False
    sup_increments: list = field(default_factory=list)
    xi_increments: list = field(default_factory=list)
    cross_integrals: list = field(default_factory=list)   # convection cross terms
    budget_integrals: list = field(default_factory=list)  # capped energy densities


@dataclass(frozen=True)
class SolveOutcome:
    trajectory: PathSegment
    stop_times: list
    level_final: float
    blowup_flag: bool
    window_reports: list


def step_factors(basis: SpectralBasis, dt: float, stepper: str) -> np.ndarray:
    """Per-mode factors of (I + dt A)^-1 (``resolvent``) or exp(-dt A)."""
    lam = basis.eigenvalues
    if stepper == "resolvent":
        return 1.0 / (1.0 + dt * lam)
    return np.exp(-dt * lam)


def linear_step(y: np.ndarray, conv: np.ndarray, dt: float,
                coeff: CoefficientSpec, measure: LevyMeasureSpec,
                dw: np.ndarray, mark_sum, factors: np.ndarray) -> np.ndarray:
    """One semi-implicit step of states ``y`` of shape (..., dim).

    ``conv`` holds the rows c_k B(a_k, y), ``dw`` each row's Wiener
    increments and ``mark_sum`` (of the batch shape of ``y``) the sum of the
    marks of each row's jumps.  Since G is linear in the mark, the jumps and
    the compensator act as the single term G(y, mark_sum - dt m1); a row
    whose term is zero gets none, since adding zeros turns -0.0 into +0.0.
    Finiteness is checked once per path, by :meth:`PathSegment.from_states`.
    """
    acc = y + dt * (coeff.forcing - conv)
    if dw.size:
        acc = acc + wiener_apply(coeff, y, dw)
    compensated = mark_sum - dt * measure.m1
    if y.ndim > 1:
        z = compensated[..., None]
        if z.any():
            acc = np.where(z != 0.0, acc + jump_coefficient(coeff, y, z), acc)
    elif compensated != 0.0:
        acc = acc + jump_coefficient(coeff, y, compensated)
    return factors * acc


def solve_linearized(advecting: PathSegment, noise: NoiseRealization,
                     cfg: SolverConfig, model: ModelSpec, coeff: CoefficientSpec,
                     measure: LevyMeasureSpec, cutoff: Cutoff,
                     u0: GalerkinVector) -> tuple[PathSegment, np.ndarray]:
    """Solve the equation with convection frozen along the advecting path.

    The noise coefficients are evaluated on the solution itself.  Returns
    the path and the convection rows c_k B(a_k, y_k) of its n steps, zero
    where c_k is 0.  A zero advecting state gets c_k = 0, since B(0, y) = 0.
    """
    n = noise.n_steps
    if advecting.n_steps != n:
        raise ValueError("advecting path and noise grids differ")
    basis = model.basis
    factors = step_factors(basis, noise.dt, cfg.stepper)
    c = np.where(advecting.states.any(axis=1), cutoff.along(advecting), 0.0)
    states = np.empty((n + 1, basis.dim))
    states[0] = u0
    conv = np.zeros((n, basis.dim))
    for k in range(n):
        if c[k] != 0.0:
            conv[k] = c[k] * model.b_apply(advecting.states[k], states[k])
        states[k + 1] = linear_step(states[k], conv[k], noise.dt, coeff, measure,
                                    noise.wiener[k], noise.mark_sums[k], factors)
    return PathSegment.from_states(basis, noise.t0, noise.dt, states), conv


def _path_increment(a: PathSegment, b: PathSegment, basis) -> tuple[float, float]:
    d = b.states - a.states
    sup = float(np.sqrt((d * d).sum(axis=1)).max())
    xi = float(np.sqrt(b.dt * v_norm_sq_rows(d[:-1], basis).sum()))
    return sup, xi


def picard_local(noise: NoiseRealization, cfg: SolverConfig, model: ModelSpec,
                 coeff: CoefficientSpec, measure: LevyMeasureSpec,
                 cutoff: Cutoff, u0: GalerkinVector,
                 force_n: int | None = None) -> tuple[PathSegment, IterationReport]:
    """Iterate the linearized solve against its own output on the window ``noise``.

    The cross integrals pair the difference of the convection rows the last
    two sweeps applied against the newest increment.
    """
    basis = model.basis

    report = IterationReport()
    prev = zero_path(basis, noise.t0, noise.dt, noise.n_steps)
    before_prev = prev_conv = None
    limit = force_n if force_n is not None else cfg.max_picard
    cur = prev
    for n in range(1, limit + 1):
        cur, conv = solve_linearized(prev, noise, cfg, model, coeff, measure,
                                     cutoff, u0)
        sup_inc, xi_inc = _path_increment(prev, cur, basis)
        report.sup_increments.append(sup_inc)
        report.xi_increments.append(xi_inc)
        report.iterations_used = n
        if prev_conv is not None:
            test = cur.states[:-1] - prev.states[:-1]
            report.cross_integrals.append(
                float(noise.dt * np.einsum("kj,kj->", conv - prev_conv, test)))
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
                        u0: GalerkinVector):
    """Patch local fixed-point windows across the horizon.

    Each window runs until its dissipation budget is spent at a grid time
    (or the window cap), then restarts from the attained state.  Returns
    (path, stop_times, reports, crossing_index); ``crossing_index`` is the
    first global grid index where the H norm reached ``level``, with
    everything after it discarded, or None if it never does.
    """
    cutoff = Cutoff(level=level, budget=cfg.budget)
    total = noise.n_steps
    dim = model.basis.dim
    budget_sq = cfg.budget * cfg.budget

    if h_norm(u0) >= level:
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
            path, report = picard_local(noise.slice_steps(s, w_try), cfg, model,
                                        coeff, measure, cutoff, state)
            if report.converged:
                break
        else:
            raise PicardDivergenceError(
                f"window at step {s} failed to contract even at {w_try} steps")
        trig = np.flatnonzero(path.xi_sq[1:] >= budget_sq)
        cut = int(trig[0]) + 1 if trig.size else path.n_steps
        kept = path.states[1:cut + 1]
        hit = np.flatnonzero(np.sqrt((kept * kept).sum(axis=1)) >= level)
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
    for attempt in range(cfg.max_levels):
        if attempt:
            level = level * cfg.level_growth
        path, stops, reports, crossing = concatenate_windows(
            noise, cfg, model, coeff, measure, level, u0)
        if crossing is None:
            break
    return SolveOutcome(trajectory=path, stop_times=stops, level_final=level,
                        blowup_flag=crossing is not None, window_reports=reports)


def strong_order_study(cfg: SolverConfig, model: ModelSpec, coeff: CoefficientSpec,
                       measure: LevyMeasureSpec, wiener, u0: GalerkinVector,
                       n_paths: int, base_seed: int, ref_factor: int = 8):
    """Measured strong self-convergence order of the direct scheme.

    Per path one fine realization drives runs at dt and dt/2 (increments
    aggregated onto the coarser grids) against the dt/ref_factor reference;
    the order is log2 of the ratio of mean sup errors on the coarse grid.
    """
    fine = [sample_realization(0.0, cfg.n_steps * ref_factor, cfg.dt / ref_factor,
                               measure, wiener, int(s))
            for s in path_seeds(base_seed, n_paths)]
    ref = direct_ensemble(fine, cfg, model, coeff, measure, u0)

    def mean_sup_error(factor):
        paths = direct_ensemble([r.coarsen(factor) for r in fine], cfg, model,
                                coeff, measure, u0)
        stride = ref_factor // factor
        return float(np.mean([
            np.sqrt(((p.states[::stride] - r.states[::ref_factor]) ** 2).sum(axis=1)).max()
            for p, r in zip(paths, ref)]))

    e1, e2 = mean_sup_error(ref_factor), mean_sup_error(ref_factor // 2)
    order = float(np.log2(e1 / e2)) if e2 > 0 else np.inf
    return order, e1, e2


def direct_ensemble(noises: list[NoiseRealization], cfg: SolverConfig,
                    model: ModelSpec, coeff: CoefficientSpec,
                    measure: LevyMeasureSpec, u0: GalerkinVector,
                    level: float | None = None) -> list[PathSegment]:
    """Direct semi-implicit scheme with convection at the current state.

    Steps the realizations, which share one grid, in lockstep over
    (paths, dim) states.  Each row steps as it would alone: its cutoff
    factor is its own, and a row with a zero factor gets no convection.
    """
    if len({(r.t0, r.dt, r.n_steps) for r in noises}) != 1:
        raise ValueError("an ensemble needs realizations on one grid")
    t0, dt, n = noises[0].t0, noises[0].dt, noises[0].n_steps
    cutoff = Cutoff(level=level, budget=None)
    factors = step_factors(model.basis, dt, cfg.stepper)
    wiener = np.stack([r.wiener for r in noises], axis=1)
    mark_sums = np.stack([r.mark_sums for r in noises], axis=1)
    states = np.empty((len(noises), n + 1, model.basis.dim))
    states[:, 0] = np.asarray(u0, dtype=float)
    for k in range(n):
        y = states[:, k]
        conv = model.b_apply(y, y)
        if level is not None:
            # np.vecdot reduces each row with the dot kernel of h_norm
            c = cutoff.factor(np.sqrt(np.vecdot(y, y)), 0.0)[:, None]
            conv = np.where(c != 0.0, c * conv, 0.0)
        states[:, k + 1] = linear_step(y, conv, dt, coeff, measure, wiener[k],
                                       mark_sums[k], factors)
    return [PathSegment.from_states(model.basis, t0, dt, s) for s in states]


def baseline_direct(noise: NoiseRealization, cfg: SolverConfig, model: ModelSpec,
                    coeff: CoefficientSpec, measure: LevyMeasureSpec,
                    u0: GalerkinVector, level: float | None = None) -> PathSegment:
    """The direct scheme on one realization: a one-path :func:`direct_ensemble`."""
    return direct_ensemble([noise], cfg, model, coeff, measure, u0, level)[0]
