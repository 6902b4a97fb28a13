"""The sequential fixed-point solver, kept as the reference for the batched one.

One path, one window and one Picard sweep at a time, each sweep stepping one
state per kernel call: every window iterates from the zero path and starts
from the state the previous window's fixed point ended at.  The equivalence
tests and the matched-grid half of c08 compare ``levyflow.ensemble_solve``
with this module.
"""

from __future__ import annotations

import numpy as np

from levyflow import diagnostics
from levyflow.cutoffs import Cutoff
from levyflow.models import ModelSpec
from levyflow.noise import CoefficientSpec, LevyMeasureSpec, NoiseRealization
from levyflow.solver import (BlowupError, IterationReport, PicardDivergenceError,
                             SolveOutcome, SolverConfig, linear_step, step_factors)
from levyflow.spaces import (GalerkinVector, PathSegment, h_norm, v_norm_sq_rows,
                             zero_path)


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
    c = np.where(advecting.states.any(axis=1),
                 cutoff.along(advecting.states, advecting.xi_sq), 0.0)
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
        # the dot kernel of h_norm, as for u0 above
        hit = np.flatnonzero(np.sqrt(np.vecdot(kept, kept)) >= level)
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
    """Escalate the cutoff level until the path never reaches it; errors raise."""
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

