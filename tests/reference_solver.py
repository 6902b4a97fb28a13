"""The sequential fixed-point solver, kept as the reference for the batched one.

One path, one window and one Picard sweep at a time, each sweep stepping one
state per kernel call.  Every window starts from the state the previous
window's fixed point ended at, and iterates from the direct scheme on it at
the path's level (from the zero path if that is not finite); a halved
retry iterates from the zero path, and a window that no halving makes
contract raises :class:`PicardDivergenceError`.  ``levyflow.ensemble_solve``
iterates no window, so it has no such error.  The equivalence
tests and the matched-grid half of c08 compare ``levyflow.ensemble_solve``
with this module.  The numerical guards (``_MAX_PICARD`` and the rest) are
read through ``levyflow.solver`` at call time, so a test that patches one
there reaches both solvers.
"""

from __future__ import annotations

import numpy as np

from levyflow import solver
from levyflow.cutoffs import Cutoff
from levyflow.models import ModelSpec
from levyflow.noise import CoefficientSpec, LevyMeasureSpec, NoiseRealization
from levyflow.solver import (_LEVEL_GROWTH, BlowupError, IterationReport, SolveOutcome,
                             SolverConfig, linear_step, step_factors)
from levyflow.spaces import (GalerkinVector, NonFiniteStateError, PathSegment, h_norm,
                             h_norm_rows, v_norm_sq_rows)


class PicardDivergenceError(RuntimeError):
    """The fixed-point loop failed to contract even after window shrinking."""


def slice_steps(noise: NoiseRealization, start: int, count: int) -> NoiseRealization:
    """The steps [start, start + count) of ``noise`` as a realization of their own."""
    if start < 0 or start + count > noise.n_steps:
        raise ValueError("slice outside the realization grid")
    lo, hi = np.searchsorted(noise.jump_steps, [start, start + count])
    return NoiseRealization(
        t0=noise.t0 + start * noise.dt,
        dt=noise.dt,
        wiener=noise.wiener[start:start + count].copy(),
        jump_times=noise.jump_times[lo:hi].copy(),
        jump_marks=noise.jump_marks[lo:hi].copy(),
        jump_steps=(noise.jump_steps[lo:hi] - start).copy(),
        seed=noise.seed,
    )


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
        linear_step(states[k], conv[k], noise.dt, coeff, noise.wiener[k],
                    noise.mark_sums[k] - noise.dt * measure.m1, factors, out=states[k + 1])
    return PathSegment.from_states(basis, noise.t0, noise.dt, states), conv


def _path_increment(a: PathSegment, b: PathSegment, basis) -> tuple[float, float]:
    d = b.states - a.states
    sup = float(np.sqrt((d * d).sum(axis=1)).max())
    xi = float(np.sqrt(b.dt * v_norm_sq_rows(d[:-1], basis).sum()))
    return sup, xi


def picard_local(noise: NoiseRealization, cfg: SolverConfig, model: ModelSpec,
                 coeff: CoefficientSpec, measure: LevyMeasureSpec,
                 cutoff: Cutoff, u0: GalerkinVector, force_n: int | None = None,
                 start: PathSegment | None = None) -> tuple[PathSegment, IterationReport]:
    """Iterate the linearized solve against its own output on the window ``noise``,
    from ``start`` (by default the zero path)."""
    basis = model.basis

    report = IterationReport()
    prev = start if start is not None else PathSegment.from_states(
        basis, noise.t0, noise.dt, np.zeros((noise.n_steps + 1, basis.dim)))
    limit = force_n if force_n is not None else solver._MAX_PICARD
    cur = prev
    for n in range(1, limit + 1):
        cur, _ = solve_linearized(prev, noise, cfg, model, coeff, measure, cutoff, u0)
        sup_inc, xi_inc = _path_increment(prev, cur, basis)
        report.sup_increments.append(sup_inc)
        report.xi_increments.append(xi_inc)
        report.iterations_used = n
        if force_n is None and sup_inc + xi_inc <= solver._TOL_PICARD:
            report.converged = True
            return cur, report
        prev = cur
    report.converged = force_n is not None
    return cur, report


def _direct_plan(window: NoiseRealization, cfg: SolverConfig, model: ModelSpec,
                 coeff: CoefficientSpec, measure: LevyMeasureSpec, u0: GalerkinVector,
                 level: float) -> PathSegment | None:
    """The direct scheme on the window at the level, or None if it overflows."""
    try:
        return solver.baseline_direct(window, cfg, model, coeff, measure, u0, level)
    except NonFiniteStateError:
        return None


def concatenate_windows(noise: NoiseRealization, cfg: SolverConfig,
                        model: ModelSpec, coeff: CoefficientSpec,
                        measure: LevyMeasureSpec, level: float,
                        u0: GalerkinVector):
    """Patch local fixed-point windows across the horizon.

    Each window runs until its dissipation budget is spent at a grid time
    (or the window cap), then restarts from the attained state.  Returns
    (path, stop_times, crossing_index); ``crossing_index`` is the
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
        return path, [], 0

    all_states = [np.asarray(u0, dtype=float).reshape(1, dim)]
    stop_times = []
    xi_total = 0.0
    s = 0
    state = np.asarray(u0, dtype=float)
    while s < total:
        # up to five attempts, halving the window after each failure; the
        # first iterates from the direct scheme
        for attempt in range(5):
            w_try = max(1, min(cfg.window_steps, total - s) >> attempt)
            window = slice_steps(noise, s, w_try)
            plan = None if attempt else _direct_plan(window, cfg, model, coeff, measure,
                                                     state, level)
            try:
                path, report = picard_local(window, cfg, model, coeff, measure, cutoff,
                                            state, start=plan)
            except NonFiniteStateError as exc:
                # the window's path counts from its start; name the path's index
                local = int(str(exc).rsplit(" ", 1)[1])
                raise NonFiniteStateError(
                    f"non-finite state at grid index {s + local}") from exc
            if report.converged:
                break
        else:
            raise PicardDivergenceError(
                f"window at step {s} failed to contract even at {w_try} steps")
        trig = np.flatnonzero(path.xi_sq[1:] >= budget_sq)
        cut = int(trig[0]) + 1 if trig.size else path.n_steps
        kept = path.states[1:cut + 1]
        hit = np.flatnonzero(h_norm_rows(kept) >= level)
        if hit.size:
            idx = int(hit[0])
            all_states.append(kept[:idx + 1])
            full = np.vstack(all_states)
            part = PathSegment.from_states(model.basis, noise.t0, noise.dt, full)
            return part, stop_times, s + idx + 1
        all_states.append(kept)
        s += cut
        stop_times.append(noise.t0 + s * noise.dt)
        xi_total += float(path.xi_sq[cut])
        if xi_total > solver._BUDGET_CEILING:
            raise BlowupError(
                "dissipation integral passed the ceiling "
                f"({xi_total:.3g} > {solver._BUDGET_CEILING:.3g}); "
                "treating the path as blown up")
        state = path.states[cut]
    full = np.vstack(all_states)
    return (PathSegment.from_states(model.basis, noise.t0, noise.dt, full),
            stop_times, None)


def global_solve(noise: NoiseRealization, cfg: SolverConfig, model: ModelSpec,
                 coeff: CoefficientSpec, measure: LevyMeasureSpec,
                 u0: GalerkinVector) -> SolveOutcome:
    """Escalate the cutoff level until the path never reaches it; errors raise."""
    level = cfg.level
    for attempt in range(solver._MAX_LEVELS):
        if attempt:
            level = level * _LEVEL_GROWTH
        path, stops, crossing = concatenate_windows(
            noise, cfg, model, coeff, measure, level, u0)
        if crossing is None:
            break
    return SolveOutcome(trajectory=path, stop_times=stops, level_final=level,
                        blowup_flag=crossing is not None)

