"""Cutoff fixed-point solver, window concatenation, and the direct scheme.

One time step of the linearized equation treats the operator semi-implicitly
(resolvent, or exact exponential) and everything else explicitly:

    y_{k+1} = S_dt [ y_k + dt (f - c_k B(a_k, y_k))
                     + Psi(y_k) dW_k + G(y_k, Z_k - dt m1) ],

where a is the frozen advecting path and c_k combines the state-level and
dissipation-budget cutoffs evaluated on it.  Jump coefficients use the
left-endpoint state and are linear in the mark, so the jumps of a step and
the compensator G(y_k, m1) dt enter through the step's mark sum Z_k.

The fixed-point loop re-solves against the previous iterate until the
sup-norm plus dissipation-norm increment falls below tolerance.  Windows
are concatenated at the first grid time whose accumulated dissipation norm
spends the budget (capped at the window length), and the whole
construction is patched in the level m: if the path reaches level m the
level doubles and the same noise is re-solved.

On the grid, the kept steps of a window's fixed point are the direct scheme
with the level cutoff: the scheme is causal, and the budget factor is
exactly 1 before the cut.  So :func:`ensemble_solve` takes every window at
its plan, with no fixed-point sweep: each level attempt solves the open
paths from u0 with one lockstep direct pass, and :func:`concatenate_windows`
cuts a round of windows of every row with one cumulative sum that restarts
at each window's start.  States the direct pass computes past a path's
level crossing are never kept, even where they overflow.
:func:`picard_ensemble` iterates windows of one length as the lanes of one
batch, each of which sweeps until the loop stops, and :func:`picard_local`
one; they report the sweeps that ``converge`` and the acceptance suite read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cutoffs import Cutoff
from .models import ModelSpec
from .noise import (CoefficientSpec, LevyMeasureSpec, NoiseRealization,
                    jump_coefficient, sample_ensemble, wiener_apply)
from .spaces import (GalerkinVector, NonFiniteStateError, PathSegment,
                     SpectralBasis, h_norm_rows, v_norm_sq_rows)


class BlowupError(RuntimeError):
    """Accumulated dissipation passed the ceiling ``_BUDGET_CEILING``.

    The continuation criterion is that the dissipation integral stays
    finite up to the horizon; passing the ceiling is treated as numerical
    blow-up.
    """


@dataclass(frozen=True)
class SolverConfig:
    horizon: float = 1.0
    dt: float = 0.01
    window: float = 0.1          # local fixed-point window length
    budget: float = 0.5          # dissipation-norm budget per window
    level: float = 10.0          # initial state-norm cutoff level
    stepper: str = "resolvent"   # resolvent | exponential
    _MAX_STEPS = np.iinfo(np.intp).max   # a step count must fit the index type

    def __post_init__(self):
        if not 0 < self.dt <= self.horizon:
            raise ValueError("need 0 < dt <= horizon")
        if not (self.window > 0 and self.budget > 0):
            raise ValueError("window and budget must be positive")
        if not max(self.horizon, self.window) / self.dt < self._MAX_STEPS:
            raise ValueError("horizon or window spans more steps of dt than an index holds")
        if self.stepper not in ("resolvent", "exponential"):
            raise ValueError(f"unknown stepper {self.stepper!r}")
        if not self.level > 0:
            raise ValueError("need level > 0")

    @property
    def n_steps(self) -> int:
        k = int(round(self.horizon / self.dt))
        if abs(k * self.dt - self.horizon) > 1e-9 * max(1.0, self.horizon):
            raise ValueError("horizon must be a whole number of steps")
        return k

    @property
    def window_steps(self) -> int:
        """Steps of a window, capped at the horizon."""
        return max(1, int(round(min(self.window, self.horizon) / self.dt)))


@dataclass
class IterationReport:
    """Per-sweep increments of one fixed-point run: the sup and dissipation
    norms of each iterate's change, which ``converge``'s contraction report
    reads.  The capped energy and convection cross quantities of the
    iteration analysis are test references, evaluated from whole iterates."""

    iterations_used: int = 0
    converged: bool = False
    sup_increments: list = field(default_factory=list)
    xi_increments: list = field(default_factory=list)


@dataclass(frozen=True)
class SolveOutcome:
    trajectory: PathSegment
    stop_times: list
    level_final: float
    blowup_flag: bool


def step_factors(basis: SpectralBasis, dt: float, stepper: str) -> np.ndarray:
    """Per-mode factors of (I + dt A)^-1 (``resolvent``) or exp(-dt A)."""
    lam = basis.eigenvalues
    if stepper == "resolvent":
        return 1.0 / (1.0 + dt * lam)
    return np.exp(-dt * lam)


def linear_step(y: np.ndarray, conv: np.ndarray, dt: float, coeff: CoefficientSpec,
                dw: np.ndarray, jumps, factors: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """One semi-implicit step of states ``y`` of shape (..., dim), written to ``out``.

    ``conv`` holds the rows c_k B(a_k, y), ``dw`` each row's Wiener
    increments and ``jumps`` (of the batch shape of ``y``) each row's
    compensated mark sum Z_k - dt m1, or None on a step where every row's
    is 0.  Since G is linear in the mark, the jumps and the compensator act
    as the single term G(y, Z_k - dt m1); a row whose term is zero gets
    none, since adding zeros turns -0.0 into +0.0.  Finiteness is left to
    the callers.
    """
    acc = y + dt * (coeff.forcing - conv)
    if dw.size:
        acc = acc + wiener_apply(coeff, y, dw)
    if jumps is not None:
        z = np.asarray(jumps)[..., None]
        acc = np.where(z != 0.0, acc + jump_coefficient(coeff, y, z), acc)
    return np.multiply(factors, acc, out=out)


def _compensated(mark_sums: np.ndarray, dt: float, measure: LevyMeasureSpec):
    """Per step of a (steps, rows) grid of mark sums, the rows' compensated
    sums Z_k - dt m1, or None where every row's is 0."""
    jumps = mark_sums - dt * measure.m1
    return [z if on else None for z, on in zip(jumps, jumps.any(axis=1).tolist())]


def _stack(noises: list[NoiseRealization]):
    """t0 and dt of the realizations' one grid, their Wiener increments
    (steps, paths, dims) and their mark sums (steps, paths)."""
    if len({(r.t0, r.dt, r.n_steps) for r in noises}) != 1:
        raise ValueError("an ensemble needs realizations on one grid")
    return (noises[0].t0, noises[0].dt, np.stack([r.wiener for r in noises], axis=1),
            np.stack([r.mark_sums for r in noises], axis=1))


def _direct(wiener, mark_sums, y0, dt, cfg, model, coeff, measure, level):
    """States (rows, steps + 1, dim) of the direct scheme from the rows ``y0``.

    Each row steps as it would alone.  The level factor is exactly 1 below
    the level, so it is evaluated only on steps where some row is not below.
    """
    cutoff = Cutoff(level=level)
    factors = step_factors(model.basis, dt, cfg.stepper)
    states = np.empty((len(y0), len(mark_sums) + 1, model.basis.dim))
    states[:, 0] = y0
    for k, jumps in enumerate(_compensated(mark_sums, dt, measure)):
        y = states[:, k]
        conv = model.b_apply(y, y)
        if level is not None:
            norm = h_norm_rows(y)
            if not (norm < level).all():
                c = cutoff.factor(norm, 0.0)[:, None]
                conv = np.where(c != 0.0, c * conv, 0.0)
        linear_step(y, conv, dt, coeff, wiener[k], jumps, factors, out=states[:, k + 1])
    return states


def direct_ensemble(noises: list[NoiseRealization], cfg: SolverConfig,
                    model: ModelSpec, coeff: CoefficientSpec,
                    measure: LevyMeasureSpec, u0: GalerkinVector,
                    level: float | None = None) -> list[PathSegment]:
    """Direct semi-implicit scheme with convection at the current state,
    stepping realizations on one grid in lockstep over (paths, dim) states."""
    t0, dt, wiener, mark_sums = _stack(noises)
    y0 = np.broadcast_to(np.asarray(u0, dtype=float), (len(noises), model.basis.dim))
    states = _direct(wiener, mark_sums, y0, dt, cfg, model, coeff, measure, level)
    return [PathSegment.from_states(model.basis, t0, dt, s) for s in states]


def baseline_direct(noise: NoiseRealization, cfg: SolverConfig, model: ModelSpec,
                    coeff: CoefficientSpec, measure: LevyMeasureSpec,
                    u0: GalerkinVector, level: float | None = None) -> PathSegment:
    """The direct scheme on one realization: a one-path :func:`direct_ensemble`."""
    return direct_ensemble([noise], cfg, model, coeff, measure, u0, level)[0]


def solve_linearized(advecting, advecting_xi, y0, wiener, mark_sums,
                     dt, cfg, model, coeff, measure, cutoff):
    """One sweep of every lane of a batch: solve each with convection frozen
    along its advecting path, and return the states.

    Lane i steps the whole window from ``y0[i]`` with the noise
    ``wiener[:, i]`` and ``mark_sums[:, i]``.  Its convection rows
    c_k B(a_k, y_k) are zero where c_k is 0 (as on a zero advecting state,
    since B(0, y) = 0) and evaluated only where c_k is not.
    """
    factors = step_factors(model.basis, dt, cfg.stepper)
    c = np.where(advecting.any(axis=-1), cutoff.along(advecting, advecting_xi), 0.0)
    states = np.empty_like(advecting)
    states[:, 0] = y0
    for k, jumps in enumerate(_compensated(mark_sums, dt, measure)):
        row = np.zeros((len(y0), model.basis.dim))
        on = np.flatnonzero(c[:, k])
        if on.size:
            row[on] = c[on, k, None] * model.b_apply(advecting[on, k], states[on, k])
        linear_step(states[:, k], row, dt, coeff, wiener[k], jumps, factors,
                    out=states[:, k + 1])
    return states


def _picard_lanes(wiener, mark_sums, y0, dt, cfg, model, coeff, measure, cutoff,
                  force_n=None):
    """The fixed-point iteration on windows of one length at once, one per
    lane of :func:`solve_linearized`, each from the zero path.

    Every lane sweeps until the loop stops: after ``force_n`` sweeps, or
    without it once every lane's sup + xi increment is within tolerance (or
    after ``_MAX_PICARD`` sweeps).  A sweep keeps only what the next one and
    the reports read: the iterate, its dissipation sums and the increments.
    Returns the lanes' last iterates and a report per lane.  A sweep that
    leaves any lane non-finite is the last: it is not reported.
    """
    basis, (n_lanes, n) = model.basis, (len(y0), len(mark_sums))
    reports = [IterationReport(converged=force_n is not None) for _ in range(n_lanes)]
    # the last iterate and its dissipation sums
    prev, xi_sq = np.zeros((n_lanes, n + 1, basis.dim)), np.zeros((n_lanes, n + 1))
    for sweep in range(1, (_MAX_PICARD if force_n is None else force_n) + 1):
        cur = solve_linearized(prev, xi_sq, y0, wiener, mark_sums,
                               dt, cfg, model, coeff, measure, cutoff)
        if not np.isfinite(cur).all():
            return cur, reports
        d = cur - prev
        sup = np.sqrt(np.square(d).sum(axis=-1)).max(axis=-1)
        xi_inc = np.sqrt(dt * v_norm_sq_rows(d[:, :-1], basis).sum(axis=-1))
        xi_sq = np.zeros_like(xi_sq)
        np.cumsum(dt * v_norm_sq_rows(cur[:, :-1], basis), axis=-1, out=xi_sq[:, 1:])
        done = sup + xi_inc <= _TOL_PICARD
        for j, rep in enumerate(reports):
            rep.sup_increments.append(float(sup[j]))
            rep.xi_increments.append(float(xi_inc[j]))
            rep.iterations_used = sweep
            if force_n is None:
                rep.converged = bool(done[j])
        prev = cur
        if force_n is None and done.all():
            break
    return prev, reports


def picard_ensemble(noises: list[NoiseRealization], cfg: SolverConfig,
                    model: ModelSpec, coeff: CoefficientSpec,
                    measure: LevyMeasureSpec, cutoff: Cutoff, u0: GalerkinVector,
                    force_n: int | None = None) -> list[tuple[PathSegment, IterationReport]]:
    """Iterate the linearized solve against its own output on each realization
    (all on one grid) as the lanes of one batch: ``force_n`` runs that many
    sweeps, and without it every lane sweeps until the last has converged."""
    t0, dt, wiener, mark_sums = _stack(noises)
    y0 = np.broadcast_to(np.asarray(u0, dtype=float), (len(noises), model.basis.dim))
    states, reports = _picard_lanes(wiener, mark_sums, y0, dt, cfg, model, coeff,
                                    measure, cutoff, force_n)
    return [(PathSegment.from_states(model.basis, t0, dt, s), r)
            for s, r in zip(states, reports)]


def picard_local(noise: NoiseRealization, cfg: SolverConfig, model: ModelSpec,
                 coeff: CoefficientSpec, measure: LevyMeasureSpec,
                 cutoff: Cutoff, u0: GalerkinVector,
                 force_n: int | None = None) -> tuple[PathSegment, IterationReport]:
    """The fixed-point iteration on one window: a one-lane :func:`picard_ensemble`."""
    return picard_ensemble([noise], cfg, model, coeff, measure, cutoff, u0, force_n)[0]


def concatenate_windows(inc: np.ndarray, stop: np.ndarray, cfg: SolverConfig):
    """(start, steps, cut, xi) of the windows of each row, each (rows, windows).

    ``inc`` holds each row's increments dt |y_k|_V^2 along one direct block.
    A row's windows follow each other from index 0 until one would start at
    ``stop`` or the end of the block.  A window spans the window cap (or the
    rest of the block) and is cut where its own dissipation sum reaches
    budget^2, ``xi`` the sum at its cut.  Each round of windows is one
    (rows, window) cumulative sum that restarts at every row's window start,
    so each cut and ``xi`` has the bits of its window summed alone.  Past a
    row's last window, steps, cut and xi are 0.
    """
    rows, n = inc.shape
    lag, budget_sq = np.arange(cfg.window_steps), cfg.budget * cfg.budget
    every = np.arange(rows)
    start, stop = np.zeros(rows, dtype=np.intp), np.minimum(stop, n)
    rounds = []
    while (open_ := start < stop).any():
        steps = np.where(open_, np.minimum(lag.size, n - start), 0)
        sums = np.cumsum(inc[every[:, None], np.minimum(start[:, None] + lag, n - 1)], axis=1)
        trig = (sums >= budget_sq) & (lag < steps[:, None])
        cut = np.where(trig.any(axis=1), trig.argmax(axis=1) + 1, steps)
        xi = np.where(open_, sums[every, np.maximum(cut - 1, 0)], 0.0)
        rounds.append((start, steps, cut, xi))
        start = start + cut
    if not rounds:
        return (np.zeros((rows, 0), dtype=np.intp),) * 3 + (np.zeros((rows, 0)),)
    return tuple(np.stack(x, axis=1) for x in zip(*rounds))


# factor by which a path's level grows after it reaches the level
_LEVEL_GROWTH = 2.0

# numerical guards, not parameters of the scheme
_TOL_PICARD = 1e-8      # a window has converged once sup + xi increments are at most this
_MAX_PICARD = 25        # sweeps after which a fixed-point loop stops unconverged
_MAX_LEVELS = 12        # level attempts before a path ends capped
_BUDGET_CEILING = 1e12  # a dissipation integral past this is treated as a blow-up


def ensemble_solve(noises: list[NoiseRealization], cfg: SolverConfig,
                   model: ModelSpec, coeff: CoefficientSpec,
                   measure: LevyMeasureSpec, u0: GalerkinVector) -> list:
    """Solve each realization (all on one grid) as :func:`global_solve` does.

    Returns per path its :class:`SolveOutcome`, or the error that ended it;
    the other paths go on.  Each level attempt solves every open path from
    u0 with one lockstep direct pass at the attempt's level, and
    :func:`concatenate_windows` cuts the windows of every row at once.  Up
    to its cut a window's fixed point is its direct states, so each window
    is taken at its plan, and a path's dissipation sums are the running sum
    of the increments its windows were cut on.  A path ends non-finite if
    its states overflow before its crossing (or the horizon), blown up once
    its running dissipation integral passes the ceiling, and solved at the
    horizon.  A path that reaches the level re-runs at the grown level in
    the next attempt; on the last attempt it ends capped at the crossing.
    """
    outcomes = [None] * len(noises)
    if not noises:
        return outcomes
    t0, dt, wiener, mark_sums = _stack(noises)
    n, basis = len(mark_sums), model.basis
    u0 = np.asarray(u0, dtype=float)
    rows, level = np.arange(len(noises)), cfg.level
    for attempt in range(_MAX_LEVELS):
        last = attempt + 1 == _MAX_LEVELS
        states = _direct(wiener[:, rows], mark_sums[:, rows],
                         np.broadcast_to(u0, (len(rows), basis.dim)), dt, cfg, model,
                         coeff, measure, level)
        finite = np.isfinite(states).all(axis=-1)
        hit = h_norm_rows(states) >= level
        # first non-finite state and level crossing of each row, n + 1 for none
        broken = np.where(finite.all(axis=1), n + 1, finite.argmin(axis=1))
        crossing = np.where(hit.any(axis=1), hit.argmax(axis=1), n + 1)
        nonfinite = broken <= np.minimum(crossing, n)
        again = ~nonfinite & (crossing <= n) & (not last)
        plannable = ~nonfinite & ~again & (crossing > 0)
        # the rows that end here unplanned or re-run are read no more:
        # zeroed, their states (which may overflow) give no V norms
        states[~plannable] = 0.0
        inc = dt * v_norm_sq_rows(states[:, :-1], basis)
        start, steps, cut, xi = concatenate_windows(inc, np.where(plannable, crossing, 0), cfg)
        # what ends each row's windows: the crossing (on the last attempt),
        # the blow-up ceiling or the horizon
        end = start + cut
        over = (steps > 0) & (end >= crossing[:, None])
        running = np.cumsum(xi, axis=1)
        ends_run = over | (steps > 0) & ((running > _BUDGET_CEILING) | (end == n))
        first = ends_run.argmax(axis=1).tolist() if plannable.any() else []
        for r, i in enumerate(rows.tolist()):
            if nonfinite[r]:
                outcomes[i] = NonFiniteStateError(
                    f"non-finite state at grid index {broken[r]}")
            elif last and crossing[r] == 0:     # u0 is at the last attempt's level
                origin = PathSegment.from_states(basis, t0, dt, u0[None].copy())
                outcomes[i] = SolveOutcome(origin, [], level, True)
            elif plannable[r]:
                j = first[r]
                taken = j + (not over[r, j])
                if not over[r, j] and running[r, j] > _BUDGET_CEILING:
                    outcomes[i] = BlowupError(
                        f"dissipation integral passed the ceiling ({running[r, j]:.3g} > "
                        f"{_BUDGET_CEILING:.3g}); treating the path as blown up")
                    continue
                e = int(crossing[r] if over[r, j] else end[r, taken - 1])
                traj = PathSegment(basis, float(t0), float(dt), states[r, :e + 1].copy(),
                                   np.cumsum(np.concatenate(([0.0], inc[r, :e]))))
                outcomes[i] = SolveOutcome(traj, (t0 + end[r, :taken] * dt).tolist(),
                                           level, bool(over[r, j]))
        rows = rows[again]
        if not rows.size:
            break
        level = level * _LEVEL_GROWTH
    return outcomes


def global_solve(noise: NoiseRealization, cfg: SolverConfig, model: ModelSpec,
                 coeff: CoefficientSpec, measure: LevyMeasureSpec,
                 u0: GalerkinVector) -> SolveOutcome:
    """Escalate the cutoff level until the path never reaches it (or the
    last attempt ends it capped at its crossing): a one-path
    :func:`ensemble_solve` that raises the error that ended the path."""
    out = ensemble_solve([noise], cfg, model, coeff, measure, u0)[0]
    if isinstance(out, Exception):
        raise out
    return out


_REF_FACTOR = 8   # strong_order_study's reference grid steps dt / 8


def strong_order_study(cfg: SolverConfig, model: ModelSpec, coeff: CoefficientSpec,
                       measure: LevyMeasureSpec, wiener, u0: GalerkinVector,
                       n_paths: int, base_seed: int):
    """Measured strong self-convergence order of the direct scheme.

    Per path one fine realization drives runs at dt and dt/2 (increments
    aggregated onto the coarser grids) against the dt/8 reference; the
    order is log2 of the ratio of mean sup errors on the coarse grid.
    """
    fine = sample_ensemble(cfg.n_steps * _REF_FACTOR, cfg.dt / _REF_FACTOR, measure,
                           wiener, base_seed, n_paths)
    ref = direct_ensemble(fine, cfg, model, coeff, measure, u0)

    def mean_sup_error(factor):
        paths = direct_ensemble([r.coarsen(factor) for r in fine], cfg, model,
                                coeff, measure, u0)
        stride = _REF_FACTOR // factor
        return float(np.mean([
            np.sqrt(((p.states[::stride] - r.states[::_REF_FACTOR]) ** 2).sum(axis=1)).max()
            for p, r in zip(paths, ref)]))

    e1, e2 = mean_sup_error(_REF_FACTOR), mean_sup_error(_REF_FACTOR // 2)
    order = float(np.log2(e1 / e2)) if e2 > 0 else np.inf
    return order, e1, e2
