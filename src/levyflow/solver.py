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
exactly 1 before the cut.  So :func:`ensemble_solve` plans every window of
every path with a lockstep direct pass and accepts each window whose direct
states are finite as they stand, with no fixed-point sweep.  It plans and
accepts the rows of a start step as one block: :func:`concatenate_windows`
cuts a round of windows of every row with one cumulative sum that restarts
at each window's start, and a path that one plan carries to the horizon is
a slice of the block.  Only a window whose direct states overflow (past the
level crossing, on the last level attempt) runs the fixed-point loop, on
its own and from the zero path, halved in place until it converges, as the
sequential construction does.  Each iterated window, halved or not, ends
its path's round; the next round re-plans from the state the path reached.
:func:`picard_ensemble` iterates windows of one length as the lanes of one
batch, each of which sweeps until the loop stops, and :func:`picard_local`
one.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics
from .cutoffs import Cutoff
from .models import ModelSpec
from .noise import (CoefficientSpec, LevyMeasureSpec, NoiseRealization,
                    jump_coefficient, sample_ensemble, wiener_apply)
from .spaces import (GalerkinVector, NonFiniteStateError, PathSegment,
                     SpectralBasis, h_norm_rows, v_norm_sq_rows)


class PicardDivergenceError(RuntimeError):
    """The fixed-point loop failed to contract even after window shrinking."""


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


def solve_linearized(advecting, advecting_xi, conv, y0, wiener, mark_sums,
                     dt, cfg, model, coeff, measure, cutoff):
    """One sweep of every lane of a batch: solve each with convection frozen
    along its advecting path.

    Lane i steps the whole window from ``y0[i]`` with the noise
    ``wiener[:, i]`` and ``mark_sums[:, i]``.  ``conv`` holds the convection
    rows of the sweep that made ``advecting`` and is overwritten with this
    sweep's rows c_k B(a_k, y_k), which are zero where c_k is 0 (as on a
    zero advecting state, since B(0, y) = 0) and evaluated only where c_k is
    not.  Returns the states and, per lane, the change of its rows paired
    with the increment y_k - a_k and summed over the steps.
    """
    factors = step_factors(model.basis, dt, cfg.stepper)
    c = np.where(advecting.any(axis=-1), cutoff.along(advecting, advecting_xi), 0.0)
    states = np.empty_like(advecting)
    states[:, 0] = y0
    cross = np.zeros(len(y0))
    for k, jumps in enumerate(_compensated(mark_sums, dt, measure)):
        row = np.zeros((len(y0), model.basis.dim))
        on = np.flatnonzero(c[:, k])
        if on.size:
            row[on] = c[on, k, None] * model.b_apply(advecting[on, k], states[on, k])
        cross += np.vecdot(row - conv[:, k], states[:, k] - advecting[:, k])
        conv[:, k] = row
        linear_step(states[:, k], row, dt, coeff, wiener[k], jumps, factors,
                    out=states[:, k + 1])
    return states, cross


def _picard_lanes(wiener, mark_sums, y0, dt, cfg, model, coeff, measure, cutoff,
                  force_n=None):
    """The fixed-point iteration on windows of one length at once, one per
    lane of :func:`solve_linearized`, each from the zero path.

    Every lane sweeps until the loop stops: after ``force_n`` sweeps, or
    without it once every lane's sup + xi increment is within tolerance (or
    after ``_MAX_PICARD`` sweeps).  The cross integrals pair the difference
    of the convection rows of the last two sweeps against the newest
    increment, and the budget integrals the capped energy rows of the last
    two iterates, both from sweep 2 on.  Returns the lanes' last iterates
    and their dissipation sums, a report per lane, and per lane the grid
    index of its first non-finite state, or -1.  A sweep that leaves any
    lane non-finite is the last: it is not reported, and the sums are None.
    """
    basis, (n_lanes, n) = model.basis, (len(y0), len(mark_sums))
    reports = [IterationReport(converged=force_n is not None) for _ in range(n_lanes)]
    # the last iterate, its dissipation sums and the convection rows of the
    # sweep that made it (none for iterate 0), and the capped energy rows of
    # the last two iterates
    prev, xi_sq = np.zeros((n_lanes, n + 1, basis.dim)), np.zeros((n_lanes, n + 1))
    conv = np.zeros((n_lanes, n, basis.dim))
    before = cap = np.zeros((n_lanes, n + 1))
    for sweep in range(1, (_MAX_PICARD if force_n is None else force_n) + 1):
        cur, cross = solve_linearized(prev, xi_sq, conv, y0, wiener, mark_sums,
                                      dt, cfg, model, coeff, measure, cutoff)
        finite = np.isfinite(cur).all(axis=-1)
        if not finite.all():
            return cur, None, reports, np.where(finite.all(axis=-1), -1,
                                                finite.argmin(axis=-1))
        d = cur - prev
        sup = np.sqrt(np.square(d).sum(axis=-1)).max(axis=-1)
        xi_inc = np.sqrt(dt * v_norm_sq_rows(d[:, :-1], basis).sum(axis=-1))
        budget = dt * (before + cap)[:, :-1].sum(axis=-1)
        vsq = v_norm_sq_rows(cur, basis)
        xi_sq = np.zeros_like(xi_sq)
        np.cumsum(dt * vsq[:, :-1], axis=-1, out=xi_sq[:, 1:])
        done = sup + xi_inc <= _TOL_PICARD
        for j, rep in enumerate(reports):
            rep.sup_increments.append(float(sup[j]))
            rep.xi_increments.append(float(xi_inc[j]))
            if sweep > 1:
                rep.cross_integrals.append(float(dt * cross[j]))
                rep.budget_integrals.append(float(budget[j]))
            rep.iterations_used = sweep
            if force_n is None:
                rep.converged = bool(done[j])
        prev, before, cap = cur, cap, diagnostics.capped_energy_rows(vsq, xi_sq, cutoff)
        if force_n is None and done.all():
            break
    return prev, xi_sq, reports, np.full(n_lanes, -1)


def picard_ensemble(noises: list[NoiseRealization], cfg: SolverConfig,
                    model: ModelSpec, coeff: CoefficientSpec,
                    measure: LevyMeasureSpec, cutoff: Cutoff, u0: GalerkinVector,
                    force_n: int | None = None) -> list[tuple[PathSegment, IterationReport]]:
    """Iterate the linearized solve against its own output on each realization
    (all on one grid) as the lanes of one batch: ``force_n`` runs that many
    sweeps, and without it every lane sweeps until the last has converged."""
    t0, dt, wiener, mark_sums = _stack(noises)
    y0 = np.broadcast_to(np.asarray(u0, dtype=float), (len(noises), model.basis.dim))
    states, _, reports, _ = _picard_lanes(wiener, mark_sums, y0, dt, cfg, model, coeff,
                                          measure, cutoff, force_n)
    return [(PathSegment.from_states(model.basis, t0, dt, s), r)
            for s, r in zip(states, reports)]


def picard_local(noise: NoiseRealization, cfg: SolverConfig, model: ModelSpec,
                 coeff: CoefficientSpec, measure: LevyMeasureSpec,
                 cutoff: Cutoff, u0: GalerkinVector,
                 force_n: int | None = None) -> tuple[PathSegment, IterationReport]:
    """The fixed-point iteration on one window: a one-lane :func:`picard_ensemble`."""
    return picard_ensemble([noise], cfg, model, coeff, measure, cutoff, u0, force_n)[0]


def _cut(sums: np.ndarray, budget: float) -> int:
    """Steps up to the first dissipation sum that reaches budget^2, else all."""
    trig = np.flatnonzero(sums >= budget * budget)
    return int(trig[0]) + 1 if trig.size else len(sums)


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


@dataclass
class _Path:
    """A path of :func:`ensemble_solve` at one level: its accepted states (the
    whole path with its dissipation sums ``xi_sq``, once one plan holds it),
    and the grid index and state where its next window starts."""

    level: float
    attempt: int
    state: np.ndarray
    kept: list
    s: int = 0
    xi_total: float = 0.0
    xi_sq: np.ndarray | None = None
    outcome: object = None
    stops: list = field(default_factory=list)
    reports: list = field(default_factory=list)


# factor by which a path's level grows after it reaches the level
_LEVEL_GROWTH = 2.0

# numerical guards, not parameters of the scheme
_TOL_PICARD = 1e-8      # a window has converged once sup + xi increments are at most this
_MAX_PICARD = 25        # sweeps before a window that has not converged is halved
_MAX_LEVELS = 12        # level attempts before a path ends capped
_BUDGET_CEILING = 1e12  # a dissipation integral past this is treated as a blow-up


def ensemble_solve(noises: list[NoiseRealization], cfg: SolverConfig,
                   model: ModelSpec, coeff: CoefficientSpec,
                   measure: LevyMeasureSpec, u0: GalerkinVector) -> list:
    """Solve each realization (all on one grid) as :func:`global_solve` does.

    Returns per path its :class:`SolveOutcome`, or the error that ended it;
    the other paths go on.  Each round plans the open paths with a lockstep
    direct pass per start step, each row cut off at its own path's level, and
    a path that reaches its level before the last attempt re-runs at the
    grown level in the next round.  Up to its cut a window's fixed point is
    its direct states, so a window whose direct states are finite is
    accepted as they stand: its kept states, cut and level crossing are the
    plan's, and its report reads 0 iterations, converged.  The rows of a
    start step are planned and accepted together: array operations over the
    block and the windows :func:`concatenate_windows` cuts give each row's
    crossing, first non-finite state, stop times, running dissipation
    integral and blow-up, and so the windows it takes at their plan.  A path
    that one plan carries from the start to the horizon is a row of the
    block, with the block's increments as its dissipation sums; a path of
    several plans or iterated windows is joined and summed at its end.  Only
    on the last level attempt can the direct states overflow past the
    crossing; the first window of a row that reaches such states is
    iterated on its own at its path's level, from the zero path and with
    the state the path reached as its start, and halved in place (up to 4
    times) until it converges.  Each iterated window, halved or not, ends
    its path's round; the next round re-plans from the state the path
    reached.
    """
    if not noises:
        return []
    t0, dt, wiener, mark_sums = _stack(noises)
    total, basis, width = len(mark_sums), model.basis, cfg.window_steps
    u0 = np.asarray(u0, dtype=float)
    paths = [_Path(cfg.level, 0, u0, [u0[None]]) for _ in noises]

    def finish(p, error=None, capped=False):
        p.outcome = error
        if error is None:
            # a path that is not a whole row of a block is summed as one path:
            # a matrix-vector product may round the last rows of a matrix
            # apart from the same rows of a longer one
            traj = (PathSegment(basis, float(t0), float(dt), p.kept[0], p.xi_sq)
                    if p.xi_sq is not None
                    else PathSegment.from_states(basis, t0, dt, np.vstack(p.kept)))
            p.outcome = SolveOutcome(traj, p.stops, p.level, capped, p.reports)
        p.kept = None

    def crossed(i, p, tail):
        """Grow the level of path i, or end it capped after the states ``tail``."""
        if p.attempt + 1 < _MAX_LEVELS:
            paths[i] = _Path(p.level * _LEVEL_GROWTH, p.attempt + 1, u0, [u0[None]])
        else:
            p.kept.append(tail)
            finish(p, capped=True)

    def take(p, reports, ends, xi_total, state):
        """Move path p past its windows that end at the grid indices ``ends``,
        its states already kept, and end it at the ceiling or the horizon."""
        p.reports += reports
        p.stops += (t0 + ends * dt).tolist()
        p.s, p.xi_total, p.state = int(ends[-1]), float(xi_total), state
        if p.xi_total > _BUDGET_CEILING:
            finish(p, BlowupError(
                f"dissipation integral passed the ceiling ({p.xi_total:.3g} > "
                f"{_BUDGET_CEILING:.3g}); treating the path as blown up"))
        elif p.s == total:
            finish(p)

    def iterate(i):
        """Iterate path i's next window from the state it reached, halved in
        place until it converges, and take it."""
        p, s = paths[i], paths[i].s
        for halving in range(5):
            steps = max(1, min(width, total - s) >> halving)
            states, xi, (rep,), (bad,) = _picard_lanes(
                wiener[s:s + steps, i:i + 1], mark_sums[s:s + steps, i:i + 1],
                p.state[None], dt, cfg, model, coeff, measure, Cutoff(p.level, cfg.budget))
            if bad >= 0 or rep.converged:
                break
        if bad >= 0:
            finish(p, NonFiniteStateError(f"non-finite state at grid index {s + bad}"))
        elif not rep.converged:
            finish(p, PicardDivergenceError(
                f"window at step {s} failed to contract even at {steps} steps"))
        else:
            end = _cut(xi[0, 1:], cfg.budget)
            kept = states[0, 1:end + 1]
            hit = np.flatnonzero(h_norm_rows(kept) >= p.level)
            if hit.size:
                crossed(i, p, kept[:hit[0] + 1])
            else:
                p.kept.append(kept)
                take(p, [rep], np.array([s + end]), p.xi_total + float(xi[0, end]),
                     states[0, end])

    def plan(rows, s):
        """Plan the paths ``rows``, all at start step s, on one direct block,
        take the windows it accepts and iterate each row's first overflowing one."""
        n, open_ = total - s, [paths[i] for i in rows]
        level = np.array([p.level for p in open_])
        states = _direct(wiener[s:, rows], mark_sums[s:, rows],
                         np.array([p.state for p in open_]), dt, cfg, model, coeff,
                         measure, level)
        finite = np.isfinite(states).all(axis=-1)
        hit = h_norm_rows(states) >= level[:, None]
        # first non-finite state and level crossing of each row, n + 1 for none
        broken = np.where(finite.all(axis=1), n + 1, finite.argmin(axis=1))
        crossing = np.where(hit.any(axis=1), hit.argmax(axis=1), n + 1)
        nonfinite = broken <= np.minimum(crossing, n)
        last = np.array([p.attempt + 1 >= _MAX_LEVELS for p in open_])
        plannable = ~nonfinite & (crossing > 0) & ((crossing > n) | last)
        for r, i in enumerate(rows):
            if nonfinite[r]:
                finish(open_[r], NonFiniteStateError(
                    f"non-finite state at grid index {s + broken[r]}"))
            elif not plannable[r]:
                crossed(i, open_[r], states[r, :0])
        if not plannable.any():
            return
        # the rows that end here are read no more: zeroed, their states
        # (which may overflow) give no V norms
        states[~plannable] = 0.0
        inc = dt * v_norm_sq_rows(states[:, :-1], basis)
        start, steps, cut, xi = concatenate_windows(inc, np.where(plannable, crossing, 0), cfg)
        # what ends each row's run of windows taken at their plan: a window
        # that reaches a non-finite state (iterated, which ends the path's
        # round), the crossing, the blow-up ceiling or the horizon
        end = start + cut
        iterated = (steps > 0) & (start + steps >= broken[:, None])
        over = (steps > 0) & ~iterated & (end >= crossing[:, None])
        running = np.cumsum(np.column_stack([[p.xi_total for p in open_], xi]),
                            axis=1)[:, 1:]
        ends_run = iterated | over | (steps > 0) & ((running > _BUDGET_CEILING) | (end == n))
        first = ends_run.argmax(axis=1).tolist()
        if s == 0:
            xi_sq = np.zeros((len(rows), n + 1))
            np.cumsum(inc, axis=1, out=xi_sq[:, 1:])
        for r in np.flatnonzero(plannable).tolist():
            i, p, j = rows[r], open_[r], first[r]
            taken = j + (not (iterated[r, j] or over[r, j]))
            if taken:
                e = int(end[r, taken - 1])
                if s == 0 and e == n:   # the block's row is the whole path
                    p.kept, p.xi_sq = [states[r]], xi_sq[r]
                elif not over[r, j]:
                    p.kept.append(states[r, 1:e + 1])
                take(p, [IterationReport(iterations_used=0, converged=True)
                         for _ in range(taken)],
                     s + end[r, :taken], running[r, taken - 1], states[r, e])
            if over[r, j]:
                crossed(i, p, states[r, 1:crossing[r] + 1])
            elif iterated[r, j]:
                iterate(i)

    while any(p.outcome is None for p in paths):
        starts = defaultdict(list)
        for i, p in enumerate(paths):
            if p.outcome is None:
                starts[p.s].append(i)
        for s, rows in starts.items():
            plan(rows, s)
    return [p.outcome for p in paths]


def global_solve(noise: NoiseRealization, cfg: SolverConfig, model: ModelSpec,
                 coeff: CoefficientSpec, measure: LevyMeasureSpec,
                 u0: GalerkinVector) -> SolveOutcome:
    """Escalate the cutoff level until the path never reaches it: a one-path
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
