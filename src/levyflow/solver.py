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
level crossing, on the last level attempt) runs the fixed-point loop, from
the zero path, as a lane of one masked batch, and so do its halved retries
and :func:`picard_ensemble` and :func:`picard_local`.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
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


def solve_linearized(advecting, advecting_xi, conv, y0, wiener, mark_sums, lengths,
                     dt, cfg, model, coeff, measure, cutoff):
    """One sweep: solve each lane with convection frozen along its advecting path.

    Lane i steps ``lengths[i]`` times from ``y0[i]`` with the noise
    ``wiener[:, i]`` and ``mark_sums[:, i]``; lanes come longest first.
    ``conv`` holds the convection rows of the sweep that made ``advecting``
    and is overwritten with this sweep's rows c_k B(a_k, y_k), which are
    zero where c_k is 0 (as on a zero advecting state, since B(0, y) = 0)
    and past a lane's end, and evaluated only where c_k is not.  Returns the
    states and, per lane, the change of its rows paired with the increment
    y_k - a_k and summed over the steps.
    """
    factors = step_factors(model.basis, dt, cfg.stepper)
    c = np.where(advecting.any(axis=-1), cutoff.along(advecting, advecting_xi), 0.0)
    states = np.zeros_like(advecting)
    states[:, 0] = y0
    cross = np.zeros(len(y0))
    # the lanes inside each step, a prefix, up to the end of the longest
    stepping = (np.arange(lengths.max()) < lengths[:, None]).sum(axis=0)
    for k, (m, jumps) in enumerate(zip(stepping, _compensated(mark_sums, dt, measure))):
        row = np.zeros((m, model.basis.dim))
        on = np.flatnonzero(c[:m, k])
        if on.size:
            row[on] = c[on, k, None] * model.b_apply(advecting[on, k], states[on, k])
        cross[:m] += np.vecdot(row - conv[:m, k], states[:m, k] - advecting[:m, k])
        conv[:m, k] = row
        linear_step(states[:m, k], row, dt, coeff, wiener[k, :m],
                    None if jumps is None else jumps[:m], factors, out=states[:m, k + 1])
    return states, cross


def _picard_lanes(wiener, mark_sums, lengths, y0, dt, cfg, model, coeff,
                  measure, cutoff, force_n=None):
    """The fixed-point iteration on many windows at once, one per lane of
    :func:`solve_linearized`, each from the zero path; a converged lane
    leaves the batch.

    The cross integrals pair the difference of the convection rows of the
    last two sweeps against the newest increment, and the budget integrals
    the capped energy rows of the last two iterates, both from sweep 2 on.
    Returns per lane its last iterate and dissipation sums (zero past its
    end), its report, and the grid index of its first non-finite state,
    after which it stops (or -1).
    """
    basis, (n_lanes, n) = model.basis, (len(y0), len(mark_sums))
    states, xi_sq = [None] * n_lanes, [None] * n_lanes
    reports = [IterationReport() for _ in range(n_lanes)]
    bad = np.full(n_lanes, -1)
    live, inside = np.arange(n_lanes), np.arange(n) < lengths[:, None]
    # the live lanes' last iterate, its dissipation sums and the convection
    # rows of the sweep that made it (none for iterate 0), and the capped
    # energy rows of the last two iterates
    prev = np.zeros((n_lanes, n + 1, basis.dim))
    conv, prev_xi = np.zeros((n_lanes, n, basis.dim)), np.zeros((n_lanes, n + 1))
    before = prev_cap = np.zeros((n_lanes, n + 1))
    for sweep in range(1, (force_n if force_n is not None else _MAX_PICARD) + 1):
        if not live.size:
            break
        cur, cross = solve_linearized(prev, prev_xi, conv, y0, wiener, mark_sums,
                                      lengths, dt, cfg, model, coeff, measure, cutoff)
        finite = np.isfinite(cur).all(axis=-1)
        broken = ~finite.all(axis=-1)
        for j in np.flatnonzero(broken).tolist():
            states[live[j]], bad[live[j]] = cur[j].copy(), np.argmin(finite[j])
            cur[j] = 0.0
        d = np.subtract(cur, prev, out=prev)   # the last iterate is not read again
        np.square(d, out=d)
        sup = np.sqrt(d.sum(axis=-1)).max(axis=-1)
        xi_inc = np.sqrt(dt * ((d[:, :-1] @ basis.eigenvalues) * inside).sum(axis=-1))
        del d, prev
        budget = dt * ((before + prev_cap)[:, :-1] * inside).sum(axis=-1)
        vsq = v_norm_sq_rows(cur, basis)
        cur_xi = np.zeros_like(prev_xi)
        np.cumsum(dt * vsq[:, :-1], axis=-1, out=cur_xi[:, 1:])
        done = broken | (sup + xi_inc <= _TOL_PICARD if force_n is None else False)
        for j in np.flatnonzero(~broken).tolist():
            rep = reports[live[j]]
            rep.sup_increments.append(float(sup[j]))
            rep.xi_increments.append(float(xi_inc[j]))
            if sweep > 1:
                rep.cross_integrals.append(float(dt * cross[j]))
                rep.budget_integrals.append(float(budget[j]))
            rep.iterations_used, rep.converged = sweep, bool(done[j])
            if done[j]:
                states[live[j]], xi_sq[live[j]] = cur[j].copy(), cur_xi[j].copy()
        prev, prev_xi, before = cur, cur_xi, prev_cap
        prev_cap = diagnostics.capped_energy_rows(vsq, cur_xi, cutoff)
        del cur
        if done.any():
            keep = ~done
            # one at a time, so that each old array is freed before the next copy
            prev = prev[keep]
            conv = conv[keep]
            live, y0, lengths, inside, prev_xi, before, prev_cap = (
                x[keep] for x in (live, y0, lengths, inside, prev_xi, before, prev_cap))
            wiener, mark_sums = wiener[:, keep], mark_sums[:, keep]
    for j, lane in enumerate(live.tolist()):
        states[lane], xi_sq[lane] = prev[j], prev_xi[j]
        reports[lane].converged = force_n is not None
    return states, xi_sq, reports, bad


def picard_ensemble(noises: list[NoiseRealization], cfg: SolverConfig,
                    model: ModelSpec, coeff: CoefficientSpec,
                    measure: LevyMeasureSpec, cutoff: Cutoff, u0: GalerkinVector,
                    force_n: int | None = None) -> list[tuple[PathSegment, IterationReport]]:
    """Iterate the linearized solve against its own output on each realization
    (all on one grid) in one masked batch; ``force_n`` runs that many sweeps."""
    t0, dt, wiener, mark_sums = _stack(noises)
    y0 = np.broadcast_to(np.asarray(u0, dtype=float), (len(noises), model.basis.dim))
    states, _, reports, _ = _picard_lanes(
        wiener, mark_sums, np.full(len(noises), len(mark_sums)), y0, dt, cfg, model,
        coeff, measure, cutoff, force_n)
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
    and where the next window starts (retried ``retry`` times halved, or
    planned)."""

    level: float
    attempt: int
    state: np.ndarray
    kept: list
    s: int = 0
    retry: int = 0
    xi_total: float = 0.0
    xi_sq: np.ndarray | None = None
    outcome: object = None
    stops: list = field(default_factory=list)
    reports: list = field(default_factory=list)


# bytes of one (lanes, steps + 1, dim) array of a Picard block; bounds its lanes
_BLOCK_BYTES = 1 << 21

# factor by which a path's level grows after it reaches the level
_LEVEL_GROWTH = 2.0

# numerical guards, not parameters of the scheme
_TOL_PICARD = 1e-8      # a window has converged once sup + xi increments are at most this
_MAX_PICARD = 25        # sweeps before a window that has not converged is halved
_MAX_LEVELS = 12        # level attempts before a path ends capped
_BUDGET_CEILING = 1e12  # a dissipation integral past this is treated as a blow-up

# a window of path ``path`` at grid index s, iterated from zero on ``steps``
# from y0; ``cut`` is the planned cut, None for a halved window
_Lane = namedtuple("_Lane", "path s steps y0 cut")


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
    several plans or lanes is joined and summed at its end.  Only on the
    last level attempt can the direct states overflow past the crossing;
    the windows that reach such states become lanes of one masked Picard
    batch (in blocks bounded in bytes), iterated from zero.  A lane that
    does not converge is retried at its start on half the steps (up to 4
    times); a lane whose cut or crossing differs from the plan ends its
    path's round, which re-plans from there.
    """
    if not noises:
        return []
    t0, dt, wiener, mark_sums = _stack(noises)
    total, basis, width = len(mark_sums), model.basis, cfg.window_steps
    block_lanes = max(1, _BLOCK_BYTES // (8 * (width + 1) * basis.dim))
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
        return False

    def crossed(i, p, tail):
        """Grow the level of path i, or end it capped after the states ``tail``."""
        if p.attempt + 1 < _MAX_LEVELS:
            paths[i] = _Path(p.level * _LEVEL_GROWTH, p.attempt + 1, u0, [u0[None]])
            return False
        p.kept.append(tail)
        return finish(p, capped=True)

    def take(p, reports, ends, xi_total, state):
        """Move path p past its windows that end at the grid indices ``ends``,
        its states already kept; False if that ends it."""
        p.reports += reports
        p.stops += (t0 + ends * dt).tolist()
        p.s, p.xi_total, p.state, p.retry = int(ends[-1]), float(xi_total), state, 0
        if p.xi_total > _BUDGET_CEILING:
            return finish(p, BlowupError(
                f"dissipation integral passed the ceiling ({p.xi_total:.3g} > "
                f"{_BUDGET_CEILING:.3g}); treating the path as blown up"))
        return finish(p) if p.s == total else True

    def plan(rows, s):
        """Plan the paths ``rows``, all at start step s, on one direct block
        and take the windows it accepts; returns the lanes of the others."""
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
            return []
        # the rows that end here are read no more: zeroed, their states
        # (which may overflow) give no V norms
        states[~plannable] = 0.0
        inc = dt * v_norm_sq_rows(states[:, :-1], basis)
        start, steps, cut, xi = concatenate_windows(inc, np.where(plannable, crossing, 0), cfg)
        # what ends each row's run of windows taken at their plan: a window
        # that reaches a non-finite state (a lane, as are the rest), the
        # crossing, the blow-up ceiling or the horizon
        end = start + cut
        lane = (steps > 0) & (start + steps >= broken[:, None])
        over = (steps > 0) & ~lane & (end >= crossing[:, None])
        running = np.cumsum(np.column_stack([[p.xi_total for p in open_], xi]),
                            axis=1)[:, 1:]
        ends_run = lane | over | (steps > 0) & ((running > _BUDGET_CEILING) | (end == n))
        first = ends_run.argmax(axis=1).tolist()
        if s == 0:
            xi_sq = np.zeros((len(rows), n + 1))
            np.cumsum(inc, axis=1, out=xi_sq[:, 1:])
        lanes = []
        for r in np.flatnonzero(plannable).tolist():
            i, p, j = rows[r], open_[r], first[r]
            taken = j + (not (lane[r, j] or over[r, j]))
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
            elif lane[r, j]:
                # a window reaches its cap or the end, so the windows that
                # reach a non-finite state are the last ones
                lanes += [_Lane(i, s + a, w, states[r, a].copy(), c) for a, w, c in zip(
                    start[r, j:].tolist(), steps[r, j:].tolist(), cut[r, j:].tolist()) if w]
        return lanes

    def accept(lane, states, xi, rep, bad):
        """Take the lane's window into its path; False ends the path's round."""
        p = paths[lane.path]
        if bad >= 0:
            return finish(p, NonFiniteStateError(
                f"non-finite state at grid index {lane.s + bad}"))
        if not rep.converged:
            p.retry += 1      # halvings of the window at p.s
            if p.retry == 5:
                finish(p, PicardDivergenceError(f"window at step {lane.s} failed to "
                                                f"contract even at {lane.steps} steps"))
            return False
        cut = _cut(xi[1:lane.steps + 1], cfg.budget)
        kept = states[1:cut + 1]
        hit = np.flatnonzero(h_norm_rows(kept) >= p.level)
        if hit.size:
            return crossed(lane.path, p, kept[:hit[0] + 1])
        p.kept.append(kept)
        return (take(p, [rep], np.array([lane.s + cut]), p.xi_total + float(xi[cut]),
                     states[cut]) and cut == lane.cut)

    while any(p.outcome is None for p in paths):
        lanes, starts = [], defaultdict(list)
        for i, p in enumerate(paths):
            if p.outcome is None and p.retry:
                lanes.append(_Lane(i, p.s, max(1, min(width, total - p.s) >> p.retry),
                                   p.state, None))
            elif p.outcome is None:
                starts[p.s].append(i)
        for s, rows in starts.items():
            lanes += plan(rows, s)
        results = [None] * len(lanes)
        order = sorted(range(len(lanes)), key=lambda j: -lanes[j].steps)
        for first in range(0, len(order), block_lanes):
            block = order[first:first + block_lanes]
            rows, at, lengths = np.array([lanes[j][:3] for j in block]).T
            k = np.minimum(at + np.arange(width)[:, None], total - 1)  # up to the end
            # only the last level attempt has lanes, so they share one level
            out = _picard_lanes(wiener[k, rows], mark_sums[k, rows], lengths,
                                np.array([lanes[j].y0 for j in block]), dt, cfg, model,
                                coeff, measure, Cutoff(paths[rows[0]].level, cfg.budget))
            for r, j in enumerate(block):
                results[j] = [x[r] for x in out]
        ended = set()
        for j, lane in enumerate(lanes):
            result, results[j] = results[j], None   # free each window once taken
            if lane.path not in ended and not accept(lane, *result):
                ended.add(lane.path)
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
