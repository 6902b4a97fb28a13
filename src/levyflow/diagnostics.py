"""Numerical verification of the energy identity and iteration estimates.

Everything here is post-processing over immutable paths: a per-step energy
ledger whose terms must reproduce the squared-norm increments up to a
recorded residual, the Gronwall moment bound as a Monte Carlo check, and
contraction reports aggregated over path ensembles.  Expectations are
sample means with reported standard errors; pass/fail margins are 3
standard errors.  The budget-capped energy and convection cross terms of
the iteration analysis are references the tests check the a-priori
estimates with; no command computes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cutoffs import Cutoff
from .models import ModelSpec
from .noise import (CoefficientSpec, LevyMeasureSpec, NoiseRealization,
                    jump_coefficient, psi_hs_norm_sq, wiener_apply)
from .spaces import PathSegment, SpectralBasis, dual_norm, v_norm_sq_rows


# ---------------------------------------------------------------------------
# pathwise energy ledger


@dataclass(frozen=True)
class EnergyLedger:
    """Per-step account of the squared-H-norm balance along one path."""

    dissipation: np.ndarray    # 2 dt ||y_k||^2
    forcing: np.ndarray        # 2 dt <f_k, y_k>
    wiener_mart: np.ndarray    # 2 <Psi dW, y_k>
    jump_mart: np.ndarray      # compensated pairing term
    jump_quad: np.ndarray      # sum |G|^2 over realized jumps
    wiener_quad: np.ndarray    # dt ||Psi||_HS^2
    residual: np.ndarray

    @property
    def residual_net(self) -> float:
        """Signed total of unaccounted energy (martingale parts cancel)."""
        return float(self.residual.sum())

    @property
    def residual_abs(self) -> float:
        return float(np.abs(self.residual).sum())


def _rowdot(a, b):
    """Dot product over the last axis, broadcasting the leading ones."""
    return np.einsum("...j,...j->...", a, b)


def energy_ledger(path: PathSegment, noise: NoiseRealization, model: ModelSpec,
                  coeff: CoefficientSpec, measure: LevyMeasureSpec) -> EnergyLedger:
    """Recompute every energy term from the stored path and its noise.

    The convection term never appears: its pairing against the state is
    exactly zero by skew-symmetry, so any roundoff it leaves lands in the
    residual.
    """
    if path.n_steps != noise.n_steps:
        raise ValueError("path and noise grids differ")
    dt = path.dt
    y = path.states[:-1]
    y1 = path.states[1:]
    dis = 2.0 * dt * v_norm_sq_rows(y, model.basis)
    forc = 2.0 * dt * _rowdot(coeff.forcing, y)
    wmart = 2.0 * _rowdot(wiener_apply(coeff, y, noise.wiener), y) if noise.dims \
        else np.zeros(path.n_steps)
    # G is linear in the mark: sum_z G(y, z) = Z G(y, 1) over the step
    g = jump_coefficient(coeff, y, 1.0)
    jmart = 2.0 * (noise.mark_sums - dt * measure.m1) * _rowdot(g, y)
    jquad = noise.per_step(noise.jump_marks ** 2) * _rowdot(g, g)
    wquad = dt * psi_hs_norm_sq(coeff, y)
    gain = _rowdot(y1, y1) - _rowdot(y, y)
    res = gain - (-dis + forc + wmart + jmart + jquad + wquad)
    return EnergyLedger(dis, forc, wmart, jmart, jquad, wquad, res)


# ---------------------------------------------------------------------------
# Gronwall moment bound

APRIORI_MIN_PATHS = 30   # the fewest paths whose sample means the check trusts


@dataclass(frozen=True)
class AprioriReport:
    n_paths: int
    sup_mean_h_sq: float       # sup over grid of the sample mean of |u|^2
    mean_xi_sq: float          # sample mean of int ||u||^2
    se_sup: float
    se_xi: float
    bound_sup: float
    bound_xi: float

    @property
    def ok_sup(self) -> bool:
        return self.sup_mean_h_sq <= self.bound_sup + 3.0 * self.se_sup

    @property
    def ok_xi(self) -> bool:
        return self.mean_xi_sq <= self.bound_xi + 3.0 * self.se_xi

    @property
    def ok(self) -> bool:
        return self.ok_sup and self.ok_xi


def gronwall_bounds(coeff: CoefficientSpec, basis: SpectralBasis,
                    u0_h_sq: float, horizon: float) -> tuple[float, float]:
    """Moment bounds implied by the growth constants.

    With margin eps = (2 - L5)/2 the energy balance gives

        E|u(t)|^2 <= (E|u0|^2 + 2/(2-L5) F + L3 t) exp(L4 t) =: B(t),
        (2-L5)/2 E int ||u||^2 <= E|u0|^2 + 2/(2-L5) F + L3 T + L4 T B(T),

    with F the time integral of the squared dual norm of the forcing.
    """
    l3, l4, l5 = coeff.l3, coeff.l4, coeff.l5
    f_int = horizon * dual_norm(coeff.forcing, basis) ** 2
    base = u0_h_sq + 2.0 / (2.0 - l5) * f_int + l3 * horizon
    bound_sup = base * np.exp(l4 * horizon)
    bound_xi = 2.0 / (2.0 - l5) * (base + l4 * horizon * bound_sup)
    return float(bound_sup), float(bound_xi)


def moment_bound_report(paths: list[PathSegment], coeff: CoefficientSpec,
                        basis: SpectralBasis, u0_h_sq: float,
                        horizon: float) -> AprioriReport:
    m = len(paths)
    if m < APRIORI_MIN_PATHS:
        raise ValueError(f"need at least {APRIORI_MIN_PATHS} paths for a meaningful check")
    h_sq = np.stack([np.einsum("ij,ij->i", p.states, p.states) for p in paths])
    mean_t = h_sq.mean(axis=0)
    k_star = int(np.argmax(mean_t))
    se_sup = float(h_sq[:, k_star].std(ddof=1) / np.sqrt(m))
    xi_fin = np.array([p.xi_sq[-1] for p in paths])
    bound_sup, bound_xi = gronwall_bounds(coeff, basis, u0_h_sq, horizon)
    return AprioriReport(
        n_paths=m,
        sup_mean_h_sq=float(mean_t[k_star]),
        mean_xi_sq=float(xi_fin.mean()),
        se_sup=se_sup,
        se_xi=float(xi_fin.std(ddof=1) / np.sqrt(m)),
        bound_sup=bound_sup,
        bound_xi=bound_xi,
    )


# ---------------------------------------------------------------------------
# budget-capped quantities of the iteration analysis


def _capped(path: PathSegment, cutoff: Cutoff) -> np.ndarray:
    """The squared V norms of the path's states while its dissipation norm
    is within 3x budget (if any)."""
    vsq = v_norm_sq_rows(path.states, path.basis)
    if cutoff.budget is None:
        return vsq
    return vsq * (np.sqrt(path.xi_sq) <= 3.0 * cutoff.budget)


def budget_indicator_integral(prev: PathSegment, cur: PathSegment,
                              cutoff: Cutoff) -> float:
    """Left-Riemann integral of the capped two-iterate energy density."""
    series = _capped(prev, cutoff) + _capped(cur, cutoff)
    return float(cur.dt * series[:-1].sum())


def cross_term_series(prev: PathSegment, cur: PathSegment, nxt: PathSegment,
                      model: ModelSpec, cutoff: Cutoff) -> np.ndarray:
    """Pointwise convection cross term between consecutive iterates.

    At each grid time this pairs the difference of the cutoff convection
    terms of (cur, nxt) and (prev, cur) against the newest increment.
    """
    test = nxt.states - cur.states
    return (cutoff.along(cur.states, cur.xi_sq)
            * model.trilinear(cur.states, nxt.states, test)
            - cutoff.along(prev.states, prev.xi_sq)
            * model.trilinear(prev.states, cur.states, test))


# ---------------------------------------------------------------------------
# contraction of the outer iteration


@dataclass(frozen=True)
class ContractionReport:
    a: np.ndarray          # sqrt(mean int ||y_{n+1}-y_n||^2) per n
    b: np.ndarray          # mean sup |y_{n+1}-y_n| per n
    ratios_a: np.ndarray
    ratios_b: np.ndarray


def contraction_report(reports: list) -> ContractionReport:
    """Aggregate per-path iteration increments into ensemble decay rates."""
    if len(reports) < 1:
        raise ValueError("need at least one iteration report")
    n_common = min(len(r.xi_increments) for r in reports)
    xi = np.array([r.xi_increments[:n_common] for r in reports])
    sup = np.array([r.sup_increments[:n_common] for r in reports])
    a = np.sqrt((xi * xi).mean(axis=0))
    b = sup.mean(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios_a = a[1:] / a[:-1]
        ratios_b = b[1:] / b[:-1]
    return ContractionReport(a=a, b=b, ratios_a=ratios_a, ratios_b=ratios_b)
