"""Model contract and the real dyadic shell model.

A model bundles the diagonal linear operator with one convection operator,
``b_apply(u, v)`` = B(u, v), which broadcasts over the leading axes of
(..., dim) states.  The trilinear form is derived from it:
b(u, v, w) = <B(u, v), w>.  With q the model's interpolation norm, the
contract all solvers rely on is stated on that one operator:

* b(u, v, w) is antisymmetric in (v, w), so pairing B(u, v) against v is
  zero up to roundoff and the convection term conserves H energy;
* ``q(v)^2 <= a0 * |v| * ||v||`` (interpolation bound);
* ``|b(u, v, w)| <= c_b * q(u) * ||v|| * q(w)``.

The shell model here is the real dyadic cascade with geometric wavenumbers
k_n = k0 * 2^(n-1) and the manifestly antisymmetric form

    b(u, v, w) = sum_n k_n u_n (v_n w_{n+1} - v_{n+1} w_n),

which ``shell_trilinear`` evaluates term by term, so antisymmetry holds
exactly in floating point; it is the reference the tests hold ``shell_apply``,
the model's B, to.  The constants a0 = 1/(sqrt(visc) k_1), c_b =
2/sqrt(visc) are certified analytically with q = H norm.  Indices outside
1..N contribute zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spaces import SpectralBasis, h_norm_rows, prefetched, ratio, v_norm_sq_rows

BilinearApply = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ModelSpec:
    """A concrete instantiation of the abstract convection-diffusion contract.

    The constants a0 and c_b are not stored, since no solver reads them: the
    model's certificate owns them.  ``structure_search(n_samples, seed)``
    checks the contract above on ``b_apply`` against them, or returns None
    for a model without convection.
    """

    basis: SpectralBasis
    b_apply: BilinearApply
    structure_search: Callable[[int, int], StructureReport | None]

    def trilinear(self, u, v, w) -> np.ndarray:
        """b(u, v, w) = <B(u, v), w>, per leading index."""
        return np.vecdot(self.b_apply(u, v), w)


@dataclass(frozen=True)
class DyadicShellParams:
    n_modes: int
    k0: float = 2.0
    visc: float = 1.0

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("need at least one shell")
        if not self.k0 > 1.0:
            raise ValueError("k0 must exceed 1")
        if not self.visc > 0.0:
            raise ValueError("viscosity must be positive")
        with np.errstate(over="ignore"):   # before a spectrum too large to build
            top = self.visc * (self.k0 * np.float64(2.0) ** (self.n_modes - 1)) ** 2
        if not np.isfinite(top):
            raise ValueError(f"eigenvalues must be finite: the largest, "
                             f"visc*(k0*2^(modes-1))^2, overflows at {self.n_modes} modes")

    @property
    def wavenumbers(self) -> np.ndarray:
        return self.k0 * 2.0 ** np.arange(self.n_modes)


def shell_trilinear(u, v, w, wavenumbers) -> np.ndarray:
    """b(u,v,w) = sum_n k_n u_n (v_n w_{n+1} - v_{n+1} w_n), per leading index."""
    k = wavenumbers
    if not (u.shape[-1] == v.shape[-1] == w.shape[-1] == len(k)):
        raise ValueError("shell vectors must share the mode count")
    terms = k[:-1] * u[..., :-1] * (v[..., :-1] * w[..., 1:] - v[..., 1:] * w[..., :-1])
    return terms.sum(axis=-1)


def shell_apply(u, v, wavenumbers) -> np.ndarray:
    """B(u,v)_m = k_{m-1} u_{m-1} v_{m-1} - k_m u_m v_{m+1}, per leading index."""
    k = wavenumbers
    if not (u.shape[-1] == v.shape[-1] == len(k)):
        raise ValueError("shell vectors must share the mode count")
    ku = k[:-1] * u[..., :-1]
    flux = ku * v[..., :-1]
    out = np.zeros(flux.shape[:-1] + k.shape)   # u and v broadcast
    out[..., 1:] += flux
    out[..., :-1] -= np.multiply(ku, v[..., 1:], out=flux)
    return out


def shell_certified_constants(params: DyadicShellParams) -> tuple[float, float]:
    """Analytic interpolation and bound constants with q_norm = H norm."""
    a0 = 1.0 / (np.sqrt(params.visc) * params.k0)
    c_b = 2.0 / np.sqrt(params.visc)
    return float(a0), float(c_b)


def dyadic_model(params: DyadicShellParams) -> ModelSpec:
    k = params.wavenumbers
    return ModelSpec(
        basis=SpectralBasis(params.visc * k * k),
        b_apply=lambda u, v: shell_apply(u, v, k),
        structure_search=lambda n, seed: shell_structure_search(params, n, seed),
    )


def zero_b_model(basis: SpectralBasis) -> ModelSpec:
    """Degenerate model with B = 0; useful for purely linear scenarios."""
    return ModelSpec(
        basis=basis,
        b_apply=lambda u, v: np.zeros(np.broadcast_shapes(np.shape(u), np.shape(v))),
        structure_search=lambda n, seed: None,
    )


@dataclass(frozen=True)
class StructureReport:
    """Result of a randomized search for structural-condition violations."""

    n_samples: int
    max_skew_residual: float      # |<B(u,v),v>| / (c_b q(u) ||v|| q(v)), worst case
    max_interp_ratio: float       # q(v)^2 / (a0 |v| ||v||), worst case
    max_bound_ratio: float        # |b(u,v,w)| / (c_b q(u) ||v|| q(w)), worst case
    skew_violations: int          # residual not at most 1e-12
    interp_violations: int        # ratio not at most 1 + 1e-12
    bound_violations: int

    @classmethod
    def from_ratios(cls, skew, interp, bound) -> StructureReport:
        """Worst cases and violation counts of the ratio arrays above; NaN violates."""
        return cls(
            n_samples=len(skew),
            max_skew_residual=float(np.max(skew, initial=0.0)),
            max_interp_ratio=float(np.max(interp, initial=0.0)),
            max_bound_ratio=float(np.max(bound, initial=0.0)),
            skew_violations=int((~(skew <= 1e-12)).sum()),
            interp_violations=int((~(interp <= 1.0 + 1e-12)).sum()),
            bound_violations=int((~(bound <= 1.0 + 1e-12)).sum()),
        )

    @property
    def ok(self) -> bool:
        return self.skew_violations == 0 and self.interp_violations == 0 \
            and self.bound_violations == 0


_DRAW_ROWS = 2048   # triples the shell search draws and scores at a time


def shell_structure_search(params: DyadicShellParams, n_samples: int,
                           seed: int = 0, c_b: float | None = None) -> StructureReport:
    """Blocked violation search for the shell model's three conditions,
    against the certified a0 and (by default) the certified c_b.

    Triples are drawn and scored _DRAW_ROWS at a time, u, v and w of a block
    in turn, so only the (n, 3) ratio array grows with ``n_samples``.  Each
    row is tilted by its index among the ``n_samples``: the first third
    flat, the second toward the low modes, the rest toward the high modes.
    The next block is drawn on a helper thread (``spaces.prefetched``) while
    this one is scored on the caller's, so the report is what a serial loop
    gives.  The extremal probes form the last block.
    """
    k = params.wavenumbers
    basis = SpectralBasis(params.visc * k * k)
    lam = basis.eigenvalues
    a0, cert_cb = shell_certified_constants(params)
    c_b = cert_cb if c_b is None else c_b

    def ratios(u, v, w):
        """(skew, interp, bound) of each triple, one column each."""
        hu, hv, hw = (h_norm_rows(x) for x in (u, v, w))
        vv = np.sqrt(v_norm_sq_rows(v, basis))
        # the operator the solver runs, paired against v (skew-symmetry) and w
        b = shell_apply(u, v, k)
        skew = ratio(np.abs(np.vecdot(b, v)), c_b * hu * vv * hv)
        interp = ratio(hv, a0 * vv)
        bound = ratio(np.abs(np.vecdot(b, w)), c_b * hu * vv * hw)
        return np.stack([skew, interp, bound], axis=-1)

    dim = lam.size
    tilts = np.stack([np.ones(dim), (lam / lam[0]) ** -0.5, (lam / lam[0]) ** 0.25])
    third = n_samples // 3
    rng = np.random.default_rng(seed)

    def draw(start):
        stop = min(start + _DRAW_ROWS, n_samples)
        tilt = tilts[np.digitize(np.arange(start, stop), (third, 2 * third))]
        return start, stop, [rng.standard_normal(tilt.shape) * tilt for _ in range(3)]

    out = np.empty((n_samples + dim, 3))
    for start, stop, (u, v, w) in prefetched(draw, range(0, n_samples, _DRAW_ROWS)):
        out[start:stop] = ratios(u, v, w)
        del u, v, w  # before the block after next is drawn: two blocks at most
    # deterministic extremal probes: single shells saturate the interpolation
    # bound at the first shell, neighbor-shell pairs sit on the sharp edge of
    # the trilinear bound (|b| = k_n with unit factors)
    eye = np.eye(dim)
    out[n_samples:] = ratios(eye, eye, np.roll(eye, -1, axis=0))
    return StructureReport.from_ratios(*out.T)
