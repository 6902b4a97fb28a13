"""Model contract and the real dyadic shell model.

A model bundles the diagonal linear operator with a skew-symmetric bilinear
convection term B and an auxiliary interpolation norm q.  The contract all
solvers rely on:

* ``trilinear(u, v, w)`` is antisymmetric in (v, w), so pairing B(u, v)
  against v is zero and the convection term conserves H energy;
* ``q_norm(v)^2 <= a0 * |v| * ||v||`` (interpolation bound);
* ``|trilinear(u, v, w)| <= c_b * q_norm(u) * ||v|| * q_norm(w)``.

The shell model here is the real dyadic cascade with geometric wavenumbers
k_n = k0 * 2^(n-1) and the manifestly antisymmetric form

    b(u, v, w) = sum_n k_n u_n (v_n w_{n+1} - v_{n+1} w_n),

for which antisymmetry holds exactly in floating point and the constants
a0 = 1/(sqrt(visc) k_1), c_b = 2/sqrt(visc) are certified analytically with
q_norm = H norm.  Indices outside 1..N contribute zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spaces import GalerkinVector, SpectralBasis, h_norm

Trilinear = Callable[[GalerkinVector, GalerkinVector, GalerkinVector], float]
BilinearApply = Callable[[GalerkinVector, GalerkinVector], GalerkinVector]
Norm = Callable[[GalerkinVector], float]


@dataclass(frozen=True)
class ModelSpec:
    """A concrete instantiation of the abstract convection-diffusion contract.

    The interpolation constant a0 is not stored, since no solver reads it:
    ``shell_certified_constants`` and ``nse2d.estimate_a0`` give it on demand.
    """

    name: str
    basis: SpectralBasis
    trilinear: Trilinear
    b_apply: BilinearApply
    q_norm: Norm
    c_b: float


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

    @property
    def wavenumbers(self) -> np.ndarray:
        return self.k0 * 2.0 ** np.arange(self.n_modes)


def shell_trilinear(u, v, w, wavenumbers) -> float:
    """b(u,v,w) = sum_n k_n u_n (v_n w_{n+1} - v_{n+1} w_n)."""
    k = wavenumbers
    if not (len(u) == len(v) == len(w) == len(k)):
        raise ValueError("shell vectors must share the mode count")
    if len(k) == 1:
        return 0.0
    terms = k[:-1] * u[:-1] * (v[:-1] * w[1:] - v[1:] * w[:-1])
    return float(terms.sum())


def shell_apply(u, v, wavenumbers) -> np.ndarray:
    """B(u,v)_m = k_{m-1} u_{m-1} v_{m-1} - k_m u_m v_{m+1}."""
    k = wavenumbers
    if not (len(u) == len(v) == len(k)):
        raise ValueError("shell vectors must share the mode count")
    out = np.zeros_like(np.asarray(u, dtype=float))
    if len(k) > 1:
        out[1:] += k[:-1] * u[:-1] * v[:-1]
        out[:-1] -= k[:-1] * u[:-1] * v[1:]
    return out


def shell_certified_constants(params: DyadicShellParams) -> tuple[float, float]:
    """Analytic interpolation and bound constants with q_norm = H norm."""
    a0 = 1.0 / (np.sqrt(params.visc) * params.k0)
    c_b = 2.0 / np.sqrt(params.visc)
    return float(a0), float(c_b)


def dyadic_model(params: DyadicShellParams) -> ModelSpec:
    k = params.wavenumbers
    basis = SpectralBasis(params.visc * k * k)
    _, c_b = shell_certified_constants(params)
    return ModelSpec(
        name="dyadic",
        basis=basis,
        trilinear=lambda u, v, w: shell_trilinear(u, v, w, k),
        b_apply=lambda u, v: shell_apply(u, v, k),
        q_norm=h_norm,
        c_b=c_b,
    )


def zero_b_model(basis: SpectralBasis) -> ModelSpec:
    """Degenerate model with B = 0; useful for purely linear scenarios."""
    dim = basis.dim
    return ModelSpec(
        name="zero-b",
        basis=basis,
        trilinear=lambda u, v, w: 0.0,
        b_apply=lambda u, v: np.zeros(dim),
        q_norm=h_norm,
        c_b=1.0,
    )


@dataclass(frozen=True)
class StructureReport:
    """Result of a randomized search for structural-condition violations."""

    n_samples: int
    max_skew_residual: float      # |<B(u,v),v>| / (c_b q(u) ||v|| q(v)), worst case
    max_interp_ratio: float       # q(v)^2 / (a0 |v| ||v||), worst case
    max_bound_ratio: float        # |b(u,v,w)| / (c_b q(u) ||v|| q(w)), worst case
    skew_violations: int          # residual beyond 1e-12
    interp_violations: int        # ratio beyond 1 + 1e-12
    bound_violations: int

    @property
    def ok(self) -> bool:
        return self.skew_violations == 0 and self.interp_violations == 0 \
            and self.bound_violations == 0


def _tilted_samples(rng, n_samples, lam):
    """Random coefficient vectors mixing flat, low- and high-mode tilts."""
    dim = lam.size
    out = rng.standard_normal((n_samples, dim))
    third = n_samples // 3
    out[third:2 * third] *= (lam / lam[0]) ** -0.5
    out[2 * third:] *= (lam / lam[0]) ** 0.25
    return out


def shell_structure_search(params: DyadicShellParams, n_samples: int,
                           seed: int = 0, a0: float | None = None,
                           c_b: float | None = None) -> StructureReport:
    """Vectorized violation search for the shell model's three conditions."""
    k = params.wavenumbers
    lam = params.visc * k * k
    cert_a0, cert_cb = shell_certified_constants(params)
    a0 = cert_a0 if a0 is None else a0
    c_b = cert_cb if c_b is None else c_b

    rng = np.random.default_rng(seed)
    u = _tilted_samples(rng, n_samples, lam)
    v = _tilted_samples(rng, n_samples, lam)
    w = _tilted_samples(rng, n_samples, lam)
    # deterministic extremal probes: single shells saturate the interpolation
    # bound at the first shell, neighbor-shell pairs sit on the sharp edge of
    # the trilinear bound (|b| = k_n with unit factors)
    dim = lam.size
    eye = np.eye(dim)
    u = np.vstack([u, eye])
    v = np.vstack([v, eye])
    w = np.vstack([w, np.roll(eye, -1, axis=0)])

    hu = np.linalg.norm(u, axis=1)
    hv = np.linalg.norm(v, axis=1)
    hw = np.linalg.norm(w, axis=1)
    vv = np.sqrt((v * v) @ lam)

    # skew-symmetry: pair B(u, v) against v
    skew = np.abs(np.einsum("ij,ij->i", k[:-1] * u[:, :-1],
                            v[:, :-1] * v[:, 1:] - v[:, 1:] * v[:, :-1]))
    skew_scale = c_b * hu * vv * hv
    skew_rel = skew / np.where(skew_scale > 0, skew_scale, 1.0)

    interp = hv / np.where(vv > 0, a0 * vv, np.inf)

    b_uvw = np.einsum("ij,ij->i", k[:-1] * u[:, :-1],
                      v[:, :-1] * w[:, 1:] - v[:, 1:] * w[:, :-1])
    bound_scale = c_b * hu * vv * hw
    bound = np.abs(b_uvw) / np.where(bound_scale > 0, bound_scale, np.inf)

    return StructureReport(
        n_samples=int(u.shape[0]),
        max_skew_residual=float(skew_rel.max()),
        max_interp_ratio=float(interp.max()),
        max_bound_ratio=float(bound.max()),
        skew_violations=int((skew_rel > 1e-12).sum()),
        interp_violations=int((interp > 1.0 + 1e-12).sum()),
        bound_violations=int((bound > 1.0 + 1e-12).sum()),
    )
