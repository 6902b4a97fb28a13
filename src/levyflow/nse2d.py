"""Incompressible 2D Navier-Stokes on the torus, spectral Galerkin form.

The state is the coefficient vector of the velocity field in the real
divergence-free Fourier basis

    e_k^c = a d_k cos(k.x),   e_k^s = a d_k sin(k.x),
    d_k = (k2, -k1)/|k|,      a = 1/(sqrt(2) pi),

over wavevectors with |k1|,|k2| <= M, one representative per +-k pair,
ordered by |k|^2 so the operator eigenvalues visc*|k|^2 are nondecreasing.
Each basis field has unit L2 norm, so the coefficient vector lives in the
same orthonormal-H setting as every other model.

The convection form b(u,v,w) = integral (u.grad v).w is evaluated
pseudospectrally.  With the dealias flag on, the working grid is large
enough that all products are alias-free, which makes the quadrature exact
for the retained trig polynomials and antisymmetry in (v,w) exact up to
roundoff.  With the flag off the minimal 2M+1 grid is used and aliasing
errors appear.  The interpolation norm q is the L4 norm of the velocity field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelSpec
from .spaces import SpectralBasis

_TWO_PI = 2.0 * np.pi
_AMP = 1.0 / (np.sqrt(2.0) * np.pi)
_ROW_BLOCK = 8   # rows per transform batch of the model callables, to bound memory


@dataclass(frozen=True)
class Nse2dParams:
    modes_per_axis: int
    visc: float = 1.0
    dealias: bool = True

    def __post_init__(self):
        if self.modes_per_axis < 1:
            raise ValueError("need at least one mode per axis")
        if not self.visc > 0.0:
            raise ValueError("viscosity must be positive")


class _Layout:
    """Mode bookkeeping and transforms between coefficients and grid fields."""

    def __init__(self, params: Nse2dParams):
        m = params.modes_per_axis
        pairs = []
        for kx in range(-m, m + 1):
            for ky in range(-m, m + 1):
                if (kx, ky) == (0, 0):
                    continue
                if ky > 0 or (ky == 0 and kx > 0):
                    pairs.append((kx * kx + ky * ky, kx, ky))
        pairs.sort()
        self.kx = np.array([p[1] for p in pairs])
        self.ky = np.array([p[2] for p in pairs])
        self.ksq = np.array([p[0] for p in pairs], dtype=float)
        kn = np.sqrt(self.ksq)
        self.d = np.stack([self.ky / kn, -self.kx / kn], axis=1)  # (n_pairs, 2)
        self.n_pairs = len(pairs)
        self.n_coeffs = 2 * self.n_pairs
        # 4M >= 3M+1 keeps every triple product alias-free on the grid
        self.grid = 4 * m if params.dealias else 2 * m + 1
        g = self.grid
        self.ixp = self.kx % g
        self.iyp = self.ky % g
        self.ixn = (-self.kx) % g
        self.iyn = (-self.ky) % g
        freqs = np.fft.fftfreq(g, d=1.0 / g)
        self.fx = freqs[:, None]   # broadcasts over (G, G)
        self.fy = freqs[None, :]

    def eigenvalues(self, visc: float) -> np.ndarray:
        lam = np.empty(self.n_coeffs)
        lam[0::2] = visc * self.ksq
        lam[1::2] = visc * self.ksq
        return lam

    def spectral(self, coeffs: np.ndarray) -> np.ndarray:
        """Complex spectral velocity array, shape (..., G, G, 2)."""
        coeffs = np.asarray(coeffs, dtype=float)
        c_cos = coeffs[..., 0::2]
        c_sin = coeffs[..., 1::2]
        amp = 0.5 * _AMP * (c_cos - 1j * c_sin)          # (..., n_pairs)
        f = np.zeros(coeffs.shape[:-1] + (self.grid, self.grid, 2), dtype=complex)
        f[..., self.ixp, self.iyp, :] = amp[..., :, None] * self.d
        f[..., self.ixn, self.iyn, :] = np.conj(amp)[..., :, None] * self.d
        return f

    def to_grid(self, f: np.ndarray) -> np.ndarray:
        g = self.grid
        return np.fft.ifft2(f, axes=(-3, -2)).real * (g * g)

    def velocity(self, coeffs: np.ndarray) -> np.ndarray:
        """Velocity field values on the grid, shape (..., G, G, 2)."""
        return self.to_grid(self.spectral(coeffs))

    def advection(self, u: np.ndarray, fv: np.ndarray) -> np.ndarray:
        """(u . grad) v on the grid, from u's grid velocity and v's spectrum."""
        dvx = self.to_grid(1j * self.fx[..., None] * fv)
        dvy = self.to_grid(1j * self.fy[..., None] * fv)
        return u[..., 0:1] * dvx + u[..., 1:2] * dvy

    def project(self, field: np.ndarray) -> np.ndarray:
        """Pair a grid vector field against every basis element."""
        g = self.grid
        nh = np.fft.fft2(field, axes=(-3, -2)) / (g * g)
        picked = nh[..., self.ixp, self.iyp, :]          # (..., n_pairs, 2)
        scale = _TWO_PI * _TWO_PI * _AMP
        f_cos = scale * np.einsum("...ja,ja->...j", picked.real, self.d)
        f_sin = -scale * np.einsum("...ja,ja->...j", picked.imag, self.d)
        out = np.empty(field.shape[:-3] + (self.n_coeffs,))
        out[..., 0::2] = f_cos
        out[..., 1::2] = f_sin
        return out

    def pair(self, field_a: np.ndarray, field_b: np.ndarray) -> np.ndarray:
        """Grid quadrature of the dot product of two vector fields."""
        w = (_TWO_PI / self.grid) ** 2
        return w * np.einsum("...pqa,...pqa->...", field_a, field_b)

    def l4_from_field(self, u: np.ndarray) -> np.ndarray:
        speed_sq = u[..., 0] ** 2 + u[..., 1] ** 2
        w = (_TWO_PI / self.grid) ** 2
        q4 = w * (speed_sq * speed_sq).sum(axis=(-2, -1))
        return q4 ** 0.25

    def l4_norm(self, coeffs: np.ndarray) -> np.ndarray:
        return self.l4_from_field(self.velocity(coeffs))


def nse_trilinear(layout: _Layout, u, v, w) -> np.ndarray:
    """b(u,v,w) by grid quadrature of (u.grad v).w; supports batches."""
    adv = layout.advection(layout.velocity(u), layout.spectral(v))
    return layout.pair(adv, layout.velocity(w))


def nse_b_apply(layout: _Layout, u, v) -> np.ndarray:
    """Coefficients of the Leray-projected convection term B(u,v)."""
    return layout.project(layout.advection(layout.velocity(u), layout.spectral(v)))


def _in_row_blocks(fn, layout: _Layout, *states):
    """``fn(layout, *states)`` on at most _ROW_BLOCK rows of the first axis at a time."""
    if np.ndim(states[0]) < 2 or len(states[0]) <= _ROW_BLOCK:
        return fn(layout, *states)
    states = np.broadcast_arrays(*states)
    return np.concatenate([fn(layout, *(s[i:i + _ROW_BLOCK] for s in states))
                           for i in range(0, len(states[0]), _ROW_BLOCK)])


def estimate_a0(params: Nse2dParams, n_samples: int = 2048, seed: int = 1234,
                margin: float = 1.1) -> float:
    """Empirical interpolation constant, maximized over probes and samples.

    Single-mode states and random spectra (flat and low-mode tilted) are
    scanned for the largest q(v)^2 / (|v| ||v||); the result is inflated by
    the safety margin.  Zero vectors cannot occur with Gaussian draws.
    """
    layout = _Layout(params)
    lam = layout.eigenvalues(params.visc)
    probes = np.eye(layout.n_coeffs)
    rng = np.random.default_rng(seed)
    flat = rng.standard_normal((n_samples // 2, layout.n_coeffs))
    tilted = rng.standard_normal((n_samples - n_samples // 2, layout.n_coeffs))
    tilted *= (lam / lam[0]) ** -1.0
    best = 0.0
    for block in (probes, flat, tilted):
        for chunk in np.array_split(block, max(1, len(block) // 512)):
            q = layout.l4_norm(chunk)
            hn = np.linalg.norm(chunk, axis=1)
            vn = np.sqrt((chunk * chunk) @ lam)
            best = max(best, float((q * q / (hn * vn)).max()))
    return margin * best


def nse2d_model(params: Nse2dParams, c_b: float | None = None) -> ModelSpec:
    layout = _Layout(params)
    basis = SpectralBasis(layout.eigenvalues(params.visc))
    if c_b is None:
        # Hoelder: |int (u.grad v).w| <= |u|_L4 |grad v|_L2 |w|_L4, and
        # |grad v|_L2 = ||v|| / sqrt(visc)
        c_b = 1.0 / np.sqrt(params.visc)
    return ModelSpec(
        name="nse2d",
        basis=basis,
        trilinear=lambda u, v, w: _in_row_blocks(nse_trilinear, layout, u, v, w),
        b_apply=lambda u, v: _in_row_blocks(nse_b_apply, layout, u, v),
        c_b=float(c_b),
    )


def nse_layout(params: Nse2dParams) -> _Layout:
    """Expose the transform layout for batched studies and tests."""
    return _Layout(params)


def nse_structure_search(params: Nse2dParams, n_samples: int, seed: int = 0,
                         batch: int = 256, c_b: float | None = None):
    """Batched skew-symmetry and bound-ratio search; see models.StructureReport.

    ``c_b`` defaults to the Hoelder constant of ``nse2d_model``.
    """
    from .models import StructureReport

    layout = _Layout(params)
    lam = layout.eigenvalues(params.visc)
    c_b = 1.0 / np.sqrt(params.visc) if c_b is None else c_b
    rng = np.random.default_rng(seed)

    max_skew = 0.0
    max_bound = 0.0
    skew_viol = 0
    bound_viol = 0
    done = 0
    while done < n_samples:
        nb = min(batch, n_samples - done)
        u = rng.standard_normal((nb, layout.n_coeffs))
        v = rng.standard_normal((nb, layout.n_coeffs))
        w = rng.standard_normal((nb, layout.n_coeffs))
        vel_u = layout.velocity(u)
        fv = layout.spectral(v)
        adv = layout.advection(vel_u, fv)
        vel_v = layout.to_grid(fv)
        vel_w = layout.velocity(w)
        quv = layout.l4_from_field(vel_u)
        qv = layout.l4_from_field(vel_v)
        qw = layout.l4_from_field(vel_w)
        vn = np.sqrt((v * v) @ lam)
        skew = np.abs(layout.pair(adv, vel_v)) / (c_b * quv * vn * qv)
        bnd = np.abs(layout.pair(adv, vel_w)) / (c_b * quv * vn * qw)
        max_skew = max(max_skew, float(skew.max()))
        max_bound = max(max_bound, float(bnd.max()))
        skew_viol += int((skew > 1e-12).sum())
        bound_viol += int((bnd > 1.0 + 1e-12).sum())
        done += nb

    return StructureReport(
        n_samples=n_samples,
        max_skew_residual=max_skew,
        max_interp_ratio=0.0,
        max_bound_ratio=max_bound,
        skew_violations=skew_viol,
        interp_violations=0,
        bound_violations=bound_viol,
    )
