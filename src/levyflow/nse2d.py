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
pseudospectrally.  Its integrand, and the pairings that give B(u,v), have
modes up to 3M, so their grid quadrature is exact on any grid of G >= 3M+1
points per axis; with the dealias flag on G = 4M, so b and B are exact for
the retained trig polynomials and antisymmetry in (v,w) holds up to
roundoff.  With the flag off the minimal 2M+1 grid is used and aliasing
errors appear.  The interpolation norm q is the L4 norm of the velocity
field.  Its quadrature is not exact on the 4M grid: |u|^4 has modes up to
4M, so exactness needs G >= 4M+1.  On 20 random M=8 states q at G=32
differs from the exact value (G=33, which G=40 matches to roundoff) by up
to 1.2e-3 relative.

The fields are real, so every transform is a real one on the ky >= 0 half
plane, and only its M+1 columns ky <= M hold modes.  A convection call
stacks all the grid fields it needs into one inverse transform, an ifft
over kx on those columns and an irfft over y, and projects with an rfft
over y and an fft over kx on the same columns.  These are the 1-D passes
numpy's irfft2 and rfft2 make, so the results are the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .models import ModelSpec, StructureReport
from .spaces import SpectralBasis

_TWO_PI = 2.0 * np.pi
_AMP = 1.0 / (np.sqrt(2.0) * np.pi)
_ROW_BLOCK = 64   # states per batched transform, to bound memory


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
    """Mode bookkeeping and real transforms between coefficients and grid fields.

    A spectrum holds only the columns ky = 0..M of the ky >= 0 half plane,
    shape (..., C, G, M+1) with the C vector components ahead of the grid
    axes.  A pair with ky > 0 sits at (kx mod G, ky), and the inverse pass
    supplies its conjugate at -k and the zero columns ky > M; a pair with
    ky = 0 also stores its conjugate at (-kx mod G, 0).  Grid fields have
    shape (..., C, G, G).

    The transforms and the advection product write into buffers the layout
    owns, one per role and trailing shape, each sized to the most rows seen
    so far, so they allocate no grid-sized array and a layout must not be
    shared between threads.  Results that are grid fields are views of
    those buffers.
    """

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
        g, c = self.grid, m + 1
        self.cols = c
        # flat index into the (G, M+1) plane of each pair, and of the
        # conjugates of the ky = 0 pairs
        self.at = (self.kx % g) * c + self.ky
        self.on_axis = np.flatnonzero(self.ky == 0)
        self.conj_at = (-self.kx[self.on_axis] % g) * c
        self.ikx = 1j * self.kx
        self.iky = 1j * self.ky
        # per component and pair, (2, n_pairs): amplitude of e^{ik.x} per unit
        # c - i s, and the weight that turns a grid spectrum back into c - i s
        self.synth = 0.5 * _AMP * self.d.T
        self.proj = _TWO_PI * _TWO_PI * _AMP * self.d.T
        self._buffers = {}

    def _buffer(self, role: str, lead: tuple, trailing: tuple, dtype=float) -> np.ndarray:
        """The layout's ``role`` buffer as an array of shape lead + trailing.

        It is zeroed only when allocated: the spectrum relies on that, since
        every call writes the same positions of it.
        """
        rows = math.prod(lead)
        key = (role, trailing)
        buf = self._buffers.get(key)
        if buf is None or len(buf) < rows:
            buf = self._buffers[key] = np.zeros((rows,) + trailing, dtype)
        return buf[:rows].reshape(lead + trailing)

    def eigenvalues(self, visc: float) -> np.ndarray:
        lam = np.empty(self.n_coeffs)
        lam[0::2] = visc * self.ksq
        lam[1::2] = visc * self.ksq
        return lam

    @staticmethod
    def amplitudes(coeffs: np.ndarray) -> np.ndarray:
        """c - i s for each pair's (cos, sin) coefficients, shape (..., n_pairs)."""
        return np.ascontiguousarray(coeffs, dtype=float).view(complex).conj()

    def fields(self, *amps: np.ndarray) -> np.ndarray:
        """Grid velocity of each amplitude array, stacked: (F, ..., 2, G, G).

        One inverse transform covers every field; the fields broadcast over
        their leading axes.  The result is valid until the next transform on
        this layout.
        """
        a = np.stack(np.broadcast_arrays(*amps), axis=-2)      # (..., F, n_pairs)
        vals = a[..., None, :] * self.synth                     # (..., F, 2, n_pairs)
        batch, fc = vals.shape[:-3], vals.shape[-3:-1]
        g, c = self.grid, self.cols
        spec = self._buffer("spectrum", batch, fc + (g * c,), complex)
        spec[..., self.at] = vals
        spec[..., self.conj_at] = vals[..., self.on_axis].conj()
        spec = spec.reshape(batch + fc + (g, c))
        kx_pass = np.fft.ifft(spec, axis=-2, norm="forward",
                              out=self._buffer("kx_pass", batch, fc + (g, c), complex))
        grid = np.fft.irfft(kx_pass, n=g, axis=-1, norm="forward",
                            out=self._buffer("grid", batch, fc + (g, g)))
        return np.moveaxis(grid, -4, 0)

    def convection_fields(self, u, v, *more) -> np.ndarray:
        """Grid fields of u, dv/dx, dv/dy and of each further state, stacked on axis 0.

        Valid until the next transform on this layout.
        """
        av = self.amplitudes(v)
        return self.fields(self.amplitudes(u), self.ikx * av, self.iky * av,
                           *(self.amplitudes(x) for x in more))

    def advection(self, u: np.ndarray, dvx: np.ndarray, dvy: np.ndarray) -> np.ndarray:
        """(u . grad) v on the grid, from u's velocity and v's two derivative fields.

        Valid until the next advection on this layout.
        """
        batch, vec = u.shape[:-3], u.shape[-3:]
        adv = np.multiply(u[..., 0:1, :, :], dvx, out=self._buffer("adv_x", batch, vec))
        adv_y = np.multiply(u[..., 1:2, :, :], dvy, out=self._buffer("adv_y", batch, vec))
        return np.add(adv, adv_y, out=adv)

    def project(self, field: np.ndarray) -> np.ndarray:
        """Pair a grid vector field against every basis element."""
        batch, g, c = field.shape[:-3], self.grid, self.cols
        half = np.fft.rfft(field, axis=-1, norm="forward",
                           out=self._buffer("ky_pass", batch, (2, g, g // 2 + 1), complex))
        nh = np.fft.fft(half[..., :c], axis=-2, norm="forward",
                        out=self._buffer("kx_proj", batch, (2, g, c), complex))
        picked = np.take(nh.reshape(batch + (2, g * c)), self.at, axis=-1)
        amp = picked[..., 0, :] * self.proj[0] + picked[..., 1, :] * self.proj[1]
        # the (cos, sin) coefficients are (Re amp, -Im amp): conj(amp) read as floats
        return amp.conj().view(float)

    def pair(self, field_a: np.ndarray, field_b: np.ndarray) -> np.ndarray:
        """Grid quadrature of the dot product of two vector fields."""
        w = (_TWO_PI / self.grid) ** 2
        return w * np.einsum("...apq,...apq->...", field_a, field_b)

    def l4_from_field(self, u: np.ndarray) -> np.ndarray:
        speed_sq = u[..., 0, :, :] ** 2 + u[..., 1, :, :] ** 2
        w = (_TWO_PI / self.grid) ** 2
        q4 = w * (speed_sq * speed_sq).sum(axis=(-2, -1))
        return q4 ** 0.25

    def l4_norm(self, coeffs: np.ndarray) -> np.ndarray:
        return self.l4_from_field(self.fields(self.amplitudes(coeffs))[0])


def nse_trilinear(layout: _Layout, u, v, w) -> np.ndarray:
    """b(u,v,w) by grid quadrature of (u.grad v).w; supports batches."""
    vel_u, dvx, dvy, vel_w = layout.convection_fields(u, v, w)
    return layout.pair(layout.advection(vel_u, dvx, dvy), vel_w)


def nse_b_apply(layout: _Layout, u, v) -> np.ndarray:
    """Coefficients of the Leray-projected convection term B(u,v)."""
    return layout.project(layout.advection(*layout.convection_fields(u, v)))


def _row_blocks(n: int):
    """Slices of at most _ROW_BLOCK consecutive rows covering range(n)."""
    return (slice(i, i + _ROW_BLOCK) for i in range(0, n, _ROW_BLOCK))


def _in_row_blocks(fn, layout: _Layout, *states):
    """``fn(layout, *states)`` on at most _ROW_BLOCK broadcast states at a time."""
    shape = np.broadcast_shapes(*(np.shape(s) for s in states))
    lead = shape[:-1]
    if math.prod(lead) <= _ROW_BLOCK:
        return fn(layout, *states)
    rows = [np.broadcast_to(s, shape).reshape(-1, shape[-1]) for s in states]
    out = np.concatenate([fn(layout, *(r[b] for r in rows))
                          for b in _row_blocks(len(rows[0]))])
    return out.reshape(lead + out.shape[1:])


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
        for rows in _row_blocks(len(block)):
            chunk = block[rows]
            q = layout.l4_norm(chunk)
            hn = np.linalg.norm(chunk, axis=1)
            vn = np.sqrt((chunk * chunk) @ lam)
            best = max(best, float((q * q / (hn * vn)).max()))
    return margin * best


def nse2d_model(params: Nse2dParams) -> ModelSpec:
    layout = _Layout(params)
    basis = SpectralBasis(layout.eigenvalues(params.visc))

    def structure_search(n_samples, seed, c_b):
        # the capped skew/bound search, and a0 within 20% as its samples double
        rep = nse_structure_search(params, min(n_samples, 20000), seed=seed, c_b=c_b)
        half = estimate_a0(params, n_samples=1024, seed=seed)
        full = estimate_a0(params, n_samples=2048, seed=seed)
        return replace(rep, a0_doubling_stable=abs(full - half) <= 0.2 * half)

    return ModelSpec(
        basis=basis,
        trilinear=lambda u, v, w: _in_row_blocks(nse_trilinear, layout, u, v, w),
        b_apply=lambda u, v: _in_row_blocks(nse_b_apply, layout, u, v),
        # Hoelder: |int (u.grad v).w| <= |u|_L4 |grad v|_L2 |w|_L4, and
        # |grad v|_L2 = ||v|| / sqrt(visc)
        c_b=float(1.0 / np.sqrt(params.visc)),
        structure_search=structure_search,
    )


def nse_layout(params: Nse2dParams) -> _Layout:
    """Expose the transform layout for batched studies and tests."""
    return _Layout(params)


def nse_structure_search(params: Nse2dParams, n_samples: int, seed: int = 0,
                         batch: int = 256, c_b: float | None = None):
    """Batched skew-symmetry and bound-ratio search; see models.StructureReport.

    Triples are drawn ``batch`` at a time, so the batch fixes which triples
    are seen; each draw is then transformed _ROW_BLOCK rows at a time.
    ``c_b`` defaults to the Hoelder constant of ``nse2d_model``.
    """
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
        u_all = rng.standard_normal((nb, layout.n_coeffs))
        v_all = rng.standard_normal((nb, layout.n_coeffs))
        w_all = rng.standard_normal((nb, layout.n_coeffs))
        for rows in _row_blocks(nb):
            u, v, w = u_all[rows], v_all[rows], w_all[rows]
            vel_u, dvx, dvy, vel_v, vel_w = layout.convection_fields(u, v, v, w)
            adv = layout.advection(vel_u, dvx, dvy)
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
