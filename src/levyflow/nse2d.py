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
pseudospectrally, and each quantity on its own grid of G points per axis:

* b and B.  The integrand of b, and the pairings that give B(u,v), have
  modes up to 3M, so their grid quadrature is exact on any G >= 3M+1.  The
  model's ``b_apply`` runs on that least exact grid, 3M+1 (25 at M = 8): B,
  and with it b(u,v,w) = <B(u,v), w>, is exact for the retained trig
  polynomials, and antisymmetry in (v,w) holds up to roundoff.  On 3M
  points aliasing moves them by more than 1e-3 relative.
* q, the L4 norm of the velocity field.  |u|^4 has modes up to 4M, so q
  is exact on any G >= 4M+1.  ``nse_layout``, on which ``estimate_a0`` and
  the structure search take q, runs on that least exact grid, 4M+1 (33 at
  M = 8).

Each quantity is exact on its grid.

The fields are real, so every transform is a real one on the ky >= 0 half
plane, and only its M+1 columns ky <= M hold modes.  Each transform is two
products with matrices the layout builds once, and a convection call stacks
every grid field it needs into one synthesis.  On length-G lines a product
is cheaper than an FFT call; the results agree with numpy's irfft2 and
rfft2 to roundoff, not to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .models import ModelSpec, StructureReport
from .spaces import (SpectralBasis, blas_leaves_a_core, h_norm_rows, prefetched, ratio,
                     v_norm_sq_rows)

_TWO_PI = 2.0 * np.pi
_AMP = 1.0 / (np.sqrt(2.0) * np.pi)
_ROW_BLOCK = 16   # states per batched transform, to bound memory
_DRAW_ROWS = 256  # triples the structure search draws at a time
_A0_MARGIN = 1.1  # safety factor of estimate_a0 on its largest single-mode ratio
# the (start, stop) of the weights _Layout.fields gives a state: its
# velocity, its x and y derivatives, or all three
_VELOCITY = (0, 1)
_GRADIENT = (1, 3)
_CONVECTION = (0, 3)


@dataclass(frozen=True)
class Nse2dParams:
    modes_per_axis: int
    visc: float = 1.0

    def __post_init__(self):
        if self.modes_per_axis < 1:
            raise ValueError("need at least one mode per axis")
        if not self.visc > 0.0:
            raise ValueError("viscosity must be positive")


class _Layout:
    """Mode bookkeeping and real transforms between coefficients and grid fields.

    A pair's (c, s) is read as z = c + i s, and a field is 2 Re of
    sum_k S_k e^{-ik.x} over the columns ky = 0..M of the ky >= 0 half
    plane, sampled on ``grid`` points per axis.  S is a (ky, kx + M) plane
    per component: z times a weight (and -i kx or -i ky for a derivative),
    zero at ky = 0, kx <= 0.  Synthesis multiplies by ``ex`` over kx, then
    by ``yi`` over the (Re, Im) of each ky; projection by ``fyi`` over y,
    then by ``exc`` over x.  A grid field has shape (G, 2, ..., G): x,
    component, batch axes, y.  Every product writes into a buffer the layout
    owns, one per role, grown to the largest size asked for, so a layout
    must not be shared between threads; results that are grid fields are
    views of those buffers.  Each transform keeps a plan per call shape: the
    views of the role buffers and of the weights it takes, built at first
    use and dropped whenever a role buffer grows.
    """

    def __init__(self, modes_per_axis: int, grid: int):
        m = modes_per_axis
        c, nk = m + 1, 2 * m + 1
        self.cols, self.plane = c, c * nk
        # the pairs are the positions of the (ky, kx + M) plane after (0, 0);
        # at is the flat plane index of each, and src the pair each reads
        # (pair 0, weighted 0, where there is none)
        ky, kx = np.divmod(np.arange(c, self.plane), nk)
        kx -= m
        ksq = kx * kx + ky * ky
        order = np.lexsort((ky, kx, ksq))
        self.kx, self.ky, self.ksq = kx[order], ky[order], ksq[order].astype(float)
        self.at = c + order
        self.src = np.zeros(self.plane, dtype=int)
        self.src[self.at] = np.arange(len(order))
        kn = np.sqrt(self.ksq)
        self.d = np.stack([self.ky / kn, -self.kx / kn], axis=1)  # (n_pairs, 2)
        self.n_pairs = len(order)
        self.n_coeffs = 2 * self.n_pairs
        self.grid = g = grid
        # per (kind, component, plane position): the weight that turns z into the
        # spectrum of the velocity or of its x or y derivative; 0 where no pair sits
        factor = np.array([np.ones(self.n_pairs), -1j * self.kx, -1j * self.ky])
        self.weights = np.zeros((3, 2, self.plane), dtype=complex)
        self.weights[:, :, self.at] = factor[:, None] * (0.5 * _AMP * self.d.T)
        # per component and pair, (2, n_pairs): the weight that turns a
        # field's pairing with e^{ik.x} into z
        self.proj = _TWO_PI * _TWO_PI * _AMP * self.d.T
        # every phase is a multiple of 2 pi / G: tw holds e^{-2 pi i n / G}
        # for n = 0..G-1, and the matrices read it at n = k x mod G
        x = np.arange(g)
        tw = np.exp((-_TWO_PI / g * 1j) * x)
        self.ex = tw[np.outer(x, np.arange(-m, m + 1)) % g]
        self.exc = self.ex.conj() / g
        # (cos, sin) of ky y over (y, 2 ky + re/im): yi takes (Re, Im) of column
        # ky to 2 cos + 2 sin, the column and its conjugate at -ky
        cos_sin = tw[np.outer(x, np.arange(c)) % g].conj().view(float)
        self.yi = 2.0 * cos_sin.T
        self.fyi = cos_sin / g
        self._buffers = {}
        self._plans = {}

    def _buffer(self, role: str, shape: tuple, dtype=float) -> np.ndarray:
        """The layout's ``role`` buffer as an array of ``shape``.

        Growing a buffer drops every plan, so that no plan keeps the old one
        alive; a plan takes each role once, so its views stay current.
        """
        size = math.prod(shape)
        buf = self._buffers.get(role)
        if buf is None or len(buf) < size:
            buf = self._buffers[role] = np.zeros(size, dtype)
            self._plans.clear()
        return buf[:size].reshape(shape)

    def _plan(self, key: tuple, build) -> SimpleNamespace:
        """The plan of ``key``, a transform's name and call shape: ``build(key[1])``
        at first use."""
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = build(key[1])
        return plan

    def eigenvalues(self, visc: float) -> np.ndarray:
        return np.repeat(visc * self.ksq, 2)

    def _synthesis_plan(self, terms: tuple) -> SimpleNamespace:
        """Views for the synthesis of terms with these (kinds, shape)."""
        lead = np.broadcast_shapes(*(shape for _, shape in terms))[:-1]
        weights = [self.weights[start:stop] for (start, stop), _ in terms]
        n_fields = sum(len(w) for w in weights)
        spec = self._buffer("spectrum", (n_fields, 2) + lead + (self.plane,), complex)
        g, q = self.grid, spec[0].size // self.plane
        mixed = self._buffer("mixed", (n_fields, g, q * self.cols), complex)
        grid = self._buffer("grid", (n_fields * g * q, g))
        fields = grid.reshape((n_fields, g, 2) + lead + (g,))
        terms, at = [], 0
        for w in weights:
            terms.append((w.reshape(w.shape[:2] + (1,) * len(lead) + w.shape[2:]),
                          spec[at:at + len(w)]))
            at += len(w)
        # over x, then over y: (F, G, Q (M+1)) read as (F G Q, 2 (M+1)) floats
        return SimpleNamespace(
            terms=terms, spec=spec.reshape(n_fields, q * self.cols, -1).swapaxes(1, 2),
            mixed=mixed, mixed_float=mixed.view(float).reshape(-1, 2 * self.cols),
            grid=grid, fields=fields, split=tuple(fields))

    def _synthesize(self, terms) -> SimpleNamespace:
        """Transform (coeffs, kinds) terms to grid fields; return the plan holding them."""
        states = [np.ascontiguousarray(coeffs, dtype=float) for coeffs, _ in terms]
        plan = self._plan(("synthesis", tuple((kinds, z.shape) for z, (_, kinds)
                                              in zip(states, terms))), self._synthesis_plan)
        for z, (w, out) in zip(states, plan.terms):
            np.multiply(w, np.take(z.view(complex), self.src, axis=-1), out=out)
        np.matmul(self.ex, plan.spec, out=plan.mixed)
        np.matmul(plan.mixed_float, self.yi, out=plan.grid)
        return plan

    def fields(self, *terms) -> np.ndarray:
        """Grid fields of (coeffs, kinds) terms, stacked: (F, G, 2, ..., G).

        ``kinds`` picks the (start, stop) of the weights a state's fields
        take: _VELOCITY its velocity, _GRADIENT its x and y derivatives,
        _CONVECTION all three.  The
        states broadcast over their leading axes, and one synthesis covers
        every field.  The result is valid until the next transform on this
        layout.
        """
        return self._synthesize(terms).fields

    def convection_fields(self, u, v, *more) -> tuple:
        """Grid fields of u, dv/dx, dv/dy and of each further state, one per entry.

        When ``u is v``, the three fields come from one spectrum, with one
        gather and one weight product; they have the bits of the two-term
        synthesis, whose fields are each the same product.  Valid until the
        next transform on this layout.
        """
        head = ((u, _CONVECTION),) if u is v else ((u, _VELOCITY), (v, _GRADIENT))
        return self._synthesize((*head, *((x, _VELOCITY) for x in more))).split

    def advection(self, u: np.ndarray, dvx: np.ndarray, dvy: np.ndarray) -> np.ndarray:
        """(u . grad) v on the grid, from u's velocity and v's two derivative fields.

        Valid until the next advection on this layout.
        """
        plan = self._plan(("advection", u.shape), lambda shape: SimpleNamespace(
            x=self._buffer("adv_x", shape), y=self._buffer("adv_y", shape)))
        adv = np.multiply(u[:, 0:1], dvx, out=plan.x)
        return np.add(adv, np.multiply(u[:, 1:2], dvy, out=plan.y), out=adv)

    def _projection_plan(self, shape: tuple) -> SimpleNamespace:
        """Views for the projection of a field of ``shape``."""
        g, batch = self.grid, shape[2:-1]
        p = 2 * math.prod(batch)
        # over y, then over x: (G, P (M+1)), then (P (M+1), 2M+1)
        mixed = self._buffer("mixed", (g, p * self.cols), complex)
        spec = self._buffer("spectrum", (p * self.cols, self.exc.shape[1]), complex)
        return SimpleNamespace(
            mixed_float=mixed.view(float).reshape(-1, 2 * self.cols), mixed=mixed.T,
            spec=spec, planes=spec.reshape((2,) + batch + (self.plane,)),
            proj=self.proj.reshape((2,) + (1,) * len(batch) + (self.n_pairs,)))

    def project(self, field: np.ndarray) -> np.ndarray:
        """Pair a grid vector field against every basis element."""
        plan = self._plan(("projection", field.shape), self._projection_plan)
        np.matmul(field.reshape(-1, self.grid), self.fyi, out=plan.mixed_float)
        np.matmul(plan.mixed, self.exc, out=plan.spec)
        # z of each pair: its two components' pairings, weighted
        picked = np.take(plan.planes, self.at, axis=-1)
        np.multiply(picked, plan.proj, out=picked)
        return (picked[0] + picked[1]).view(float)

    def pair(self, field_a: np.ndarray, field_b: np.ndarray) -> np.ndarray:
        """Grid quadrature of the dot product of two vector fields."""
        w = (_TWO_PI / self.grid) ** 2
        return w * np.einsum("xa...y,xa...y->...", field_a, field_b)

    def l4_from_field(self, u: np.ndarray) -> np.ndarray:
        """Grid L4 norm of each velocity field, with |u|^2 formed in a buffer."""
        speed_sq = np.einsum("xa...y,xa...y->x...y", u, u,
                             out=self._buffer("speed_sq", u.shape[:1] + u.shape[2:]))
        w = (_TWO_PI / self.grid) ** 2
        return (w * np.einsum("x...y,x...y->...", speed_sq, speed_sq)) ** 0.25

    def l4_norm(self, coeffs: np.ndarray) -> np.ndarray:
        return self.l4_from_field(self.fields((coeffs, _VELOCITY))[0])


def nse_trilinear(layout: _Layout, u, v, w) -> np.ndarray:
    """b(u,v,w) by grid quadrature of (u.grad v).w; supports batches."""
    vel_u, dvx, dvy, vel_w = layout.convection_fields(u, v, w)
    return layout.pair(layout.advection(vel_u, dvx, dvy), vel_w)


def nse_b_apply(layout: _Layout, u, v) -> np.ndarray:
    """Coefficients of the Leray-projected convection term B(u,v)."""
    return layout.project(layout.advection(*layout.convection_fields(u, v)))


def _in_row_blocks(fn, layout: _Layout, *states):
    """``fn(layout, *states)`` on at most _ROW_BLOCK broadcast states at a time.

    A state passed more than once is one object in every block too, so that
    B(y, y) takes its one-spectrum synthesis in blocks as well.
    """
    shape = np.broadcast(*states).shape
    lead = shape[:-1]
    if math.prod(lead) <= _ROW_BLOCK:
        return fn(layout, *states)
    rows = {id(s): np.broadcast_to(s, shape).reshape(-1, shape[-1]) for s in states}

    def block(i):
        cut = {key: r[i:i + _ROW_BLOCK] for key, r in rows.items()}
        return fn(layout, *(cut[id(s)] for s in states))

    out = np.concatenate([block(i) for i in range(0, math.prod(lead), _ROW_BLOCK)])
    return out.reshape(lead + out.shape[1:])


def estimate_a0(params: Nse2dParams) -> float:
    """The largest single-mode q(v)^2 / (|v| ||v||) on the layout's grid, times
    the safety margin: a lower estimate, since states that mix modes can
    exceed it.

    Only the first _ROW_BLOCK unit vectors are scanned.  A unit vector's
    field is a d_k cos(k.x) or a d_k sin(k.x), and its |u|^4 integrates
    exactly on the 4M+1 grid to the same value for every k, while |v| = 1
    and ||v|| = sqrt(visc) |k|.  So the ratio falls as 1/|k|: the pairs are
    ordered by |k|^2, the first block holds both |k| = 1 pairs, and every
    other mode's ratio is smaller by a factor of at least 1/sqrt(2).  The
    block is the first one a scan of every unit vector takes, so a0 has the
    same bits as that scan.
    """
    layout = nse_layout(params)
    basis = SpectralBasis(layout.eigenvalues(params.visc))
    v = np.eye(min(_ROW_BLOCK, layout.n_coeffs), layout.n_coeffs)
    q = layout.l4_norm(v)
    worst = (q * q / (h_norm_rows(v) * np.sqrt(v_norm_sq_rows(v, basis)))).max()
    return _A0_MARGIN * float(worst)


def nse2d_model(params: Nse2dParams) -> ModelSpec:
    layout = _Layout(params.modes_per_axis, 3 * params.modes_per_axis + 1)
    return ModelSpec(
        basis=SpectralBasis(layout.eigenvalues(params.visc)),
        b_apply=lambda u, v: _in_row_blocks(nse_b_apply, layout, u, v),
        structure_search=lambda n, seed: nse_structure_search(params, n, seed=seed),
    )


def nse_layout(params: Nse2dParams) -> _Layout:
    """The layout q is evaluated on, 4M+1 points per axis, for the a0 scan,
    the structure search and batched studies."""
    return _Layout(params.modes_per_axis, 4 * params.modes_per_axis + 1)


def nse_structure_search(params: Nse2dParams, n_samples: int, seed: int = 0,
                         c_b: float | None = None):
    """Batched search of the three structure conditions; see models.StructureReport.

    B is the model's own ``b_apply`` on its 3M+1 grid, paired against v and
    w; q is taken on ``nse_layout``'s 4M+1 grid.  Triples are drawn
    _DRAW_ROWS at a time, u, v and w in turn, which fixes the triples a seed
    gives; each draw is then transformed _ROW_BLOCK rows at a time.  When
    BLAS is pinned below the core count (``spaces.blas_leaves_a_core``), the
    next block is drawn on a helper thread (``spaces.prefetched``) while this
    one is scored on the caller's; the report is what a serial loop gives
    either way.  The interpolation ratio is taken against ``estimate_a0``.
    ``c_b`` defaults to the Hoelder constant: |int (u.grad v).w| <= |u|_L4
    |grad v|_L2 |w|_L4, and |grad v|_L2 = ||v|| / sqrt(visc).
    """
    model = nse2d_model(params)
    layout = nse_layout(params)
    a0 = estimate_a0(params)
    c_b = 1.0 / np.sqrt(params.visc) if c_b is None else c_b

    def ratios(layout, u, v, w):
        """(skew, interp, bound) of each triple, one column each."""
        b = model.b_apply(u, v)
        q_u, q_v, q_w = (layout.l4_from_field(x) for x in layout.fields(
            (u, _VELOCITY), (v, _VELOCITY), (w, _VELOCITY)))
        vv = np.sqrt(v_norm_sq_rows(v, model.basis))
        scale = c_b * q_u * vv
        skew = ratio(np.abs(np.vecdot(b, v)), scale * q_v)
        interp = ratio(q_v * q_v, a0 * h_norm_rows(v) * vv)
        bound = ratio(np.abs(np.vecdot(b, w)), scale * q_w)
        return np.stack([skew, interp, bound], axis=-1)

    rng = np.random.default_rng(seed)

    def draw(start):
        nb = min(_DRAW_ROWS, n_samples - start)
        return start, [rng.standard_normal((nb, layout.n_coeffs)) for _ in range(3)]

    out = np.empty((n_samples, 3))
    draws = prefetched if blas_leaves_a_core() else map
    for start, (u, v, w) in draws(draw, range(0, n_samples, _DRAW_ROWS)):
        out[start:start + len(u)] = _in_row_blocks(ratios, layout, u, v, w)
        del u, v, w  # before the block after next is drawn: two blocks at most
    return StructureReport.from_ratios(*out.T)
