"""The row-batched model contract and the whole-path diagnostics built on it.

``trilinear`` and ``b_apply`` broadcast over leading axes, so a batch of
rows must give what one call per row gives.  ``cross_term_series`` and
``energy_ledger`` evaluate a whole path in one array expression; the
references below are the per-grid-point loops they replace.
"""

from dataclasses import fields
from functools import partial

import numpy as np
import pytest

from levyflow import (Cutoff, DyadicShellParams, PathSegment, SolverConfig,
                      WienerDriverSpec, baseline_direct,
                      build_coefficients, compound_gaussian,
                      dyadic_model, energy_ledger, family,
                      jump_coefficient, nse_structure_search, psi_hs_norm_sq,
                      sample_realization, shell_structure_search, shell_trilinear,
                      wiener_apply, zero_b_model)
from levyflow import models, nse2d
from levyflow.diagnostics import cross_term_series
from levyflow.nse2d import _ROW_BLOCK, Nse2dParams, nse2d_model
from levyflow.spaces import SpectralBasis

ROWS = 2 * _ROW_BLOCK + 3   # more than two nse2d transform blocks, the last one partial
NSE_REL_TOL = 1e-13

MODELS = {
    "dyadic": lambda: dyadic_model(DyadicShellParams(n_modes=12)),
    "nse2d": lambda: nse2d_model(Nse2dParams(modes_per_axis=3)),
    "zero_b": lambda: zero_b_model(SpectralBasis(np.arange(1.0, 7.0))),
}


def _assert_matches(batch, rows, name):
    rows = np.asarray(rows)
    assert batch.shape == rows.shape
    if name == "nse2d":
        scale = np.abs(rows).max()
        assert np.abs(batch - rows).max() <= NSE_REL_TOL * scale
    else:
        assert np.array_equal(batch, rows)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_batched_calls_equal_per_row_calls(name):
    model = MODELS[name]()
    rng = np.random.default_rng(11)
    u, v, w = rng.standard_normal((3, ROWS, model.basis.dim))
    per_row_b = [model.trilinear(u[i], v[i], w[i]) for i in range(ROWS)]
    _assert_matches(model.trilinear(u, v, w), per_row_b, name)
    per_row_apply = [model.b_apply(u[i], v[i]) for i in range(ROWS)]
    _assert_matches(model.b_apply(u, v), per_row_apply, name)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_several_leading_axes(name):
    model = MODELS[name]()
    rng = np.random.default_rng(12)
    u, v, w = rng.standard_normal((3, 3, 4, model.basis.dim))
    flat = model.trilinear(*(x.reshape(12, -1) for x in (u, v, w)))
    _assert_matches(model.trilinear(u, v, w), flat.reshape(3, 4), name)
    flat = model.b_apply(u.reshape(12, -1), v.reshape(12, -1))
    _assert_matches(model.b_apply(u, v), flat.reshape(u.shape), name)
    # one state against a batch broadcasts as its copies do
    one = np.broadcast_to(u[0, 0], u.shape)
    _assert_matches(model.b_apply(u[0, 0], v), model.b_apply(one, v), name)
    _assert_matches(model.trilinear(u[0, 0], v, w), model.trilinear(one, v, w), name)


def _reference_structure(name, n, seed, c_b):
    """The direct search the MODELS entry ``name`` certifies itself with."""
    if name == "zero_b":
        return None
    if name == "dyadic":
        return shell_structure_search(DyadicShellParams(n_modes=12), n, seed, c_b=c_b)
    return nse_structure_search(Nse2dParams(modes_per_axis=3), n, seed=seed, c_b=c_b)


@pytest.mark.parametrize("c_b", [None, 0.05])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_structure_search_matches_direct_search(name, c_b, monkeypatch):
    # the model calls its module's search by name, so a patched search with a
    # planted constant is the one it runs
    if c_b is not None:
        for module, search in ((models, "shell_structure_search"),
                               (nse2d, "nse_structure_search")):
            monkeypatch.setattr(module, search, partial(getattr(module, search), c_b=c_b))
    model = MODELS[name]()
    assert model.structure_search(300, 4) == _reference_structure(name, 300, 4, c_b)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_trilinear_is_b_apply_paired_with_w(name):
    # one convection operator per model: the trilinear form cannot disagree
    # with the B the solver runs
    model = MODELS[name]()
    assert [f.name for f in fields(model)] == ["basis", "b_apply", "structure_search"]
    rng = np.random.default_rng(15)
    u, v, w = rng.standard_normal((3, ROWS, model.basis.dim))
    assert np.array_equal(model.trilinear(u, v, w), np.vecdot(model.b_apply(u, v), w))


def test_dyadic_skew_pairing_exact_on_batches():
    params = DyadicShellParams(n_modes=12)
    rng = np.random.default_rng(13)
    u, v = rng.standard_normal((2, 200, params.n_modes))
    v *= 10.0 ** rng.uniform(-6, 6, (200, 1))
    pairing = shell_trilinear(u, v, v, params.wavenumbers)
    assert pairing.shape == (200,)
    assert np.all(pairing == 0.0)


# ---------------------------------------------------------------------------
# cross term


def _reference_cross_term(prev, cur, nxt, model, cutoff):
    out = np.empty(cur.n_steps + 1)
    for k in range(cur.n_steps + 1):
        test = nxt.states[k] - cur.states[k]
        c1 = cutoff.factor(float(np.linalg.norm(cur.states[k])),
                           float(np.sqrt(cur.xi_sq[k])))
        c0 = cutoff.factor(float(np.linalg.norm(prev.states[k])),
                           float(np.sqrt(prev.xi_sq[k])))
        val = 0.0
        if c1 != 0.0:
            val += c1 * model.trilinear(cur.states[k], nxt.states[k], test)
        if c0 != 0.0:
            val -= c0 * model.trilinear(prev.states[k], cur.states[k], test)
        out[k] = val
    return out


def _wandering_paths(model, rng, n_steps=30, dt=0.02):
    """Three iterates whose norms and budgets sweep through the cutoff ramps."""
    dim = model.basis.dim
    base = np.cumsum(rng.standard_normal((n_steps + 1, dim)), axis=0)
    base *= np.linspace(0.2, 3.0, n_steps + 1)[:, None] / np.sqrt(dim)
    return [PathSegment.from_states(model.basis, 0.0, dt,
                                    base + 0.05 * rng.standard_normal(base.shape))
            for _ in range(3)]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_cross_term_series_matches_per_row_loop(name):
    model = MODELS[name]()
    rng = np.random.default_rng(14)
    prev, cur, nxt = _wandering_paths(model, rng)
    norms = np.linalg.norm(cur.states, axis=1)
    budget = 0.5 * float(np.sqrt(cur.xi_sq[-1]))
    cutoff = Cutoff(level=float(np.median(norms)), budget=budget)
    ref = _reference_cross_term(prev, cur, nxt, model, cutoff)
    out = cross_term_series(prev, cur, nxt, model, cutoff)
    assert out.shape == ref.shape
    scale = max(float(np.abs(ref).max()), 1e-300)
    assert np.abs(out - ref).max() <= 1e-13 * scale
    if name != "zero_b":
        # the series covers the level ramp and both plateaus
        factors = cutoff.factor(norms, np.sqrt(cur.xi_sq))
        assert np.any(factors == 1.0) and np.any(factors == 0.0)
        assert np.any((factors > 0.0) & (factors < 1.0))


# ---------------------------------------------------------------------------
# energy ledger


def _reference_ledger(path, noise, model, coeff, measure):
    k_steps = path.n_steps
    dt = path.dt
    lam = model.basis.eigenvalues
    cols = np.empty((7, k_steps))
    f = coeff.forcing
    for k in range(k_steps):
        y = path.states[k]
        y1 = path.states[k + 1]
        dis = 2.0 * dt * float(np.dot(lam, y * y))
        forc = 2.0 * dt * float(np.dot(f, y))
        dw = noise.wiener[k]
        wmart = 2.0 * float(np.dot(wiener_apply(coeff, y, dw), y)) if dw.size else 0.0
        g = jump_coefficient(coeff, y, 1.0)
        jmart = 2.0 * (noise.mark_sums[k] - dt * measure.m1) * float(np.dot(g, y))
        jquad = noise.per_step(noise.jump_marks ** 2)[k] * float(np.dot(g, g))
        wquad = dt * psi_hs_norm_sq(coeff, y)
        gain = float(np.dot(y1, y1) - np.dot(y, y))
        res = gain - (-dis + forc + wmart + jmart + jquad + wquad)
        cols[:, k] = dis, forc, wmart, jmart, jquad, wquad, res
    return cols


LEDGER_FIELDS = ("dissipation", "forcing", "wiener_mart", "jump_mart",
                 "jump_quad", "wiener_quad", "residual")


@pytest.mark.parametrize("name", ["dyadic", "nse2d"])
@pytest.mark.parametrize("dims", [0, 4])
def test_energy_ledger_matches_per_row_loop(name, dims):
    model = MODELS[name]()
    dim = model.basis.dim
    measure = compound_gaussian(rate=30.0, mean=0.2, sd=0.5)
    wiener = WienerDriverSpec(dims)
    coeff = build_coefficients(family("gradient", dim, theta=0.3),
                               family("diagonal", dim, sigma=0.3), measure,
                               model.basis, 1.0, wiener,
                               forcing=np.linspace(0.5, -0.5, dim))
    cfg = SolverConfig(horizon=0.4, dt=0.01)
    noise = sample_realization(0.0, cfg.n_steps, cfg.dt, measure, wiener, 5)
    assert np.count_nonzero(noise.mark_sums) >= 5
    u0 = np.zeros(dim)
    u0[:3] = 1.0
    path = baseline_direct(noise, cfg, model, coeff, measure, u0)
    led = energy_ledger(path, noise, model, coeff, measure)
    ref = _reference_ledger(path, noise, model, coeff, measure)
    scale = float(np.abs(ref).max())
    for field, col in zip(LEDGER_FIELDS, ref):
        got = getattr(led, field)
        assert got.shape == col.shape, field
        assert np.abs(got - col).max() <= 1e-13 * scale, field
