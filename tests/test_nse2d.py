import numpy as np
import pytest

from levyflow import h_norm, v_norm
from levyflow.nse2d import (Nse2dParams, estimate_a0, nse2d_model, nse_b_apply,
                            nse_layout, nse_structure_search, nse_trilinear)

_ALPHA = 1.0 / (np.sqrt(2.0) * np.pi)


@pytest.fixture(scope="module")
def params():
    return Nse2dParams(modes_per_axis=3, visc=1.0)


@pytest.fixture(scope="module")
def layout(params):
    return nse_layout(params)


def _oracle_fields(coeffs, layout, grid_n=48):
    """Velocity and gradient fields built directly from the mode formulas."""
    xs = 2.0 * np.pi * np.arange(grid_n) / grid_n
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vel = np.zeros(X.shape + (2,))
    gx = np.zeros(X.shape + (2,))
    gy = np.zeros(X.shape + (2,))
    cc, cs = coeffs[0::2], coeffs[1::2]
    for j in range(layout.n_pairs):
        phase = layout.kx[j] * X + layout.ky[j] * Y
        scal = _ALPHA * (cc[j] * np.cos(phase) + cs[j] * np.sin(phase))
        dscal = _ALPHA * (-cc[j] * np.sin(phase) + cs[j] * np.cos(phase))
        for a in range(2):
            vel[..., a] += scal * layout.d[j, a]
            gx[..., a] += dscal * layout.kx[j] * layout.d[j, a]
            gy[..., a] += dscal * layout.ky[j] * layout.d[j, a]
    return X, vel, gx, gy


def test_basis_is_orthonormal_and_divergence_free(layout):
    grid_n = 48
    h = (2.0 * np.pi / grid_n) ** 2
    for j in (0, 1, layout.n_coeffs - 1):
        e = np.zeros(layout.n_coeffs)
        e[j] = 1.0
        _, vel, gx, gy = _oracle_fields(e, layout, grid_n)
        assert h * (vel * vel).sum() == pytest.approx(1.0, rel=1e-12)
        div = gx[..., 0] + gy[..., 1]
        assert np.abs(div).max() <= 1e-12


def test_eigenvalues_sorted(params, layout):
    lam = layout.eigenvalues(params.visc)
    assert np.all(np.diff(lam) >= 0.0)
    assert lam[0] == params.visc * 1.0
    assert lam[-1] == params.visc * 2.0 * params.modes_per_axis ** 2


def test_single_mode_self_interaction(layout):
    e = np.zeros(layout.n_coeffs)
    e[0] = 1.0
    assert abs(nse_trilinear(layout, e, e, e)) <= 1e-14


def test_two_mode_case_vs_quadrature_oracle(layout):
    # independent oracle: trig fields on a fine grid, rectangle-rule integral
    coeffs_u = np.zeros(layout.n_coeffs)
    coeffs_v = np.zeros(layout.n_coeffs)
    coeffs_u[0] = 0.7
    coeffs_u[3] = -0.4
    coeffs_v[2] = 1.1
    coeffs_v[5] = 0.3
    w = np.zeros(layout.n_coeffs)
    w[1] = 0.9
    w[4] = -0.2
    _, vel_u, _, _ = _oracle_fields(coeffs_u, layout)
    _, vel_w, _, _ = _oracle_fields(w, layout)
    _, _, gvx, gvy = _oracle_fields(coeffs_v, layout)
    adv = vel_u[..., 0:1] * gvx + vel_u[..., 1:2] * gvy
    h = (2.0 * np.pi / 48) ** 2
    oracle = h * (adv * vel_w).sum()
    assert nse_trilinear(layout, coeffs_u, coeffs_v, w) == pytest.approx(oracle, abs=1e-10)


def test_antisymmetry_random(layout):
    rng = np.random.default_rng(0)
    c_b = 1.0
    for _ in range(30):
        u, v, w = rng.standard_normal((3, layout.n_coeffs))
        scale = c_b * layout.l4_norm(u) * np.sqrt((v * v) @ layout.eigenvalues(1.0)) \
            * layout.l4_norm(w)
        res = nse_trilinear(layout, u, v, w) + nse_trilinear(layout, u, w, v)
        assert abs(res) <= 1e-12 * scale


def test_apply_consistency(layout):
    rng = np.random.default_rng(1)
    for _ in range(20):
        u, v, w = rng.standard_normal((3, layout.n_coeffs))
        direct = nse_trilinear(layout, u, v, w)
        via = float(np.dot(nse_b_apply(layout, u, v), w))
        assert via == pytest.approx(direct, rel=1e-11, abs=1e-12)


def test_dealias_flag_matters():
    on = nse_layout(Nse2dParams(modes_per_axis=4, dealias=True))
    off = nse_layout(Nse2dParams(modes_per_axis=4, dealias=False))
    rng = np.random.default_rng(2)
    u, v = rng.standard_normal((2, on.n_coeffs))
    res_on = abs(nse_trilinear(on, u, v, v))
    res_off = abs(nse_trilinear(off, u, v, v))
    assert res_on <= 1e-10
    assert res_off > 1e3 * max(res_on, 1e-16)


def test_l4_single_mode_closed_form(layout):
    # |a d cos(k.x)|^4 integrates to a^4 (2pi)^2 3/8, so q^2 = sqrt(3/8)/pi
    e = np.zeros(layout.n_coeffs)
    e[0] = 1.0
    closed = (3.0 / (8.0 * np.pi ** 2)) ** 0.25
    assert layout.l4_norm(e) == pytest.approx(closed, rel=1e-12)


def test_interp_ratio_single_mode(params, layout):
    # closed-form check of q^2/(|v| ||v||) for one Fourier mode
    e = np.zeros(layout.n_coeffs)
    e[0] = 1.0
    q = layout.l4_norm(e)
    lam = layout.eigenvalues(params.visc)
    ratio = q * q / (1.0 * np.sqrt(lam[0]))
    closed = np.sqrt(3.0 / 8.0) / np.pi / np.sqrt(lam[0])
    assert ratio == pytest.approx(closed, rel=1e-12)


def test_estimate_a0_guards_and_stability():
    p = Nse2dParams(modes_per_axis=3)
    a_small = estimate_a0(p, n_samples=512, seed=9)
    a_big = estimate_a0(p, n_samples=1024, seed=9)
    assert a_small > 0
    assert abs(a_big - a_small) <= 0.2 * a_small


def test_model_spec_contract(params):
    model = nse2d_model(params)
    q_norm = nse_layout(params).l4_norm
    a0 = estimate_a0(params, n_samples=256)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(model.basis.dim)
    q = q_norm(v)
    assert q * q <= a0 * h_norm(v) * v_norm(v, model.basis) * 1.05
    u, w = rng.standard_normal((2, model.basis.dim))
    b = model.trilinear(u, v, w)
    bound = model.c_b * q_norm(u) * v_norm(v, model.basis) * q_norm(w)
    assert abs(b) <= bound * (1 + 1e-12)


def test_structure_search_small():
    rep = nse_structure_search(Nse2dParams(modes_per_axis=4), 1000, seed=4)
    assert rep.ok
