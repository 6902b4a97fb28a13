import numpy as np
import pytest

from levyflow import h_norm, v_norm
from levyflow.nse2d import (_ROW_BLOCK, Nse2dParams, estimate_a0, nse2d_model,
                            nse_b_apply, nse_layout, nse_structure_search,
                            nse_trilinear)

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


# even grid (dealiased, G = 4M) and odd grid (aliased, G = 2M + 1)
GRIDS = [pytest.param(True, id="dealiased_even_grid"),
         pytest.param(False, id="aliased_odd_grid")]


@pytest.mark.parametrize("dealias", GRIDS)
def test_half_spectrum_transforms_match_quadrature_oracle(dealias):
    # the rectangle rule on the layout's own grid, with the fields built from
    # the mode formulas, is what the pseudospectral evaluation computes; on
    # the aliased grid it includes the aliasing errors
    lay = nse_layout(Nse2dParams(modes_per_axis=3, dealias=dealias))
    g = lay.grid
    assert g % 2 == (0 if dealias else 1)
    h = (2.0 * np.pi / g) ** 2
    basis = np.stack([_oracle_fields(e, lay, g)[1] for e in np.eye(lay.n_coeffs)])
    rng = np.random.default_rng(21)
    for _ in range(3):
        u, v, w = rng.standard_normal((3, lay.n_coeffs))
        _, vel_u, _, _ = _oracle_fields(u, lay, g)
        _, _, gvx, gvy = _oracle_fields(v, lay, g)
        _, vel_w, _, _ = _oracle_fields(w, lay, g)
        adv = vel_u[..., 0:1] * gvx + vel_u[..., 1:2] * gvy
        b_oracle = h * np.einsum("pqa,jpqa->j", adv, basis)
        scale = np.abs(b_oracle).max()
        assert np.abs(nse_b_apply(lay, u, v) - b_oracle).max() <= 1e-13 * scale
        t_oracle = h * (adv * vel_w).sum()
        # |b(u, v, w)| <= max |B(u, v)| * sum |w|
        tol = 1e-13 * scale * np.abs(w).sum()
        assert abs(nse_trilinear(lay, u, v, w) - t_oracle) <= tol
        q_oracle = (h * ((vel_u * vel_u).sum(axis=-1) ** 2).sum()) ** 0.25
        assert lay.l4_norm(u) == pytest.approx(q_oracle, rel=1e-13)


def test_model_callables_block_long_batches():
    # more rows than one transform block, as one flat batch and with the
    # rows spread over two leading axes
    model = nse2d_model(Nse2dParams(modes_per_axis=3))
    lay = nse_layout(Nse2dParams(modes_per_axis=3))
    rows = _ROW_BLOCK + 5
    rng = np.random.default_rng(22)
    u, v = rng.standard_normal((2, rows, lay.n_coeffs))
    direct = nse_b_apply(lay, u, v)
    tol = 1e-13 * np.abs(direct).max()
    assert np.abs(model.b_apply(u, v) - direct).max() <= tol
    four = (4, (rows - 1) // 4, lay.n_coeffs)
    spread = model.b_apply(u[:-1].reshape(four), v[:-1].reshape(four))
    assert spread.shape == four
    assert np.abs(spread.reshape(rows - 1, -1) - direct[:-1]).max() <= tol
    # one state against a long batch broadcasts before it is blocked
    one = model.trilinear(u[0], v, v[::-1])
    assert one.shape == (rows,)
    ref = nse_trilinear(lay, u[0], v, v[::-1])
    assert np.abs(one - ref).max() <= 1e-13 * np.abs(ref).max()


def _reference_search(params, n_samples, seed, batch, c_b):
    """The structure search on the same draws, one transform per quantity."""
    lay = nse_layout(params)
    lam = lay.eigenvalues(params.visc)
    rng = np.random.default_rng(seed)
    skew, bound = [], []
    for start in range(0, n_samples, batch):
        nb = min(batch, n_samples - start)
        u, v, w = (rng.standard_normal((nb, lay.n_coeffs)) for _ in range(3))
        scale = c_b * lay.l4_norm(u) * np.sqrt((v * v) @ lam)
        skew.append(np.abs(nse_trilinear(lay, u, v, v)) / (scale * lay.l4_norm(v)))
        bound.append(np.abs(nse_trilinear(lay, u, v, w)) / (scale * lay.l4_norm(w)))
    return np.concatenate(skew), np.concatenate(bound)


@pytest.mark.parametrize("batch", [_ROW_BLOCK // 2, _ROW_BLOCK, _ROW_BLOCK + 23],
                         ids=["smaller", "equal", "not_a_multiple"])
def test_structure_search_blocks_cover_every_drawn_triple(batch):
    # c_b below the Hoelder constant puts a share of the bound ratios past 1,
    # so the violation count checks that every drawn triple is scored once
    params = Nse2dParams(modes_per_axis=3)
    n = 2 * batch + 7
    rep = nse_structure_search(params, n, seed=5, batch=batch, c_b=0.04)
    skew, bound = _reference_search(params, n, seed=5, batch=batch, c_b=0.04)
    assert rep.n_samples == n
    assert 0 < rep.bound_violations < n
    assert rep.bound_violations == int((bound > 1.0 + 1e-12).sum())
    assert rep.max_bound_ratio == pytest.approx(bound.max(), rel=1e-12)
    assert rep.skew_violations == 0 and skew.max() <= 1e-12
    assert rep.max_skew_residual <= 1e-12
