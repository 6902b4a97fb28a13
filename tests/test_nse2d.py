import numpy as np
import pytest

from levyflow import h_norm, nse2d, v_norm
from levyflow.nse2d import (_CONVECTION, _GRADIENT, _ROW_BLOCK, _VELOCITY, Nse2dParams,
                            _in_row_blocks, _Layout, estimate_a0, nse2d_model, nse_b_apply,
                            nse_layout, nse_structure_search, nse_trilinear)

_ALPHA = 1.0 / (np.sqrt(2.0) * np.pi)
# relative agreement of the matrix transforms with numpy's FFTs and with a
# transform of each state alone: roundoff of sums of a few dozen terms
NSE_REL_TOL = 1e-13


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


@pytest.mark.parametrize("visc", [0.5, 1.0])
@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_estimate_a0_is_the_largest_single_mode_ratio(m, visc):
    a0 = estimate_a0(Nse2dParams(modes_per_axis=m, visc=visc))
    # a |k| = 1 mode has q^2 = sqrt(3/8)/pi and lambda_1 = visc, and the
    # grid G = 4M+1 integrates its |u|^4 exactly
    closed = nse2d._A0_MARGIN * np.sqrt(3.0 / 8.0) / (np.pi * np.sqrt(visc))
    assert a0 == pytest.approx(closed, rel=1e-12)


def test_model_spec_contract(params):
    model = nse2d_model(params)
    q_norm = nse_layout(params).l4_norm
    a0 = estimate_a0(params)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(model.basis.dim)
    q = q_norm(v)
    assert q * q <= a0 * h_norm(v) * v_norm(v, model.basis) * 1.05
    u, w = rng.standard_normal((2, model.basis.dim))
    b = model.trilinear(u, v, w)
    c_b = 1.0 / np.sqrt(params.visc)   # the Hoelder constant
    bound = c_b * q_norm(u) * v_norm(v, model.basis) * q_norm(w)
    assert abs(b) <= bound * (1 + 1e-12)


def test_structure_search_small():
    rep = nse_structure_search(Nse2dParams(modes_per_axis=4), 1000, seed=4)
    assert rep.ok


def test_underestimated_a0_fails_the_certificate(params, monkeypatch):
    # each v's interpolation ratio is taken against estimate_a0: its margin
    # keeps them below 1, and a margin well below 1 puts them past it
    model = nse2d_model(params)
    rep = model.structure_search(300, 4)
    assert rep.ok and 0 < rep.max_interp_ratio < 1
    monkeypatch.setattr(nse2d, "_A0_MARGIN", 0.2)
    low = model.structure_search(300, 4)
    assert not low.ok and low.interp_violations > 0
    assert low.skew_violations == low.bound_violations == 0


# the grid of each layout, by the M it is built for: q's (nse_layout,
# G = 4M + 1, odd) and the model's b and B (G = 3M + 1, even at M = 3 and
# odd at M = 8)
GRID_RULES = {
    "q_grid": lambda m: 4 * m + 1,
    "convection_grid": lambda m: 3 * m + 1,
}
GRIDS = [pytest.param(name, id=name) for name in GRID_RULES]


def _grid_layout(grid, m):
    """The layout the code builds for ``grid`` at ``m`` modes per axis."""
    if grid == "convection_grid":
        return _Layout(m, 3 * m + 1)
    return nse_layout(Nse2dParams(modes_per_axis=m))


@pytest.mark.parametrize("m", [1, 3, 8])
def test_each_quantity_takes_its_grid(m):
    # b and B on 3M+1, q on 4M+1
    params = Nse2dParams(modes_per_axis=m)
    assert nse_layout(params).grid == GRID_RULES["q_grid"](m)
    # the model's B is the convection layout's transform, and its b pairs it with w
    model, lay = nse2d_model(params), _Layout(m, GRID_RULES["convection_grid"](m))
    u, v, w = np.random.default_rng(m).standard_normal((3, 4, lay.n_coeffs))
    assert np.array_equal(model.b_apply(u, v), nse_b_apply(lay, u, v))
    assert np.array_equal(model.trilinear(u, v, w), np.vecdot(nse_b_apply(lay, u, v), w))


def _quadrature_oracle_errors(lay, grid_n=None):
    """Relative errors of b_apply, trilinear and l4_norm against the oracle.

    The oracle is the rectangle rule on ``grid_n`` points per axis (by default
    the layout's own grid), with the fields built from the mode formulas.  On
    the layout's own grid it is what the pseudospectral evaluation computes,
    with the aliasing errors of an aliased grid; on a grid fine enough to
    integrate every product exactly it is the exact value.
    """
    g = lay.grid if grid_n is None else grid_n
    h = (2.0 * np.pi / g) ** 2
    # the velocity field of each basis element: a d_k cos(k.x), a d_k sin(k.x)
    xs = 2.0 * np.pi * np.arange(g) / g
    phase = lay.kx[:, None, None] * xs[:, None] + lay.ky[:, None, None] * xs
    waves = _ALPHA * np.stack([np.cos(phase), np.sin(phase)], axis=1)
    basis = (waves[..., None] * lay.d[:, None, None, None, :]).reshape(
        (lay.n_coeffs,) + phase.shape[1:] + (2,))
    rng = np.random.default_rng(21)
    errors = []
    for _ in range(3):
        u, v, w = rng.standard_normal((3, lay.n_coeffs))
        _, vel_u, _, _ = _oracle_fields(u, lay, g)
        _, _, gvx, gvy = _oracle_fields(v, lay, g)
        _, vel_w, _, _ = _oracle_fields(w, lay, g)
        adv = vel_u[..., 0:1] * gvx + vel_u[..., 1:2] * gvy
        b_oracle = h * np.einsum("pqa,jpqa->j", adv, basis)
        scale = np.abs(b_oracle).max()
        t_oracle = h * (adv * vel_w).sum()
        q_oracle = (h * ((vel_u * vel_u).sum(axis=-1) ** 2).sum()) ** 0.25
        errors.append([
            np.abs(nse_b_apply(lay, u, v) - b_oracle).max() / scale,
            # |b(u, v, w)| <= max |B(u, v)| * sum |w|
            abs(nse_trilinear(lay, u, v, w) - t_oracle) / (scale * np.abs(w).sum()),
            abs(lay.l4_norm(u) - q_oracle) / q_oracle,
        ])
    return np.max(errors, axis=0)


@pytest.mark.parametrize("grid", GRIDS)
def test_half_spectrum_transforms_match_quadrature_oracle(grid):
    lay = _grid_layout(grid, 3)
    assert lay.grid == GRID_RULES[grid](3)
    assert np.all(_quadrature_oracle_errors(lay) <= 1e-13)


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_convection_grid_is_the_least_exact_one(m):
    # the integrands of b and of B's pairings have modes up to 3M: on 3M + 1
    # points B and b equal the exact values (the rectangle rule on 4M + 1
    # points), and on 3M points aliasing moves them
    exact = _quadrature_oracle_errors(_Layout(m, 3 * m + 1), grid_n=4 * m + 1)
    aliased = _quadrature_oracle_errors(_Layout(m, 3 * m), grid_n=4 * m + 1)
    assert max(exact[:2]) <= NSE_REL_TOL
    assert min(aliased[:2]) > 1e-3


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_q_grid_is_the_least_exact_one(m):
    # |u|^4 has modes up to 4M: on nse_layout's 4M + 1 points q equals the
    # exact value (the rectangle rule on 5M + 1 points), and on 4M points
    # aliasing moves it
    lay = nse_layout(Nse2dParams(modes_per_axis=m))
    assert lay.grid == 4 * m + 1
    assert _quadrature_oracle_errors(lay, grid_n=5 * m + 1)[2] <= NSE_REL_TOL
    assert _quadrature_oracle_errors(_Layout(m, 4 * m), grid_n=5 * m + 1)[2] > 1e-4


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
    a0 = estimate_a0(params)
    rng = np.random.default_rng(seed)
    skew, interp, bound = [], [], []
    for start in range(0, n_samples, batch):
        nb = min(batch, n_samples - start)
        u, v, w = (rng.standard_normal((nb, lay.n_coeffs)) for _ in range(3))
        vv = np.sqrt((v * v) @ lam)
        scale = c_b * lay.l4_norm(u) * vv
        q_v = lay.l4_norm(v)
        skew.append(np.abs(nse_trilinear(lay, u, v, v)) / (scale * q_v))
        interp.append(q_v * q_v / (a0 * np.linalg.norm(v, axis=1) * vv))
        bound.append(np.abs(nse_trilinear(lay, u, v, w)) / (scale * lay.l4_norm(w)))
    return np.concatenate(skew), np.concatenate(interp), np.concatenate(bound)


@pytest.mark.parametrize("batch", [_ROW_BLOCK // 2, _ROW_BLOCK, _ROW_BLOCK + 23],
                         ids=["smaller", "equal", "not_a_multiple"])
def test_structure_search_blocks_cover_every_drawn_triple(batch, monkeypatch):
    # c_b below the Hoelder constant puts a share of the bound ratios past 1,
    # so the violation count checks that every drawn triple is scored once
    monkeypatch.setattr(nse2d, "_DRAW_ROWS", batch)
    params = Nse2dParams(modes_per_axis=3)
    n = 2 * batch + 7
    rep = nse_structure_search(params, n, seed=5, c_b=0.04)
    skew, interp, bound = _reference_search(params, n, seed=5, batch=batch, c_b=0.04)
    assert rep.n_samples == n
    assert 0 < rep.bound_violations < n
    assert rep.bound_violations == int((bound > 1.0 + 1e-12).sum())
    assert rep.max_bound_ratio == pytest.approx(bound.max(), rel=1e-12)
    assert rep.skew_violations == 0 and skew.max() <= 1e-12
    assert rep.max_skew_residual <= 1e-12
    assert rep.interp_violations == 0
    assert rep.max_interp_ratio == pytest.approx(interp.max(), rel=1e-12)


def _numpy_transform_errors(lay):
    """Relative errors of ``fields`` against irfft2 and of ``project`` against rfft2.

    numpy's transforms run over the whole ky >= 0 half plane of a spectrum
    holding, at k, the amplitude c - i s of e^{ik.x} (times i kx or i ky for
    a derivative) and, for ky = 0, its conjugate at -k.
    """
    g = lay.grid
    rng = np.random.default_rng(23)
    u, v = rng.standard_normal((2, 2, 3, lay.n_coeffs))
    au, av = (np.ascontiguousarray(x).view(complex).conj() for x in (u, v))
    amps = np.stack([au, 1j * lay.kx * av, 1j * lay.ky * av], axis=-2)   # (2, 3, F, n_pairs)
    vals = amps[..., None, :] * (0.5 * _ALPHA * lay.d.T)                   # (2, 3, F, 2, n_pairs)
    full = np.zeros(vals.shape[:-1] + (g, g // 2 + 1), dtype=complex)
    full[..., lay.kx % g, lay.ky] = vals
    on_axis = lay.ky == 0
    full[..., -lay.kx[on_axis] % g, 0] = vals[..., on_axis].conj()
    expected = np.fft.irfft2(full, s=(g, g), norm="forward")               # (2, 3, F, 2, G, G)
    got = lay.fields((u, _VELOCITY), (v, _GRADIENT))                     # (F, G, 2, 2, 3, G)
    fields_err = (np.abs(got.transpose(3, 4, 0, 2, 1, 5) - expected).max()
                  / np.abs(expected).max())

    field = rng.standard_normal((2, 3, 2, g, g))
    picked = np.fft.rfft2(field, norm="forward")[..., lay.kx % g, lay.ky]
    amp = picked[..., 0, :] * lay.proj[0] + picked[..., 1, :] * lay.proj[1]
    expected = np.ascontiguousarray(amp.conj()).view(float)
    got = lay.project(field.transpose(3, 2, 0, 1, 4))
    return fields_err, np.abs(got - expected).max() / np.abs(expected).max()


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("m", [3, 8])
def test_pruned_transforms_equal_numpy_full_transforms(m, grid):
    # the matrix products over the M+1 mode columns compute what irfft2 and
    # rfft2 compute over the whole half plane, up to roundoff
    lay = _grid_layout(grid, m)
    assert lay.grid == GRID_RULES[grid](m)
    assert max(_numpy_transform_errors(lay)) <= NSE_REL_TOL


def _mirror_on_axis_pairs(lay):
    # a ky = 0 pair's value also written at (0, -kx), where its conjugate
    # would sit if the spectrum stored one
    pairs = np.flatnonzero(lay.ky == 0)
    mirror = lay.at[pairs] - 2 * lay.kx[pairs]
    lay.src[mirror] = pairs
    lay.weights[..., mirror] = lay.weights[..., lay.at[pairs]]


def _halve_ky0_weight(lay):
    # weight 1 at ky = 0, as if the spectrum also held the conjugates there
    lay.yi[0] *= 0.5


def _conjugate_columns(lay):
    # the sin rows of the wrong sign: each ky > 0 column read as its conjugate
    lay.yi[1::2] *= -1.0


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("mutate", [_halve_ky0_weight, _mirror_on_axis_pairs, _conjugate_columns])
def test_oracle_tests_reject_a_mishandled_ky_column(mutate, grid):
    lay = _grid_layout(grid, 3)
    mutate(lay)
    assert min(_numpy_transform_errors(lay)[0], _quadrature_oracle_errors(lay)[0]) > 1e-3


@pytest.mark.parametrize("grid", GRIDS)
def test_each_row_of_a_block_equals_that_state_alone(grid):
    lay = _grid_layout(grid, 8)
    rng = np.random.default_rng(25)
    u, v, w = rng.standard_normal((3, _ROW_BLOCK, lay.n_coeffs))
    block = [nse_b_apply(lay, u, v), nse_trilinear(lay, u, v, w), lay.l4_norm(u)]
    for i in range(_ROW_BLOCK):
        alone = [nse_b_apply(lay, u[i], v[i]), nse_trilinear(lay, u[i], v[i], w[i]),
                 lay.l4_norm(u[i])]
        for whole, one in zip(block, alone):
            assert np.abs(whole[i] - one).max() <= NSE_REL_TOL * np.abs(one).max()


@pytest.mark.parametrize("rows", (1, 2, _ROW_BLOCK, _ROW_BLOCK + 1))
def test_b_of_a_state_with_itself_is_the_two_term_synthesis(rows):
    # B(y, y) synthesizes y's velocity and derivatives from one spectrum, also
    # block by block past _ROW_BLOCK rows; a copy of y takes the two-term path
    lay = _Layout(8, 25)
    y = np.random.default_rng(rows).standard_normal((rows, lay.n_coeffs))
    kinds, synthesize = [], lay._synthesize
    lay._synthesize = lambda terms: kinds.append([k for _, k in terms]) or synthesize(terms)
    one = _in_row_blocks(nse_b_apply, lay, y, y)
    assert kinds == [[_CONVECTION]] * -(-rows // _ROW_BLOCK)
    del lay._synthesize
    assert one.tobytes() == _in_row_blocks(nse_b_apply, lay, y, y.copy()).tobytes()


def test_reused_buffers_match_a_fresh_layout_and_hand_out_copies():
    # rows shrink, then cross _ROW_BLOCK, then the field count changes; every
    # result equals the same call on a fresh layout and outlives later calls
    params = Nse2dParams(modes_per_axis=3)
    lay = nse_layout(params)
    rng = np.random.default_rng(24)

    def b_apply(rows):
        u, v = rng.standard_normal((2, rows, lay.n_coeffs))
        return lambda layout: _in_row_blocks(nse_b_apply, layout, u, v)

    def l4_norm(rows):
        x = rng.standard_normal((rows, lay.n_coeffs))
        return lambda layout: layout.l4_norm(x)

    def trilinear(rows):
        u, v, w = rng.standard_normal((3, rows, lay.n_coeffs))
        return lambda layout: _in_row_blocks(nse_trilinear, layout, u, v, w)

    calls = [b_apply(8), b_apply(3), b_apply(1), b_apply(_ROW_BLOCK + 5),
             l4_norm(5), trilinear(6), b_apply(8)]
    kept = []
    for call in calls:
        out = call(lay)
        assert np.array_equal(out, call(nse_layout(params)))
        kept.append((out, out.copy()))
    for out, copy in kept:
        assert np.array_equal(out, copy)


def _planned_calls(dim, rng):
    """(fn, states) of b_apply and trilinear calls at 1 to 65 rows and with
    broadcast shapes, as the model makes them through _in_row_blocks."""
    shapes = [((n, dim), (n, dim)) for n in (1, 2, 3, 8, 64, 65, 3, 1)]
    shapes += [((1, dim), (8, dim)), ((dim,), (2, dim)), ((8, dim), (1, dim))]
    calls = []
    for su, sv in shapes:
        u, v, w = rng.standard_normal(su), rng.standard_normal(sv), rng.standard_normal(sv)
        calls += [(nse_b_apply, (u, v)), (nse_trilinear, (u, v, w))]
    return calls


def test_planned_transforms_equal_a_fresh_layout_and_outlive_the_next_call():
    # interleaved row counts and broadcast shapes reuse and rebuild plans;
    # every result equals the call on a fresh layout bit for bit, and neither
    # it nor its inputs move when the next call runs
    lay = _Layout(8, 25)
    kept = None
    for fn, states in _planned_calls(lay.n_coeffs, np.random.default_rng(26)):
        inputs = [x.copy() for x in states]
        out = _in_row_blocks(fn, lay, *states)
        if kept is not None:
            assert np.array_equal(*kept)
        assert np.array_equal(out, _in_row_blocks(fn, _Layout(8, 25), *states))
        assert all(np.array_equal(x, y) for x, y in zip(inputs, states))
        kept = (out, out.copy())


def _plan_arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _plan_arrays(item)


def test_plans_hold_only_views_of_the_grown_buffers():
    # the Picard sweep meets every lane count up to its block: the buffers
    # grow to the largest call alone, and every plan array is a view of a
    # current buffer or of the layout's weights, so no plan keeps its own
    lay, one = _Layout(8, 25), _Layout(8, 25)
    rng = np.random.default_rng(27)
    for rows in range(1, _ROW_BLOCK + 1):
        u, v, w = rng.standard_normal((3, rows, lay.n_coeffs))
        nse_b_apply(lay, u, v)
        nse_trilinear(lay, u, v, w)
    u, v, w = rng.standard_normal((3, _ROW_BLOCK, lay.n_coeffs))
    nse_b_apply(one, u, v)
    nse_trilinear(one, u, v, w)
    assert lay._buffers.keys() == one._buffers.keys()
    assert sum(b.nbytes for b in lay._buffers.values()) \
        == sum(b.nbytes for b in one._buffers.values())
    owners = [*lay._buffers.values(), lay.weights, lay.proj]
    assert lay._plans
    for plan in lay._plans.values():
        for arr in _plan_arrays(list(vars(plan).values())):
            assert any(arr.base is owner for owner in owners)
