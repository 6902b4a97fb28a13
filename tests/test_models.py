import numpy as np
import pytest

from levyflow import (DyadicShellParams, StructureReport, dyadic_model, h_norm,
                      models, shell_certified_constants, shell_structure_search,
                      shell_trilinear, v_norm, zero_b_model)
from levyflow.spaces import SpectralBasis


@pytest.fixture
def params():
    return DyadicShellParams(n_modes=8, k0=2.0, visc=1.0)


@pytest.fixture
def model(params):
    return dyadic_model(params)


def _unit(i, n=8):
    e = np.zeros(n)
    e[i] = 1.0
    return e


def test_trilinear_oracle_values(model, params):
    # antisymmetry in the last two slots kills the diagonal case
    e1 = _unit(0)
    assert model.trilinear(e1, e1, e1) == 0.0
    # direct evaluation of the defining sum: only the n=1 term survives,
    # contributing k_1 * u_1 * v_1 * w_2
    e2 = _unit(1)
    k1 = params.wavenumbers[0]
    assert model.trilinear(e1, e1, e2) == k1
    assert model.trilinear(e1, e1, e2) == 2.0


def test_trilinear_brute_force_oracle(model, params):
    # compare the vectorized form against an index-by-index triple loop
    rng = np.random.default_rng(0)
    k = params.wavenumbers
    for _ in range(20):
        u, v, w = rng.standard_normal((3, 8))
        brute = sum(k[n] * u[n] * (v[n] * w[n + 1] - v[n + 1] * w[n])
                    for n in range(7))
        assert model.trilinear(u, v, w) == pytest.approx(brute, rel=1e-13)


def test_antisymmetry_random(model):
    rng = np.random.default_rng(1)
    for _ in range(200):
        u, v, w = rng.standard_normal((3, 8))
        scale = max(1.0, abs(model.trilinear(u, v, w)))
        assert abs(model.trilinear(u, v, w) + model.trilinear(u, w, v)) <= 1e-13 * scale


def test_skew_pairing_exactly_zero(params):
    # the reference form is antisymmetric term by term, so exactly
    rng = np.random.default_rng(2)
    k = params.wavenumbers
    for _ in range(200):
        u, v = rng.standard_normal((2, 8))
        assert shell_trilinear(u, v, v, k) == 0.0


def test_apply_consistency(model, params):
    rng = np.random.default_rng(3)
    k = params.wavenumbers
    for _ in range(100):
        u, v, w = rng.standard_normal((3, 8))
        direct = shell_trilinear(u, v, w, k)
        via_apply = float(np.dot(model.b_apply(u, v), w))
        assert via_apply == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_certified_constants():
    a0, c_b = shell_certified_constants(DyadicShellParams(n_modes=6, k0=2.0, visc=1.0))
    assert a0 == 0.5
    assert c_b == 2.0
    a0, c_b = shell_certified_constants(DyadicShellParams(n_modes=6, k0=2.0, visc=4.0))
    assert a0 == 0.25
    assert c_b == 1.0


def test_interp_bound_holds(model, params):
    # q = H norm: |v|^2 <= a0 |v| ||v|| because ||v|| >= sqrt(visc) k_1 |v|
    a0, _ = shell_certified_constants(params)
    rng = np.random.default_rng(4)
    for _ in range(500):
        v = rng.standard_normal(8)
        q = h_norm(v)
        assert q * q <= a0 * h_norm(v) * v_norm(v, model.basis) * (1 + 1e-12)


def test_violation_search(params, monkeypatch):
    rep = shell_structure_search(params, 10_000, seed=5)
    assert rep.ok
    assert rep.max_bound_ratio <= 1.0
    # the extremal neighbor-shell probes sit exactly on the sharp constant
    # 1/sqrt(visc), half the certified value
    assert rep.max_bound_ratio == pytest.approx(0.5, abs=0.05)
    # a bound constant below the sharp value is caught
    bad_cb = shell_structure_search(params, 1000, seed=5, c_b=0.5)
    assert bad_cb.bound_violations > 0
    # corrupting the certified interpolation constant is caught at once (it
    # is sharp)
    monkeypatch.setattr(models, "shell_certified_constants",
                        lambda p: (0.25, shell_certified_constants(p)[1]))
    bad_a0 = shell_structure_search(params, 1000, seed=5)
    assert bad_a0.interp_violations > 0


def test_structure_report_gates():
    # a ratio exactly at its gate passes, the next float above it does not
    skew_gate, ratio_gate = 1e-12, 1.0 + 1e-12
    at = StructureReport.from_ratios(np.array([skew_gate, 0.0]),
                                     np.array([ratio_gate, 0.5]),
                                     np.array([ratio_gate, 0.5]))
    assert at.n_samples == 2 and at.ok
    assert (at.max_skew_residual, at.max_interp_ratio, at.max_bound_ratio) == (
        skew_gate, ratio_gate, ratio_gate)
    past = StructureReport.from_ratios(np.array([np.nextafter(skew_gate, 1.0), 0.0]),
                                       np.array([np.nextafter(ratio_gate, 2.0), 0.5]),
                                       np.array([np.nextafter(ratio_gate, 2.0), 0.5]))
    assert (past.skew_violations, past.interp_violations, past.bound_violations) == (
        1, 1, 1)
    assert not past.ok
    # a NaN ratio is a violation, and the worst case reads NaN
    nan = StructureReport.from_ratios(np.array([np.nan, 0.0]), np.array([np.nan, 0.5]),
                                      np.array([np.nan, 0.5]))
    assert (nan.skew_violations, nan.interp_violations, nan.bound_violations) == (1, 1, 1)
    assert np.isnan(nan.max_bound_ratio) and not nan.ok
    # a search that does not sample the interpolation bound reports 0 for it
    none = StructureReport.from_ratios(np.zeros(3), np.zeros(0), np.zeros(3))
    assert none.n_samples == 3
    assert none.max_interp_ratio == 0.0 and none.interp_violations == 0


def test_boundary_truncation(params):
    # indices outside 1..N contribute zero: last-shell interactions vanish
    k = params.wavenumbers
    u = _unit(7)
    v = _unit(7)
    w = _unit(7)
    assert shell_trilinear(u, v, w, k) == 0.0
    single = DyadicShellParams(n_modes=1)
    assert shell_trilinear(np.ones(1), np.ones(1), np.ones(1), single.wavenumbers) == 0.0


def test_zero_b_model():
    basis = SpectralBasis(np.array([1.0, 2.0]))
    m = zero_b_model(basis)
    assert m.trilinear(np.ones(2), np.ones(2), np.ones(2)) == 0.0
    assert np.all(m.b_apply(np.ones(2), np.ones(2)) == 0.0)


def test_param_validation():
    with pytest.raises(ValueError):
        DyadicShellParams(n_modes=0)
    with pytest.raises(ValueError):
        DyadicShellParams(n_modes=4, k0=1.0)
    with pytest.raises(ValueError):
        DyadicShellParams(n_modes=4, visc=0.0)
