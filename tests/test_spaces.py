import numpy as np
import pytest

from levyflow import (NonFiniteStateError, PathSegment, SpectralBasis, dual_norm,
                      h_norm, h_norm_rows, step_factors, v_norm, v_norm_sq_rows)
from levyflow.spaces import ratio


@pytest.fixture
def basis():
    return SpectralBasis(np.array([1.0, 4.0, 9.0, 16.0]))


def test_basis_validation():
    with pytest.raises(ValueError):
        SpectralBasis(np.array([]))
    with pytest.raises(ValueError):
        SpectralBasis(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        SpectralBasis(np.array([4.0, 1.0]))  # decreasing


def test_h_norm_values():
    assert h_norm(np.zeros(3)) == 0.0
    e1 = np.array([1.0, 0.0, 0.0])
    assert h_norm(e1) == 1.0
    assert h_norm(np.array([3.0, 4.0])) == 5.0


def test_h_norm_rows_is_h_norm_bit_for_bit():
    # every width from one mode to the 288 coefficients of nse2d at M = 8,
    # at magnitudes whose squares stay inside the float range
    rng = np.random.default_rng(3)
    for width in range(1, 289):
        for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
            rows = scale * rng.standard_normal((3, width))
            norms = h_norm_rows(rows)
            assert norms.tobytes() == np.array([h_norm(r) for r in rows]).tobytes()
            # more leading axes reduce each row the same way
            assert h_norm_rows(rows[:, None]).tobytes() == norms.tobytes()


def test_ratio_rule():
    num = np.array([0.0, 0.0, 2.0, 3.0, np.nan, 0.0, np.nan])
    den = np.array([0.0, 4.0, 0.0, 4.0, 0.0, np.nan, 1.0])
    out = ratio(num, den)
    assert out[:4].tolist() == [0.0, 0.0, np.inf, 0.75]
    assert np.isnan(out[4:]).all()
    # off the zeros it is the plain quotient, bit for bit
    rng = np.random.default_rng(5)
    a, b = rng.random(100), rng.random(100) + 0.5
    assert ratio(a, b).tobytes() == (a / b).tobytes()


def test_v_norm_values(basis):
    assert v_norm(np.zeros(4), basis) == 0.0
    e1 = np.zeros(4)
    e1[0] = 1.0
    assert v_norm(e1, SpectralBasis(np.array([4.0, 4.0, 4.0, 4.0]))) == 2.0
    # direct-summation oracle for a two-mode vector
    two = SpectralBasis(np.array([1.0, 9.0]))
    v = np.array([1.0, 1.0])
    oracle = np.sqrt(sum(lam * c * c for lam, c in zip([1.0, 9.0], v)))
    assert v_norm(v, two) == pytest.approx(oracle, rel=1e-15)
    with pytest.raises(ValueError):
        v_norm(np.zeros(3), basis)


def test_dual_norm_values(basis):
    assert dual_norm(np.zeros(4), basis) == 0.0
    e1 = np.zeros(4)
    e1[0] = 1.0
    assert dual_norm(e1, SpectralBasis(np.array([4.0, 4.0, 4.0, 4.0]))) == 0.5


def test_duality_pairing_bound(basis):
    # <f, v> <= dual_norm(f) * v_norm(v) on random pairs
    rng = np.random.default_rng(0)
    for _ in range(1000):
        f = rng.standard_normal(4)
        v = rng.standard_normal(4)
        assert np.dot(f, v) <= dual_norm(f, basis) * v_norm(v, basis) * (1 + 1e-12)


def test_norm_chain(basis):
    rng = np.random.default_rng(1)
    lam1 = basis.eigenvalues[0]
    for _ in range(200):
        v = rng.standard_normal(4)
        assert np.sqrt(lam1) * h_norm(v) <= v_norm(v, basis) * (1 + 1e-12)
        assert dual_norm(v, basis) <= h_norm(v) / np.sqrt(lam1) * (1 + 1e-12)


def test_resolvent_step(basis):
    assert step_factors(SpectralBasis(np.ones(4)), 1.0, "resolvent")[0] == 0.5
    factors = step_factors(basis, 0.3, "resolvent")
    rng = np.random.default_rng(2)
    for _ in range(100):
        v = rng.standard_normal(4)
        assert h_norm(factors * v) <= h_norm(v)


def test_semigroup_step(basis):
    v = np.array([1.0, -2.0, 0.5, 0.1])
    assert np.array_equal(step_factors(basis, 0.0, "exponential") * v, v)
    out = step_factors(SpectralBasis(np.ones(4)), 1.0, "exponential")
    assert out[0] == pytest.approx(np.exp(-1.0), rel=1e-15)
    # semigroup composition: two half steps equal one step
    full = step_factors(basis, 0.2, "exponential") * v
    half = step_factors(basis, 0.1, "exponential") ** 2 * v
    assert np.allclose(full, half, rtol=1e-14, atol=0)


def test_resolvent_semigroup_first_order(basis):
    # difference bounded by c dt^2 lam_max^2 |v| with c stable under halving
    rng = np.random.default_rng(3)
    v = rng.standard_normal(4)
    lam_max = basis.eigenvalues[-1]
    cs = []
    for dt in (0.02, 0.01, 0.005):
        step = step_factors(basis, dt, "resolvent") - step_factors(basis, dt, "exponential")
        diff = h_norm(step * v)
        cs.append(diff / (dt * dt * lam_max * lam_max * h_norm(v)))
    assert all(c <= 0.5 for c in cs)
    assert 0.5 <= cs[0] / cs[2] <= 2.0


def _random_path(basis, n_steps, seed, dt=0.01):
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((n_steps + 1, basis.dim))
    return PathSegment.from_states(basis, 0.0, dt, states)


def test_xi_recurrence_exact(basis):
    path = _random_path(basis, 50, seed=4)
    inc = path.dt * v_norm_sq_rows(path.states[:-1], basis)
    for k in range(path.n_steps):
        assert path.xi_sq[k + 1] == path.xi_sq[k] + inc[k]
    assert path.xi_sq[0] == 0.0
    assert np.all(np.diff(path.xi_sq) >= 0.0)


def test_xi_sq_values(basis):
    # any path at t=0
    path = _random_path(basis, 10, seed=5)
    assert path.xi_sq[0] == 0.0
    # constant path: |y|_xi(t) = ||y|| sqrt(t) at every grid time
    const = PathSegment.from_states(basis, 0.0, 0.05, np.ones((21, basis.dim)))
    vn = v_norm(np.ones(basis.dim), basis)
    assert const.grid[-1] == pytest.approx(1.0, rel=1e-15)
    assert np.sqrt(const.xi_sq) == pytest.approx(vn * np.sqrt(const.grid), rel=1e-12)


def test_xi_vs_refined_quadrature(basis):
    # single decaying mode: left sums converge to the integral at first order
    lam1 = basis.eigenvalues[0]
    horizon = 1.0

    def build(n):
        ts = np.linspace(0.0, horizon, n + 1)
        states = np.zeros((n + 1, basis.dim))
        states[:, 0] = np.exp(-lam1 * ts)
        return PathSegment.from_states(basis, 0.0, horizon / n, states)

    coarse = build(100)
    fine = build(100 * 64)  # refined-grid quadrature oracle
    max_vsq = lam1  # sup ||y||^2 = lam1 at t=0
    gap = np.sqrt(coarse.xi_sq[-1]) - np.sqrt(fine.xi_sq[-1])
    assert abs(gap) <= 2 * (horizon / 100) * max_vsq


def test_xi_additive_over_concatenation(basis):
    # a prefix of a path carries the same running sums, bit for bit
    full = _random_path(basis, 40, seed=6)
    first = PathSegment.from_states(basis, 0.0, full.dt, full.states[:21])
    assert np.array_equal(full.xi_sq[:21], first.xi_sq)


def test_nonfinite_state_rejected(basis):
    states = np.zeros((3, basis.dim))
    states[2, 1] = np.nan
    with pytest.raises(NonFiniteStateError):
        PathSegment.from_states(basis, 0.0, 0.1, states)
