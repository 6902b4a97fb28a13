import numpy as np
import pytest

from levyflow import Cutoff, h_norm, smoothstep

# max |d/ds smoothstep| = slope at the midpoint
SMOOTHSTEP_MAX_SLOPE = 15.0 / 8.0


def test_smoothstep_endpoints():
    assert smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0
    assert smoothstep(-3.0) == 0.0
    assert smoothstep(7.0) == 1.0
    assert smoothstep(0.5) == 0.5  # odd symmetry about the midpoint


def test_smoothstep_monotone_and_c1():
    s = np.linspace(-0.5, 1.5, 4001)
    vals = smoothstep(s)
    assert np.all(np.diff(vals) >= 0.0)
    # finite-difference derivative oracle: max slope 15/8 at the midpoint
    ds = np.gradient(vals, s)
    assert abs(ds.max() - SMOOTHSTEP_MAX_SLOPE) <= 1e-5
    assert abs(smoothstep(0.5 + 1e-6) - smoothstep(0.5 - 1e-6)) / 2e-6 == pytest.approx(
        15.0 / 8.0, abs=1e-9)


def test_level_factor_plateaus():
    c = Cutoff(level=3.0, budget=None)
    assert c.level_factor(0.0) == 1.0
    assert c.level_factor(3.0) == 1.0
    assert c.level_factor(4.0) == 0.0
    assert c.level_factor(9.0) == 0.0
    assert 0.0 < c.level_factor(3.5) < 1.0
    # slope bound 15/8 independent of the level
    for level in (1.0, 5.0, 50.0):
        cc = Cutoff(level=level, budget=None)
        xs = np.linspace(level - 0.2, level + 1.2, 2001)
        ys = np.array([cc.level_factor(x) for x in xs])
        slope = np.abs(np.diff(ys) / np.diff(xs)).max()
        assert slope <= SMOOTHSTEP_MAX_SLOPE * (1 + 1e-6)


def test_budget_factor_plateaus():
    for delta in (0.25, 1.0, 6.0):
        c = Cutoff(level=None, budget=delta)
        assert c.budget_factor(0.0) == 1.0
        assert c.budget_factor(delta) == 1.0
        assert c.budget_factor(2.0 * delta) == 0.0
        xs = np.linspace(0.5 * delta, 2.5 * delta, 2001)
        ys = np.array([c.budget_factor(x) for x in xs])
        slope = np.abs(np.diff(ys) / np.diff(xs)).max()
        assert slope <= SMOOTHSTEP_MAX_SLOPE / delta * (1 + 1e-6)


def test_combined_factor():
    c = Cutoff(level=2.0, budget=0.5)
    assert c.factor(1.0, 0.1) == 1.0
    assert c.factor(3.5, 0.1) == 0.0   # level kills it exactly
    assert c.factor(1.0, 1.0) == 0.0   # budget kills it exactly
    assert Cutoff().factor(1e9, 1e9) == 1.0


def test_along_reads_the_h_norm_of_each_state():
    # the factor along a batch of paths equals the factor of each state
    # taken alone, bit for bit, with its H norm straddling the level
    c = Cutoff(level=2.0, budget=0.5)
    rng = np.random.default_rng(8)
    states = rng.uniform(0.3, 0.9, (3, 40, 12))
    xi_sq = rng.uniform(0.0, 1.5, (3, 40))
    one_by_one = [[c.factor(h_norm(y), np.sqrt(x)) for y, x in zip(ys, xs)]
                  for ys, xs in zip(states, xi_sq)]
    along = c.along(states, xi_sq)
    assert along.tobytes() == np.array(one_by_one).tobytes()
    assert along.min() == 0.0 and along.max() == 1.0
    assert ((0.0 < along) & (along < 1.0)).any()


def test_validation():
    with pytest.raises(ValueError):
        Cutoff(level=-1.0)
    with pytest.raises(ValueError):
        Cutoff(budget=0.0)
    with pytest.raises(ValueError):
        Cutoff(level=float("nan"))


@pytest.mark.parametrize("bad", (0.0, -2.0, np.nan))
def test_validation_of_a_level_per_row(bad):
    with pytest.raises(ValueError):
        Cutoff(level=np.array([[1.5], [bad], [3.0]]))


def test_a_level_per_row_reads_each_row_as_a_scalar_level():
    # a (rows, 1) column of levels broadcasts against the norms: each row's
    # factors equal those of a scalar cutoff at its own level, bit for bit
    rng = np.random.default_rng(9)
    levels = np.array([1.6, 3.2, 2.0, 6.4])
    states = rng.uniform(0.2, 1.2, (4, 30, 12))
    xi_sq = rng.uniform(0.0, 1.5, (4, 30))
    norms = np.sqrt((states * states).sum(axis=-1))
    c = Cutoff(levels[:, None], budget=0.5)
    factor, along = c.factor(norms, np.sqrt(xi_sq)), c.along(states, xi_sq)
    assert ((0.0 < along) & (along < 1.0)).any()
    for r, level in enumerate(levels):
        alone = Cutoff(level, budget=0.5)
        assert factor[r].tobytes() == alone.factor(norms[r], np.sqrt(xi_sq[r])).tobytes()
        assert along[r].tobytes() == alone.along(states[r], xi_sq[r]).tobytes()
