import io

import numpy as np
import pytest

from levyflow import (GrowthConditionError, WienerDriverSpec, build_coefficients,
                      certify_constants, compensator_drift, compound_gaussian,
                      condition_report, dyadic_model, family, jump_coefficient,
                      no_jumps, path_seeds, psi_hs_norm_sq, read_noise_csv,
                      sample_ensemble, sample_realization, truncated_power,
                      wiener_apply, write_noise_csv)
from levyflow.models import DyadicShellParams
from levyflow.noise import NoiseRealization, _seeded, sample_jump_marks
from reference_solver import slice_steps


@pytest.fixture
def model():
    return dyadic_model(DyadicShellParams(n_modes=6, k0=2.0, visc=1.0))


# ---------------------------------------------------------------------------
# measures


def test_compound_gaussian_moments_vs_sampling():
    meas = compound_gaussian(rate=4.0, mean=0.5, sd=0.7)
    assert meas.total_mass == 4.0
    # Monte Carlo oracle for the moments
    rng = np.random.default_rng(0)
    z = meas.sample_marks(rng, 200_000)
    m1_mc = meas.total_mass * z.mean()
    m2_mc = meas.total_mass * (z * z).mean()
    assert abs(m1_mc - meas.m1) <= 3 * meas.total_mass * z.std() / np.sqrt(z.size)
    assert abs(m2_mc - meas.m2) <= 3 * meas.total_mass * (z * z).std() / np.sqrt(z.size)
    # quadrature nodes must reproduce the stored moments to near roundoff
    zs, ws = meas.quadrature()
    assert np.dot(ws, zs) == pytest.approx(meas.m1, rel=1e-12, abs=1e-12)
    assert np.dot(ws, zs * zs) == pytest.approx(meas.m2, rel=1e-12)


def test_truncated_power_moments_vs_dense_quadrature():
    meas = truncated_power(c=0.8, alpha=1.2, eps_low=0.05, r_max=2.0)
    # dense trapezoid oracle on one side, doubled by symmetry
    z = np.linspace(0.05, 2.0, 400_001)
    dens = 0.8 * z ** (-2.2)
    mass = 2.0 * np.trapezoid(dens, z)
    m2 = 2.0 * np.trapezoid(z * z * dens, z)
    assert meas.total_mass == pytest.approx(mass, rel=1e-6)
    assert meas.m1 == 0.0
    assert meas.m2 == pytest.approx(m2, rel=1e-6)
    # inverse-CDF sampling stays inside the truncation window
    rng = np.random.default_rng(1)
    marks = meas.sample_marks(rng, 10_000)
    assert np.all(np.abs(marks) >= 0.05) and np.all(np.abs(marks) <= 2.0)


def test_quadrature_rule_is_built_at_first_call_and_kept(monkeypatch):
    built = []
    for module, name in ((np.polynomial.hermite, "hermgauss"),
                         (np.polynomial.legendre, "leggauss")):
        rule = getattr(module, name)
        monkeypatch.setattr(module, name, lambda n, rule=rule: built.append(n) or rule(n))
    measures = [compound_gaussian(rate=2.0, mean=0.1, sd=0.5),
                truncated_power(c=0.5, alpha=1.2, eps_low=0.05, r_max=1.5), no_jumps()]
    assert built == []
    for meas in measures:
        zs, ws = meas.quadrature()
        again = meas.quadrature()
        assert again[0] is zs and again[1] is ws
        for x in (zs, ws):
            with pytest.raises(ValueError, match="read-only"):
                x[...] = 0.0
    assert built == [64, 96]


def test_measure_validation():
    with pytest.raises(ValueError):
        truncated_power(c=1.0, alpha=0.5, eps_low=1.0, r_max=0.5)
    assert no_jumps().total_mass == 0.0


@pytest.mark.parametrize("build", [
    lambda: compound_gaussian(rate=3.0, sd=1e200),
    lambda: compound_gaussian(rate=1e308, mean=1e10),
    lambda: truncated_power(c=1e308, alpha=1.2, eps_low=0.05, r_max=1.5),
    lambda: truncated_power(c=0.5, alpha=1e308, eps_low=0.05, r_max=1.5),
    lambda: truncated_power(c=0.5, alpha=1.2, eps_low=1e-300, r_max=1.5),
], ids=["gaussian_m2", "gaussian_m1", "power_c", "power_alpha", "power_eps_low"])
def test_measures_reject_non_finite_moments(build):
    # an infinite m2 would turn a zero coefficient's share of a constant into NaN
    with pytest.raises(ValueError, match="finite|overflows"):
        build()


# ---------------------------------------------------------------------------
# realizations


def test_no_jumps_means_no_jumps():
    real = sample_realization(0.0, 50, 0.02, no_jumps(), WienerDriverSpec(2), seed=3)
    assert real.jump_times.size == 0


def test_poisson_jump_count_mean():
    meas = compound_gaussian(rate=5.0, mean=0.0, sd=1.0)
    horizon, n_paths = 2.0, 10_000
    counts = np.empty(n_paths)
    for i, s in enumerate(path_seeds(42, n_paths)):
        r = sample_realization(0.0, 4, horizon / 4, meas, WienerDriverSpec(0), int(s))
        counts[i] = r.jump_times.size
    lam = meas.total_mass * horizon
    assert abs(counts.mean() - lam) <= 3.0 * np.sqrt(lam / n_paths)
    # dispersion index of a Poisson count is 1
    assert abs(counts.var(ddof=1) / counts.mean() - 1.0) <= 3.0 * np.sqrt(2.0 / (n_paths - 1))


def test_seed_determinism():
    meas = compound_gaussian(rate=3.0, mean=0.0, sd=0.5)
    a = sample_realization(0.0, 20, 0.05, meas, WienerDriverSpec(3), seed=11)
    b = sample_realization(0.0, 20, 0.05, meas, WienerDriverSpec(3), seed=11)
    assert np.array_equal(a.wiener, b.wiener)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.jump_marks, b.jump_marks)


@pytest.mark.parametrize("meas", [
    compound_gaussian(rate=6.0, mean=0.4, sd=0.7),
    truncated_power(c=0.8, alpha=1.2, eps_low=0.05, r_max=2.0),
], ids=["compound_gaussian", "truncated_power"])
def test_mark_stream_is_pinned(meas):
    # replay the draws of sample_realization in their order: Wiener normals,
    # jump count, jump times, then the marks of each family, put in time order
    seed, n_steps, dt, dims = 13, 40, 0.05, 3
    real = sample_realization(0.0, n_steps, dt, meas, WienerDriverSpec(dims), seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rng.standard_normal((n_steps, dims))
    n = int(rng.poisson(meas.total_mass * n_steps * dt))
    times = n_steps * dt * (1.0 - rng.random(n))
    order = np.argsort(times, kind="stable")
    if meas.family == "compound_gaussian":
        marks = rng.normal(0.4, 0.7, size=n)
    else:
        u = rng.random(n)
        lo, hi = 0.05 ** -1.2, 2.0 ** -1.2
        marks = (lo - u * (lo - hi)) ** (-1.0 / 1.2)
        marks = np.where(rng.random(n) < 0.5, -1.0, 1.0) * marks
    assert n >= 5
    assert real.jump_times.tobytes() == times[order].tobytes()
    assert real.jump_marks.tobytes() == marks[order].tobytes()


@pytest.mark.parametrize("meas", [
    compound_gaussian(rate=6.0, mean=0.4, sd=0.7),
    truncated_power(c=0.8, alpha=1.2, eps_low=0.05, r_max=2.0),
], ids=["compound_gaussian", "truncated_power"])
def test_sample_jump_marks_are_the_solvers_marks(meas):
    # the jump statistics of verify read these marks, so they must be the
    # marks sample_realization draws on each path seed, in time order
    n_steps, dt, n_paths = 5, 0.01, 64   # short enough for some seeds to draw no jump
    marks = sample_jump_marks(n_steps * dt, meas, 19, n_paths)
    reals = [sample_realization(0.0, n_steps, dt, meas, WienerDriverSpec(0), int(s))
             for s in path_seeds(19, n_paths)]
    assert len(marks) == n_paths
    assert min(m.size for m in marks) == 0 and max(m.size for m in marks) >= 2
    for m, real in zip(marks, reals):
        assert m.tobytes() == real.jump_marks.tobytes()


def test_jump_times_and_steps_consistent():
    meas = compound_gaussian(rate=20.0, mean=0.0, sd=1.0)
    real = sample_realization(0.0, 25, 0.04, meas, WienerDriverSpec(0), seed=5)
    assert np.all(real.jump_times > 0.0)
    assert np.all(real.jump_times <= 1.0 + 1e-12)
    for t, k in zip(real.jump_times, real.jump_steps):
        assert k * real.dt < t <= (k + 1) * real.dt + 1e-12
    # per-step mark sums, also after slicing and coarsening, against the
    # marks grouped by their owning step in order
    for part in (real, slice_steps(real, 5, 12), real.coarsen(5)):
        grouped, grouped_sq = np.zeros(part.n_steps), np.zeros(part.n_steps)
        for z, k in zip(part.jump_marks, part.jump_steps):
            grouped[k] += z
            grouped_sq[k] += z * z
        assert np.array_equal(part.mark_sums, grouped)
        assert np.array_equal(part.per_step(part.jump_marks ** 2), grouped_sq)
    assert np.bincount(real.coarsen(5).jump_steps).max() >= 3


def test_sample_ensemble_is_one_realization_per_path_seed():
    meas = compound_gaussian(rate=20.0, mean=0.1, sd=0.5)
    wiener = WienerDriverSpec(3)
    seeds = [int(s) for s in path_seeds(17, 4)]
    ens = sample_ensemble(30, 0.01, meas, wiener, 17, 4)
    ref = [sample_realization(0.0, 30, 0.01, meas, wiener, s) for s in seeds]
    assert [r.seed for r in ens] == [r.seed for r in ref] == seeds
    for a, b in zip(ens, ref):
        assert (a.t0, a.dt) == (b.t0, b.dt)
        for name in ("wiener", "jump_times", "jump_marks", "jump_steps", "mark_sums"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_array_seeding_gives_numpys_pcg64_states():
    # the path seeds of several bases, among them the verify noise seeds of
    # the demo configs (20260810 and 8), run across seed blocks; then the
    # edges of one- and two-word entropy.  Each rng first draws a 32-bit
    # word, which leaves half of a 64-bit output buffered, so each state is
    # set whole
    edges = np.array([0, 1, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64)
    seeds = np.concatenate([path_seeds(b, 300) for b in (0, 17, 20260810, 8)] + [edges])
    n = 0
    for (s, rng), want in zip(_seeded(seeds), seeds.tolist()):
        assert s == want
        assert rng.bit_generator.state == np.random.PCG64(np.random.SeedSequence(s)).state
        rng.integers(0, 2**32, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        n += 1
    assert n == len(seeds)


def test_wiener_increment_variance():
    real = sample_realization(0.0, 4000, 0.25, no_jumps(), WienerDriverSpec(2), seed=9)
    var = real.wiener.var()
    se = np.sqrt(2.0 / real.wiener.size) * 0.25
    assert abs(var - 0.25) <= 3 * se


def test_coarsen_and_slice():
    meas = compound_gaussian(rate=10.0, mean=0.0, sd=1.0)
    fine = sample_realization(0.0, 40, 0.025, meas, WienerDriverSpec(2), seed=13)
    coarse = fine.coarsen(4)
    assert coarse.n_steps == 10
    assert np.allclose(coarse.wiener[0], fine.wiener[:4].sum(axis=0), rtol=0, atol=0)
    assert np.array_equal(coarse.jump_steps, fine.jump_steps // 4)
    win = slice_steps(fine, 10, 5)
    assert win.t0 == pytest.approx(0.25)
    keep = (fine.jump_steps >= 10) & (fine.jump_steps < 15)
    assert np.array_equal(win.jump_marks, fine.jump_marks[keep])
    assert np.array_equal(win.jump_steps, fine.jump_steps[keep] - 10)


def test_noise_csv_roundtrip():
    meas = compound_gaussian(rate=6.0, mean=0.1, sd=0.8)
    real = sample_realization(0.0, 12, 0.05, meas, WienerDriverSpec(3), seed=21)
    buf = io.StringIO()
    write_noise_csv(real, buf)
    buf.seek(0)
    back = read_noise_csv(buf)
    assert np.array_equal(back.wiener, real.wiener)
    assert np.array_equal(back.jump_times, real.jump_times)
    assert np.array_equal(back.jump_marks, real.jump_marks)
    assert np.array_equal(back.jump_steps, real.jump_steps)
    assert back.seed == real.seed


def _csv_lines():
    # 20 steps, 3 Wiener dims, jumps at steps 4, 7, 8, 12, 14: line i + 1 of
    # the file is lines[i]; W rows are lines 3-22, J rows lines 23-27
    meas = compound_gaussian(rate=6.0, mean=0.1, sd=0.8)
    real = sample_realization(0.0, 20, 0.05, meas, WienerDriverSpec(3), seed=21)
    buf = io.StringIO()
    write_noise_csv(real, buf)
    return buf.getvalue().splitlines()


def _with_step(line, step):
    return line.rsplit(",", 1)[0] + f",{step}"


def _with_field(line, index, value):
    parts = line.split(",")
    parts[index] = value
    return ",".join(parts)


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda ls: ls[:12], "line 12: file ends with no W row for step 10",
                 id="missing_w_rows"),
    pytest.param(lambda ls: ls[:3] + ls[2:3] + ls[4:],
                 "line 4: W row for step 0 is repeated", id="repeated_w_row"),
    pytest.param(lambda ls: ls[:2] + ["W,0,0.1,0.2"] + ls[3:],
                 "line 3: W row has 2 values, not 3", id="narrow_w_row"),
    pytest.param(lambda ls: ls[:22] + [_with_step(ls[22], 99)] + ls[23:],
                 "line 23: jump at .* its step 99 of 0..19", id="step_outside_grid"),
    pytest.param(lambda ls: ls[:22] + [_with_step(ls[22], 5)] + ls[23:],
                 "line 23: jump at .* its step 5 of", id="step_not_owning_time"),
    pytest.param(lambda ls: ls[:22] + [ls[23], ls[22]] + ls[24:],
                 "line 24: jump at .* out of time order", id="jumps_out_of_order"),
    pytest.param(lambda ls: ls[:1] + [ls[1].rsplit(",", 2)[0]] + ls[2:],
                 "line 2: bad meta line", id="short_meta_line"),
    pytest.param(lambda ls: ls[:1] + [_with_field(ls[1], 2, "-0.05")] + ls[2:],
                 r"line 2: bad meta line: need dt > 0", id="negative_dt"),
    pytest.param(lambda ls: ls[:1] + [_with_field(ls[1], 2, "0")] + ls[2:],
                 r"line 2: bad meta line: need dt > 0", id="zero_dt"),
    pytest.param(lambda ls: ls[:4] + [_with_field(ls[4], 1, "2.0")] + ls[5:],
                 "line 5: '2.0' is not an integer", id="non_integer_w_step"),
    pytest.param(lambda ls: ls[:22] + [_with_step(ls[22], "4.5")] + ls[23:],
                 "line 23: '4.5' is not an integer", id="non_integer_jump_step"),
    pytest.param(lambda ls: ls[:5] + [_with_field(ls[5], 3, "nan")] + ls[6:],
                 "line 6: non-finite value 'nan'", id="nan_increment"),
    pytest.param(lambda ls: ls[:23] + [_with_field(ls[23], 2, "inf")] + ls[24:],
                 "line 24: non-finite value 'inf'", id="infinite_mark"),
    pytest.param(lambda ls: ls[:23] + [_with_field(ls[23], 1, "nan")] + ls[24:],
                 "line 24: non-finite value 'nan'", id="nan_jump_time"),
    pytest.param(lambda ls: ls[:10] + ["X,1,2"] + ls[10:],
                 "line 11: unknown row tag 'X'", id="unknown_row_tag"),
])
def test_read_noise_csv_rejects_malformed(edit, message):
    lines = _csv_lines()
    assert read_noise_csv(io.StringIO("\n".join(lines) + "\n")).n_steps == 20
    with pytest.raises(ValueError, match=message):
        read_noise_csv(io.StringIO("\n".join(edit(lines)) + "\n"))


def _realization(steps, marks=None, times=None):
    steps = np.asarray(steps, dtype=int)
    marks = np.ones(steps.size) if marks is None else np.asarray(marks, dtype=float)
    times = 0.1 * (steps + 0.5) if times is None else np.asarray(times, dtype=float)
    return NoiseRealization(t0=0.0, dt=0.1, wiener=np.zeros((3, 0)),
                            jump_times=times, jump_marks=marks, jump_steps=steps,
                            seed=0)


def test_realization_rejects_jumps_off_the_grid():
    assert _realization([0, 2]).mark_sums.tolist() == [1.0, 0.0, 1.0]
    # a jump at step 7 on a 3-step grid used to be dropped without a word
    with pytest.raises(ValueError, match=r"jump steps must lie in \[0, 3\)"):
        _realization([0, 7])
    with pytest.raises(ValueError, match=r"jump steps must lie in \[0, 3\)"):
        _realization([-1, 1])
    with pytest.raises(ValueError, match="differ in length"):
        _realization([0, 1], marks=[1.0])
    with pytest.raises(ValueError, match="differ in length"):
        _realization([0, 1], times=[0.05, 0.15, 0.25])


# ---------------------------------------------------------------------------
# coefficient families


def test_additive_independent_of_state(model):
    meas = compound_gaussian(rate=1.0, mean=0.0, sd=1.0)
    coeff = build_coefficients(family("additive", 6, sigma=0.5), family("none", 6),
                               meas, model.basis, 1.0)
    rng = np.random.default_rng(2)
    g1 = jump_coefficient(coeff, rng.standard_normal(6), 2.0)
    g2 = jump_coefficient(coeff, rng.standard_normal(6), 2.0)
    assert np.array_equal(g1, g2)
    assert np.array_equal(g1, 2.0 * 0.5 * np.ones(6))


def test_gradient_action_on_first_mode(model):
    meas = compound_gaussian(rate=1.0, mean=0.0, sd=1.0)
    theta = 0.7
    coeff = build_coefficients(family("gradient", 6, theta=theta), family("none", 6),
                               meas, model.basis, 1.0)
    e1 = np.zeros(6)
    e1[0] = 1.0
    # derivative-order weight: sqrt(lambda_1 / visc) = k_1 = 2
    k1 = np.sqrt(model.basis.eigenvalues[0] / 1.0)
    out = jump_coefficient(coeff, e1, 1.0)
    assert out[0] == pytest.approx(theta * k1, rel=1e-15)
    assert np.all(out[1:] == 0.0)
    assert np.all(jump_coefficient(coeff, e1, 0.0) == 0.0)


def test_wiener_apply_families(model):
    meas = no_jumps()
    coeff = build_coefficients(family("none", 6), family("diagonal", 6, sigma=0.4),
                               meas, model.basis, 1.0, WienerDriverSpec(6))
    v = np.arange(1.0, 7.0)
    assert np.all(wiener_apply(coeff, v, np.zeros(6)) == 0.0)
    dw = np.full(6, 0.1)
    out = wiener_apply(coeff, v, dw)
    assert np.allclose(out, 0.4 * v * 0.1, rtol=1e-15)
    add = build_coefficients(family("none", 6), family("additive", 6, sigma=0.3),
                             meas, model.basis, 1.0, WienerDriverSpec(6))
    o1 = wiener_apply(add, v, dw)
    o2 = wiener_apply(add, 5 * v, dw)
    assert np.array_equal(o1, o2)


def test_ito_isometry_monte_carlo(model):
    # E |Psi(v) dW|^2 = dt * sum sigma_j^2 v_j^2 over 10^4 draws
    coeff = build_coefficients(family("none", 6), family("diagonal", 6, sigma=0.4),
                               no_jumps(), model.basis, 1.0, WienerDriverSpec(6))
    v = np.array([1.0, -0.5, 0.3, 0.0, 2.0, 1.5])
    dt = 0.02
    rng = np.random.default_rng(7)
    draws = rng.standard_normal((10_000, 6)) * np.sqrt(dt)
    vals = ((0.4 * v) * draws) ** 2
    samples = vals.sum(axis=1)
    target = dt * float(((0.4 * v) ** 2).sum())
    se = samples.std(ddof=1) / np.sqrt(samples.size)
    assert abs(samples.mean() - target) <= 3 * se
    assert psi_hs_norm_sq(coeff, v) == pytest.approx(((0.4 * v) ** 2).sum(), rel=1e-14)


def test_compensator_drift(model):
    sym = compound_gaussian(rate=3.0, mean=0.0, sd=1.0)
    coeff = build_coefficients(family("diagonal", 6, sigma=0.5), family("none", 6),
                               sym, model.basis, 1.0)
    v = np.ones(6)
    assert np.all(compensator_drift(coeff, v, sym) == 0.0)

    skewed = compound_gaussian(rate=1.0, mean=0.3, sd=0.2)
    theta = 0.9
    grad = build_coefficients(family("gradient", 6, theta=theta), family("none", 6),
                              skewed, model.basis, 1.0)
    e1 = np.zeros(6)
    e1[0] = 1.0
    out = compensator_drift(grad, e1, skewed)
    k1 = np.sqrt(model.basis.eigenvalues[0])
    assert out[0] == pytest.approx(0.3 * theta * k1, rel=1e-12)
    # quadrature oracle over the measure
    zs, ws = skewed.quadrature()
    oracle = sum(w * jump_coefficient(grad, e1, float(z))[0] for z, w in zip(zs, ws))
    assert out[0] == pytest.approx(oracle, rel=1e-12)
    # multiplicative family at v = 0 compensates to zero
    diag = build_coefficients(family("diagonal", 6, sigma=0.5), family("none", 6),
                              skewed, model.basis, 1.0)
    assert np.all(compensator_drift(diag, np.zeros(6), skewed) == 0.0)


# ---------------------------------------------------------------------------
# certified constants


def test_certify_gradient_boundary(model):
    meas = compound_gaussian(rate=1.0, mean=0.0, sd=1.0)  # m2 = 1
    consts = certify_constants(family("gradient", 6, theta=1.0), family("none", 6),
                               meas, model.basis, 1.0, 0)
    assert consts == (0.0, 1.0, 0.0, 0.0, 1.0)
    with pytest.raises(GrowthConditionError):
        certify_constants(family("gradient", 6, theta=1.5), family("none", 6),
                          meas, model.basis, 1.0, 0)


KINDS = ("none", "additive", "diagonal", "gradient")


def _reference_constants(g_spec, psi_spec, m2, dims, visc):
    """L1..L5 summed per family by dispatching on the kind and its raw sigma/theta."""
    l = [0.0] * 5
    for (kind, sigma, theta), weight, modes in ((g_spec, m2, None), (psi_spec, 1.0, dims)):
        if kind == "additive":
            l[2] += weight * float(np.dot(sigma[:modes], sigma[:modes]))
        elif kind == "diagonal" and sigma[:modes].size:
            peak = weight * float(np.max(sigma[:modes] ** 2))
            l[0] += peak
            l[3] += peak
        elif kind == "gradient":
            l[1] += theta * theta * weight / visc
            l[4] += theta * theta * weight / visc
    return tuple(l)


@pytest.mark.parametrize("dims", (0, 4, 6))
def test_certify_constants_match_per_kind_reference(model, dims):
    meas = compound_gaussian(rate=2.0, mean=0.1, sd=0.5)
    rng = np.random.default_rng(dims)
    for g_kind in KINDS:
        for psi_kind in KINDS:
            specs = [(kind, rng.uniform(0.0, 0.4, 6), 0.6) for kind in (g_kind, psi_kind)]
            g, psi = (family(kind, 6, sigma=sigma, theta=theta)
                      for kind, sigma, theta in specs)
            got = certify_constants(g, psi, meas, model.basis, 0.9, dims)
            ref = _reference_constants(*specs, meas.m2, dims, 0.9)
            assert got == ref, (g_kind, psi_kind)


def test_certify_additive_and_diagonal(model):
    meas = compound_gaussian(rate=2.0, mean=0.1, sd=0.5)
    sig_g = np.array([0.1, 0.2, 0.3, 0.0, 0.0, 0.0])
    sig_p = np.array([0.2, 0.1, 0.0, 0.0, 0.0, 0.0])
    l = certify_constants(family("additive", 6, sigma=sig_g),
                          family("additive", 6, sigma=sig_p),
                          meas, model.basis, 1.0, 6)
    assert l[0] == l[1] == l[3] == l[4] == 0.0
    assert l[2] == pytest.approx(meas.m2 * (sig_g ** 2).sum() + (sig_p ** 2).sum(), rel=1e-14)

    ld = certify_constants(family("diagonal", 6, sigma=0.4),
                           family("diagonal", 6, sigma=0.4),
                           meas, model.basis, 1.0, 6)
    assert ld[0] == pytest.approx((meas.m2 + 1.0) * 0.16, rel=1e-14)
    assert ld[1] == 0.0

    z = certify_constants(family("additive", 6, sigma=0.0), family("none", 6),
                          meas, model.basis, 1.0, 0)
    assert z == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_condition_report_families(model):
    meas = compound_gaussian(rate=2.0, mean=0.0, sd=0.5)
    cases = {
        "additive": (family("additive", 6, sigma=0.3), family("additive", 6, sigma=0.2)),
        "diagonal": (family("diagonal", 6, sigma=0.3), family("diagonal", 6, sigma=0.3)),
        "gradient": (family("gradient", 6, theta=0.8), family("none", 6)),
    }
    for name, (g, psi) in cases.items():
        coeff = build_coefficients(g, psi, meas, model.basis, 1.0, WienerDriverSpec(6))
        rep = condition_report(coeff, meas, model.basis, n_samples=400, seed=17)
        assert rep.ok, name
        if name == "additive":
            assert rep.max_ratio_lipschitz == 0.0
        if name == "gradient":
            # the certified constant is saturated along every direction
            assert rep.max_ratio_lipschitz >= 0.99


def test_compensated_sum_statistics(model):
    # frozen state: compensated jump sums are mean zero with matching second moment
    meas = compound_gaussian(rate=5.0, mean=0.2, sd=0.5)
    coeff = build_coefficients(family("diagonal", 6, sigma=0.4), family("none", 6),
                               meas, model.basis, 1.0)
    v = np.array([1.0, 0.5, -0.25, 0.1, 0.0, 0.7])
    horizon = 1.0
    n_paths = 2000
    sums = np.zeros((n_paths, 6))
    drift = horizon * compensator_drift(coeff, v, meas)
    for i, s in enumerate(path_seeds(77, n_paths)):
        real = sample_realization(0.0, 10, 0.1, meas, WienerDriverSpec(0), int(s))
        acc = -drift
        for z in real.jump_marks:
            acc = acc + jump_coefficient(coeff, v, float(z))
        sums[i] = acc
    se = sums.std(axis=0, ddof=1) / np.sqrt(n_paths)
    assert np.all(np.abs(sums.mean(axis=0)) <= 3.0 * se + 1e-12)
    # isometry: E |sum|^2 = T * integral |G(v, z)|^2 dnu
    sq = np.einsum("ij,ij->i", sums, sums)
    target = horizon * meas.m2 * float(((0.4 * v) ** 2).sum())
    iso_se = sq.std(ddof=1) / np.sqrt(n_paths)
    assert abs(sq.mean() - target) <= 3.0 * iso_se
