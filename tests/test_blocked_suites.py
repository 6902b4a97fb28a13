"""The certification suites score their samples in fixed row blocks.

Each blocked search must give what one array expression over every sample
gives, on the same draws, while its traced working set stays bounded.  The
references below are those whole-array expressions: the shell search and
the noise-condition check draw their samples by the blocked rule (each
block's arrays in turn) and then score them all at once, and the a0 scan
takes every unit vector of the basis as one identity matrix.

Both structure searches draw their next block on a helper thread while the
caller scores the current one (the nse2d search only when BLAS leaves a core
free, which the tests below force); they must report exactly what the same
loop gives with every draw inline, and leave no thread behind, whatever
raises.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from levyflow import (DyadicShellParams, WienerDriverSpec, build_coefficients,
                      compound_gaussian, condition_report, dyadic_model, family,
                      jump_coefficient, models, noise, nse2d, psi_hs_norm_sq,
                      shell_structure_search, truncated_power)
from levyflow.models import StructureReport, shell_apply
from levyflow.nse2d import (_A0_MARGIN, Nse2dParams, _in_row_blocks, estimate_a0,
                            nse2d_model, nse_layout, nse_structure_search)
from levyflow import spaces
from levyflow.spaces import (SpectralBasis, blas_leaves_a_core, h_norm_rows, prefetched,
                             ratio, v_norm_sq_rows)
from test_nse2d import _reference_search

MB = 1e6


def traced_peak(fn):
    """``fn()`` and the peak of the memory it allocated, in MB, by tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()
    return result, peak


def _blocked_draws(rng, n, rows, arrays, dim):
    """``arrays`` (k, n, dim) sample arrays drawn ``rows`` rows of each at a time."""
    return np.concatenate([rng.standard_normal((arrays, min(rows, n - start), dim))
                           for start in range(0, n, rows)], axis=1)


def _whole_array_shell_ratios(params, n, seed, c_b=None):
    """The shell search's (skew, interp, bound) ratios, all triples in one expression."""
    k = params.wavenumbers
    basis = SpectralBasis(params.visc * k * k)
    lam, dim = basis.eigenvalues, len(k)
    a0, cert_cb = models.shell_certified_constants(params)
    c_b = cert_cb if c_b is None else c_b
    u, v, w = _blocked_draws(np.random.default_rng(seed), n, models._DRAW_ROWS, 3, dim)
    third = n // 3
    for x in (u, v, w):
        x[third:2 * third] *= (lam / lam[0]) ** -0.5
        x[2 * third:] *= (lam / lam[0]) ** 0.25
    eye = np.eye(dim)
    u, v, w = np.vstack([u, eye]), np.vstack([v, eye]), np.vstack([w, np.roll(eye, -1, 0)])
    hu, hv, hw = (h_norm_rows(x) for x in (u, v, w))
    vv = np.sqrt(v_norm_sq_rows(v, basis))
    b = shell_apply(u, v, k)
    return (ratio(np.abs(np.vecdot(b, v)), c_b * hu * vv * hv),
            ratio(hv, a0 * vv),
            ratio(np.abs(np.vecdot(b, w)), c_b * hu * vv * hw))


def _whole_array_condition(coeff, measure, basis, n, seed):
    """condition_report's (Lipschitz, growth) worst ratios, all pairs in one expression."""
    v1, v2 = _blocked_draws(np.random.default_rng(seed), n, noise._PAIR_ROWS, 2,
                            basis.dim)
    probes = np.zeros((4, basis.dim))
    probes[0, 0] = probes[1, -1] = 1.0
    probes[3, -1] = 2.0
    v1, v2 = np.vstack([v1, probes]), np.vstack([v2, np.roll(probes, 1, axis=0)])
    zs, ws = measure.quadrature()
    m2 = float(np.dot(ws, zs * zs))
    g1 = jump_coefficient(coeff, v1, 1.0)
    g_diff = g1 - jump_coefficient(coeff, v2, 1.0)
    d = v1 - v2
    psi_diff = coeff.d_w * d[:, :coeff.wiener_dims]
    lhs1 = np.vecdot(psi_diff, psi_diff) + m2 * np.vecdot(g_diff, g_diff)
    rhs1 = coeff.l1 * np.vecdot(d, d) + coeff.l2 * v_norm_sq_rows(d, basis)
    lhs2 = psi_hs_norm_sq(coeff, v1) + m2 * np.vecdot(g1, g1)
    rhs2 = coeff.l3 + coeff.l4 * np.vecdot(v1, v1) + coeff.l5 * v_norm_sq_rows(v1, basis)
    return ratio(lhs1, rhs1).max(), ratio(lhs2, rhs2).max()


def _assert_same_report(got, ratios, rel):
    want = StructureReport.from_ratios(*ratios)
    assert (got.n_samples, got.skew_violations, got.interp_violations,
            got.bound_violations) == (want.n_samples, want.skew_violations,
                                      want.interp_violations, want.bound_violations)
    for name in ("max_skew_residual", "max_interp_ratio", "max_bound_ratio"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=rel, abs=0.0)


# ---------------------------------------------------------------------------
# working sets


def test_shell_search_working_set():
    params = DyadicShellParams(12)
    rep, peak = traced_peak(lambda: shell_structure_search(params, 20_000, seed=3))
    assert peak < 4.0
    _assert_same_report(rep, _whole_array_shell_ratios(params, 20_000, 3), rel=1e-15)


def test_nse_search_working_set():
    params = Nse2dParams(8, 0.5)
    rep, peak = traced_peak(lambda: nse_structure_search(params, 3_000, seed=3))
    assert peak < 8.0
    ratios = _reference_search(params, 3_000, seed=3, batch=nse2d._DRAW_ROWS,
                               c_b=1.0 / np.sqrt(params.visc))
    assert rep.ok and rep.n_samples == 3_000
    assert rep.max_interp_ratio == pytest.approx(ratios[1].max(), rel=1e-12)
    assert rep.max_bound_ratio == pytest.approx(ratios[2].max(), rel=1e-12)
    assert rep.max_skew_residual <= 1e-12 and ratios[0].max() <= 1e-12


def _nse_noise():
    """The noise of the nse2d benchmark config on the M = 8 basis."""
    basis = nse2d_model(Nse2dParams(8, 0.5)).basis
    meas = truncated_power(c=0.5, alpha=1.2, eps_low=0.05, r_max=1.5)
    coeff = build_coefficients(family("diagonal", basis.dim, sigma=0.2),
                               family("additive", basis.dim, sigma=0.5), meas, basis,
                               0.5, WienerDriverSpec(20))
    return coeff, meas, basis


def test_condition_report_working_set():
    coeff, meas, basis = _nse_noise()
    rep, peak = traced_peak(lambda: condition_report(coeff, meas, basis, 500, seed=3))
    assert peak < 5.0
    lipschitz, growth = _whole_array_condition(coeff, meas, basis, 500, 3)
    assert rep.n_samples == 504
    assert rep.max_ratio_lipschitz == pytest.approx(lipschitz, rel=1e-15)
    assert rep.max_ratio_growth == pytest.approx(growth, rel=1e-15)


def test_estimate_a0_working_set():
    params = Nse2dParams(16, 0.5)
    a0, peak = traced_peak(lambda: estimate_a0(params))
    assert peak < 5.0
    # the scan of every unit vector at once, as one identity matrix
    layout = nse_layout(params)
    basis = SpectralBasis(layout.eigenvalues(params.visc))

    def ratios(layout, v):
        q = layout.l4_norm(v)
        return q * q / (h_norm_rows(v) * np.sqrt(v_norm_sq_rows(v, basis)))

    whole = _in_row_blocks(ratios, layout, np.eye(layout.n_coeffs)).max()
    assert a0 == pytest.approx(_A0_MARGIN * whole, rel=1e-14)


@pytest.mark.parametrize("visc", [0.01, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 12, 16])
def test_estimate_a0_scan_of_the_first_block_is_the_full_scan(m, visc):
    # the ratio falls as 1/|k| and the first block holds every |k| = 1 mode,
    # so the full scan, _ROW_BLOCK unit vectors at a time, has the same bits
    params = Nse2dParams(m, visc)
    layout = nse_layout(params)
    basis = SpectralBasis(layout.eigenvalues(params.visc))
    n = layout.n_coeffs

    def worst(start):
        v = np.eye(min(nse2d._ROW_BLOCK, n - start), n, k=start)
        q = layout.l4_norm(v)
        return (q * q / (h_norm_rows(v) * np.sqrt(v_norm_sq_rows(v, basis)))).max()

    full = _A0_MARGIN * float(max(worst(start) for start in range(0, n, nse2d._ROW_BLOCK)))
    assert estimate_a0(params) == full


# ---------------------------------------------------------------------------
# block boundaries


@pytest.mark.parametrize("planted", ["c_b", "a0"])
def test_shell_search_counts_violations_in_every_block(planted, monkeypatch):
    # two whole blocks, a partial one and the probes, each holding violations
    # of the planted constant; the tail's rows are tilted to the high modes,
    # where the interpolation ratio is below 1e-3 of its bound
    params = DyadicShellParams(12)
    n = 2 * models._DRAW_ROWS + 5
    c_b = 0.1 if planted == "c_b" else None
    if planted == "a0":
        monkeypatch.setattr(models, "shell_certified_constants",
                            lambda p: (1e-4, 2.0 / np.sqrt(p.visc)))
    rep = shell_structure_search(params, n, seed=9, c_b=c_b)
    ratios = _whole_array_shell_ratios(params, n, 9, c_b=c_b)
    _assert_same_report(rep, ratios, rel=1e-15)
    flagged = ratios[2 if planted == "c_b" else 1] > 1.0 + 1e-12
    edges = [0, models._DRAW_ROWS, 2 * models._DRAW_ROWS, n, len(flagged)]
    assert all(flagged[a:b].any() for a, b in zip(edges, edges[1:]))
    assert not rep.ok


@pytest.mark.parametrize("kind", ["additive", "diagonal", "gradient"])
def test_condition_report_blocks_match_whole_array(kind):
    model = dyadic_model(DyadicShellParams(n_modes=6))
    meas = compound_gaussian(rate=2.0, mean=0.1, sd=0.5)
    g = family(kind, 6, sigma=0.3, theta=0.8)
    coeff = build_coefficients(g, family("diagonal", 6, sigma=0.2), meas, model.basis,
                               1.0, WienerDriverSpec(4))
    n = 2 * noise._PAIR_ROWS + 3
    rep = condition_report(coeff, meas, model.basis, n_samples=n, seed=21)
    lipschitz, growth = _whole_array_condition(coeff, meas, model.basis, n, 21)
    assert rep.n_samples == n + 4
    assert rep.max_ratio_lipschitz == pytest.approx(lipschitz, rel=1e-15, abs=0.0)
    assert rep.max_ratio_growth == pytest.approx(growth, rel=1e-15, abs=0.0)


def test_condition_report_keeps_a_nan_ratio_of_any_block(monkeypatch):
    # a NaN growth ratio in the middle block, not the last, must fail the report
    model = dyadic_model(DyadicShellParams(n_modes=6))
    meas = compound_gaussian(rate=2.0, sd=0.5)
    coeff = build_coefficients(family("diagonal", 6, sigma=0.3), family("none", 6), meas,
                               model.basis, 1.0)
    blocks = []

    def nan_in_second_block(coeff, v):
        blocks.append(len(v))
        return psi_hs_norm_sq(coeff, v) * (np.nan if len(blocks) == 2 else 1.0)

    monkeypatch.setattr(noise, "psi_hs_norm_sq", nan_in_second_block)
    rep = condition_report(coeff, meas, model.basis, n_samples=2 * noise._PAIR_ROWS + 3)
    assert blocks == [noise._PAIR_ROWS, noise._PAIR_ROWS, 3, 4]
    assert np.isnan(rep.max_ratio_growth) and not rep.ok


# ---------------------------------------------------------------------------
# the next block drawn on a helper thread


SEARCHES = {
    "shell": (models, lambda n, seed, c_b: shell_structure_search(
        DyadicShellParams(12), n, seed=seed, c_b=c_b)),
    "nse2d": (nse2d, lambda n, seed, c_b: nse_structure_search(
        Nse2dParams(3, 0.5), n, seed=seed, c_b=c_b)),
}


@pytest.fixture
def helper_on(monkeypatch):
    """The nse2d search draws ahead whatever the BLAS thread variables say."""
    monkeypatch.setattr(nse2d, "blas_leaves_a_core", lambda: True)


@pytest.mark.parametrize("blocks", ["part", "one", "two", "two_and_tail"])
@pytest.mark.parametrize("search", sorted(SEARCHES))
def test_search_reports_what_the_serial_loop_reports(search, blocks, monkeypatch, helper_on):
    module, run = SEARCHES[search]
    rows = module._DRAW_ROWS
    n = {"part": 7, "one": rows, "two": 2 * rows, "two_and_tail": 2 * rows + 5}[blocks]
    # c_b below the sharp constant makes the bound ratios violate in part
    got = run(n, 11, 0.05)
    monkeypatch.setattr(module, "prefetched", map)  # every draw inline
    want = run(n, 11, 0.05)
    assert got == want
    assert 0 < got.bound_violations < got.n_samples


def test_prefetched_yields_each_draw_in_key_order():
    calls = []

    def draw(key):
        calls.append((key, threading.current_thread() is threading.main_thread()))
        return key * key

    before = threading.active_count()
    assert list(prefetched(draw, range(5))) == [0, 1, 4, 9, 16]
    # the first draw runs on the caller, the rest on the helper
    assert calls == [(0, True)] + [(key, False) for key in range(1, 5)]
    assert list(prefetched(draw, [3])) == [9]
    assert list(prefetched(draw, [])) == []
    assert threading.active_count() == before


class _Planted(Exception):
    pass


@pytest.mark.parametrize("search", sorted(SEARCHES))
def test_no_thread_outlives_a_search(search, helper_on):
    before = threading.active_count()
    SEARCHES[search][1](3 * SEARCHES[search][0]._DRAW_ROWS + 1, 2, None)
    assert threading.active_count() == before


@pytest.mark.parametrize("search", sorted(SEARCHES))
def test_a_scorer_error_on_block_two_leaves_no_thread(search, monkeypatch, helper_on):
    module, run = SEARCHES[search]
    # the dyadic search scores a draw block in one shell_apply call, the nse2d
    # search in one nse_b_apply call per _ROW_BLOCK rows
    name = "shell_apply" if module is models else "nse_b_apply"
    per_block = 1 if module is models else module._DRAW_ROWS // nse2d._ROW_BLOCK
    apply, calls = getattr(module, name), []

    def fails_on_block_two(*args):
        calls.append(1)
        if len(calls) > per_block:
            raise _Planted("scorer")
        return apply(*args)

    monkeypatch.setattr(module, name, fails_on_block_two)
    before = threading.active_count()
    with pytest.raises(_Planted, match="scorer"):
        run(4 * module._DRAW_ROWS, 2, None)
    assert len(calls) == per_block + 1
    assert threading.active_count() == before


@pytest.mark.parametrize("search", sorted(SEARCHES))
def test_a_draw_error_reaches_the_caller_and_leaves_no_thread(search, monkeypatch,
                                                              helper_on):
    module, run = SEARCHES[search]
    default_rng, on_main = np.random.default_rng, []

    class FailsOnBlockTwo:
        """A generator whose fourth draw, the u of block two, raises."""

        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, shape):
            on_main.append(threading.current_thread() is threading.main_thread())
            if len(on_main) == 4:
                raise _Planted("draw")
            return self.rng.standard_normal(shape)

    monkeypatch.setattr(np.random, "default_rng", FailsOnBlockTwo)
    before = threading.active_count()
    with pytest.raises(_Planted, match="draw"):
        run(4 * module._DRAW_ROWS, 2, None)
    assert threading.active_count() == before
    # block one is drawn on the caller, block two on the helper
    assert on_main == [True] * 3 + [False]


def test_nse_search_working_set_with_the_helper(helper_on):
    # the block being scored and the one being drawn stay under the bound
    rep, peak = traced_peak(lambda: nse_structure_search(Nse2dParams(8, 0.5), 3_000, seed=3))
    assert peak < 8.0
    assert rep == nse_structure_search(Nse2dParams(8, 0.5), 3_000, seed=3)


@pytest.mark.parametrize("env, free", [
    ({}, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, False),
    ({"MKL_NUM_THREADS": "3"}, True),
    ({"OMP_NUM_THREADS": "0"}, False),
    ({"OMP_NUM_THREADS": "4,2"}, False),
])
def test_blas_leaves_a_core_reads_the_first_set_thread_variable(env, free, monkeypatch):
    for var in spaces._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(spaces.os, "sched_getaffinity", lambda pid: set(range(4)),
                        raising=False)
    assert blas_leaves_a_core() is free


def test_the_nse2d_search_draws_inline_when_blas_has_every_core(monkeypatch):
    monkeypatch.setattr(nse2d, "blas_leaves_a_core", lambda: False)
    default_rng, on_main = np.random.default_rng, []

    class Recorded:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, shape):
            on_main.append(threading.current_thread() is threading.main_thread())
            return self.rng.standard_normal(shape)

    monkeypatch.setattr(np.random, "default_rng", Recorded)
    nse_structure_search(Nse2dParams(3, 0.5), 3 * nse2d._DRAW_ROWS, seed=1)
    assert on_main == [True] * 9
