"""Planted defects: one row per known fault, each the monkeypatch of one
levyflow function, and the check that must catch it.

Every check must pass on the code as it is and fail with its row's defect
planted.  The rows below are faults a zero bound or a NaN ratio once let
through, a wrong mark law that a state with G(u0, 1) = 0 hid, and a
symmetric part of the convection operator the solver runs, which the
certificates passed while they scored a separate trilinear form.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from levyflow import cli, models, noise, nse2d
from levyflow.config import load_config
from levyflow.models import DyadicShellParams, dyadic_model, shell_structure_search
from levyflow.noise import (WienerDriverSpec, build_coefficients, compound_gaussian,
                            condition_report, family)
from levyflow.nse2d import Nse2dParams, nse_structure_search
from levyflow.spaces import h_norm_rows

DEMO = Path(__file__).resolve().parents[1] / "demos" / "configs" / "dyadic_gradient.ini"
# u0 = e1 and a diagonal jump coefficient that is zero on the first mode, so
# G(u0, 1) = 0
BLIND_G = ["coefficient.g_family=diagonal", "coefficient.g_sigma=0" + ",0.3" * 11,
           "coefficient.g_theta=0"]


def _dyadic_structure() -> bool:
    return shell_structure_search(DyadicShellParams(12), 2000, seed=1).ok


def _additive_conditions() -> bool:
    # c03's additive pair of families
    basis = dyadic_model(DyadicShellParams(n_modes=12)).basis
    meas = compound_gaussian(rate=5.0, mean=0.0, sd=0.4)
    coeff = build_coefficients(family("additive", 12, sigma=0.3),
                               family("additive", 12, sigma=0.2),
                               meas, basis, 1.0, WienerDriverSpec(12))
    return condition_report(coeff, meas, basis, n_samples=2000, seed=303).ok


def _nse2d_structure() -> bool:
    return nse_structure_search(Nse2dParams(4, 1.0), 300, seed=2).ok


def _noise_stats(overrides=()) -> bool:
    cfg, setup = load_config(DEMO.read_text(), list(overrides))
    return cli._verify_noise_stats(cfg, setup)["pass"]


def _symmetric_part(u, v):
    """1e-9 |u| v: added to B(u, v), it pairs with v to 1e-9 |u| |v|^2."""
    return 1e-9 * h_norm_rows(u)[..., None] * v


def _marks_with_sd(sd):
    """A plant of ``sample_jump_marks`` that draws Gaussian marks of this sd."""
    def plant(orig):
        def sample(horizon, measure, base_seed, n_paths):
            wrong = replace(measure, sample_marks=lambda rng, n: rng.normal(0.0, sd, size=n))
            return orig(horizon, wrong, base_seed, n_paths)
        return sample
    return plant


# name: (owner, attribute, plant(original) -> replacement, check() -> passes)
PLANTS = {
    "shell_c_b_zero": (
        models, "shell_certified_constants", lambda orig: lambda p: (orig(p)[0], 0.0),
        _dyadic_structure),
    "l3_zero_for_additive_noise": (
        noise, "certify_constants",
        lambda orig: lambda *args: orig(*args)[:2] + (0.0,) + orig(*args)[3:],
        _additive_conditions),
    "nse2d_pairing_nan": (
        nse2d._Layout, "project", lambda orig: lambda self, field: orig(self, field) * np.nan,
        _nse2d_structure),
    "shell_apply_symmetric_part_1e-9": (
        models, "shell_apply",
        lambda orig: lambda u, v, k: orig(u, v, k) + _symmetric_part(u, v),
        _dyadic_structure),
    "nse_b_apply_symmetric_part_1e-9": (
        nse2d, "nse_b_apply",
        lambda orig: lambda layout, u, v: orig(layout, u, v) + _symmetric_part(u, v),
        _nse2d_structure),
    "mark_sd_0.6_where_g_u0_is_zero": (
        noise, "sample_jump_marks", _marks_with_sd(0.6),
        lambda: _noise_stats(BLIND_G)),
}


@pytest.mark.parametrize("owner, attr, plant, check", PLANTS.values(), ids=list(PLANTS))
def test_planted_defect_fails_its_check(monkeypatch, owner, attr, plant, check):
    assert check()
    monkeypatch.setattr(owner, attr, plant(getattr(owner, attr)))
    assert not check()


def test_noise_stats_read_the_mark_law_alone(monkeypatch):
    # the same statistics whatever G is: the demo's gradient family and a
    # family with G(u0, 1) = 0 see the same compensated mark totals
    cfg, setup = load_config(DEMO.read_text())
    blind_cfg, blind_setup = load_config(DEMO.read_text(), BLIND_G)
    stats = cli._verify_noise_stats(cfg, setup)
    assert stats == cli._verify_noise_stats(blind_cfg, blind_setup)
    assert stats["pass"] and stats["isometry_target"] == pytest.approx(0.8, rel=1e-12)
    # marks of sd 0.6 have T int z^2 dnu = 1.8, not 0.8
    monkeypatch.setattr(noise, "sample_jump_marks",
                        _marks_with_sd(0.6)(noise.sample_jump_marks))
    wrong = cli._verify_noise_stats(cfg, setup)
    assert not wrong["pass"] and wrong["isometry_sample"] > 2.0 * wrong["isometry_target"]
