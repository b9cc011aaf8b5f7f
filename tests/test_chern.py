"""Chern character densities, representation by a fiber factor, conformal algebra."""

import numpy as np
import pytest
from dataclasses import replace

from cymlab.chern import (ConformalChernData, VortexChernForms, ch2_form,
                          ch2_form_curvature_route, conformal_chern,
                          invariance_defect, kl_slack, represent_ch2,
                          represent_ch2_diagnostics, segre2_rearranged)
from cymlab.cym import CymConfig, CymState, FOUR_PI2, eliminate_phiK
from cymlab.errors import ValidationError
from cymlab.grids import (Form11Field, ScalarField, integrate, wedge_square)
from cymlab.monge_ampere import synthetic_conformal_data
from cymlab.solvers import newton_correct, solve_psi2, solve_vortex

VOL = 4.0 * np.pi ** 2


@pytest.fixture(scope="module")
def corrected64(sec64, psi64):
    cfg0 = CymConfig(tau=2.0, alpha=0.0, d=1, vol=VOL, n=64)
    psi2 = solve_psi2(psi64, cfg0, sec64)
    st = CymState(psi64, psi2, eliminate_phiK(psi64, psi2, cfg0, sec64))
    cfg = cfg0.with_alpha(1.0)
    return newton_correct(st, cfg, sec64), cfg


def test_ch2_two_routes(sec64, corrected64):
    st, cfg = corrected64
    a = ch2_form(st, cfg, sec64).ch2_density.values
    b = ch2_form_curvature_route(st, cfg, sec64).values
    assert np.max(np.abs(a - b)) <= 1e-10


def test_chern_masses(sec64, corrected64):
    st, cfg = corrected64
    forms = ch2_form(st, cfg, sec64)
    assert isinstance(forms, VortexChernForms)
    # ch2 integrates to zero on the product; c1 traces carry the degrees
    assert abs(integrate(forms.ch2_density)) <= 1e-10
    assert integrate(forms.c1_density_sigma) == pytest.approx(cfg.d, abs=1e-10)
    assert integrate(forms.c1_density_p1) == pytest.approx(VOL / np.pi, abs=1e-12)


def _rep_inputs(sec32, seed=5, h1_amp=0.2, alpha=5.0):
    g = sec32.grid
    rng = np.random.default_rng(seed)
    eta = ScalarField(g, 1.0 + 0.3 * g.random_smooth(rng, kmax=3))
    cfg = CymConfig(tau=2.0, alpha=alpha, d=1, vol=VOL, n=32, f_eta=eta)
    h1 = ScalarField(g, h1_amp * g.random_smooth(rng, kmax=3))
    return cfg, h1


def test_represent_ch2_reconstructs_target(sec32):
    cfg, h1 = _rep_inputs(sec32)
    f2 = represent_ch2(cfg, sec32, h1)
    assert np.min(f2.values) > 0.0
    assert represent_ch2_diagnostics(cfg, sec32, h1, f2)["defect_sup"] <= 1e-8


def test_represent_ch2_potential_identity(sec32):
    # u-route oracle: S1/f2 + 2 tau ln f2 must differ from the Poisson
    # potential of (8 (2 pi)^2/alpha)(1 - e) by a constant
    cfg, h1 = _rep_inputs(sec32, seed=6)
    g = sec32.grid
    f2 = represent_ch2(cfg, sec32, h1)
    S1 = sec32.S0.values * np.exp(-h1.values)
    u_rec = S1 / f2.values + 2.0 * cfg.tau * np.log(f2.values)
    u = g.invert_values((8.0 * FOUR_PI2 / cfg.alpha) * (1.0 - cfg.eta_values(g)))
    diff = (u_rec - np.mean(u_rec)) - (u - np.mean(u))
    assert np.max(np.abs(diff)) <= 1e-10
    # and the solve stayed on the monotone branch: S = S1/f2 < 2 tau
    assert np.max(S1 / f2.values) < 2.0 * cfg.tau


def test_represent_ch2_branch_equation(sec32):
    # the closed-form root solves S1 e^{-w} + 2 tau w = u + cshift to rounding
    # and lies on the increasing branch, where 2 tau - S1 e^{-w} > 0
    cfg, h1 = _rep_inputs(sec32, seed=7)
    g = sec32.grid
    w = np.log(represent_ch2(cfg, sec32, h1).values)
    S1 = sec32.S0.values * np.exp(-h1.values)
    two_tau = 2.0 * cfg.tau
    u = g.invert_values((8.0 * FOUR_PI2 / cfg.alpha) * (1.0 - cfg.eta_values(g)))
    pos = S1 > 0.0
    branch_val = np.full(g.shape, -np.inf)
    branch_val[pos] = two_tau * (1.0 + np.log(S1[pos] / two_tau))
    t = u + float(np.max(branch_val - u)) + 1.0
    resid = S1 * np.exp(-w) + two_tau * w - t
    assert np.max(np.abs(resid)) <= 1e-13 * max(1.0, float(np.max(np.abs(t))))
    assert np.min(two_tau - S1 * np.exp(-w)) > 0.0


def test_represent_ch2_needs_coupling(sec32):
    cfg, h1 = _rep_inputs(sec32)
    with pytest.raises(ValidationError):
        represent_ch2(replace(cfg, alpha=0.0), sec32, h1)


def test_represent_ch2_flat_target(sec32):
    # eta = background: u = 0, so S1/f2 + 2 tau ln f2 is exactly constant
    g = sec32.grid
    cfg = CymConfig(tau=2.0, alpha=5.0, d=1, vol=VOL, n=32)
    h1 = ScalarField.constant(g, 0.0)
    f2 = represent_ch2(cfg, sec32, h1)
    u_rec = sec32.S0.values / f2.values + 2.0 * cfg.tau * np.log(f2.values)
    assert np.max(u_rec) - np.min(u_rec) <= 1e-11
    assert represent_ch2_diagnostics(cfg, sec32, h1, f2)["defect_sup"] <= 1e-10


# -- conformal algebra on the product of two tori -----------------------------


@pytest.fixture(scope="module")
def conf_pair(bigrid16):
    rng = np.random.default_rng(41)
    phi = ScalarField(bigrid16, 0.1 * bigrid16.random_smooth(rng, kmax=3))
    return bigrid16, phi


@pytest.mark.parametrize("r", [2, 3, 4])
def test_segre_two_routes(conf_pair, r):
    g, phi = conf_pair
    data = synthetic_conformal_data(g, r, epsilon=0.05, seed=100 + r)
    _, _, seg = conformal_chern(data, phi)
    other = segre2_rearranged(data, phi)
    assert np.max(np.abs(seg.values - other.values)) <= 1e-10


@pytest.mark.parametrize("r", [2, 3, 4])
def test_conformal_invariance(conf_pair, r):
    g, phi = conf_pair
    data = synthetic_conformal_data(g, r, epsilon=0.05, seed=200 + r)
    assert invariance_defect(data, phi) <= 1e-10


def test_conformal_chern_at_zero(conf_pair):
    g, _ = conf_pair
    data = synthetic_conformal_data(g, 2, epsilon=0.05, seed=7)
    zero = ScalarField.constant(g, 0.0)
    c1, c2, seg = conformal_chern(data, zero)
    assert np.max(np.abs(c1.b11 - data.c1_0.b11)) == 0.0
    assert np.max(np.abs(c2.values - data.c2_0.values)) == 0.0
    assert np.max(np.abs(seg.values - (wedge_square(data.c1_0).values
                                       - data.c2_0.values))) <= 1e-13


def test_c2_closed_form_identity(conf_pair):
    # c2 - c2_closed = ((r-1)/(r+1)) (segre2 - eta) as an exact identity in
    # the form algebra, for any phi, where c2_closed is assembled from the
    # conformal invariant and eta
    g, phi = conf_pair
    for r in (2, 3):
        data = synthetic_conformal_data(g, r, epsilon=0.05, seed=300 + r)
        c1, c2, seg = conformal_chern(data, phi)
        want = ((r - 1) * data.eta.values - (r - 1) * wedge_square(c1).values
                + 2.0 * r * c2.values) / (r + 1.0)
        lhs = c2.values - want
        rhs = (r - 1) / (r + 1.0) * (seg.values - data.eta.values)
        scale = max(1.0, float(np.max(np.abs(c2.values))))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_kl_slack_and_validation(conf_pair):
    g, _ = conf_pair
    data = synthetic_conformal_data(g, 2, epsilon=0.05, seed=9)
    assert kl_slack(data) <= 0.0
    with pytest.raises(ValidationError):
        ConformalChernData(1, data.c1_0, data.c2_0, data.eta)
    with pytest.raises(ValidationError):
        ConformalChernData(2, data.c1_0, data.c2_0, data.eta, epsilon=-0.1)
    # default gate constant is 8r
    assert data.kl_const == 16.0


def test_synthetic_data_respects_gate(bigrid16):
    for eps in (0.02, 0.1, 0.3):
        data = synthetic_conformal_data(bigrid16, 3, epsilon=eps, seed=11)
        assert kl_slack(data) <= 0.0
        assert np.min(data.eta.values) > 0.0
        assert np.min(data.c1_0.eigmin()) > 0.0
