"""Density Monge-Ampere pipeline: assembly gates, Newton solve, certificates."""

import numpy as np
import pytest
from dataclasses import replace

from cymlab.chern import ConformalChernData, conformal_chern
from cymlab.errors import (MassMismatch, NoConvergence, PositivityLost,
                           RhsNotPositive, ValidationError)
from cymlab.grids import Form11Field, ScalarField, ddbar, wedge_square
from cymlab.monge_ampere import (MAProblem, assemble_ma, certify_positivity,
                                 ma_residual, solve_ma, synthetic_conformal_data)
from cymlab.solvers import NewtonOptions


def test_assemble_basic(bigrid16):
    data = synthetic_conformal_data(bigrid16, 2, epsilon=0.05, seed=1)
    prob = assemble_ma(data)
    assert prob.kappa == 3.0
    assert np.min(prob.rhs.values) > 0.0
    # mass compatibility is part of the assembly contract
    lhs = prob.kappa * bigrid16.integrate_values(wedge_square(prob.base).values)
    assert abs(lhs - bigrid16.integrate_values(prob.rhs.values)) <= 1e-8 * abs(lhs)


def test_assemble_gate_failures(bigrid16):
    g = bigrid16
    data = synthetic_conformal_data(g, 2, epsilon=0.05, seed=2)
    r = data.r
    ws0 = wedge_square(data.c1_0)
    # push c2_0 down so the invariant gate opens, with no epsilon slack
    delta = 0.1
    bad_c2 = ScalarField(g, (r - 1) / (2.0 * r) * ws0.values - delta)
    with pytest.raises(ValidationError):
        assemble_ma(ConformalChernData(r, data.c1_0, bad_c2,
                                       data.eta, epsilon=0.0))
    # eta must be pointwise positive
    signed = ScalarField(g, data.eta.values - float(np.min(data.eta.values)) - 1e-3)
    with pytest.raises(RhsNotPositive):
        assemble_ma(replace(data, eta=signed))
    # assembled right side must stay positive even when eta does
    tiny = ScalarField.constant(g, 1e-6)
    gated = ConformalChernData(r, data.c1_0, bad_c2, tiny,
                               epsilon=delta * 2.0 * r + 1e-6, kl_const=1.0)
    with pytest.raises(RhsNotPositive):
        assemble_ma(gated)
    # and the two sides must carry the same mass
    with pytest.raises(MassMismatch):
        assemble_ma(replace(data, eta=ScalarField(g, 1.1 * data.eta.values)))


def test_manufactured_solution(bigrid16):
    # prescribe the answer: rhs := kappa (base + ddc(phi*))^2 for a known
    # band-limited phi*; the discrete system is then solved exactly by phi*
    g = bigrid16
    rng = np.random.default_rng(50)
    base = Form11Field.constant(g, 2.0, 0.25 + 0.15j, 2.4)
    phi_star = ScalarField(g, g.project_resolved(0.08 * g.random_smooth(rng, kmax=2)))
    total = base + ddbar(phi_star)
    assert np.min(total.eigmin()) > 0.0
    rhs = ScalarField(g, 3.0 * wedge_square(total).values)
    prob = MAProblem(g, 2, base, rhs)
    phi = solve_ma(prob)
    err = (phi - phi_star).values
    assert np.max(np.abs(err - np.mean(err))) <= 1e-6
    assert np.max(np.abs(ma_residual(prob, phi).values)) <= 1e-9


@pytest.mark.parametrize("r", [2, 3])
def test_solve_synthetic_suite(bigrid16, r):
    data = synthetic_conformal_data(bigrid16, r, epsilon=0.05, seed=60 + r)
    prob = assemble_ma(data)
    phi = solve_ma(prob)
    g = bigrid16
    res = ma_residual(prob, phi)
    # the operator-reachable part converges to the Newton tolerance; the
    # remainder is invisible to ddbar products and shrinks spectrally with n
    assert np.max(np.abs(g.project_resolved(res.values))) <= 1e-10
    assert np.max(np.abs(res.values)) <= 1e-4
    cert = certify_positivity(data, *conformal_chern(data, phi))
    assert cert.passed
    assert cert.min_c1_eig > 0.0
    assert cert.min_c2 > 0.0
    assert cert.min_segre2 > 0.0
    # closed-form c2 agrees through the exact algebra ratio
    assert cert.c2_closed_form_sup == pytest.approx(
        (r - 1) / (r + 1.0) * cert.segre2_vs_eta_sup, rel=1e-10)


def test_solution_satisfies_segre_target(bigrid16):
    # at the solution the second Segre density equals eta up to the invisible tail
    data = synthetic_conformal_data(bigrid16, 2, epsilon=0.05, seed=70)
    phi = solve_ma(assemble_ma(data))
    _, _, seg = conformal_chern(data, phi)
    diff = seg.values - data.eta.values
    assert np.max(np.abs(bigrid16.project_resolved(diff))) <= 1e-10
    assert np.max(np.abs(diff)) <= 1e-4


def test_mass_conserved_by_solve(bigrid16):
    data = synthetic_conformal_data(bigrid16, 2, epsilon=0.05, seed=80)
    prob = assemble_ma(data)
    phi = solve_ma(prob)
    g = bigrid16
    total_mass = g.integrate_values(wedge_square(prob.base + ddbar(phi)).values)
    base_mass = g.integrate_values(wedge_square(prob.base).values)
    assert abs(total_mass - base_mass) <= 1e-10 * abs(base_mass)


def test_epsilon_monotone_certificate(bigrid16):
    # larger epsilon pushes c2_0 further down; the certified c2 floor follows
    mins = []
    for eps in (0.02, 0.2):
        data = synthetic_conformal_data(bigrid16, 2, epsilon=eps, seed=90)
        phi = solve_ma(assemble_ma(data))
        mins.append(certify_positivity(data, *conformal_chern(data, phi)).min_c2)
    assert mins[1] < mins[0]


def test_solver_iteration_cap(bigrid16):
    data = synthetic_conformal_data(bigrid16, 2, epsilon=0.05, seed=95)
    prob = assemble_ma(data)
    with pytest.raises(NoConvergence):
        solve_ma(prob, NewtonOptions(max_iter=1))


def test_non_positive_base_loses_positivity(bigrid16):
    # the phi = 0 start is inadmissible when the base form is not positive
    g = bigrid16
    base = Form11Field.constant(g, 2.0, 0.0, -0.5)
    prob = MAProblem(g, 2, base, ScalarField.constant(g, 1.0))
    with pytest.raises(PositivityLost):
        solve_ma(prob)
