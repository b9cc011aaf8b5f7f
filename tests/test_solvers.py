"""Newton stages: vortex solve, corrector, continuation gates, adjoint certificate."""

import numpy as np
import pytest

from conftest import dense_laplacian
from cymlab import solvers
from cymlab.cym import (FOUR_PI2, CymConfig, CymState, alpha_threshold, eliminate_phiK,
                        ellipticity_determinant, residuals, satisfaction_value)
from cymlab.errors import (InfeasibleDegree, NoConvergence, NotConverged,
                           NotElliptic, ValidationError)
from cymlab.grids import Lattice, ScalarField, TorusGrid
from cymlab.solvers import (_BORDER_SIGMA, NewtonOptions, _corrector_residual,
                            _slaved_jacobian_matvec, adjoint_min_singular_value,
                            adjoint_sigma_min_symbol, apply_DT, continue_in_alpha,
                            newton_correct, solve_psi2, solve_vortex,
                            state_diagnostics, vortex_residual)
from cymlab.theta import SectionData, ThetaBundle, build_section

VOL = 4.0 * np.pi ** 2
PSI_CONST_REF = -0.5197993078447478   # -ln(2 - 1/pi) for tau=2, d=1, vol=4 pi^2


def _cfg(alpha=0.0, n=32, **kw):
    return CymConfig(tau=2.0, alpha=alpha, d=1, vol=VOL, n=n, **kw)


def _state0(sec, cfg):
    psi = solve_vortex(sec, cfg)
    psi2 = solve_psi2(psi, cfg, sec)
    return CymState(psi, psi2, eliminate_phiK(psi, psi2, cfg, sec))


def test_constant_closed_form():
    g = TorusGrid(16, Lattice(1j), VOL)
    sec = SectionData.constant(g, 1, 1.0)
    psi = solve_vortex(sec, _cfg(n=16))
    assert np.max(np.abs(psi.values - PSI_CONST_REF)) <= 1e-12
    # S = S0 e^{-psi} = 2 - 1/pi at every point; the max principle is strict
    S = np.exp(-psi.values)
    assert np.max(S) <= 2.0 * (1.0 + 1e-12)


def test_vortex_uniqueness_across_inits(sec32):
    cfg = _cfg()
    rng = np.random.default_rng(31)
    base = solve_vortex(sec32, cfg)
    for k in range(5):
        psi0 = ScalarField(sec32.grid, 2.0 * sec32.grid.random_smooth(rng, kmax=3))
        psi = solve_vortex(sec32, cfg, psi0=psi0)
        assert np.max(np.abs(psi.values - base.values)) <= 1e-8


def test_vortex_theta_n64(sec64, psi64):
    cfg = _cfg(n=64)
    r = vortex_residual(psi64, cfg, sec64)
    assert np.max(np.abs(r.values)) <= 1e-10
    S = sec64.S0.values * np.exp(-psi64.values)
    assert np.max(S) <= cfg.tau * (1.0 + 1e-8)


def test_vortex_infeasible_degree():
    g = TorusGrid(16, Lattice(1j), VOL)
    sec = SectionData.constant(g, 7, 1.0)
    with pytest.raises(InfeasibleDegree):
        solve_vortex(sec, CymConfig(tau=2.0, alpha=0.0, d=7, vol=VOL, n=16))


def test_vortex_nonconvergence_raises(sec32):
    with pytest.raises(NoConvergence):
        solve_vortex(sec32, _cfg(), NewtonOptions(max_iter=1))


def test_solve_psi2_zero_mean_and_r2(sec32):
    cfg = _cfg()
    psi = solve_vortex(sec32, cfg)
    psi2 = solve_psi2(psi, cfg, sec32)
    assert abs(psi2.mean()) <= 1e-15
    st = CymState(psi, psi2, eliminate_phiK(psi, psi2, cfg, sec32))
    _, r2, _ = residuals(st, cfg, sec32)
    assert np.max(np.abs(r2.values)) <= 1e-10


@pytest.mark.parametrize("alpha", [0.0, 3.0])
def test_apply_DT_matches_finite_differences(sec32, alpha):
    cfg = _cfg(alpha=alpha)
    st = _state0(sec32, _cfg())
    rng = np.random.default_rng(32)
    g = sec32.grid
    dots = tuple(ScalarField(g, g.random_smooth(rng, kmax=3)) for _ in range(3))
    lin = apply_DT(st, cfg, sec32, dots)

    def res_at(t):
        pert = CymState(st.psi + t * dots[0], st.psi2 + t * dots[1], st.phiK + t * dots[2])
        return residuals(pert, cfg, sec32)

    errs = []
    for h in (1e-4, 1e-5, 1e-6):
        fd = res_at(h)
        base = res_at(0.0)
        err = max(np.max(np.abs((f.values - b.values) / h - l.values))
                  for f, b, l in zip(fd, base, lin))
        errs.append(err)
    # forward differences of a smooth residual: error ~ C h, observed order >= 0.9
    order = np.log10(errs[0] / errs[2]) / 2.0
    assert order >= 0.9, f"errors {errs}"


def test_newton_correct_from_perturbed_state(sec32):
    cfg = _cfg(alpha=2.0)
    st = _state0(sec32, _cfg())
    rng = np.random.default_rng(33)
    g = sec32.grid
    noisy = CymState(st.psi + ScalarField(g, 1e-3 * g.random_smooth(rng, kmax=2)),
                     st.psi2 + ScalarField(g, 1e-3 * g.random_smooth(rng, kmax=2)),
                     st.phiK)
    out = newton_correct(noisy, cfg, sec32)
    rs = residuals(out, cfg, sec32)
    assert max(np.max(np.abs(r.values)) for r in rs) <= 1e-10


def test_corrector_krylov_n32(sec32):
    cfg = _cfg(alpha=1.5)
    st = _state0(sec32, _cfg())
    out = newton_correct(st, cfg, sec32)
    rs = residuals(out, cfg, sec32)
    assert max(np.max(np.abs(r.values)) for r in rs) <= 1e-10


def _slaved_jacobian_reference(g, cfg, S, w):
    """Dense (R1, R2) Jacobian with phiK slaved, plus the border, assembled
    from the dense Laplacian and the dense Nyquist projector."""
    n2 = g.n * g.n
    D = dense_laplacian(g)
    eye = np.eye(n2).reshape(n2, *g.shape)
    P = np.array([g.nyquist_part(b).ravel() for b in eye]).T
    Sf, wf = S.ravel(), w.ravel()
    lam = cfg.lam
    ca = cfg.alpha / (8.0 * FOUR_PI2)
    k1 = (Sf / 4.0 - 2.0 * lam)[:, None]
    k2 = (cfg.tau / 2.0 - Sf / 4.0 - 2.0 * lam)[:, None]
    DS = D * Sf[None, :]
    diag_sw = np.diag(Sf * wf / 4.0)
    J11 = D - diag_sw - ca * (k1 * DS)
    J12 = D - (2.0 * cfg.tau * ca) * (k1 * D)
    J21 = diag_sw - ca * (k2 * DS)
    J22 = D - (2.0 * cfg.tau * ca) * (k2 * D)
    M = np.block([[J11, J12], [J21, J22]])
    M[:, n2:] += _BORDER_SIGMA / n2
    M[n2:, n2:] += _BORDER_SIGMA * P
    return M


def test_slaved_jacobian_matvec_oracle(square_lat):
    g = TorusGrid(8, square_lat, VOL)
    sec = build_section(ThetaBundle(square_lat, 1), g)
    cfg = _cfg(alpha=1.5, n=8)
    st0 = _state0(sec, _cfg(n=8))
    rng = np.random.default_rng(34)
    psi = st0.psi.values + 0.1 * g.random_smooth(rng, kmax=2)
    psi2 = st0.psi2.values
    merit, (st, _, _) = _corrector_residual(g, cfg, sec, psi, psi2)
    S, w = st.S_values(sec), st.w_sigma_values()
    n2 = g.n * g.n

    def matvec(x):
        return _slaved_jacobian_matvec(g, cfg, S, w, x)

    # column-by-column assembly of the matvec against the dense algebra
    cols = np.array([matvec(e) for e in np.eye(2 * n2)]).T
    ref = _slaved_jacobian_reference(g, cfg, S, w)
    assert np.max(np.abs(cols - ref)) <= 1e-12 * np.max(np.abs(ref))

    # central differences of (R1, R2) with phiK slaved, along a gauge-free
    # direction (psi2_dot without mean or Nyquist content, so the border is 0)
    dpsi = g.random_smooth(rng, kmax=3)
    dpsi2 = g.project_resolved(g.random_smooth(rng, kmax=3))
    lin = matvec(np.concatenate([dpsi.ravel(), dpsi2.ravel()]))

    def flat_res(t):
        _, (_, r1, r2) = _corrector_residual(g, cfg, sec, psi + t * dpsi, psi2 + t * dpsi2)
        return np.concatenate([r1.ravel(), r2.ravel()])

    h = 1e-4
    fd = (flat_res(h) - flat_res(-h)) / (2.0 * h)
    assert np.max(np.abs(fd - lin)) <= 1e-8 * np.max(np.abs(lin))

    # the border: a constant psi2_dot maps to sigma * c everywhere, and a
    # Nyquist-line psi2_dot to sigma times itself in the R2 block only
    c = np.concatenate([np.zeros(n2), np.full(n2, 0.7)])
    assert np.max(np.abs(matvec(c) - _BORDER_SIGMA * 0.7)) <= 1e-12
    nyq = np.cos(np.pi * g.n * g.x)
    out = matvec(np.concatenate([np.zeros(n2), nyq.ravel()]))
    assert np.max(np.abs(out[:n2])) <= 1e-12
    assert np.max(np.abs(out[n2:] - _BORDER_SIGMA * nyq.ravel())) <= 1e-12


def test_corrector_refuses_non_elliptic_start():
    # a far start from the solution x* at alpha = 1 where the pointwise
    # ellipticity determinant is already negative
    lat = Lattice(1j)
    g = TorusGrid(16, lat, VOL)
    sec = build_section(ThetaBundle(lat, 1), g)
    cfg = _cfg(alpha=1.0, n=16)
    star = newton_correct(_state0(sec, _cfg(n=16)), cfg, sec)
    rng = np.random.default_rng(0)
    psi = star.psi + ScalarField(g, 4.0 * g.random_smooth(rng, kmax=3))
    psi2 = star.psi2 + ScalarField(g, 4.0 * g.random_smooth(rng, kmax=3))
    start = CymState(psi, psi2, eliminate_phiK(psi, psi2, cfg, sec))
    assert np.min(ellipticity_determinant(start, cfg, sec).values) < 0.0
    with pytest.raises(NotElliptic):
        newton_correct(start, cfg, sec)


def test_corrector_iteration_cap_names_stage(sec32):
    cfg = _cfg(alpha=1.5)
    st = _state0(sec32, _cfg())
    with pytest.raises(NoConvergence, match="corrector"):
        newton_correct(st, cfg, sec32, NewtonOptions(max_iter=1))


def test_continuation_theta_gates(sec32):
    cfg = _cfg()
    alphas = [0.0, 0.6, 1.2, 1.8, 2.4, 3.0]
    recs = continue_in_alpha(cfg, sec32, alphas, with_certificate=True)
    assert len(recs) == len(alphas)
    assert recs[-1].note == "completed"
    for rec in recs:
        d = rec.diagnostics
        assert d["residual_sup"] <= 1e-10
        assert d["min_w_sigma"] > 0.0
        assert d["max_S_minus_tau"] <= 1e-8
        assert d["min_ellipticity"] > 0.0
        assert d["sigma_min"] > 0.0
        assert d["constraint_gap_rel"] <= 1e-8


def test_continuation_validates_alpha_list(sec32):
    cfg = _cfg()
    with pytest.raises(ValidationError):
        continue_in_alpha(cfg, sec32, [0.5, 1.0])
    with pytest.raises(ValidationError):
        continue_in_alpha(cfg, sec32, [0.0, 1.0, 1.0])


def test_satisfaction_gate_truncates_constant_path():
    g = TorusGrid(16, Lattice(1j), VOL)
    sec = SectionData.constant(g, 1, 1.0)
    cfg = _cfg(n=16)
    a_star = alpha_threshold(cfg)
    alphas = [0.0, 60.0, 120.0, 180.0, 186.0, 190.0]
    recs = continue_in_alpha(cfg, sec, alphas, with_certificate=False)
    accepted = [r.alpha for r in recs]
    assert accepted == [a for a in alphas if a < a_star]
    assert "satisfaction" in recs[-1].note
    assert satisfaction_value(cfg.with_alpha(accepted[-1])) > 0.0


def test_diagnostics_are_plain_floats(sec32):
    cfg = _cfg()
    st = _state0(sec32, cfg)
    d = state_diagnostics(st, cfg, sec32, with_certificate=True)
    for k, v in d.items():
        assert isinstance(v, (int, float)), k
    assert d["newton_iters"] == 0
    assert d["satisfaction"] == pytest.approx(8.0)


def _certificate_against_symbol(n):
    # constant data: the reduced adjoint operator is a Fourier multiplier, so
    # the certificate must match the symbol minimum over the resolved modes
    g = TorusGrid(n, Lattice(1j), VOL)
    sec = SectionData.constant(g, 1, 1.0)
    cfg = _cfg(n=n, alpha=5.0)
    st0 = _state0(sec, _cfg(n=n))
    st = CymState(st0.psi, st0.psi2, eliminate_phiK(st0.psi, st0.psi2, cfg, sec))
    got = adjoint_min_singular_value(st, cfg, sec)
    s0 = float(np.exp(-st.psi.values[0, 0]))
    want = adjoint_sigma_min_symbol(cfg, g, s0)
    assert got == pytest.approx(want, rel=1e-8)
    return st, cfg, sec, got


def test_adjoint_certificate_against_symbol():
    _certificate_against_symbol(16)


def test_adjoint_certificate_against_symbol_n128():
    # beyond the reach of a dense n^2 x n^2 eigensolver; state_diagnostics
    # carries the value at any n, and only on request
    st, cfg, sec, got = _certificate_against_symbol(128)
    assert state_diagnostics(st, cfg, sec, with_certificate=True)["sigma_min"] == got
    assert "sigma_min" not in state_diagnostics(st, cfg, sec, with_certificate=False)


def _corrected(sec, alpha):
    cfg = _cfg(alpha=alpha, n=sec.grid.n, lattice=sec.grid.lattice)
    return newton_correct(_state0(sec, cfg.with_alpha(0.0)), cfg, sec), cfg


def test_adjoint_certificate_dense_oracle(skew_lat):
    # L assembled densely and restricted to an orthonormal basis of the resolved
    # zero-mean modes: negative definite, and the matrix-free value is min |eig|
    g = TorusGrid(16, skew_lat, VOL)
    sec = build_section(ThetaBundle(skew_lat, 1), g)
    st, cfg = _corrected(sec, 1.5)
    S = st.S_values(sec).ravel()
    w = st.w_sigma_values().ravel()
    K = 8.0 + cfg.d * cfg.alpha * cfg.tau / (2.0 * np.pi * cfg.vol)
    D = dense_laplacian(g)
    sm = S - cfg.tau
    L = (0.5 * D - np.diag(S * w / 4.0)
         - (cfg.alpha / (4.0 * K * FOUR_PI2)) * (sm[:, None] * D * sm[None, :]))
    n2 = S.size
    P = np.array([g.project_resolved(b).ravel() for b in np.eye(n2).reshape(n2, *g.shape)])
    pe, pv = np.linalg.eigh(P)
    Q = pv[:, pe > 0.5]
    assert Q.shape[1] == (g.n - 1) ** 2 - 1
    eig = np.linalg.eigvalsh(Q.T @ L @ Q)
    assert np.max(eig) < 0.0
    got = adjoint_min_singular_value(st, cfg, sec)
    assert got == pytest.approx(np.min(np.abs(eig)), rel=1e-10)


def test_adjoint_certificate_grid_converged(sec32, sec64):
    # on resolved modes the certificate measures the continuous operator
    got = [adjoint_min_singular_value(*_corrected(sec, 1.0), sec) for sec in (sec32, sec64)]
    assert got[0] == pytest.approx(got[1], rel=1e-9)


def test_adjoint_certificate_rounding_stable(sec32):
    # a rounding-level change of psi moves the value at rounding level
    cfg = _cfg()
    rng = np.random.default_rng(35)
    for rec in continue_in_alpha(cfg, sec32, [0.0, 0.5, 1.0, 1.5], with_certificate=False):
        st, cfga = rec.state, cfg.with_alpha(rec.alpha)
        psi = st.psi.values * (1.0 + 1e-15 * rng.uniform(-1.0, 1.0, st.psi.values.shape))
        bumped = CymState(ScalarField(sec32.grid, psi), st.psi2, st.phiK)
        a = adjoint_min_singular_value(st, cfga, sec32)
        b = adjoint_min_singular_value(bumped, cfga, sec32)
        assert abs(a - b) <= 1e-12 * abs(a), rec.alpha


def test_adjoint_certificate_nonconvergence_names_stage(sec32, monkeypatch):
    st = _state0(sec32, _cfg())
    monkeypatch.setattr(solvers, "_CERT_MAXITER", 1)
    with pytest.raises(NoConvergence, match="certificate"):
        adjoint_min_singular_value(st, _cfg(), sec32)


def test_adjoint_certificate_needs_solved_state(sec32):
    cfg = _cfg()
    g = sec32.grid
    bad = CymState(ScalarField.constant(g, 0.3), ScalarField.constant(g, 0.0),
                   ScalarField.constant(g, 0.0))
    with pytest.raises(NotConverged):
        adjoint_min_singular_value(bad, cfg, sec32)
