"""Newton solvers, coupling continuation, and the adjoint kernel certificate.

The alpha = 0 stage is the scalar vortex equation

    rho0 + lap(psi) + ((S0 e^{-psi} - tau)/2) e = 0,

whose linearization lap - (S/2) e is invertible (maximum principle), followed
by a Poisson solve for psi2 and the algebraic elimination of phiK.

For alpha > 0 the corrector solves R1 = R2 = 0 with phiK slaved to
(psi, psi2) through eliminate_phiK, so R3 vanishes identically.  The mean
parts of (R1, R2) encode the scalar constraint with an exact dependency
integrate(R1 + R2) = 0, and the constant psi2 direction is null, so the
square Newton matrix is the true Jacobian plus the rank-one border
sigma * ones * mean(psi2_dot); the bordered solution solves the original
consistent system and pins mean(psi2_dot) = 0.

Both stages, and the Monge-Ampere solve, run through one damped-Newton
driver whose linear solves are matrix-free preconditioned LGMRES at every
grid size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, lgmres, lobpcg

from .cym import (FOUR_PI2, CymConfig, CymState, constraint_integral, eliminate_phiK,
                  ellipticity_determinant, omega_recovery_defect, residuals,
                  satisfaction_value)
from .errors import (InfeasibleDegree, NoConvergence, NotConverged, NotElliptic,
                     PositivityLost, ValidationError)
from .grids import ScalarField, TorusGrid
from .theta import SectionData, weitzenbock_defect

_BORDER_SIGMA = 8.0
_CERT_MAXITER = 200     # LOBPCG iterations; the reference input needs about 25
_CERT_RTOL = 1e-10      # eigenpair residual, relative to the preconditioner's largest symbol


@dataclass
class NewtonOptions:
    max_iter: int = 40
    tol_res: float | None = None      # sup-norm target; default cfg.tol.newton
    damping: float = 0.5
    min_step: float = 1e-6
    krylov_tol: float = 1e-12
    krylov_maxiter: int = 800


def _krylov(matvec, b: np.ndarray, precond, rtol: float, maxiter: int) -> np.ndarray:
    n = b.size
    A = LinearOperator((n, n), matvec=matvec)
    M = LinearOperator((n, n), matvec=precond) if precond is not None else None
    x, info = lgmres(A, b, M=M, rtol=rtol, atol=0.0, maxiter=maxiter)
    if info != 0:
        raise NoConvergence(f"inner linear solve did not converge (info={info})")
    return x


def _damped_newton(x: np.ndarray, evaluate, solve, opts: NewtonOptions, tol: float,
                   stage: str, check=None):
    """Damped Newton with Armijo backtracking on a sup-norm merit.

    evaluate(x) returns (merit, data), or None when x is inadmissible;
    solve(x, data) returns the Newton step at x, already in the gauge of x;
    check(data), when given, vets every accepted iterate and raises to refuse
    it.  The merit is tested after every step, the last allowed one included.
    Returns (x, data, steps).  A stalled line search raises PositivityLost when
    its last trial was inadmissible and NoConvergence otherwise; every message
    names the stage.
    """
    trial = evaluate(x)
    if trial is None:
        raise PositivityLost(f"{stage} start point is not admissible")
    steps = 0
    while True:
        # trial is the only other reference to data, so accepting a step frees
        # the previous iterate's arrays
        merit, data = trial
        if check is not None:
            check(data)
        if merit <= tol:
            return x, data, steps
        if steps == opts.max_iter:
            raise NoConvergence(f"{stage} Newton exhausted {opts.max_iter} iterations "
                                f"at residual {merit:.3e}")
        dx = solve(x, data)
        t = 1.0
        while True:
            xt = x + t * dx
            trial = evaluate(xt)
            if trial is not None and trial[0] <= (1.0 - 0.5 * t) * merit:
                break
            t *= opts.damping
            if t < opts.min_step:
                if trial is None:
                    raise PositivityLost(f"{stage} line search lost admissibility "
                                         f"at residual {merit:.3e}")
                raise NoConvergence(f"{stage} line search stalled at residual {merit:.3e}")
        x = xt
        steps += 1


# -- vortex stage -------------------------------------------------------------


def vortex_residual(psi: ScalarField, cfg: CymConfig, sec: SectionData) -> ScalarField:
    g = psi.grid
    S = sec.S0.values * np.exp(-psi.values)
    e = cfg.eta_values(g)
    r = sec.rho0.values + g.lap_values(psi.values) + 0.5 * (S - cfg.tau) * e
    return ScalarField(g, r)


def solve_vortex(sec: SectionData, cfg: CymConfig, opts: NewtonOptions | None = None,
                 psi0: ScalarField | None = None) -> ScalarField:
    """Damped Newton for the vortex equation; unique solution, any smooth start."""
    opts = opts or NewtonOptions()
    g = sec.grid
    if not cfg.feasible:
        raise InfeasibleDegree(
            f"need 0 < 4 pi d < tau vol, got 4 pi d = {4 * np.pi * cfg.d:.6g}, "
            f"tau vol = {cfg.tau * cfg.vol:.6g}")
    if np.max(sec.S0.values) <= 0.0:
        raise InfeasibleDegree("section norm vanishes identically; equation has no solution")
    e = cfg.eta_values(g)
    psi = np.zeros(g.shape) if psi0 is None else np.array(psi0.values, dtype=float)
    # drive below the target so downstream stages keep their own tolerance budget
    tol = 0.1 * (opts.tol_res if opts.tol_res is not None else cfg.tol.newton)

    def evaluate(p):
        r = vortex_residual(ScalarField(g, p), cfg, sec).values
        return float(np.max(np.abs(r))), r

    def solve(p, r):
        # (lap - diag(c)) x = -r with c = (S/2) e >= 0, preconditioned by the
        # Laplacian symbol shifted by mean(c)
        S = sec.S0.values * np.exp(-p)
        c = 0.5 * S * e
        sym = g.lap_mult - float(np.mean(c))

        def matvec(x):
            xf = x.reshape(g.shape)
            return (g.lap_values(xf) - c * xf).ravel()

        def precond(x):
            return np.real(np.fft.ifft2(np.fft.fft2(x.reshape(g.shape)) / sym)).ravel()

        return _krylov(matvec, -r.ravel(), precond, opts.krylov_tol,
                       opts.krylov_maxiter).reshape(g.shape)

    psi, _, _ = _damped_newton(psi, evaluate, solve, opts, tol, "vortex")
    smax = float(np.max(sec.S0.values * np.exp(-psi)))
    if smax > cfg.tau * (1.0 + cfg.tol.ineq):
        raise NoConvergence(f"max principle post-check failed: max S = {smax:.12g} > tau")
    return ScalarField(g, psi)


def solve_psi2(psi: ScalarField, cfg: CymConfig, sec: SectionData) -> ScalarField:
    """Zero-mean psi2 from the second equation at alpha = 0 (w_sigma = eta density).

    The source has zero mean exactly when psi solves the vortex equation;
    invert_laplacian raises NonZeroMean otherwise.
    """
    g = psi.grid
    S = sec.S0.values * np.exp(-psi.values)
    src = -(cfg.tau / 2.0 - S / 4.0 - 2.0 * cfg.lam) * cfg.eta_values(g)
    return ScalarField(g, g.invert_values(src, cfg.tol.mean_tol(cfg.vol)))


def vortex_state(sec: SectionData, cfg: CymConfig,
                 opts: NewtonOptions | None = None) -> CymState:
    """The alpha = 0 state: the vortex psi, then psi2 and the eliminated phiK."""
    psi = solve_vortex(sec, cfg, opts)
    psi2 = solve_psi2(psi, cfg, sec)
    return CymState(psi, psi2, eliminate_phiK(psi, psi2, cfg, sec))


# -- full-system corrector ----------------------------------------------------


def apply_DT(state: CymState, cfg: CymConfig, sec: SectionData, dots):
    """Directional derivative (S1, S2, S3) of the residuals at state along dots.

    dots = (psi_dot, psi2_dot, phi_dot); S = S0 e^{-psi} so S_dot = -S psi_dot.
    """
    psid, psi2d, phid = dots
    g = state.grid
    lam = cfg.lam
    S = state.S_values(sec)
    w = state.w_sigma_values()
    lpd = g.lap_values(psid.values)
    lp2d = g.lap_values(psi2d.values)
    lphid = g.lap_values(phid.values)
    s1 = lpd + lp2d - (S / 4.0) * psid.values * w + (S / 4.0 - 2.0 * lam) * lphid
    s2 = lp2d + (S / 4.0) * psid.values * w + (cfg.tau / 2.0 - S / 4.0 - 2.0 * lam) * lphid
    s3 = (8.0 * lphid
          + (cfg.alpha / FOUR_PI2) * (g.lap_values(S * psid.values) + 2.0 * cfg.tau * lp2d))
    return (ScalarField(g, s1), ScalarField(g, s2), ScalarField(g, s3))


def _slaved_jacobian_matvec(g: TorusGrid, cfg: CymConfig, S: np.ndarray, w: np.ndarray,
                            x: np.ndarray) -> np.ndarray:
    """Jacobian of (R1, R2) in (psi, psi2) with phiK slaved, plus the border."""
    n2 = S.size
    pd = x[:n2].reshape(g.shape)
    p2d = x[n2:].reshape(g.shape)
    lam = cfg.lam
    ca = cfg.alpha / (8.0 * FOUR_PI2)
    phid = ca * (-S * pd - 2.0 * cfg.tau * p2d)
    lphid = g.lap_values(phid)
    lpd = g.lap_values(pd)
    lp2d = g.lap_values(p2d)
    s1 = lpd + lp2d - (S / 4.0) * pd * w + (S / 4.0 - 2.0 * lam) * lphid
    s2 = lp2d + (S / 4.0) * pd * w + (cfg.tau / 2.0 - S / 4.0 - 2.0 * lam) * lphid
    # psi2 enters only through Laplacians, so its mean and Nyquist content are
    # pure gauge; border both to keep the system nonsingular.
    s2 = s2 + _BORDER_SIGMA * g.nyquist_part(p2d)
    out = np.concatenate([s1.ravel(), s2.ravel()])
    out += _BORDER_SIGMA * float(np.mean(p2d))
    return out


def _frozen_coefficient_precond(g: TorusGrid, cfg: CymConfig, S: np.ndarray, w: np.ndarray):
    """Per-mode 2x2 solve of the corrector Jacobian with spatially averaged
    coefficients; exact for constant data.  Modes annihilated by the Laplacian
    symbol (the mean and the Nyquist lines) fall back to the zeroth-order block
    with the border, which is invertible since mean(S w) > 0."""
    lam = cfg.lam
    ca = cfg.alpha / (8.0 * FOUR_PI2)
    sbar = float(np.mean(S))
    swq = float(np.mean(S * w)) / 4.0
    k1b = sbar / 4.0 - 2.0 * lam
    k2b = cfg.tau / 2.0 - sbar / 4.0 - 2.0 * lam
    m = g.lap_mult
    a11 = m * (1.0 - ca * sbar * k1b) - swq
    a12 = m * (1.0 - 2.0 * cfg.tau * ca * k1b)
    a21 = -m * ca * sbar * k2b + swq
    a22 = m * (1.0 - 2.0 * cfg.tau * ca * k2b)
    det = a11 * a22 - a12 * a21
    nyq = g._nyquist_mask
    sing = m == 0.0
    safe = np.where(sing, 1.0, det)

    def precond(x, n2=S.size):
        b1 = np.fft.fft2(x[:n2].reshape(g.shape))
        b2 = np.fft.fft2(x[n2:].reshape(g.shape))
        y1 = (a22 * b1 - a12 * b2) / safe
        y2 = (a11 * b2 - a21 * b1) / safe
        # Nyquist block [[-swq, 0], [swq, sigma]]; mean block [[-swq, s], [swq, s]]
        y1[nyq] = (-b1 / swq)[nyq]
        y2[nyq] = ((b2 + b1) / _BORDER_SIGMA)[nyq]
        y1[0, 0] = (b2[0, 0] - b1[0, 0]) / (2.0 * swq)
        y2[0, 0] = (b1[0, 0] + b2[0, 0]) / (2.0 * _BORDER_SIGMA)
        return np.concatenate([np.real(np.fft.ifft2(y1)).ravel(),
                               np.real(np.fft.ifft2(y2)).ravel()])

    return precond


def _corrector_residual(g, cfg, sec, psi, psi2):
    """Merit max(|R1|, |R2|) with phiK slaved, and (state, R1, R2) as data."""
    phiK = eliminate_phiK(ScalarField(g, psi), ScalarField(g, psi2), cfg, sec)
    state = CymState(ScalarField(g, psi), ScalarField(g, psi2), phiK)
    r1, r2, _ = residuals(state, cfg, sec)
    merit = max(np.max(np.abs(r1.values)), np.max(np.abs(r2.values)))
    return merit, (state, r1.values, r2.values)


def _newton_correct_impl(state: CymState, cfg: CymConfig, sec: SectionData,
                         opts: NewtonOptions):
    g = state.grid
    tol = opts.tol_res if opts.tol_res is not None else cfg.tol.newton
    if satisfaction_value(cfg) <= 0.0:
        raise NotElliptic(f"satisfaction gate closed: {satisfaction_value(cfg):.6g} <= 0")

    def solve(x, data):
        cur, r1, r2 = data
        S = cur.S_values(sec)
        w = cur.w_sigma_values()
        step = _krylov(lambda v: _slaved_jacobian_matvec(g, cfg, S, w, v),
                       -np.concatenate([r1.ravel(), r2.ravel()]),
                       _frozen_coefficient_precond(g, cfg, S, w),
                       opts.krylov_tol, opts.krylov_maxiter)
        return step.reshape(x.shape)

    def check(data):
        det_min = float(np.min(ellipticity_determinant(data[0], cfg, sec).values))
        if det_min <= 0.0:
            raise NotElliptic(f"pointwise ellipticity determinant hit {det_min:.6g}")

    # x stacks (psi, psi2); the state built in each evaluation fixes the psi2 gauge
    _, (cur, _, _), iters = _damped_newton(
        np.stack([state.psi.values, state.psi2.values]),
        lambda x: _corrector_residual(g, cfg, sec, x[0], x[1]),
        solve, opts, tol, "corrector", check)

    w_min = float(np.min(cur.w_sigma_values()))
    if w_min <= 0.0:
        raise PositivityLost(f"base form density lost positivity: min w_sigma = {w_min:.6g}")
    smax = float(np.max(cur.S_values(sec)))
    if smax > cfg.tau * (1.0 + cfg.tol.ineq):
        raise NoConvergence(f"max principle post-check failed: max S = {smax:.12g} > tau")
    return cur, iters


def newton_correct(state: CymState, cfg: CymConfig, sec: SectionData,
                   opts: NewtonOptions | None = None) -> CymState:
    """Correct a predictor state to a solution of the coupled system at cfg.alpha."""
    out, _ = _newton_correct_impl(state, cfg, sec, opts or NewtonOptions())
    return out


# -- diagnostics and continuation ---------------------------------------------


def state_diagnostics(state: CymState, cfg: CymConfig, sec: SectionData,
                      with_certificate: bool = True, newton_iters: int = 0) -> dict:
    """Scalar diagnostics reproducible from the stored state fields alone.

    with_certificate adds sigma_min (see adjoint_min_singular_value).
    """
    r1, r2, r3 = residuals(state, cfg, sec)
    lhs, rhs = constraint_integral(state, cfg, sec)
    det = ellipticity_determinant(state, cfg, sec)
    out = {
        "alpha": float(cfg.alpha),
        "newton_iters": int(newton_iters),
        "residual_sup": float(max(np.max(np.abs(r1.values)), np.max(np.abs(r2.values)),
                                  np.max(np.abs(r3.values)))),
        "constraint_lhs": float(lhs),
        "constraint_rhs": float(rhs),
        "constraint_gap_rel": float(abs(lhs - rhs) / abs(rhs)),
        "min_w_sigma": float(np.min(state.w_sigma_values())),
        "max_S_minus_tau": float(np.max(state.S_values(sec)) - cfg.tau),
        "min_ellipticity": float(np.min(det.values)),
        "satisfaction": float(satisfaction_value(cfg)),
        "omega_defect_sup": float(np.max(np.abs(omega_recovery_defect(state, cfg, sec).values))),
        "min_weitzenbock": float(np.min(weitzenbock_defect(sec, state.psi).values)),
    }
    if with_certificate:
        out["sigma_min"] = adjoint_min_singular_value(state, cfg, sec)
    return out


@dataclass
class ContinuationRecord:
    alpha: float
    state: CymState
    diagnostics: dict = field(default_factory=dict)
    note: str = ""


def continue_in_alpha(cfg: CymConfig, sec: SectionData, alphas,
                      opts: NewtonOptions | None = None,
                      with_certificate: bool = True) -> list[ContinuationRecord]:
    """Zeroth-order continuation from alpha = 0 up the given increasing list.

    Stops without raising at the first closed gate (satisfaction, ellipticity,
    positivity, max principle) or Newton failure; the last record's note says
    why.  alphas must start at exactly 0.
    """
    opts = opts or NewtonOptions()
    alphas = list(map(float, alphas))
    if not alphas or alphas[0] != 0.0:
        raise ValidationError("continuation must start at alpha = 0")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValidationError("alphas must be strictly increasing")

    cfg0 = cfg.with_alpha(0.0)
    state = vortex_state(sec, cfg0, opts)
    records = [ContinuationRecord(0.0, state,
                                  state_diagnostics(state, cfg0, sec, with_certificate))]
    note = "completed"
    for a in alphas[1:]:
        cfga = cfg.with_alpha(a)
        if satisfaction_value(cfga) <= 0.0:
            note = (f"stopped before alpha={a:.6g}: satisfaction gate "
                    f"{satisfaction_value(cfga):.6g} <= 0")
            break
        try:
            state, iters = _newton_correct_impl(state, cfga, sec, opts)
        except (NotElliptic, NoConvergence, PositivityLost) as err:
            note = f"stopped before alpha={a:.6g}: {type(err).__name__}: {err}"
            break
        records.append(ContinuationRecord(a, state,
                                          state_diagnostics(state, cfga, sec,
                                                            with_certificate, iters)))
    records[-1].note = note
    return records


# -- adjoint kernel certificate -----------------------------------------------


def adjoint_min_singular_value(state: CymState, cfg: CymConfig, sec: SectionData) -> float:
    """Smallest eigenvalue of -L, the reduced adjoint-kernel operator, on resolved q.

    Eliminating the w unknown of the adjoint pair through its algebraic
    relation (with the unknown constant fixed by the zero-average gauge)
    leaves the symmetric operator

        L q = (1/2) lap(q) - (S/4) w_sigma q
              - (alpha/(4 K (2 pi)^2)) (S - tau) lap((S - tau) q),

    K = 8 + d alpha tau/(2 pi vol), taken on the modes the Laplacian symbol
    resolves (the gauge of psi2 and phiK).  A positive value is the smallest
    singular value there and certifies that the linearized operator is
    surjective at this state; a value <= 0 fails.  Computed by LOBPCG.
    """
    g = state.grid
    merit, _ = _corrector_residual(g, cfg, sec, state.psi.values, state.psi2.values)
    if merit > cfg.tol.newton:
        raise NotConverged(f"certificate needs a solved state: residual {merit:.3e} "
                           f"> {cfg.tol.newton:.1e}")
    S = state.S_values(sec)
    sw = S * state.w_sigma_values() / 4.0
    sm = S - cfg.tau
    K = 8.0 + cfg.d * cfg.alpha * cfg.tau / (2.0 * np.pi * cfg.vol)
    c = cfg.alpha / (4.0 * K * FOUR_PI2)
    # preconditioner: inverse symbol of -L with averaged coefficients, resolved modes only
    sym = (0.5 - c * float(np.mean(sm * sm))) * (-g.lap_mult) + float(np.mean(sw))
    inv_sym = np.where(g.lap_mult != 0.0, 1.0 / sym, 0.0)

    def minus_L(X):     # lobpcg blocks are (n*n, k); grid stacks are (k, n, n)
        q = g.project_resolved(X.T.reshape(-1, *g.shape))
        y = sw * q + c * sm * g.lap_values(sm * q) - 0.5 * g.lap_values(q)
        return g.project_resolved(y).reshape(-1, S.size).T

    def precond(X):
        Y = np.fft.ifft2(inv_sym * np.fft.fft2(X.T.reshape(-1, *g.shape)))
        return np.real(Y).reshape(-1, S.size).T

    x0 = g.project_resolved(np.random.default_rng(0).standard_normal(g.shape)).reshape(-1, 1)
    rtol = _CERT_RTOL * float(np.max(sym))
    # lobpcg is asked for half the residual that the check below accepts
    (lam,), x = lobpcg(minus_L, x0, M=precond, tol=0.5 * rtol, maxiter=_CERT_MAXITER,
                       largest=False)
    res = float(np.linalg.norm(minus_L(x) - lam * x) / np.linalg.norm(x))
    if not res <= rtol:
        raise NoConvergence(f"certificate eigensolver residual {res:.3e} > {rtol:.1e}")
    return float(lam)


def adjoint_sigma_min_symbol(cfg: CymConfig, grid: TorusGrid, s0: float) -> float:
    """Fourier-symbol value of the certificate for constant data S = s0, w = 1."""
    K = 8.0 + cfg.d * cfg.alpha * cfg.tau / (2.0 * np.pi * cfg.vol)
    a = 0.5 - cfg.alpha * (s0 - cfg.tau) ** 2 / (4.0 * K * FOUR_PI2)
    m = grid.lap_mult
    return float(np.min((s0 / 4.0 - a * m)[m != 0.0]))
