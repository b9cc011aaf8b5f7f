"""Monge-Ampere step prescribing the second Segre density on the bi-torus.

A conformal change of a rank-r metric moves the second Segre form by a
multiple of (ddc(phi) + c1_0/r)^2 plus an invariant part; prescribing a
positive target density eta therefore reduces to

    (r(r+1)/2) (base + ddc(phi))^2 = eta + (2r c2_0 - (r-1) c1_0^2)/(2r),

with base = c1_0/r.  The right-hand side must be pointwise positive and
carry exactly the mass of the left side; both are checked during assembly,
along with the smallness gate on (r-1) c1_0^2 - 2r c2_0 that certifies the
input metric is an approximate solution.

The Newton iteration acts on the plain density form, so the mass identity
is conserved exactly at every iterate (the quadratic cross terms alias no
content into the mean on resolved grids) and the bordered linear systems
stay consistent to machine precision.  Positivity of the total form is
enforced along the line search.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .chern import ConformalChernData, conformal_chern, kl_slack
from .errors import MassMismatch, RhsNotPositive, ValidationError
from .grids import (BiTorusGrid, Form11Field, ScalarField, ddbar, wedge_pair,
                    wedge_square)
from .solvers import NewtonOptions, _damped_newton, _krylov

_BORDER_SIGMA = 8.0


@dataclass
class MAProblem:
    """Assembled density equation kappa (base + ddc(phi))^2 = rhs."""

    grid: BiTorusGrid
    r: int
    base: Form11Field
    rhs: ScalarField

    @property
    def kappa(self) -> float:
        return self.r * (self.r + 1) / 2.0


def assemble_ma(data: ConformalChernData, mass_tol: float = 1e-8) -> MAProblem:
    """Validate the Chern data and build the density equation.

    Raises ValidationError when the approximate-solution gate fails,
    RhsNotPositive when eta or the assembled right side is not pointwise
    positive, and MassMismatch when the two sides carry different total mass.
    """
    g = data.grid
    r = data.r
    slack = kl_slack(data)
    if slack > 0.0:
        raise ValidationError(
            f"input metric is not an approximate solution: gate excess {slack:.3e}")
    if float(np.min(data.eta.values)) <= 0.0:
        raise RhsNotPositive("target density eta must be pointwise positive")
    ws0 = wedge_square(data.c1_0)
    rhs = data.eta.values + (2.0 * r * data.c2_0.values - (r - 1) * ws0.values) / (2.0 * r)
    if float(np.min(rhs)) <= 0.0:
        raise RhsNotPositive(f"assembled right side has min {float(np.min(rhs)):.3e}")
    base = (1.0 / r) * data.c1_0
    kappa = r * (r + 1) / 2.0
    lhs_mass = kappa * g.integrate_values(wedge_square(base).values)
    rhs_mass = g.integrate_values(rhs)
    if abs(lhs_mass - rhs_mass) > mass_tol * max(1.0, abs(rhs_mass)):
        raise MassMismatch(f"mass {rhs_mass:.12g} vs form side {lhs_mass:.12g}")
    return MAProblem(g, r, base, ScalarField(g, rhs))


def ma_residual(prob: MAProblem, phi: ScalarField,
                dd: Form11Field | None = None) -> ScalarField:
    """kappa (base + ddc(phi))^2 - rhs; a caller holding dd = ddc(phi) passes it."""
    b = prob.base + (ddbar(phi) if dd is None else dd)
    return ScalarField(prob.grid, prob.kappa * wedge_square(b).values - prob.rhs.values)


def _total_form_positive(b: Form11Field) -> bool:
    b11 = np.real(b.b11)
    det = b11 * np.real(b.b22) - np.abs(b.b12) ** 2
    return float(np.min(b11)) > 0.0 and float(np.min(det)) > 0.0


def _ma_precond(g: BiTorusGrid, kappa: float, b: Form11Field):
    """Constant-coefficient symbol inverse; invisible modes go to the border."""
    s = 1.0 / (2.0 * np.pi)
    s11 = s * g.frame[(1, 1)] * np.real(g.p1 * g.q1)
    s22 = s * g.frame[(2, 2)] * np.real(g.p2 * g.q2)
    s21 = s * g.frame[(2, 1)] * (g.p2 * g.q1)
    m11 = float(np.mean(np.real(b.b11)))
    m22 = float(np.mean(np.real(b.b22)))
    m12 = complex(np.mean(b.b12))
    sym = 2.0 * kappa * (m11 * s22 + m22 * s11 - 2.0 * np.real(m12 * s21))
    sym = np.where(sym == 0.0, _BORDER_SIGMA, sym)

    def precond(x):
        return np.real(np.fft.ifftn(np.fft.fftn(x.reshape(g.shape)) / sym)).ravel()

    return precond


def solve_ma(prob: MAProblem, opts: NewtonOptions | None = None) -> ScalarField:
    """Damped Newton for the density equation, starting from phi = 0.

    The base form must make the start admissible; each trial step keeps the
    total form pointwise positive (PositivityLost otherwise).  The mean and
    the mixed-derivative-invisible modes of phi are gauge and pinned by a
    border term.
    """
    opts = opts or NewtonOptions()
    g = prob.grid
    tol = opts.tol_res if opts.tol_res is not None else 1e-10

    def evaluate(phi):
        b = prob.base + ddbar(ScalarField(g, phi))
        if not _total_form_positive(b):
            return None
        # converge on the component of the residual the operator can reach; the
        # invisible remainder is pure discretization tail and shrinks with the grid
        res = g.project_resolved(prob.kappa * wedge_square(b).values - prob.rhs.values)
        return float(np.max(np.abs(res))), (b, res)

    def solve(phi, data):
        b, res = data

        def matvec(x):
            delta = ScalarField(g, x.reshape(g.shape))
            out = 2.0 * prob.kappa * wedge_pair(b, ddbar(delta)).values
            return out.ravel() + _BORDER_SIGMA * g.invisible_part(x.reshape(g.shape)).ravel()

        step = _krylov(matvec, -res.ravel(), _ma_precond(g, prob.kappa, b),
                       opts.krylov_tol, opts.krylov_maxiter)
        return g.project_resolved(step.reshape(g.shape))

    phi, _, _ = _damped_newton(np.zeros(g.shape), evaluate, solve, opts, tol, "Monge-Ampere")
    return ScalarField(g, phi)


@dataclass
class PositivityCertificate:
    """Pointwise minima of the three curvature quantities after the change."""

    min_c1_eig: float
    min_c2: float
    min_segre2: float
    segre2_vs_eta_sup: float
    c2_closed_form_sup: float
    passed: bool


def certify_positivity(data: ConformalChernData, c1: Form11Field, c2: ScalarField,
                       seg: ScalarField) -> PositivityCertificate:
    """Check the forms (c1, c2, segre2) = conformal_chern(data, phi) at a solve.

    At an exact solution segre2 equals eta pointwise and c2 equals
    ((r-1) eta - (r-1) c1_0^2 + 2r c2_0)/(r+1); the recorded sups measure how
    far the solve is from that.
    """
    r = data.r
    min_c1 = float(np.min(c1.eigmin()))
    min_c2 = float(np.min(c2.values))
    min_seg = float(np.min(seg.values))
    seg_vs_eta = float(np.max(np.abs(seg.values - data.eta.values)))
    ws0 = wedge_square(data.c1_0)
    c2_closed = ((r - 1) * data.eta.values - (r - 1) * ws0.values
                 + 2.0 * r * data.c2_0.values) / (r + 1)
    c2_sup = float(np.max(np.abs(c2.values - c2_closed)))
    return PositivityCertificate(min_c1, min_c2, min_seg, seg_vs_eta, c2_sup,
                                 passed=min_c1 > 0.0 and min_c2 > 0.0 and min_seg > 0.0)


def segre_diagnostics(prob: MAProblem, data: ConformalChernData, phi: ScalarField):
    """(manifest diagnostics, segre2) at phi; segre-solve and its replay share them.

    One ddc(phi) feeds the residual, the positivity certificate and segre2.
    """
    dd = ddbar(phi)
    res = ma_residual(prob, phi, dd).values
    c1, c2, seg = conformal_chern(data, phi, dd)
    diag = {"residual_sup": float(np.max(np.abs(res))),
            "residual_resolved_sup": float(np.max(np.abs(prob.grid.project_resolved(res)))),
            "certificate": asdict(certify_positivity(data, c1, c2, seg))}
    return diag, seg


def synthetic_conformal_data(grid: BiTorusGrid, r: int, epsilon: float = 0.05,
                             seed: int = 0, amp: float = 0.25) -> ConformalChernData:
    """Random admissible Chern data for a rank-r problem.

    c1_0 is a positive constant form plus an exact ddc perturbation; c2_0 sits
    epsilon below the gate boundary with an exact zero-mass divergence term, and
    eta is a positive profile scaled to the compatible mass, so assembly passes
    all three gates by construction.
    """
    rng = np.random.default_rng(seed)
    const = Form11Field.constant(grid, 2.0, 0.25 + 0.15j, 2.4)
    dd = ddbar(ScalarField(grid, grid.random_smooth(rng, kmax=3)))
    # scale the perturbation relative to the least eigenvalue of the constant part
    comp_sup = max(float(np.max(np.abs(c))) for c in (dd.b11, dd.b12, dd.b22))
    c1_0 = const + (amp * float(np.min(const.eigmin())) / comp_sup) * dd
    if float(np.min(c1_0.eigmin())) <= 0.0:
        raise ValidationError("perturbation amplitude broke positivity of c1_0")
    ws0 = wedge_square(c1_0)
    profile = 1.0 + 0.3 * grid.random_smooth(rng, kmax=2)
    div = wedge_pair(c1_0, ddbar(ScalarField(grid, grid.random_smooth(rng, kmax=2)))).values
    sup = float(np.max(np.abs(div)))
    div = (0.8 * epsilon / sup) * div if sup > 0 else div
    c2_0 = ((r - 1) / (2.0 * r)) * ws0.values - epsilon * profile + div
    eta0 = 1.0 + 0.3 * grid.random_smooth(rng, kmax=2)
    target_mass = ((r + 1) / (2.0 * r)) * grid.integrate_values(ws0.values) \
        + epsilon * grid.integrate_values(profile)
    eta = eta0 * (target_mass / grid.integrate_values(eta0))
    return ConformalChernData(r, c1_0, ScalarField(grid, c2_0),
                              ScalarField(grid, eta), epsilon=epsilon)
