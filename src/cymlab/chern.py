"""Chern-Weil densities of the extension bundle and the conformal-change algebra.

On the product of the torus factor with the standard projective line, the
rank-2 extension carries the metric family H = (h1, g2) built from the state;
its second Chern character reduces to a density on the torus factor,

    ch2_density = (1/(2 pi)^2) (-lap(S) + 2 tau lap(psi2)),

normalized so the third residual reads R3 = 8 (w_sigma - e) + alpha * ch2_density.
The independent route expands -Tr(Theta^2)/2 block by block, with the
off-diagonal second fundamental form contributing the direct covariant
gradient density of the section, so agreement of the two routes checks the
whole convention chain and not just algebraic rearrangement.

The conformal-change algebra on a rank-r bundle over the bi-torus follows
c1 -> c1_0 + r ddc(phi), with c2 picking up the mixed wedge terms; the
combination (r-1) c1^2 - 2 r c2 is pointwise invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cym import FOUR_PI2, CymConfig, CymState
from .errors import ValidationError
from .grids import BiTorusGrid, Form11Field, ScalarField, ddbar, wedge_pair, wedge_square
from .theta import SectionData, gradient_density


@dataclass
class VortexChernForms:
    """Reduced Chern densities of the extension metric at one state."""

    ch2_density: ScalarField
    c1_density_sigma: ScalarField   # torus-factor trace component, density against f
    c1_density_p1: ScalarField      # fiber trace component, density against omega_FS


def ch2_form(state: CymState, cfg: CymConfig, sec: SectionData) -> VortexChernForms:
    """Second Chern character density and first Chern trace components."""
    g = state.grid
    S = state.S_values(sec)
    lap_psi2 = g.lap_values(state.psi2.values)
    ch2 = (1.0 / FOUR_PI2) * (-g.lap_values(S) + 2.0 * cfg.tau * lap_psi2)
    c1_sigma = (sec.rho0.values + g.lap_values(state.psi.values) + 2.0 * lap_psi2) / (2.0 * np.pi)
    c1_p1 = np.full(g.shape, 1.0 / np.pi)
    return VortexChernForms(ScalarField(g, ch2), ScalarField(g, c1_sigma), ScalarField(g, c1_p1))


def ch2_form_curvature_route(state: CymState, cfg: CymConfig, sec: SectionData) -> ScalarField:
    """ch2 density from the curvature block trace, independent of the reduced formula.

    -Tr(Theta^2)/2 collapses against the fiber form to
    (1/(2 pi)^2) (S rho_h + 2 tau lap(psi2) - grad), where grad is the direct
    covariant gradient density of the section (theta-built sections only).
    """
    g = state.grid
    S = state.S_values(sec)
    rho_h = sec.rho0.values + g.lap_values(state.psi.values)
    grad = gradient_density(sec, state.psi).values
    dens = (1.0 / FOUR_PI2) * (S * rho_h + 2.0 * cfg.tau * g.lap_values(state.psi2.values) - grad)
    return ScalarField(g, dens)


# -- prescribing ch2 by a conformal fiber factor ------------------------------


def represent_ch2(cfg: CymConfig, sec: SectionData, h1_weight: ScalarField) -> ScalarField:
    """Fiber factor f2 making Omega^2 + alpha ch2(E, H) equal the eta datum.

    Omega is the background form.  With u the zero-mean potential of
    (8 (2 pi)^2/alpha)(1 - e) and S1 = S0 e^{-h1_weight}, the pointwise branch
    equation S1 exp(-w) + 2 tau w = u + Cshift is solved in closed form on the
    increasing branch w > ln(S1/(2 tau)), which stays smooth through the zeros
    of the section; the returned factor is f2 = exp(w).
    """
    if cfg.alpha <= 0.0:
        raise ValidationError("representation needs alpha > 0")
    g = sec.grid
    e = cfg.eta_values(g)
    u = g.invert_values((8.0 * FOUR_PI2 / cfg.alpha) * (1.0 - e), cfg.tol.mean_tol(cfg.vol))
    S1 = sec.S0.values * np.exp(-h1_weight.values)
    two_tau = 2.0 * cfg.tau
    pos = S1 > 0.0
    branch_val = np.full(g.shape, -np.inf)
    branch_val[pos] = two_tau * (1.0 + np.log(S1[pos] / two_tau))
    cshift = float(np.max(branch_val - u)) + 1.0
    t = u + cshift

    # substituting w = t/(2 tau) + v turns the branch equation into
    # v e^v = -(S1/(2 tau)) e^{-t/(2 tau)}; the increasing branch is v > -1,
    # the principal Lambert W branch, and the shift keeps its argument > -1/e;
    # scipy.special is imported here, since loading it with the module adds
    # about 60 ms to every CLI start
    from scipy.special import lambertw
    w = t / two_tau + np.real(lambertw(-(S1 / two_tau) * np.exp(-t / two_tau)))
    return ScalarField(g, np.exp(w))


def represent_ch2_diagnostics(cfg: CymConfig, sec: SectionData, h1_weight: ScalarField,
                              f2: ScalarField) -> dict:
    """Manifest diagnostics of a representation; represent-ch2 and its replay share them.

    defect_sup is the sup-norm of 8 (1 - e) + alpha ch2 for the assembled
    metric, the verification of the representation.
    """
    g = sec.grid
    e = cfg.eta_values(g)
    w = np.log(f2.values)                # f2 = e^{w}, fiber weight psi2 = -w
    S = sec.S0.values * np.exp(-h1_weight.values) / f2.values
    r = 8.0 * (1.0 - e) + (cfg.alpha / FOUR_PI2) * (
        -g.lap_values(S) - 2.0 * cfg.tau * g.lap_values(w))
    return {"defect_sup": float(np.max(np.abs(r))),
            "f2_min": float(np.min(f2.values)), "f2_max": float(np.max(f2.values)),
            "eta_min": float(np.min(e))}


# -- conformal change on a rank-r bundle over the bi-torus --------------------


@dataclass
class ConformalChernData:
    """Initial Chern data of a rank-r metric and the positive target eta.

    c2_0 and eta are top-form densities against the background volume form.
    epsilon is the approximate-solution slack; kl_const is the user constant C
    of the pointwise gate (r-1) c1_0^2 - 2 r c2_0 <= C epsilon.
    """

    r: int
    c1_0: Form11Field
    c2_0: ScalarField
    eta: ScalarField
    epsilon: float = 0.0
    kl_const: float | None = None

    def __post_init__(self):
        if self.r < 2:
            raise ValidationError(f"rank must be >= 2, got {self.r}")
        if self.epsilon < 0:
            raise ValidationError("epsilon must be >= 0")
        if self.kl_const is None:
            self.kl_const = 8.0 * self.r

    @property
    def grid(self) -> BiTorusGrid:
        return self.c1_0.grid


def conformal_chern(data: ConformalChernData, phi: ScalarField,
                    dd: Form11Field | None = None):
    """(c1, c2, segre2) after the conformal change by phi.

    c1 = c1_0 + r ddc(phi);
    c2 = c2_0 + (r-1) ddc(phi)^c1_0 + (r(r-1)/2) ddc(phi)^2;
    segre2 = c1^2 - c2 as a top density.  A caller that already holds
    dd = ddc(phi) passes it, and the transform is skipped.
    """
    r = data.r
    dd = ddbar(phi) if dd is None else dd
    c1 = data.c1_0 + r * dd
    c2 = (data.c2_0 + (r - 1) * wedge_pair(dd, data.c1_0)
          + (r * (r - 1) / 2.0) * wedge_square(dd))
    segre2 = wedge_square(c1) - c2
    return c1, c2, segre2


def segre2_rearranged(data: ConformalChernData, phi: ScalarField) -> ScalarField:
    """Second route to segre2: invariant part plus the perfect square.

    ((r-1) c1_0^2 - 2 r c2_0)/(2r) + (r(r+1)/2) (ddc(phi) + c1_0/r)^2.
    """
    r = data.r
    shifted = ddbar(phi) + (1.0 / r) * data.c1_0
    inv_part = (1.0 / (2.0 * r)) * ((r - 1) * wedge_square(data.c1_0) - 2.0 * r * data.c2_0)
    return inv_part + (r * (r + 1) / 2.0) * wedge_square(shifted)


def invariance_defect(data: ConformalChernData, phi: ScalarField) -> float:
    """Sup-norm change of (r-1) c1^2 - 2 r c2 under the conformal change; zero in theory."""
    r = data.r
    c1, c2, _ = conformal_chern(data, phi)
    after = (r - 1) * wedge_square(c1) - 2.0 * r * c2
    before = (r - 1) * wedge_square(data.c1_0) - 2.0 * r * data.c2_0
    return float(np.max(np.abs(after.values - before.values)))


def kl_slack(data: ConformalChernData) -> float:
    """Max of (r-1) c1_0^2 - 2 r c2_0 minus C epsilon; gate passes when <= 0."""
    lhs = (data.r - 1) * wedge_square(data.c1_0).values - 2.0 * data.r * data.c2_0.values
    return float(np.max(lhs) - data.kl_const * data.epsilon)
