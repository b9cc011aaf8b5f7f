"""Reduced coupled system for an invariant connection-metric pair on one torus factor.

State is three real fields (psi, psi2, phiK): the bundle metric is
h = h0 e^{-psi}, the auxiliary factor metric is f2 = e^{-psi2}, and the base
Kahler form is f + sqrt(-1) ddbar(phiK) with density w_sigma = 1 + lap(phiK).
With S = S0 e^{-psi}, lam = tau/8 + d pi/(2 vol), eta-density e, and coupling
alpha, the residual densities against the background form are

    R1 = rho0 + lap(psi) + lap(psi2) + (S/4 - 2 lam) w_sigma
    R2 = lap(psi2) + (tau/2 - S/4 - 2 lam) w_sigma
    R3 = 8 (w_sigma - e) + (alpha/(2 pi)^2) (-lap(S) + 2 tau lap(psi2))

Integrating R2 = 0 forces the scalar constraint
integrate(S * w_sigma) = vol (2 tau - 8 lam) = tau vol - 4 pi d, and the mean
parts of R1 and R2 are +-(that gap)/4, so integrate(R1 + R2) = 0 identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError
from .grids import Lattice, ScalarField, TorusGrid, integrate, invert_laplacian, laplacian
from .theta import SectionData

FOUR_PI2 = (2.0 * np.pi) ** 2


def lambda_of(tau: float, d: int, vol: float) -> float:
    """Topological constant lam = tau/8 + d pi / (2 vol)."""
    return tau / 8.0 + d * np.pi / (2.0 * vol)


@dataclass
class Tolerances:
    newton: float = 1e-10   # sup-norm residual target
    ineq: float = 1e-8      # slack for pointwise inequalities
    mean: float | None = None  # Poisson mass tolerance; default 1e-10 * vol

    def mean_tol(self, vol: float) -> float:
        return 1e-10 * vol if self.mean is None else self.mean


@dataclass
class CymConfig:
    """Scalar data of one run: geometry, degree, coupling, eta, tolerances."""

    tau: float
    alpha: float
    d: int
    vol: float
    lattice: Lattice = field(default_factory=lambda: Lattice(1j))
    n: int = 32
    f_eta: ScalarField | None = None
    tol: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        if self.tau <= 0 or self.vol <= 0:
            raise ValidationError(f"need tau, vol > 0, got tau={self.tau} vol={self.vol}")
        if self.alpha < 0:
            raise ValidationError(f"coupling alpha must be >= 0, got {self.alpha}")
        if self.d < 1:
            raise ValidationError(f"degree must be >= 1, got {self.d}")
        if self.f_eta is not None:
            e = self.f_eta.values
            if np.min(e) <= 0:
                raise ValidationError("eta density must be pointwise positive")
            mass = integrate(self.f_eta)
            if abs(mass - self.vol) > 1e-8 * self.vol:
                raise ValidationError(f"eta mass {mass} != vol {self.vol}")
            # renormalize exactly so Poisson solves see a clean zero mean
            self.f_eta = self.f_eta * (self.vol / mass)

    @property
    def lam(self) -> float:
        return lambda_of(self.tau, self.d, self.vol)

    @property
    def feasible(self) -> bool:
        return 0.0 < 4.0 * np.pi * self.d < self.tau * self.vol

    def make_grid(self) -> TorusGrid:
        return TorusGrid(self.n, self.lattice, self.vol)

    def eta_values(self, grid: TorusGrid) -> np.ndarray:
        if self.f_eta is None:
            return np.ones(grid.shape)
        if self.f_eta.grid != grid:
            raise ValidationError("eta density lives on a different grid")
        return self.f_eta.values

    def with_alpha(self, alpha: float) -> "CymConfig":
        return replace(self, alpha=alpha)


@dataclass
class CymState:
    """Fields (psi, psi2, phiK); psi2 and phiK are gauge-fixed to zero mean."""

    psi: ScalarField
    psi2: ScalarField
    phiK: ScalarField

    def __post_init__(self):
        # psi2 and phiK enter the equations only through derivatives; normalize
        # to the canonical gauge (no mean, no Nyquist-line content).
        g = self.psi.grid
        self.psi2 = ScalarField(g, g.project_resolved(self.psi2.values))
        self.phiK = ScalarField(g, g.project_resolved(self.phiK.values))

    @property
    def grid(self) -> TorusGrid:
        return self.psi.grid

    def S_values(self, sec: SectionData) -> np.ndarray:
        return sec.S0.values * np.exp(-self.psi.values)

    def w_sigma_values(self) -> np.ndarray:
        return 1.0 + self.grid.lap_values(self.phiK.values)


def residuals(state: CymState, cfg: CymConfig, sec: SectionData):
    """Residual densities (R1, R2, R3) of the three coupled equations."""
    g = state.grid
    lam = cfg.lam
    S = state.S_values(sec)
    w = state.w_sigma_values()
    e = cfg.eta_values(g)
    lap_psi = g.lap_values(state.psi.values)
    lap_psi2 = g.lap_values(state.psi2.values)
    lap_S = g.lap_values(S)
    r1 = sec.rho0.values + lap_psi + lap_psi2 + (S / 4.0 - 2.0 * lam) * w
    r2 = lap_psi2 + (cfg.tau / 2.0 - S / 4.0 - 2.0 * lam) * w
    r3 = 8.0 * (w - e) + (cfg.alpha / FOUR_PI2) * (-lap_S + 2.0 * cfg.tau * lap_psi2)
    return (ScalarField(g, r1), ScalarField(g, r2), ScalarField(g, r3))


def eliminate_phiK(psi: ScalarField, psi2: ScalarField, cfg: CymConfig,
                   sec: SectionData) -> ScalarField:
    """Zero-mean phiK solving R3 = 0 exactly for the given (psi, psi2).

    lap(phiK) = (e - 1) + (alpha/(8 (2 pi)^2)) lap(S - 2 tau psi2), so phiK is
    the algebraic part plus a Poisson solve of the eta mismatch.
    """
    g = psi.grid
    S = sec.S0.values * np.exp(-psi.values)
    out = (cfg.alpha / (8.0 * FOUR_PI2)) * (S - 2.0 * cfg.tau * psi2.values)
    e = cfg.eta_values(g)
    if np.max(np.abs(e - 1.0)) > 0.0:
        out = out + g.invert_values(e - 1.0, cfg.tol.mean_tol(cfg.vol))
    return ScalarField(g, g.zero_mean_values(out))


def constraint_integral(state: CymState, cfg: CymConfig, sec: SectionData):
    """Pair (integrate(S * w_sigma), vol (2 tau - 8 lam)); equal on solutions."""
    lhs = state.grid.integrate_values(state.S_values(sec) * state.w_sigma_values())
    rhs = cfg.vol * (2.0 * cfg.tau - 8.0 * cfg.lam)
    return lhs, rhs


def satisfaction_value(cfg: CymConfig) -> float:
    """Gate scalar 8 + (2 alpha tau/(2 pi)^2)(2 lam - tau/2); must stay positive."""
    return 8.0 + (2.0 * cfg.alpha * cfg.tau / FOUR_PI2) * (2.0 * cfg.lam - cfg.tau / 2.0)


def alpha_threshold(cfg: CymConfig) -> float:
    """Coupling where the satisfaction gate closes; inf if it never does."""
    slope = 2.0 * cfg.tau * (cfg.tau / 2.0 - 2.0 * cfg.lam)
    if slope <= 0.0:
        return np.inf
    return 8.0 * FOUR_PI2 / slope


def ellipticity_determinant(state: CymState, cfg: CymConfig, sec: SectionData) -> ScalarField:
    """Pointwise determinant gate of the linearized principal symbol.

    8 + (2 alpha tau/(2 pi)^2)(S/4 + 2 lam - tau/2) + (alpha/(2 (2 pi)^2)) S (tau - S).
    """
    S = state.S_values(sec)
    det = (8.0
           + (2.0 * cfg.alpha * cfg.tau / FOUR_PI2) * (S / 4.0 + 2.0 * cfg.lam - cfg.tau / 2.0)
           + (cfg.alpha / (2.0 * FOUR_PI2)) * S * (cfg.tau - S))
    return ScalarField(state.grid, det)


def omega_recovery_defect(state: CymState, cfg: CymConfig, sec: SectionData) -> ScalarField:
    """Residual of the eliminated-form identity recovering the base Kahler form.

    w_sigma [4 + (tau alpha/(2 pi)^2)(2 lam - tau/2 + S/4)] - 4 e
    - (alpha/(2 (2 pi)^2)) lap(S); vanishes on solutions of the full system.
    """
    g = state.grid
    S = state.S_values(sec)
    w = state.w_sigma_values()
    e = cfg.eta_values(g)
    bracket = 4.0 + (cfg.tau * cfg.alpha / FOUR_PI2) * (2.0 * cfg.lam - cfg.tau / 2.0 + S / 4.0)
    defect = w * bracket - 4.0 * e - (cfg.alpha / (2.0 * FOUR_PI2)) * g.lap_values(S)
    return ScalarField(g, defect)
