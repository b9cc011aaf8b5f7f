"""Periodic spectral calculus on flat complex tori and products of two of them.

A torus factor is C/(Z + tau_lat Z) with Im(tau_lat) > 0, parametrized by
lattice coordinates (x, y) in [0,1)^2 through z = x + tau_lat * y.  Fields are
sampled on the uniform n x n grid and differentiated by FFT.  For the Fourier
mode exp(2 pi i (k x + l y)) the symbols are

    d/dz      ->  (pi/b) (l - conj(tau) k)
    d/dzbar   ->  (pi/b) (tau k - l)

with b = Im(tau).  The background area form is f = vol * dx^dy and the
f-Laplacian is defined by sqrt(-1) ddbar(u) = (lap u) * f, i.e. the symbol

    lap       ->  -(2 pi^2 / (b vol)) |l - tau k|^2.

Quadrature is the periodic trapezoid rule, which is exact for resolved
trigonometric polynomials; integrate(lap u) vanishes identically because the
zero mode of every derivative symbol is zero.  Nyquist modes are annihilated
by all derivative operators, so inputs are expected to be resolved on the
grid (spectrum strictly inside the Nyquist square).

On the product of two tori the hermitian components of a real (1,1)-form are
stored in the normalized frame eps_a = sqrt(v_a/(2 b_a)) dz_a, where
sqrt(-1) eps_a ^ conj(eps_a) equals the factor background area form
f_a = v_a dx_a^dy_a and v_1 v_2 = vol.  In that frame the top pairing is

    beta ^ beta = 2 (b11 b22 - b12 b21) f_1 ^ f_2,

which is what wedge_square returns as a density.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridMismatch, LatticeMismatch, NonZeroMean


@dataclass(frozen=True)
class Lattice:
    """Period lattice Z + tau_lat Z of one torus factor."""

    tau_lat: complex

    def __post_init__(self):
        if not np.isfinite(self.tau_lat) or self.tau_lat.imag <= 0.0:
            raise ValueError(f"lattice parameter needs Im(tau_lat) > 0, got {self.tau_lat}")

    @property
    def b(self) -> float:
        return float(self.tau_lat.imag)

    @property
    def a(self) -> float:
        return float(self.tau_lat.real)


def _axis_freqs(n: int) -> np.ndarray:
    # integer frequencies in FFT order, Nyquist included as -n/2
    return np.fft.fftfreq(n, d=1.0 / n)


def _factor_symbols(n: int, lat: Lattice):
    """dz, dzbar symbol arrays (n, n) for one factor, Nyquist rows/cols zeroed."""
    k = _axis_freqs(n)[:, None]
    l = _axis_freqs(n)[None, :]
    tau = lat.tau_lat
    dz = (np.pi / lat.b) * (l - np.conj(tau) * k)
    dzbar = (np.pi / lat.b) * (tau * k - l)
    nyq = np.abs(k.ravel()) == n // 2
    dz[nyq, :] = 0.0
    dz[:, nyq] = 0.0
    dzbar[nyq, :] = 0.0
    dzbar[:, nyq] = 0.0
    return dz, dzbar


class TorusGrid:
    """Uniform n x n sampling of one flat torus with cached FFT symbols."""

    def __init__(self, n: int, lattice: Lattice, vol: float):
        if n < 8 or n % 2 != 0:
            raise ValueError(f"grid needs even n >= 8, got n={n}")
        if vol <= 0.0:
            raise ValueError(f"vol must be positive, got {vol}")
        self.n = int(n)
        self.lattice = lattice
        self.vol = float(vol)
        self.shape = (self.n, self.n)
        x = np.arange(self.n) / self.n
        self.x = np.broadcast_to(x[:, None], self.shape)
        self.y = np.broadcast_to(x[None, :], self.shape)
        self.z = self.x + lattice.tau_lat * self.y
        self.dz_mult, self.dzbar_mult = _factor_symbols(self.n, lattice)
        b = lattice.b
        # composed so that lap == (2b/vol) * dz o dzbar exactly, Nyquist and all
        self.lap_mult = (2.0 * b / self.vol) * np.real(self.dz_mult * self.dzbar_mult)
        inv = np.zeros_like(self.lap_mult)
        nz = self.lap_mult != 0.0
        inv[nz] = 1.0 / self.lap_mult[nz]
        self.inv_lap_mult = inv

    # -- raw ndarray operations ------------------------------------------------

    def lap_values(self, a: np.ndarray) -> np.ndarray:
        return np.real(np.fft.ifft2(self.lap_mult * np.fft.fft2(a)))

    def invert_values(self, w: np.ndarray, tol_mean: float | None = None) -> np.ndarray:
        if tol_mean is None:
            tol_mean = 1e-10 * self.vol
        mass = self.integrate_values(w)
        if abs(mass) > tol_mean:
            raise NonZeroMean(f"Poisson source carries mass {mass:.3e} > {tol_mean:.3e}")
        wh = np.fft.fft2(w)
        wh[0, 0] = 0.0
        return np.real(np.fft.ifft2(self.inv_lap_mult * wh))

    def dz_values(self, a: np.ndarray) -> np.ndarray:
        return np.fft.ifft2(self.dz_mult * np.fft.fft2(a))

    def integrate_values(self, a: np.ndarray) -> float:
        return float(self.vol * np.mean(a))

    def mean_values(self, a: np.ndarray) -> float:
        return float(np.mean(a))

    def zero_mean_values(self, a: np.ndarray) -> np.ndarray:
        return a - np.mean(a)

    def random_smooth(self, rng: np.random.Generator, kmax: int | None = None,
                      amp: float = 1.0) -> np.ndarray:
        """Band-limited real random field, sup-normalized to amp."""
        if kmax is None:
            kmax = max(2, self.n // 8)
        noise = rng.standard_normal(self.shape)
        nh = np.fft.fft2(noise)
        k = np.abs(_axis_freqs(self.n))
        mask = (k[:, None] <= kmax) & (k[None, :] <= kmax)
        nh *= mask
        nh[0, 0] = 0.0
        out = np.real(np.fft.ifft2(nh))
        m = np.max(np.abs(out))
        return out * (amp / m) if m > 0 else out

    @cached_property
    def _nyquist_mask(self) -> np.ndarray:
        m = self.lap_mult == 0.0
        m[0, 0] = False
        return m

    def project_resolved(self, a: np.ndarray) -> np.ndarray:
        """Strip the mean and all Nyquist-line content.

        The derivative symbols annihilate exactly these modes, so fields that
        enter the equations only through derivatives are defined modulo them;
        this is the canonical gauge representative.
        """
        f = np.fft.fft2(a)
        f[..., self.lap_mult == 0.0] = 0.0
        return np.real(np.fft.ifft2(f))

    def nyquist_part(self, a: np.ndarray) -> np.ndarray:
        """Content of a on the Nyquist lines (mean excluded)."""
        return np.real(np.fft.ifft2(np.fft.fft2(a) * self._nyquist_mask))

    def __eq__(self, other):
        return (isinstance(other, TorusGrid) and self.n == other.n
                and self.lattice == other.lattice and self.vol == other.vol)

    def __hash__(self):
        return hash((self.n, self.lattice.tau_lat, self.vol))


class BiTorusGrid:
    """Product of two torus factors sampled on an (n1, n1, n2, n2) grid.

    Axes are (x1, y1, x2, y2).  Only the total volume is prescribed; the
    normalized frame splits it evenly, v1 = v2 = sqrt(vol).
    """

    def __init__(self, n1: int, n2: int, lat1: Lattice, lat2: Lattice, vol: float):
        if min(n1, n2) < 8 or n1 % 2 or n2 % 2:
            raise ValueError(f"grid needs even n1, n2 >= 8, got {(n1, n2)}")
        if vol <= 0.0:
            raise ValueError(f"vol must be positive, got {vol}")
        self.n1, self.n2 = int(n1), int(n2)
        self.lat1, self.lat2 = lat1, lat2
        self.vol = float(vol)
        self.v1 = self.v2 = float(np.sqrt(vol))
        self.shape = (self.n1, self.n1, self.n2, self.n2)
        dz1, dzb1 = _factor_symbols(self.n1, lat1)
        dz2, dzb2 = _factor_symbols(self.n2, lat2)
        self.p1 = dz1[:, :, None, None]
        self.q1 = dzb1[:, :, None, None]
        self.p2 = dz2[None, None, :, :]
        self.q2 = dzb2[None, None, :, :]
        # frame factors turning d/dz_a d/dzbar_b phi into normalized components
        c1 = np.sqrt(2.0 * lat1.b / self.v1)
        c2 = np.sqrt(2.0 * lat2.b / self.v2)
        self.frame = {(1, 1): c1 * c1, (1, 2): c1 * c2, (2, 1): c2 * c1, (2, 2): c2 * c2}

    def integrate_values(self, a: np.ndarray) -> float:
        return float(self.vol * np.mean(a))

    def mean_values(self, a: np.ndarray) -> float:
        return float(np.mean(a))

    def zero_mean_values(self, a: np.ndarray) -> np.ndarray:
        return a - np.mean(a)

    def random_smooth(self, rng: np.random.Generator, kmax: int | None = None,
                      amp: float = 1.0) -> np.ndarray:
        if kmax is None:
            kmax = max(2, min(self.n1, self.n2) // 8)
        noise = rng.standard_normal(self.shape)
        nh = np.fft.fftn(noise)
        masks = []
        for n in (self.n1, self.n1, self.n2, self.n2):
            masks.append(np.abs(_axis_freqs(n)) <= kmax)
        mask = (masks[0][:, None, None, None] & masks[1][None, :, None, None]
                & masks[2][None, None, :, None] & masks[3][None, None, None, :])
        nh *= mask
        nh[0, 0, 0, 0] = 0.0
        out = np.real(np.fft.ifftn(nh))
        m = np.max(np.abs(out))
        return out * (amp / m) if m > 0 else out

    @cached_property
    def _invisible_mask(self) -> np.ndarray:
        # modes annihilated by every mixed second derivative: both factor
        # symbols vanish (factor mean or factor Nyquist lines)
        return np.logical_and(self.p1 == 0.0, self.p2 == 0.0)

    def project_resolved(self, a: np.ndarray) -> np.ndarray:
        """Strip all content invisible to the hermitian second derivatives."""
        f = np.fft.fftn(a)
        f[self._invisible_mask] = 0.0
        return np.real(np.fft.ifftn(f))

    def invisible_part(self, a: np.ndarray) -> np.ndarray:
        """Complement of project_resolved, the mean included."""
        return np.real(np.fft.ifftn(np.fft.fftn(a) * self._invisible_mask))

    def __eq__(self, other):
        return (isinstance(other, BiTorusGrid) and (self.n1, self.n2) == (other.n1, other.n2)
                and self.lat1 == other.lat1 and self.lat2 == other.lat2
                and self.vol == other.vol)

    def __hash__(self):
        return hash((self.n1, self.n2, self.lat1.tau_lat, self.lat2.tau_lat, self.vol))


def _check_same_grid(a, b):
    if a.grid != b.grid:
        if getattr(a.grid, "lattice", None) is not None and getattr(b.grid, "lattice", None) is not None \
                and a.grid.lattice != b.grid.lattice:
            raise LatticeMismatch("fields live over different lattices")
        raise GridMismatch("fields live on different grids")


@dataclass
class ScalarField:
    """Real sampled function on a TorusGrid or BiTorusGrid."""

    grid: object
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise GridMismatch(f"values shape {self.values.shape} != grid shape {self.grid.shape}")

    @classmethod
    def constant(cls, grid, c: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(c)))

    def mean(self) -> float:
        return self.grid.mean_values(self.values)

    def zero_mean(self) -> "ScalarField":
        return ScalarField(self.grid, self.grid.zero_mean_values(self.values))

    def __add__(self, other):
        if isinstance(other, ScalarField):
            _check_same_grid(self, other)
            return ScalarField(self.grid, self.values + other.values)
        return ScalarField(self.grid, self.values + other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, ScalarField):
            _check_same_grid(self, other)
            return ScalarField(self.grid, self.values - other.values)
        return ScalarField(self.grid, self.values - other)

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            _check_same_grid(self, other)
            return ScalarField(self.grid, self.values * other.values)
        return ScalarField(self.grid, self.values * other)

    __rmul__ = __mul__

    def __neg__(self):
        return ScalarField(self.grid, -self.values)


def laplacian(u: ScalarField) -> ScalarField:
    """f-Laplacian, sqrt(-1) ddbar(u) = laplacian(u) * f.  Torus fields only."""
    return ScalarField(u.grid, u.grid.lap_values(u.values))


def invert_laplacian(w: ScalarField, tol_mean: float | None = None) -> ScalarField:
    """Zero-mean u with laplacian(u) = w; raises NonZeroMean if w carries mass."""
    return ScalarField(w.grid, w.grid.invert_values(w.values, tol_mean))


def integrate(u: ScalarField) -> float:
    """Integral against the background volume form (periodic trapezoid)."""
    return u.grid.integrate_values(u.values)


@dataclass
class Form11Field:
    """Real (1,1)-form on a BiTorusGrid, components in the normalized frame.

    b11, b22 are real; b21 = conj(b12) so the pointwise 2x2 matrix is hermitian.
    """

    grid: BiTorusGrid
    b11: np.ndarray
    b12: np.ndarray
    b21: np.ndarray
    b22: np.ndarray

    def __post_init__(self):
        for name in ("b11", "b12", "b21", "b22"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != self.grid.shape:
                raise GridMismatch(f"component {name} shape {arr.shape} != {self.grid.shape}")
            setattr(self, name, arr)

    def validate_hermitian(self, tol: float = 1e-12) -> None:
        scale = max(1.0, float(np.max(np.abs(self.b12))))
        if np.max(np.abs(self.b21 - np.conj(self.b12))) > tol * scale:
            raise ValueError("b21 != conj(b12): component matrix is not hermitian")
        if np.max(np.abs(np.imag(self.b11))) > tol or np.max(np.abs(np.imag(self.b22))) > tol:
            raise ValueError("diagonal components must be real")

    @classmethod
    def constant(cls, grid: BiTorusGrid, m11: float, m12: complex, m22: float) -> "Form11Field":
        full = np.full
        return cls(grid,
                   full(grid.shape, float(m11)),
                   full(grid.shape, complex(m12)),
                   full(grid.shape, np.conj(complex(m12))),
                   full(grid.shape, float(m22)))

    def __add__(self, other: "Form11Field") -> "Form11Field":
        _check_same_grid(self, other)
        return Form11Field(self.grid, self.b11 + other.b11, self.b12 + other.b12,
                           self.b21 + other.b21, self.b22 + other.b22)

    def __mul__(self, c: float) -> "Form11Field":
        return Form11Field(self.grid, c * self.b11, c * self.b12, c * self.b21, c * self.b22)

    __rmul__ = __mul__

    def eigmin(self) -> np.ndarray:
        """Pointwise smaller eigenvalue of the hermitian component matrix."""
        tr2 = 0.5 * (np.real(self.b11) + np.real(self.b22))
        gap = np.sqrt(0.25 * (np.real(self.b11) - np.real(self.b22)) ** 2
                      + np.abs(self.b12) ** 2)
        return tr2 - gap


def ddbar(phi: ScalarField) -> Form11Field:
    """Components of (sqrt(-1)/(2 pi)) ddbar(phi) in the normalized frame (ddc convention)."""
    g = phi.grid
    if not isinstance(g, BiTorusGrid):
        raise GridMismatch("ddbar with hermitian components needs a BiTorusGrid field")
    ph = np.fft.fftn(phi.values)
    inv = np.fft.ifftn
    s = 1.0 / (2.0 * np.pi)
    b11 = s * g.frame[(1, 1)] * np.real(inv(g.p1 * g.q1 * ph))
    b22 = s * g.frame[(2, 2)] * np.real(inv(g.p2 * g.q2 * ph))
    b12 = s * g.frame[(1, 2)] * inv(g.p1 * g.q2 * ph)
    b21 = s * g.frame[(2, 1)] * inv(g.p2 * g.q1 * ph)
    return Form11Field(g, b11, b12, b21, b22)


def wedge_pair(beta: Form11Field, gamma: Form11Field) -> ScalarField:
    """Density of beta^gamma against f1^f2; polarization of wedge_square."""
    _check_same_grid(beta, gamma)
    d = (np.real(beta.b11) * np.real(gamma.b22) + np.real(gamma.b11) * np.real(beta.b22)
         - np.real(beta.b12 * gamma.b21) - np.real(gamma.b12 * beta.b21))
    return ScalarField(beta.grid, d)


def wedge_square(beta: Form11Field) -> ScalarField:
    """Density of beta^beta: 2 (b11 b22 - b12 b21) in the normalized frame."""
    d = 2.0 * (np.real(beta.b11) * np.real(beta.b22) - np.real(beta.b12 * beta.b21))
    return ScalarField(beta.grid, d)
