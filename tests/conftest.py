"""Shared fixtures: grids, theta sections, and solved states reused across files."""

import numpy as np
import pytest

from cymlab.cym import CymConfig
from cymlab.grids import BiTorusGrid, Lattice, TorusGrid
from cymlab.solvers import solve_vortex
from cymlab.theta import ThetaBundle, build_section

VOL = 4.0 * np.pi ** 2


def dense_laplacian(g: TorusGrid) -> np.ndarray:
    """Real-space matrix of g.lap_values acting on flattened fields (test oracle)."""
    n2 = g.n * g.n
    basis = np.eye(n2).reshape(n2, g.n, g.n)
    cols = np.real(np.fft.ifft2(g.lap_mult[None, :, :] * np.fft.fft2(basis, axes=(1, 2)),
                                axes=(1, 2)))
    return cols.reshape(n2, n2).T


@pytest.fixture(scope="session")
def square_lat():
    return Lattice(1j)


@pytest.fixture(scope="session")
def skew_lat():
    return Lattice(0.3 + 1.1j)


@pytest.fixture(scope="session")
def grid32(square_lat):
    return TorusGrid(32, square_lat, VOL)


@pytest.fixture(scope="session")
def grid64(square_lat):
    return TorusGrid(64, square_lat, VOL)


@pytest.fixture(scope="session")
def cym0():
    """Baseline configuration: tau=2, d=1, vol=4 pi^2, alpha=0, square lattice."""
    return CymConfig(tau=2.0, alpha=0.0, d=1, vol=VOL, lattice=Lattice(1j), n=64)


@pytest.fixture(scope="session")
def sec64(grid64, square_lat):
    return build_section(ThetaBundle(square_lat, 1), grid64)


@pytest.fixture(scope="session")
def sec32(grid32, square_lat):
    return build_section(ThetaBundle(square_lat, 1), grid32)


@pytest.fixture(scope="session")
def psi64(sec64, cym0):
    return solve_vortex(sec64, cym0)


@pytest.fixture(scope="session")
def bigrid16():
    return BiTorusGrid(16, 16, Lattice(1j), Lattice(0.3 + 0.9j), 2.0)
