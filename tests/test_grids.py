"""Spectral torus calculus: symbols, Poisson solves, projections, form algebra."""

import numpy as np
import pytest

from conftest import dense_laplacian
from cymlab.errors import GridMismatch, NonZeroMean
from cymlab.grids import (BiTorusGrid, Form11Field, Lattice, ScalarField, TorusGrid,
                          ddbar, integrate, invert_laplacian, laplacian, wedge_pair,
                          wedge_square)

VOL = 4.0 * np.pi ** 2


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice(1.0 + 0.0j)
    with pytest.raises(ValueError):
        Lattice(0.5 - 1.0j)
    assert Lattice(0.3 + 1.1j).b == 1.1
    assert Lattice(0.3 + 1.1j).a == 0.3


def test_grid_validation(square_lat):
    with pytest.raises(ValueError):
        TorusGrid(7, square_lat, VOL)
    with pytest.raises(ValueError):
        TorusGrid(6, square_lat, VOL)
    with pytest.raises(ValueError):
        TorusGrid(16, square_lat, -1.0)


@pytest.mark.parametrize("tau_lat", [1j, 0.3 + 1.1j, -0.4 + 0.7j])
def test_poisson_round_trip(tau_lat):
    g = TorusGrid(32, Lattice(tau_lat), VOL)
    rng = np.random.default_rng(11)
    w = ScalarField(g, g.zero_mean_values(g.random_smooth(rng, kmax=9)))
    u = invert_laplacian(w)
    back = laplacian(u)
    assert np.max(np.abs(back.values - w.values)) <= 1e-10 * np.max(np.abs(w.values))
    # and the other composition recovers the zero-mean part
    v = ScalarField(g, g.random_smooth(rng, kmax=9))
    again = invert_laplacian(laplacian(v))
    assert np.max(np.abs(again.values - v.zero_mean().values)) <= 1e-12


def test_poisson_rejects_mass(grid32):
    w = ScalarField.constant(grid32, 1e-6)
    with pytest.raises(NonZeroMean):
        invert_laplacian(w)


def test_integration_by_parts(grid32):
    rng = np.random.default_rng(3)
    u = ScalarField(grid32, grid32.random_smooth(rng, kmax=10))
    v = ScalarField(grid32, grid32.random_smooth(rng, kmax=10))
    a = integrate(u * laplacian(v))
    b = integrate(v * laplacian(u))
    scale = max(abs(a), abs(b), 1e-30)
    assert abs(a - b) / scale <= 1e-10
    # negativity of the Dirichlet form
    assert integrate(u * laplacian(u)) <= 0.0


def test_laplacian_symbol_normalization(square_lat):
    # lowest visible mode of the square lattice at vol = 4 pi^2 has symbol -1/2
    g = TorusGrid(16, square_lat, VOL)
    mags = np.abs(g.lap_mult[g.lap_mult != 0.0])
    assert abs(np.min(mags) - 0.5) <= 1e-14
    u = ScalarField(g, np.cos(2.0 * np.pi * g.x))
    assert np.max(np.abs(laplacian(u).values + 0.5 * u.values)) <= 1e-13


def test_laplacian_zero_mass(grid32):
    rng = np.random.default_rng(4)
    u = ScalarField(grid32, grid32.random_smooth(rng))
    assert abs(integrate(laplacian(u))) <= 1e-12


def test_derivative_symbols_kill_nyquist(grid32):
    n = grid32.n
    nyq = np.abs(np.fft.fftfreq(n, d=1.0 / n)) == n // 2
    for sym in (grid32.dz_mult, grid32.dzbar_mult, grid32.lap_mult):
        assert np.all(sym[nyq, :] == 0.0)
        assert np.all(sym[:, nyq] == 0.0)


def test_resolved_projection(grid32):
    rng = np.random.default_rng(5)
    a = rng.standard_normal(grid32.shape)
    p = grid32.project_resolved(a)
    # idempotent, kills the mean, and is invisible to the Laplacian
    assert np.max(np.abs(grid32.project_resolved(p) - p)) <= 1e-14
    assert abs(np.mean(p)) <= 1e-15
    assert np.max(np.abs(grid32.lap_values(p) - grid32.lap_values(a))) <= 1e-11
    # nyquist_part + mean + resolved reassembles the field
    back = p + grid32.nyquist_part(a) + np.mean(a)
    assert np.max(np.abs(back - a)) <= 1e-12


def test_dense_laplacian_matches_fft(square_lat):
    g = TorusGrid(8, square_lat, VOL)
    rng = np.random.default_rng(7)
    a = rng.standard_normal(g.shape)
    dense = (dense_laplacian(g) @ a.ravel()).reshape(g.shape)
    assert np.max(np.abs(dense - g.lap_values(a))) <= 1e-11


def test_spectral_convergence(square_lat):
    # Poisson error against a fine-grid reference decays faster than any power
    src = lambda x, y: np.exp(np.cos(2 * np.pi * x)) * np.cos(2 * np.pi * y)
    ref = TorusGrid(128, square_lat, VOL)
    wr = src(ref.x, ref.y)
    wr -= np.mean(wr)
    ur = ref.invert_values(wr)
    errs = []
    for n in (16, 32, 64):
        g = TorusGrid(n, square_lat, VOL)
        w = src(g.x, g.y)
        w -= np.mean(w)
        u = g.invert_values(w)
        step = 128 // n
        errs.append(np.max(np.abs(u - ur[::step, ::step])))
    assert errs[1] <= 1e-4 * errs[0]
    assert errs[2] <= errs[1]


def test_scalar_field_algebra(grid32):
    u = ScalarField.constant(grid32, 2.0)
    v = ScalarField.constant(grid32, 3.0)
    assert np.all((u + v).values == 5.0)
    assert np.all((u - 1.0).values == 1.0)
    assert np.all((2.0 * v).values == 6.0)
    assert np.all((-u).values == -2.0)
    assert u.mean() == 2.0
    assert integrate(u) == pytest.approx(2.0 * VOL)
    with pytest.raises(GridMismatch):
        ScalarField(grid32, np.zeros((4, 4)))
    g2 = TorusGrid(16, grid32.lattice, VOL)
    with pytest.raises(GridMismatch):
        u + ScalarField.constant(g2, 1.0)


# -- bi-torus -----------------------------------------------------------------


def test_bitorus_frame_normalization(bigrid16):
    g = bigrid16
    assert g.v1 == g.v2 == pytest.approx(np.sqrt(g.vol))
    # constant potential-free form: wedge density of the identity matrix is 2
    one = Form11Field.constant(g, 1.0, 0.0, 1.0)
    assert np.max(np.abs(wedge_square(one).values - 2.0)) == 0.0
    m = Form11Field.constant(g, 2.0, 0.25 + 0.15j, 2.4)
    want = 2.0 * (2.0 * 2.4 - abs(0.25 + 0.15j) ** 2)
    assert np.max(np.abs(wedge_square(m).values - want)) <= 1e-14
    assert np.max(np.abs(m.eigmin() - (2.2 - np.sqrt(0.04 + abs(0.25 + 0.15j) ** 2)))) <= 1e-14


def test_ddbar_hermitian_and_real(bigrid16):
    rng = np.random.default_rng(8)
    phi = ScalarField(bigrid16, bigrid16.random_smooth(rng, kmax=3))
    dd = ddbar(phi)
    dd.validate_hermitian()
    assert np.max(np.abs(np.imag(dd.b11))) == 0.0
    assert np.max(np.abs(dd.b21 - np.conj(dd.b12))) <= 1e-15 * max(1.0, np.max(np.abs(dd.b12)))


def test_ddbar_needs_product_grid(grid32):
    u = ScalarField.constant(grid32, 1.0)
    with pytest.raises(GridMismatch):
        ddbar(u)


def test_wedge_mass_conservation(bigrid16):
    # exact forms contribute nothing to any wedge mass: the discrete pairing
    # aliases nothing into the zero mode
    g = bigrid16
    rng = np.random.default_rng(9)
    phi = ScalarField(g, g.random_smooth(rng, kmax=3))
    chi = ScalarField(g, g.random_smooth(rng, kmax=4))
    base = Form11Field.constant(g, 2.0, 0.25 + 0.15j, 2.4)
    dd, dd2 = ddbar(phi), ddbar(chi)
    assert abs(g.integrate_values(wedge_square(dd).values)) <= 1e-12
    assert abs(g.integrate_values(wedge_pair(dd, dd2).values)) <= 1e-12
    assert abs(g.integrate_values(wedge_pair(base, dd).values)) <= 1e-12
    total = g.integrate_values(wedge_square(base + dd).values)
    assert abs(total - g.integrate_values(wedge_square(base).values)) <= 1e-10


def test_wedge_polarization(bigrid16):
    g = bigrid16
    rng = np.random.default_rng(10)
    beta = ddbar(ScalarField(g, g.random_smooth(rng, kmax=3)))
    base = Form11Field.constant(g, 1.5, 0.1 - 0.2j, 1.2)
    lhs = wedge_square(base + beta).values
    rhs = (wedge_square(base).values + wedge_square(beta).values
           + 2.0 * wedge_pair(base, beta).values)
    assert np.max(np.abs(lhs - rhs)) <= 1e-11
    assert np.max(np.abs(wedge_pair(beta, beta).values - wedge_square(beta).values)) <= 1e-12


def test_invisible_projection(bigrid16):
    g = bigrid16
    rng = np.random.default_rng(12)
    a = rng.standard_normal(g.shape)
    p = g.project_resolved(a)
    assert np.max(np.abs(g.project_resolved(p) - p)) <= 1e-13
    assert np.max(np.abs(p + g.invisible_part(a) - a)) <= 1e-12
    # invisible content carries the whole mean
    assert abs(g.mean_values(g.invisible_part(a)) - g.mean_values(a)) <= 1e-14
    # ddbar cannot see the invisible component
    phi = ScalarField(g, a)
    phir = ScalarField(g, p)
    d1, d2 = ddbar(phi), ddbar(phir)
    for c in ("b11", "b12", "b22"):
        assert np.max(np.abs(getattr(d1, c) - getattr(d2, c))) <= 1e-10
