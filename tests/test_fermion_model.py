import numpy as np
import pytest

from bondboson.fermion_model import dirac2d_band_energy, hopping_matrix, ssh_band_energy
from bondboson.lattice import ChainSpec, SquareSpec, chain_momenta, square_momenta
from bondboson.numerics import hermitian_eigenvalues


def test_two_site_chain_combined_wrap():
    # On the 2-site ring both orientations of the single bond share one
    # entry, so their amplitudes add.
    h = hopping_matrix(ChainSpec(2, t0=1.0, alpha_u=0.0))
    assert np.allclose(h, [[0.0, -2.0], [-2.0, 0.0]])


def test_six_site_uniform_spectrum_frozen():
    h = hopping_matrix(ChainSpec(6, t0=1.0, alpha_u=0.0))
    assert np.allclose(hermitian_eigenvalues(h), [-2.0, -1.0, -1.0, 1.0, 1.0, 2.0], atol=1e-12)


@pytest.mark.parametrize("n_sites,alpha_u", [(4, 0.0), (6, 0.3), (8, -0.2), (10, 0.07)])
def test_chain_matrix_is_hermitian(n_sites, alpha_u):
    h = hopping_matrix(ChainSpec(n_sites, t0=1.3, alpha_u=alpha_u))
    assert np.array_equal(h, h.conj().T)


def test_band_energy_special_points():
    at_zero = ssh_band_energy(0.0, 2.0, 0.7)
    assert at_zero == pytest.approx(4.0)
    assert -at_zero == pytest.approx(-4.0)
    at_half = ssh_band_energy(np.pi / 2, 2.0, 0.7)
    assert at_half == pytest.approx(4 * 0.7)


def test_band_energy_frozen_value_and_matrix_membership():
    band = ssh_band_energy(2 * np.pi / 3, 1.0, 0.25)
    assert band == pytest.approx(1.3228756555322954, abs=1e-12)
    spectrum = hermitian_eigenvalues(hopping_matrix(ChainSpec(6, t0=1.0, alpha_u=0.25)))
    assert np.min(np.abs(spectrum - band)) < 1e-9
    assert np.min(np.abs(spectrum + band)) < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_particle_hole_symmetry(seed):
    rng = np.random.default_rng(seed)
    spec = ChainSpec(
        int(rng.choice([4, 6, 8])),
        t0=float(rng.uniform(0.5, 2.0)),
        alpha_u=float(rng.uniform(-0.5, 0.5)),
    )
    s = hermitian_eigenvalues(hopping_matrix(spec))
    assert np.allclose(s, -s[::-1], atol=1e-10)


@pytest.mark.parametrize("n_sites,alpha_u", [(6, 0.0), (6, 0.25), (8, 0.1)])
def test_chain_band_matrix_agreement(n_sites, alpha_u):
    spec = ChainSpec(n_sites, t0=1.0, alpha_u=alpha_u)
    spectrum = hermitian_eigenvalues(hopping_matrix(spec))
    for momentum in chain_momenta(spec.n_cells):
        band = ssh_band_energy(momentum, spec.t0, spec.alpha_u)
        assert np.min(np.abs(spectrum - band)) < 1e-9
        assert np.min(np.abs(spectrum + band)) < 1e-9


def test_gap_closes_at_zero_modulation():
    fine = np.linspace(0, 2 * np.pi, 481)
    energies = [ssh_band_energy(k, 1.0, 0.0) for k in fine]
    assert min(energies) == pytest.approx(min(abs(2 * np.cos(fine))), abs=1e-12)


def test_degenerate_lattice_is_mass_only():
    # On a 1x1 periodic lattice the two hop orientations cancel exactly.
    spec = SquareSpec(1, 1, delta=0.7)
    assert np.allclose(hermitian_eigenvalues(hopping_matrix(spec)), [-0.7, 0.7])


@pytest.mark.parametrize("lx,ly,delta", [(2, 2, 0.5), (3, 2, 1.1), (4, 4, -0.3)])
def test_square_matrix_is_hermitian(lx, ly, delta):
    h = hopping_matrix(SquareSpec(lx, ly, delta=delta))
    assert np.array_equal(h, h.conj().T)


def test_square_spectrum_matches_band_multiset():
    spec = SquareSpec(4, 4, delta=0.6)
    numeric = hermitian_eigenvalues(hopping_matrix(spec))
    analytic = []
    for kx, ky in square_momenta(4, 4):
        e = np.sqrt(spec.delta**2 + 4 * np.sin(kx) ** 2 + 4 * np.sin(ky) ** 2)
        analytic.extend([e, -e])
    assert np.allclose(numeric, np.sort(analytic), atol=1e-9)


def test_square_band_special_points():
    assert dirac2d_band_energy(0.0, 0.0, 0.0) == pytest.approx(0.0)
    assert dirac2d_band_energy(np.pi / 2, 0.0, 0.0) == pytest.approx(2.0)
    band = dirac2d_band_energy(0.0, 0.0, 0.5)
    assert band == pytest.approx(1.0)
    # equals the on-site splitting of the matrix with delta = 2m = 1
    matrix_eigs = hermitian_eigenvalues(hopping_matrix(SquareSpec(1, 1, delta=1.0)))
    assert np.allclose(matrix_eigs, [-band, band])


def test_square_band_matrix_agreement():
    spec = SquareSpec(4, 2, delta=0.9)
    spectrum = hermitian_eigenvalues(hopping_matrix(spec))
    for kx, ky in square_momenta(spec.lx, spec.ly):
        band = dirac2d_band_energy(kx, ky, spec.m)
        assert np.min(np.abs(spectrum - band)) < 1e-9
        assert np.min(np.abs(spectrum + band)) < 1e-9


def test_massless_band_value_appears_in_matrix_spectrum():
    # E(pi/2, 0) = 2 at zero mass, and (pi/2, 0) sits on the 4x4 grid
    band = dirac2d_band_energy(np.pi / 2, 0.0, 0.0)
    assert band == pytest.approx(2.0)
    spectrum = hermitian_eigenvalues(hopping_matrix(SquareSpec(4, 4, delta=0.0)))
    assert np.min(np.abs(spectrum - 2.0)) < 1e-9
