import numpy as np
import pytest

from bondboson.lattice import ChainSpec, SquareSpec, chain_momenta, on_grid, square_momenta


def test_three_cell_grid():
    assert np.allclose(chain_momenta(3), [0.0, 2 * np.pi / 3, 4 * np.pi / 3])


def test_single_cell_grid():
    assert np.allclose(chain_momenta(1), [0.0])


def test_four_cell_grid():
    assert np.allclose(chain_momenta(4), [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])


def test_zero_cells_rejected():
    with pytest.raises(ValueError):
        chain_momenta(0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_grid_values_are_exact_roots(n):
    grid = chain_momenta(n)
    assert len(grid) == n
    # each value times n is an integer multiple of 2*pi
    assert np.allclose(np.mod(grid * n / (2 * np.pi) + 0.5, 1.0) - 0.5, 0.0, atol=1e-12)
    assert len(np.unique(np.round(grid, 12))) == n


@pytest.mark.parametrize("n", [2, 3, 6])
def test_grid_closure_under_shift(n):
    grid = chain_momenta(n)
    shifted = np.sort(np.mod(grid + 2 * np.pi / n, 2 * np.pi))
    assert np.allclose(np.sort(grid), shifted, atol=1e-12)


def test_square_momenta_degenerate():
    assert np.allclose(square_momenta(1, 1), [[0.0, 0.0]])


def test_square_momenta_two_by_two():
    grid = square_momenta(2, 2)
    assert grid.shape == (4, 2)
    assert np.allclose(grid, [[0, 0], [0, np.pi], [np.pi, 0], [np.pi, np.pi]])


def test_square_momenta_four_by_two():
    grid = square_momenta(4, 2)
    assert grid.shape == (8, 2)
    assert np.allclose(np.unique(grid[:, 0]), [0, np.pi / 2, np.pi, 3 * np.pi / 2])


def test_square_momenta_have_the_bits_of_the_product_list():
    for lx in range(1, 9):
        for ly in range(1, 9):
            listed = np.array([(x, y) for x in chain_momenta(lx) for y in chain_momenta(ly)],
                              dtype=float).reshape(lx * ly, 2)
            grid = square_momenta(lx, ly)
            assert grid.shape == listed.shape
            assert grid.tobytes() == listed.tobytes(), (lx, ly)


def test_square_momenta_rejects_zero_extent():
    with pytest.raises(ValueError):
        square_momenta(0, 2)


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(5)
    with pytest.raises(ValueError):
        ChainSpec(0)
    with pytest.raises(ValueError):
        ChainSpec(6, t0=0.0)
    assert ChainSpec(6).n_cells == 3


def test_n_modes_of_the_specs():
    assert ChainSpec(6).n_modes == 6
    assert ChainSpec(6, spinful=True).n_modes == 12
    assert SquareSpec(2, 3).n_modes == 12


def test_chain_bond_amplitude_alternates():
    spec = ChainSpec(6, t0=1.0, alpha_u=0.25)
    assert spec.bond_amplitude(0) == pytest.approx(-0.5)
    assert spec.bond_amplitude(1) == pytest.approx(-1.5)
    assert spec.bond_amplitude(6) == spec.bond_amplitude(0)


def test_square_spec_validation():
    with pytest.raises(ValueError):
        SquareSpec(0, 2)
    spec = SquareSpec(2, 3, delta=0.8)
    assert spec.m == pytest.approx(0.4)
    assert spec.n_sites == 6


def test_on_grid_helper():
    assert on_grid(2 * np.pi / 3, 3)
    assert not on_grid(0.1, 3)
