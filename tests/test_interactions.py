import numpy as np
import pytest
from fock_oracle import fock_pair

from bondboson.bilinear import ChainPair
from bondboson.fock import FockSpace, SparseOperator, creation_op
from bondboson.interactions import (
    coulomb_operator,
    coulomb_pair_form,
    creation_pair_direct,
    interaction_equivalence_residual,
    pair_from_bonds,
    random_offdiag_coupling,
)


def test_two_site_offdiagonal_coupling_spectrum():
    space = FockSpace.chain(2)
    v = 0.8
    alpha = np.array([[0.0, v], [v, 0.0]])
    diag = coulomb_operator(space, alpha).to_dense().diagonal().real
    # only the doubly occupied state |11> pays the coupling
    assert np.allclose(diag, [0.0, 0.0, 0.0, v])


def test_zero_coupling_gives_zero_operator():
    space = FockSpace.chain(4)
    assert coulomb_operator(space, np.zeros((4, 4))).nnz == 0
    assert coulomb_pair_form(space, np.zeros((4, 4))).nnz == 0


def test_diagonal_coupling_is_half_total_density():
    # n^2 = n for fermions, so alpha_nn contributes alpha_nn/2 * n
    space = FockSpace.chain(4)
    alpha = np.diag([0.4, 0.6, 0.8, 1.0])
    op = coulomb_operator(space, alpha)
    number_weighted = SparseOperator.zero(space)
    for site, weight in enumerate([0.4, 0.6, 0.8, 1.0]):
        c = creation_op(space, site)
        number_weighted = number_weighted + (0.5 * weight) * (c @ c.adjoint())
    assert (op - number_weighted).norm() < 1e-14


def test_diagonal_coupling_pair_form_vanishes():
    space = FockSpace.chain(4)
    assert coulomb_pair_form(space, np.diag([1.0, 2.0, 3.0, 4.0])).nnz == 0


def test_pair_form_equals_density_form_offdiagonal():
    space = FockSpace.chain(2)
    alpha = np.array([[0.0, 0.8], [0.8, 0.0]])
    assert (coulomb_operator(space, alpha) - coulomb_pair_form(space, alpha)).norm() == 0.0
    space6 = FockSpace.chain(6)
    alpha6 = random_offdiag_coupling(6, seed=9)
    d = (coulomb_operator(space6, alpha6) - coulomb_pair_form(space6, alpha6)).norm()
    assert d <= 1e-12


def test_termwise_density_pair_identity():
    # n_n n_m + (c+_n c+_m)(c_n c_m) = 0 exactly for n != m
    space = FockSpace.chain(4)
    for n in range(4):
        for m in range(4):
            if n == m:
                continue
            single = np.zeros((4, 4))
            single[n, m] = single[m, n] = 1.0
            d = (coulomb_operator(space, single) - coulomb_pair_form(space, single)).norm()
            assert d == 0.0


def test_both_forms_are_hermitian():
    space = FockSpace.chain(6)
    alpha = random_offdiag_coupling(6, seed=2)
    for op in (coulomb_operator(space, alpha), coulomb_pair_form(space, alpha)):
        assert (op - op.adjoint()).norm() < 1e-13


def test_pair_reconstruction_four_sites():
    space = FockSpace.chain(4)
    d = (pair_from_bonds(space, 0, 1) - creation_pair_direct(space, 0, 1)).norm()
    assert d <= 1e-13


def test_pair_reconstruction_every_pair_six_sites():
    space = FockSpace.chain(6)
    for p in range(6):
        for l in range(1, 6):
            d = (pair_from_bonds(space, p, l) - creation_pair_direct(space, p, l)).norm()
            assert d <= 1e-13


def test_pair_reconstruction_degenerate_two_site_ring():
    space = FockSpace.chain(2)
    d = (pair_from_bonds(space, 0, 1) - creation_pair_direct(space, 0, 1)).norm()
    assert d <= 1e-13


def test_inverse_transform_recovers_bond_operator():
    # summing the reconstructions against e^{+ipk} returns e_{+lk}
    space = FockSpace.chain(6)
    l = 2
    for K in (0, 1, 2):
        acc = SparseOperator.zero(space)
        for p in range(6):
            acc = acc + np.exp(2j * np.pi * p * K / 6) * pair_from_bonds(space, p, l)
        assert (acc - fock_pair(space, ChainPair(l, K))).norm() <= 1e-12


def test_equivalence_residual_seeded_random():
    space = FockSpace.chain(6)
    alpha = random_offdiag_coupling(6, seed=5)
    scale = coulomb_pair_form(space, alpha).norm()
    assert interaction_equivalence_residual(space, alpha) <= 1e-12 * max(scale, 1.0)


def test_equivalence_residual_zero_coupling():
    space = FockSpace.chain(6)
    assert interaction_equivalence_residual(space, np.zeros((6, 6))) == 0.0


def test_equivalence_residual_nearest_neighbour():
    space = FockSpace.chain(6)
    alpha = np.zeros((6, 6))
    for n in range(6):
        alpha[n, (n + 1) % 6] = alpha[(n + 1) % 6, n] = 0.7
    scale = coulomb_pair_form(space, alpha).norm()
    assert interaction_equivalence_residual(space, alpha) <= 1e-12 * max(scale, 1.0)


def test_validation_errors():
    space = FockSpace.chain(4)
    with pytest.raises(ValueError):
        coulomb_operator(space, np.zeros((3, 3)))
    bad = np.zeros((4, 4))
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        coulomb_operator(space, bad)
    with pytest.raises(ValueError):
        pair_from_bonds(space, 4, 1)
    with pytest.raises(ValueError):
        pair_from_bonds(space, 0, 0)
    with pytest.raises(ValueError):
        pair_from_bonds(space, 0, 4)
    spinful = FockSpace.chain(4, spinful=True)
    with pytest.raises(ValueError):
        coulomb_operator(spinful, np.zeros((4, 4)))
