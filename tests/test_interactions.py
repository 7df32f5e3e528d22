import numpy as np
import pytest
from fock_oracle import (
    fock_pair,
    sequential_bond_assembly,
    sequential_pair_form,
    sequential_pair_products,
)

from bondboson import interactions
from bondboson.bilinear import ChainPair
from bondboson.fock import PRODUCT_CHUNK, FockSpace, SparseOperator, creation_op, pair_products
from bondboson.interactions import (
    bond_assembled_pair_form,
    coulomb_operator,
    coulomb_pair_form,
    creation_pair_direct,
    interaction_equivalence_residual,
    pair_from_bonds,
    random_offdiag_coupling,
)

EPS = np.finfo(float).eps


def same_bits(x: SparseOperator, y: SparseOperator) -> bool:
    """The same stored entries, with the same bits."""
    x, y = x.matrix.copy(), y.matrix.copy()
    x.sort_indices()
    y.sort_indices()
    return (np.array_equal(x.indptr, y.indptr) and np.array_equal(x.indices, y.indices)
            and x.data.tobytes() == y.data.tobytes())


def unpruned_distance(x: SparseOperator, y: SparseOperator) -> float:
    """Frobenius distance with no entry pruned (``SparseOperator`` arithmetic prunes)."""
    return float(np.linalg.norm((x.matrix - y.matrix).data))


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
    assert bond_assembled_pair_form(space, np.zeros((4, 4))).nnz == 0
    assert pair_products(space, np.zeros((0, 4, 4)), np.zeros((0, 4, 4)), []).nnz == 0


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
    direct = coulomb_pair_form(space, alpha)
    assert interaction_equivalence_residual(space, alpha, direct) <= 1e-12 * max(direct.norm(), 1.0)


def test_equivalence_residual_zero_coupling():
    space = FockSpace.chain(6)
    zero = np.zeros((6, 6))
    assert interaction_equivalence_residual(space, zero, coulomb_pair_form(space, zero)) == 0.0


def test_equivalence_residual_nearest_neighbour():
    space = FockSpace.chain(6)
    alpha = np.zeros((6, 6))
    for n in range(6):
        alpha[n, (n + 1) % 6] = alpha[(n + 1) % 6, n] = 0.7
    direct = coulomb_pair_form(space, alpha)
    assert interaction_equivalence_residual(space, alpha, direct) <= 1e-12 * max(direct.norm(), 1.0)


# Sizes whose reconstructed pair coefficients are not all exactly +-1 (moduli of
# 0.9999999999999999 at 6 and 10 sites, 0.9999999999999997 at 14): there the stacked
# product (w a) b and the sequential w (a b) round apart, so the assemblies agree to
# rounding, not bit for bit.  Elsewhere every product is exact.
INEXACT_RECONSTRUCTION = (6, 10, 14)


@pytest.mark.parametrize("n_sites", [2, 4, 6, 8, 10, 12, 14])
def test_stacked_builds_match_the_sequential_reference(n_sites):
    space = FockSpace.chain(n_sites)
    for seed in (0, 1, 2, 7):
        alpha = random_offdiag_coupling(n_sites, seed=seed)
        direct = coulomb_pair_form(space, alpha)
        assert same_bits(direct, sequential_pair_form(space, alpha))
        assembled = bond_assembled_pair_form(space, alpha)
        reference = sequential_bond_assembly(space, alpha)
        if n_sites in INEXACT_RECONSTRUCTION:
            assert unpruned_distance(assembled, reference) <= 1e-15 * direct.norm()
        else:
            assert same_bits(assembled, reference)


@pytest.mark.parametrize("terms", [PRODUCT_CHUNK, PRODUCT_CHUNK + 1, 2 * PRODUCT_CHUNK + 1])
def test_pair_products_at_the_chunk_edges(terms):
    # single-pair terms with random weights: every product entry is exact, so the
    # stacked sum has the bits of the term-by-term sum across each chunk boundary
    rng = np.random.default_rng(terms)
    eye = np.eye(6)
    n, m, k = (rng.integers(0, 6, terms) for _ in range(3))
    m, k = (n + 1 + m % 5) % 6, (n + 1 + k % 5) % 6
    raising, lowering = eye[n, :, None] * eye[m, None, :], eye[k, :, None] * eye[n, None, :]
    weights = rng.uniform(-1.0, 1.0, terms)
    space = FockSpace.chain(6)
    stacked = pair_products(space, raising, lowering, weights)
    assert stacked.nnz > 0
    assert same_bits(stacked, sequential_pair_products(space, raising, lowering, weights))


def test_pair_products_of_dense_stacks_match_the_term_by_term_sum():
    # many pairs per term: each product sums several contributions, so the
    # orders differ and the two sums agree to rounding
    rng = np.random.default_rng(11)
    terms = PRODUCT_CHUNK + 3
    shape = (terms, 4, 4)
    raising, lowering = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
    weights = rng.normal(size=terms) + 1j * rng.normal(size=terms)
    space = FockSpace.chain(4)
    stacked = pair_products(space, raising, lowering, weights)
    reference = sequential_pair_products(space, raising, lowering, weights)
    assert unpruned_distance(stacked, reference) <= 64 * terms * EPS * reference.norm()
    with pytest.raises(ValueError):
        pair_products(space, raising, lowering[:-1], weights)
    with pytest.raises(ValueError):
        pair_products(space, raising, lowering, weights[:-1])


@pytest.mark.parametrize("term", [0, PRODUCT_CHUNK - 1, PRODUCT_CHUNK, -1])
@pytest.mark.parametrize("mutation", ["flip_sign", "drop"])
def test_a_wrong_stack_term_fails_the_bond_assembled_check(monkeypatch, mutation, term):
    space = FockSpace.chain(6)
    alpha = random_offdiag_coupling(6, seed=3)
    direct = coulomb_pair_form(space, alpha)
    tolerance = 1e-12 * max(direct.norm(), 1.0)  # the bound of the verify report
    assert interaction_equivalence_residual(space, alpha, direct) <= tolerance
    built = interactions.pair_products

    def mutated(space, raising, lowering, weights):
        weights = np.array(weights)
        if mutation == "flip_sign":
            weights[term] = -weights[term]
            return built(space, raising, lowering, weights)
        keep = np.arange(len(weights)) != term % len(weights)
        return built(space, raising[keep], lowering[keep], weights[keep])

    monkeypatch.setattr(interactions, "pair_products", mutated)
    assert interaction_equivalence_residual(space, alpha, direct) > tolerance


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
