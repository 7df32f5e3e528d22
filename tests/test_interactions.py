import json
import types

import numpy as np
import pytest
from fock_oracle import (
    bond_assembled_pair_form,
    fock_pair,
    pair_tensor_operator,
    sequential_bond_assembly,
    sequential_pair_form,
    sequential_pair_tensor,
)

from bondboson import cli, fock, interactions
from bondboson.bilinear import ChainPair
from bondboson.fock import FockSpace, SparseOperator, creation_op, pair_products
from bondboson.interactions import (
    bond_assembled_stacks,
    coulomb_operator,
    coulomb_pair_form,
    creation_pair_direct,
    interaction_equivalence_residual,
    pair_form_stacks,
    pair_from_bonds,
    pair_tensor,
    pair_tensor_norm,
    random_offdiag_coupling,
)
from bondboson.lattice import ChainSpec

EPS = np.finfo(float).eps


def same_bits(x: SparseOperator, y: SparseOperator) -> bool:
    """The same stored entries, with the same bits."""
    x, y = x.matrix.copy(), y.matrix.copy()
    x.sort_indices()
    y.sort_indices()
    return (np.array_equal(x.indptr, y.indptr) and np.array_equal(x.indices, y.indices)
            and x.data.tobytes() == y.data.tobytes())


def relative_distance(x: SparseOperator, reference) -> float:
    """Frobenius distance to a scipy matrix, relative to its norm, with no entry pruned."""
    return float(np.linalg.norm((x.matrix - reference).data) / np.linalg.norm(reference.data))


def equivalence_residual(alpha):
    """The suite's ``bond_assembled_interaction`` residual of the coupling ``alpha``."""
    return interaction_equivalence_residual(alpha, pair_tensor(*pair_form_stacks(alpha)))


def test_two_site_offdiagonal_coupling_spectrum():
    space = FockSpace(ChainSpec(2))
    v = 0.8
    alpha = np.array([[0.0, v], [v, 0.0]])
    diag = coulomb_operator(space, alpha).to_dense().diagonal().real
    # only the doubly occupied state |11> pays the coupling
    assert np.allclose(diag, [0.0, 0.0, 0.0, v])


def test_zero_coupling_gives_zero_operator():
    space = FockSpace(ChainSpec(4))
    assert coulomb_operator(space, np.zeros((4, 4))).nnz == 0
    assert coulomb_pair_form(space, np.zeros((4, 4))).nnz == 0
    assert bond_assembled_pair_form(space, np.zeros((4, 4))).nnz == 0
    assert pair_products(space, np.zeros((0, 4, 4)), np.zeros((0, 4, 4)), []).nnz == 0


def test_diagonal_coupling_is_half_total_density():
    # n^2 = n for fermions, so alpha_nn contributes alpha_nn/2 * n
    space = FockSpace(ChainSpec(4))
    alpha = np.diag([0.4, 0.6, 0.8, 1.0])
    op = coulomb_operator(space, alpha)
    number_weighted = SparseOperator.zero(space)
    for site, weight in enumerate([0.4, 0.6, 0.8, 1.0]):
        c = creation_op(space, site)
        number_weighted = number_weighted + (0.5 * weight) * (c @ c.adjoint())
    assert (op - number_weighted).norm() < 1e-14


def test_diagonal_coupling_pair_form_vanishes():
    space = FockSpace(ChainSpec(4))
    assert coulomb_pair_form(space, np.diag([1.0, 2.0, 3.0, 4.0])).nnz == 0


def test_pair_form_equals_density_form_offdiagonal():
    space = FockSpace(ChainSpec(2))
    alpha = np.array([[0.0, 0.8], [0.8, 0.0]])
    assert (coulomb_operator(space, alpha) - coulomb_pair_form(space, alpha)).norm() == 0.0
    space6 = FockSpace(ChainSpec(6))
    alpha6 = random_offdiag_coupling(6, seed=9)
    d = (coulomb_operator(space6, alpha6) - coulomb_pair_form(space6, alpha6)).norm()
    assert d <= 1e-12


def test_termwise_density_pair_identity():
    # n_n n_m + (c+_n c+_m)(c_n c_m) = 0 exactly for n != m
    space = FockSpace(ChainSpec(4))
    for n in range(4):
        for m in range(4):
            if n == m:
                continue
            single = np.zeros((4, 4))
            single[n, m] = single[m, n] = 1.0
            d = (coulomb_operator(space, single) - coulomb_pair_form(space, single)).norm()
            assert d == 0.0


def test_both_forms_are_hermitian():
    space = FockSpace(ChainSpec(6))
    alpha = random_offdiag_coupling(6, seed=2)
    for op in (coulomb_operator(space, alpha), coulomb_pair_form(space, alpha)):
        assert (op - op.adjoint()).norm() < 1e-13


def test_pair_reconstruction_four_sites():
    space = FockSpace(ChainSpec(4))
    d = (pair_from_bonds(space, 0, 1) - creation_pair_direct(space, 0, 1)).norm()
    assert d <= 1e-13


def test_pair_reconstruction_every_pair_six_sites():
    space = FockSpace(ChainSpec(6))
    for p in range(6):
        for l in range(1, 6):
            d = (pair_from_bonds(space, p, l) - creation_pair_direct(space, p, l)).norm()
            assert d <= 1e-13


def test_pair_reconstruction_degenerate_two_site_ring():
    space = FockSpace(ChainSpec(2))
    d = (pair_from_bonds(space, 0, 1) - creation_pair_direct(space, 0, 1)).norm()
    assert d <= 1e-13


def test_inverse_transform_recovers_bond_operator():
    # summing the reconstructions against e^{+ipk} returns e_{+lk}
    space = FockSpace(ChainSpec(6))
    l = 2
    for K in (0, 1, 2):
        acc = SparseOperator.zero(space)
        for p in range(6):
            acc = acc + np.exp(2j * np.pi * p * K / 6) * pair_from_bonds(space, p, l)
        assert (acc - fock_pair(space, ChainPair(l, K))).norm() <= 1e-12


def test_equivalence_residual_seeded_random():
    space = FockSpace(ChainSpec(6))
    alpha = random_offdiag_coupling(6, seed=5)
    direct = coulomb_pair_form(space, alpha)
    assert equivalence_residual(alpha) <= 1e-12 * max(direct.norm(), 1.0)


def test_equivalence_residual_zero_coupling():
    assert equivalence_residual(np.zeros((6, 6))) == 0.0


def test_equivalence_residual_nearest_neighbour():
    space = FockSpace(ChainSpec(6))
    alpha = np.zeros((6, 6))
    for n in range(6):
        alpha[n, (n + 1) % 6] = alpha[(n + 1) % 6, n] = 0.7
    direct = coulomb_pair_form(space, alpha)
    assert equivalence_residual(alpha) <= 1e-12 * max(direct.norm(), 1.0)


@pytest.mark.parametrize("n_sites", [6, 8, 10])
def test_equivalence_residual_is_the_unpruned_distance(n_sites):
    # the `verify interactions --sites n --seed 3` check: the Fock distance of the two
    # coefficient tensors with no entry pruned (pruned, it would read 0.0 at 6 and 8 sites)
    space = FockSpace(ChainSpec(n_sites))
    alpha = random_offdiag_coupling(n_sites, seed=3)
    difference = pair_tensor(*pair_form_stacks(alpha)) - pair_tensor(*bond_assembled_stacks(alpha))
    unpruned = float(np.linalg.norm(pair_tensor_operator(space, difference).data))
    reported = equivalence_residual(alpha)
    assert reported > 0.0
    assert reported == pytest.approx(unpruned, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n_sites", [2, 4, 6, 8, 10, 12, 14])
def test_stacked_builds_match_the_sequential_reference(n_sites):
    space = FockSpace(ChainSpec(n_sites))
    for seed in (0, 1, 2, 7):
        alpha = random_offdiag_coupling(n_sites, seed=seed)
        direct = coulomb_pair_form(space, alpha)
        assert same_bits(direct, sequential_pair_form(space, alpha))
        assert same_bits(bond_assembled_pair_form(space, alpha),
                         sequential_bond_assembly(space, alpha))


def test_pair_products_of_dense_stacks_match_the_term_by_term_sum():
    # many pairs per term: the creation-matrix route sums each entry's terms in
    # another order, so the two sums agree to rounding
    rng = np.random.default_rng(11)
    terms = 15
    shape = (terms, 4, 4)
    raising, lowering = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
    weights = rng.normal(size=terms) + 1j * rng.normal(size=terms)
    space = FockSpace(ChainSpec(4))
    stacked = pair_products(space, raising, lowering, weights)
    reference = pair_tensor_operator(space, pair_tensor(raising, lowering, weights))
    assert relative_distance(stacked, reference) <= 64 * terms * EPS
    with pytest.raises(ValueError):
        pair_products(space, raising, lowering[:-1], weights)
    with pytest.raises(ValueError):
        pair_products(space, raising, lowering, weights[:-1])


def random_stack(rng, terms, n_modes, density):
    shape = (terms, n_modes, n_modes)
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (rng.random(shape) < density)


def mode_space(n_modes):
    """A Fock space of any mode count (chain and square specs have an even count)."""
    return FockSpace(types.SimpleNamespace(n_modes=n_modes))


def test_empty_and_pruned_stacks_give_the_zero_operator():
    space = FockSpace(ChainSpec(6))
    rng = np.random.default_rng(3)
    dense = random_stack(rng, 4, 6, 1.0)
    weights = rng.normal(size=4)
    symmetric = dense + dense.transpose(0, 2, 1)  # no pair survives antisymmetrization
    tiny = 1e-16 * dense  # every pair under the pruning tolerance
    for raising, lowering in [(dense[:0], dense[:0]), (symmetric, dense), (dense, tiny),
                              (tiny, tiny)]:
        w = weights[:len(raising)]
        assert pair_products(space, raising, lowering, w).nnz == 0


@pytest.mark.parametrize("lowered", [(0, 1), (1, 0), (1, 2), (3, 1), (2, 3), (4, 5)],
                         ids=["same", "reversed", "shared-j", "shared-i", "disjoint", "far"])
def test_single_pair_products_fill_their_jordan_wigner_slots(lowered):
    # A = c+_0 c+_1 and B = c+_k c+_l: equal pairs fill the diagonal, pairs that
    # share a mode (3-mode unions) or none (4-mode unions) fill off-diagonal slots
    space = FockSpace(ChainSpec(6))
    eye = np.eye(6)
    k, l = lowered
    raising = (eye[0, :, None] * eye[1, None, :])[None] * (0.3 - 1.1j)
    lowering = (eye[k, :, None] * eye[l, None, :])[None] * (0.7 + 0.2j)
    built = pair_products(space, raising, lowering, [1.5 - 0.5j])
    rows, cols = built.matrix.nonzero()
    assert built.nnz == 1 << (6 - len({0, 1, k, l}))
    assert np.all((rows ^ cols) == (3 ^ (1 << k) ^ (1 << l)))
    tensor = pair_tensor(raising, lowering, [1.5 - 0.5j])
    assert pair_tensor_norm(tensor, 6) == pytest.approx(built.norm(), rel=1e-15)


def wrong_term(build, mutation, term):
    """``build`` (a stack builder such as ``bond_assembled_stacks``) with the weight of one
    term negated (``"flip_sign"``) or the term left out (``"drop"``)."""
    def mutated(a):
        raising, lowering, weights = build(a)
        if mutation == "flip_sign":
            weights = weights.copy()
            weights[term] = -weights[term]
            return raising, lowering, weights
        keep = np.arange(len(weights)) != term % len(weights)
        return raising[keep], lowering[keep], weights[keep]

    return mutated


MUTATION_SITES = 12


@pytest.mark.parametrize("term", [0, 7, 8, -1])
@pytest.mark.parametrize("mutation", ["flip_sign", "drop"])
def test_a_wrong_stack_term_fails_the_bond_assembled_check(monkeypatch, mutation, term):
    space = FockSpace(ChainSpec(MUTATION_SITES))
    alpha = random_offdiag_coupling(MUTATION_SITES, seed=3)
    tolerance = 1e-12 * max(coulomb_pair_form(space, alpha).norm(), 1.0)  # the verify bound
    assert equivalence_residual(alpha) <= tolerance
    monkeypatch.setattr(interactions, "bond_assembled_stacks",
                        wrong_term(bond_assembled_stacks, mutation, term))
    assert equivalence_residual(alpha) > tolerance


def random_terms(rng, terms, n_modes, density=1.0):
    """Two random complex stacks and weights of ``terms`` terms."""
    raising, lowering = (random_stack(rng, terms, n_modes, density) for _ in range(2))
    return raising, lowering, rng.normal(size=terms) + 1j * rng.normal(size=terms)


@pytest.mark.parametrize("n_modes", range(2, 13))
def test_pair_tensor_norm_is_the_fock_norm(n_modes):
    # every E_pq = P_p P_q^dag occurs, with shared modes or none, so every row of the
    # Gram matrix's squares counts
    rng = np.random.default_rng([n_modes, 29])
    for terms in (1, 3):
        args = random_terms(rng, terms, n_modes)
        fock_norm = pair_products(mode_space(n_modes), *args).norm()
        assert pair_tensor_norm(pair_tensor(*args), n_modes) == pytest.approx(fock_norm,
                                                                              rel=1e-14)


@pytest.mark.parametrize("n_modes", range(2, 10))
def test_pair_products_are_the_pair_tensor_operator(n_modes):
    # a second construction: each P_p P_q^dag from creation matrices, so every pair
    # entry's Jordan-Wigner sign and slot is built anew
    rng = np.random.default_rng([n_modes, 31])
    space = mode_space(n_modes)
    for terms in (1, 3):
        args = random_terms(rng, terms, n_modes)
        reference = pair_tensor_operator(space, pair_tensor(*args))
        assert relative_distance(pair_products(space, *args), reference) <= 4 * EPS


@pytest.mark.parametrize("n_modes", range(4, 11))
@pytest.mark.parametrize("density", [0.1, 0.4, 1.0])
def test_random_sparse_stacks_are_the_pair_tensor_operator(n_modes, density):
    # up to 15 terms with zero coefficients between them: pairs that vanish in some
    # terms and not in others, measured at most 0.98 eps relative
    rng = np.random.default_rng([n_modes, int(10 * density)])
    terms = int(rng.integers(1, 16 if density < 1.0 else 6))
    args = random_terms(rng, terms, n_modes, density)
    space = mode_space(n_modes)
    reference = pair_tensor_operator(space, pair_tensor(*args))
    assert reference.count_nonzero() > 0
    assert relative_distance(pair_products(space, *args), reference) <= 4 * EPS


@pytest.mark.parametrize("n_sites", range(2, 15, 2))
def test_interaction_stacks_are_the_pair_tensor_operator(n_sites):
    # the two stacks the suite's interactions come from, at 2 to 182 terms, measured
    # at most 1.8 eps relative; the creation-matrix route takes 24 s at 16 sites, so
    # the range stops at 14
    space = FockSpace(ChainSpec(n_sites))
    alpha = random_offdiag_coupling(n_sites, seed=n_sites)
    for stacks in (pair_form_stacks(alpha), bond_assembled_stacks(alpha)):
        reference = pair_tensor_operator(space, pair_tensor(*stacks))
        assert reference.count_nonzero() > 0
        assert relative_distance(pair_products(space, *stacks), reference) <= 4 * EPS


@pytest.mark.parametrize("n_sites", range(2, 13, 2))
def test_pair_tensor_norm_of_the_one_hot_pair_form(n_sites):
    space = FockSpace(ChainSpec(n_sites))
    for seed in (0, 3):
        alpha = random_offdiag_coupling(n_sites, seed=seed)
        tensor = pair_tensor(*pair_form_stacks(alpha))
        assert pair_tensor_norm(tensor, n_sites) == pytest.approx(
            coulomb_pair_form(space, alpha).norm(), rel=1e-14)


def test_empty_stacks_have_a_zero_tensor_norm():
    for n_modes in (2, 5, 12):
        empty = np.zeros((0, n_modes, n_modes))
        assert pair_tensor_norm(pair_tensor(empty, empty, []), n_modes) == 0.0
    symmetric = np.ones((2, 4, 4))  # no pair survives antisymmetrization
    assert pair_tensor_norm(pair_tensor(symmetric, symmetric, [1.0, 2.0]), 4) == 0.0
    with pytest.raises(ValueError):
        pair_tensor_norm(np.zeros((3, 3)), 4)
    with pytest.raises(ValueError):
        pair_tensor(np.zeros((2, 4, 4)), np.zeros((2, 4, 4)), [1.0])


@pytest.mark.parametrize("n_modes", [2, 4, 7])
def test_a_nan_coefficient_gives_a_nan_norm(n_modes):
    rng = np.random.default_rng(n_modes)
    raising, lowering, weights = random_terms(rng, 2, n_modes)
    raising[1, 0, 1] = np.nan
    assert np.isnan(pair_tensor_norm(pair_tensor(raising, lowering, weights), n_modes))
    tensor = np.zeros((n_modes * (n_modes - 1) // 2,) * 2, dtype=complex)
    tensor[0, -1] = complex(0.0, np.nan)
    assert np.isnan(pair_tensor_norm(tensor, n_modes))


def test_a_nan_assembled_coefficient_fails_the_bond_assembled_check(monkeypatch):
    alpha = random_offdiag_coupling(6, seed=3)

    def with_nan(a):
        raising, lowering, weights = bond_assembled_stacks(a)
        raising = raising.copy()
        raising[-1, 0, 0] = np.nan  # a diagonal entry, which no pair reads
        lowering = lowering.copy()
        lowering[-1, 2, 3] = np.nan
        return raising, lowering, weights

    monkeypatch.setattr(interactions, "bond_assembled_stacks", with_nan)
    assert np.isnan(equivalence_residual(alpha))


@pytest.mark.parametrize("n_sites", [2, 6, 12])
def test_pair_tensors_have_the_bits_of_the_term_by_term_sum(n_sites):
    rng = np.random.default_rng(n_sites)
    alpha = random_offdiag_coupling(n_sites, seed=7)
    for args in (pair_form_stacks(alpha), bond_assembled_stacks(alpha),
                 random_terms(rng, 4, n_sites, 0.3)):
        assert pair_tensor(*args).tobytes() == sequential_pair_tensor(*args).tobytes()


@pytest.mark.parametrize("n_sites", range(2, 17, 2))
def test_suite_numbers_are_the_fock_oracle(n_sites, tmp_path):
    # the report's interaction_norm and density_vs_pair_form, taken on the pair form's
    # tensor, against the Fock builds of the two forms
    space = FockSpace(ChainSpec(n_sites))
    for seed in (0, 3, 77):
        out = tmp_path / f"seed{seed}.json"
        assert cli.main(["verify", "interactions", "--model", "ssh", "--sites", str(n_sites),
                         "--seed", str(seed), "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        alpha = random_offdiag_coupling(n_sites, seed=seed)
        density_form, pair_form = coulomb_operator(space, alpha), coulomb_pair_form(space, alpha)
        assert float(report["interaction_norm"]) == pytest.approx(pair_form.norm(), rel=1e-14)
        check = next(c for c in report["checks"] if c["name"] == "density_vs_pair_form")
        assert float(check["residual"]) == (density_form - pair_form).norm() == 0.0


@pytest.mark.parametrize("skew", [0.0, 1e-13], ids=["symmetric", "skewed"])
def test_density_tensor_is_the_pair_form_tensor(skew):
    # a coupling asymmetric within the 1e-12 that _check_coupling allows: the pair form
    # adds alpha_ij / 2 and alpha_ji / 2, which the density tensor's half-sum matches
    rng = np.random.default_rng(5)
    alpha = random_offdiag_coupling(6, seed=3) + skew * np.triu(rng.uniform(size=(6, 6)), 1)
    pair = interactions.pair_tensor(*interactions.pair_form_stacks(alpha))
    density = interactions.density_tensor(alpha)
    assert interactions.pair_tensor_norm(pair - density, 6) == 0.0
    assert interactions.pair_tensor_norm(density, 6) > 0.0


def test_a_diagonal_coupling_has_no_density_tensor():
    alpha = random_offdiag_coupling(4, seed=1)
    alpha[2, 2] = 0.5
    with pytest.raises(ValueError, match="one-body"):
        interactions.density_tensor(alpha)
    with pytest.raises(ValueError):
        interactions.density_tensor(np.zeros((4, 3)))


@pytest.mark.parametrize("skew", [2e-12, 5e-6])
def test_a_coupling_asymmetric_past_1e_12_is_rejected(skew):
    # 1e-12 is the only bound: a relative tolerance of 1e-5 would let 5e-6 through
    with pytest.raises(ValueError, match="symmetric"):
        interactions.density_tensor([[0.0, 1.0], [1.0 + skew, 0.0]])


def test_validation_errors():
    space = FockSpace(ChainSpec(4))
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
    spinful = FockSpace(ChainSpec(4, spinful=True))
    with pytest.raises(ValueError):
        coulomb_operator(spinful, np.zeros((4, 4)))
