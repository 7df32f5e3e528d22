"""The coefficient-matrix route against the Fock oracle, the norm formula, and mutations.

The H-bond identities and the pair reconstruction are checked in the
package on n x n coefficient matrices.  These tests evaluate the same
formula data on Fock operators (``fock_oracle``) and require agreement
per check to rounding, test the two facts the route rests on
(``[H, P_A] = P_{hA + A h^T}`` and the exact Fock norm of ``P_M``) on
seeded random matrices, and show that one wrong sign or phase in a
single coefficient is rejected by both routes under the unchanged bounds.
"""

import numpy as np
import pytest
from conftest import dense_jw_creation
from fock_oracle import (
    as_label,
    combination,
    fock_combination,
    fock_hamiltonian,
    fock_identity_residual,
    fock_identity_sides,
    fock_pair_bilinear,
    fock_quadratic,
    identity_sides,
    identity_terms,
    label_matrix,
    pair_reconstruction_terms,
    sequential_identity_residuals,
)

from bondboson.bilinear import (
    ChainPair,
    FockSizeError,
    IdentityTable,
    SquarePair,
    bond_identities,
    commutator_with_hopping,
    h_bond_commutator_residuals,
    hopping_matrix,
    identity_residuals,
    pair_norm,
    pair_stack,
)
from bondboson.fock import FockSpace, commutator, pair_bilinear
from bondboson.interactions import (
    creation_pair_direct,
    pair_from_bonds,
    pair_reconstruction_max,
    reconstruction_stack,
)
from bondboson.lattice import ChainSpec, SquareSpec, unit_roots

EPS = np.finfo(float).eps
# agreement of two routes "to rounding": 16 units of roundoff of the summed term norms
ROUNDING = 16 * EPS
IDENTITY_BOUND = 1e-12
RECONSTRUCTION_BOUND = 1e-13

AGREEMENT_SPECS = [
    *(ChainSpec(n, alpha_u=0.13) for n in (4, 6, 8, 10, 12)),
    ChainSpec(4, alpha_u=0.2, spinful=True),
    ChainSpec(6, alpha_u=0.2, spinful=True),
    *(SquareSpec(lx, ly, delta=0.7) for lx, ly in ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3))),
]


def spec_id(spec):
    if isinstance(spec, ChainSpec):
        return f"ssh{spec.n_sites}" + ("-spinful" if spec.spinful else "")
    return f"dirac{spec.lx}x{spec.ly}"


def term_scale(spec, h, identities, i):
    """Sum of the Fock norms of the terms of both sides of identity i: the size rounding scales with."""
    lhs, _ = identity_sides(spec, h, identities, i)
    _, (weights, labels) = identity_terms(identities, i)
    return pair_norm(lhs) + sum(abs(w) * pair_norm(label_matrix(spec, p))
                                for w, p in zip(weights, labels))


def same_table(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def one_identity(identities, i) -> IdentityTable:
    """The table of identity i alone."""
    return IdentityTable(*(column[i:i + 1] for column in identities))


def test_unit_roots_are_exact_at_quarter_turns():
    for n in range(1, 33):
        w = unit_roots(n)
        assert w[0] == 1.0
        if n % 2 == 0:
            assert w[n // 2] == -1.0
        if n % 4 == 0:
            assert w[n // 4] == 1j and w[3 * n // 4] == -1j
        assert all(w[(n - m) % n] == np.conj(w[m]) for m in range(n))
        # the reference angle is kept within (-pi, pi], where exp rounds well
        centred = (np.arange(n) + n // 2) % n - n // 2
        assert np.max(np.abs(w - np.exp(2j * np.pi * centred / n))) <= 4 * EPS


@pytest.mark.parametrize("spec", AGREEMENT_SPECS, ids=spec_id)
def test_identities_agree_with_the_fock_oracle_per_check(spec):
    space = FockSpace(spec)
    h_fock = fock_hamiltonian(space)
    h = hopping_matrix(spec)
    identities = bond_identities(spec)
    same, residuals = h_bond_commutator_residuals(spec)
    assert same_table(same, identities)
    for i, residual in enumerate(residuals):
        lhs, rhs = identity_sides(spec, h, identities, i)
        lhs_fock, rhs_fock = fock_identity_sides(space, h_fock, identities, i)
        tol = ROUNDING * term_scale(spec, h, identities, i)
        # each side separately, as operators, and the reported residual
        assert (pair_bilinear(space, lhs) - lhs_fock).norm() <= tol, i
        assert (pair_bilinear(space, rhs) - rhs_fock).norm() <= tol, i
        assert abs(residual - (lhs_fock - rhs_fock).norm()) <= tol, i


# -- the batched route has the bits of the one-identity-at-a-time loop -------------

BIT_IDENTITY_SPECS = (
    [ChainSpec(n, alpha_u=alpha_u) for n in range(2, 17, 2) for alpha_u in (0.0, 0.1, 0.29)]
    + [ChainSpec(n, alpha_u=0.2, spinful=True) for n in range(2, 9, 2)]
    + [SquareSpec(lx, ly, delta=0.7) for lx in range(1, 9) for ly in range(1, 9) if lx * ly <= 8]
    # 1e308 is finite, but the Hamiltonian products overflow to NaN
    + [SquareSpec(2, 3, delta=1e308), SquareSpec(2, 2, delta=1e308)]
)


def bit_identity_id(spec):
    if isinstance(spec, ChainSpec):
        return f"{spec_id(spec)}-alpha{spec.alpha_u}"
    return f"{spec_id(spec)}-mass{spec.delta}"


@pytest.mark.parametrize("spec", BIT_IDENTITY_SPECS, ids=bit_identity_id)
def test_batched_residuals_have_the_bits_of_the_per_identity_loop(spec):
    identities = bond_identities(spec)
    with np.errstate(over="ignore", invalid="ignore"):
        same, batched = h_bond_commutator_residuals(spec)
        expected = np.array(sequential_identity_residuals(spec, identities))
    assert same_table(same, identities)
    assert batched.tobytes() == expected.tobytes()
    assert np.isnan(batched).any() == (getattr(spec, "delta", 0.0) == 1e308)


@pytest.mark.parametrize("spec", [ChainSpec(6, alpha_u=0.1), ChainSpec(4, spinful=True),
                                  SquareSpec(2, 3, delta=0.7), SquareSpec(1, 1)], ids=spec_id)
def test_pair_stack_rows_have_the_bits_of_single_label_builds(spec):
    identities = bond_identities(spec)
    width = identities.target_labels.shape[-1]
    rows = np.concatenate([identities.target_labels.reshape(-1, width),
                           identities.rhs_labels.reshape(-1, width)])
    labels = [as_label(spec, row) for row in rows]
    if isinstance(spec, ChainSpec):
        spins = ((0, 0), (1, 1), (0, 1), (1, 0)) if spec.spinful else ((0, 0),)
        labels += [ChainPair(l, K, spin1, spin2) for spin1, spin2 in spins
                   for l in range(-1, spec.n_sites + 1) for K in range(-1, spec.n_sites + 1)]
    else:
        labels += [SquarePair(0, 0, 0, 0, comp1, comp2) for comp1, comp2 in np.ndindex(2, 2)]
    labels = list(dict.fromkeys(labels))
    stack = pair_stack(spec, labels)
    assert stack.shape == (len(labels),) + label_matrix(spec, labels[0]).shape
    assert not stack.flags.writeable
    # a list of labels is its integer table
    assert pair_stack(spec, np.asarray(labels)).tobytes() == stack.tobytes()
    for label, row in zip(labels, stack):
        assert row.tobytes() == label_matrix(spec, label).tobytes(), label
        assert row.tobytes() == pair_stack(spec, [label])[0].tobytes(), label
    assert pair_stack(spec, []).shape == (0,) + stack.shape[1:]


def test_identity_momenta_are_grid_indices():
    # K on the chain's site grid: k = 2*pi*j/n_cells is site index 2j
    chain = bond_identities(ChainSpec(6, alpha_u=0.1, spinful=True))
    assert set(chain.k.tolist()) == {0, 2, 4}
    square = bond_identities(SquareSpec(2, 3, delta=0.4))
    assert set(map(tuple, square.k.tolist())) == set(np.ndindex(2, 3))
    # the report column and the K, Kx and Ky columns of every label are integers
    for table, label in ((chain, ChainPair), (square, SquarePair)):
        columns = [label._fields.index(name) for name in ("K", "Kx", "Ky") if name in label._fields]
        for momenta in (table.k, table.target_labels[..., columns], table.rhs_labels[..., columns]):
            assert np.issubdtype(momenta.dtype, np.integer)


def test_hopping_matrix_is_the_fock_hamiltonian():
    for spec in (ChainSpec(6, alpha_u=0.2), ChainSpec(4, alpha_u=0.1, spinful=True),
                 SquareSpec(2, 3, delta=0.4), ChainSpec(2, alpha_u=0.3)):
        space = FockSpace(spec)
        difference = fock_quadratic(space, hopping_matrix(spec)) - fock_hamiltonian(space)
        assert difference.norm() <= 1e-14


@pytest.mark.parametrize("n_modes", [2, 3, 5, 7])
def test_commutator_with_hopping_is_the_fock_commutator(n_modes):
    rng = np.random.default_rng(100 + n_modes)
    space = FockSpace(ChainSpec(8))
    modes = space.n_modes
    h = np.zeros((modes, modes), dtype=complex)
    a = np.zeros((modes, modes), dtype=complex)
    block = (slice(0, n_modes),) * 2
    h[block] = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
    a[block] = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
    p_a = fock_pair_bilinear(space, a)
    assert (pair_bilinear(space, a) - p_a).norm() <= 1e-13
    fock = commutator(fock_quadratic(space, h), p_a)
    assert (fock - pair_bilinear(space, commutator_with_hopping(h, a))).norm() <= 1e-12


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 6, 8])
def test_pair_norm_is_the_fock_frobenius_norm(n_modes):
    rng = np.random.default_rng(n_modes)
    space = FockSpace(ChainSpec(n_modes + n_modes % 2))
    m = np.zeros((space.n_modes,) * 2, dtype=complex)
    m[:n_modes, :n_modes] = rng.normal(size=(n_modes,) * 2) + 1j * rng.normal(size=(n_modes,) * 2)
    fock = fock_pair_bilinear(space, m).norm()
    assert pair_norm(m) == pytest.approx(fock, rel=1e-14, abs=0.0)


def test_pair_bilinear_matches_the_dense_oracle():
    rng = np.random.default_rng(7)
    space = FockSpace(ChainSpec(4))
    dense = dense_jw_creation(4)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    expected = sum(m[i, j] * dense[i] @ dense[j] for i in range(4) for j in range(4))
    assert np.allclose(pair_bilinear(space, m).to_dense(), expected, atol=1e-14)
    assert pair_bilinear(space, m + m.T).nnz == 0  # symmetric part drops out


def test_identities_beyond_the_cap_raise_the_fock_size_error():
    with pytest.raises(FockSizeError, match="18 modes exceed the exact-representation cap of 16"):
        h_bond_commutator_residuals(ChainSpec(18))
    with pytest.raises(FockSizeError, match="18 modes"):
        h_bond_commutator_residuals(SquareSpec(3, 3))


def test_pair_reconstruction_agrees_with_the_fock_oracle():
    for n_sites in (2, 4, 6, 8):
        space = FockSpace(ChainSpec(n_sites))
        for p in range(n_sites):
            for l in range(1, n_sites):
                terms = pair_reconstruction_terms(n_sites, p, l)
                built = pair_from_bonds(space, p, l)
                assert (built - fock_combination(space, *terms)).norm() <= 1e-13
                assert (built - creation_pair_direct(space, p, l)).norm() <= 1e-13
                target = np.zeros((n_sites, n_sites))
                target[p, (p + l) % n_sites] = 1.0
                assert pair_norm(combination(ChainSpec(n_sites), *terms) - target) <= 1e-13


@pytest.mark.parametrize("n_sites", range(2, 17, 2))
def test_reconstruction_stack_has_the_bits_of_the_term_sums(n_sites):
    # the stack is one contraction summed in K order: every entry equals the
    # term-by-term combination of the reconstruction terms, bit for bit
    stack = reconstruction_stack(n_sites)
    assert stack.shape == (n_sites, n_sites - 1, n_sites, n_sites)
    assert not stack.flags.writeable
    for p in range(n_sites):
        for l in range(1, n_sites):
            expected = combination(ChainSpec(n_sites), *pair_reconstruction_terms(n_sites, p, l))
            assert stack[p, l - 1].tobytes() == expected.tobytes(), (p, l)


# -- mutations: one wrong coefficient must fail both routes at the unchanged bound ----

def wrong_sign(weight, n_sites):
    return -weight


def wrong_phase(weight, n_sites):
    """One step of the finest momentum grid of the lattice."""
    return weight * unit_roots(n_sites)[1]


MUTATION_SPECS = [ChainSpec(4, alpha_u=0.1), ChainSpec(8, alpha_u=0.1), ChainSpec(12, alpha_u=0.1),
                  ChainSpec(16, alpha_u=0.1), ChainSpec(4, alpha_u=0.2, spinful=True),
                  SquareSpec(2, 2, delta=0.8), SquareSpec(2, 3, delta=0.8)]


def live_term(weights, labels, spec):
    """Index of the first term that is not the zero operator, or None."""
    for i, (weight, pair) in enumerate(zip(weights, labels)):
        if weight != 0 and pair_norm(pair_stack(spec, [pair])[0]) > 0:
            return i
    return None


def mutate(weights, i, mutation, n_sites):
    """A copy of the weights with weight i (an index of the array) mutated."""
    mutated = np.array(weights, dtype=complex)
    mutated[i] = mutation(mutated[i], n_sites)
    return mutated


@pytest.fixture(scope="module")
def fock_setups():
    cache = {}

    def setup(spec):
        if spec not in cache:
            space = FockSpace(spec)
            cache[spec] = space, fock_hamiltonian(space)
        return cache[spec]

    return setup


@pytest.mark.parametrize("mutation", [wrong_sign, wrong_phase])
@pytest.mark.parametrize("spec", MUTATION_SPECS, ids=spec_id)
def test_a_wrong_identity_coefficient_fails_both_routes(spec, mutation, fock_setups):
    # the last identity (largest momentum) with a right-hand side that is not zero
    identities = bond_identities(spec)
    index = next(i for i in reversed(range(len(identities.channel)))
                 if live_term(identities.rhs_weights[i], identities.rhs_labels[i], spec) is not None)
    identity = one_identity(identities, index)
    term = live_term(identity.rhs_weights[0], identity.rhs_labels[0], spec)
    mutated = identity._replace(
        rhs_weights=mutate(identity.rhs_weights, (0, term), mutation, spec.n_sites))
    space, h_fock = fock_setups(spec)
    assert identity_residuals(spec, identity)[0] <= IDENTITY_BOUND
    assert fock_identity_residual(space, h_fock, identity, 0) <= IDENTITY_BOUND
    assert identity_residuals(spec, mutated)[0] > IDENTITY_BOUND
    assert fock_identity_residual(space, h_fock, mutated, 0) > IDENTITY_BOUND


@pytest.mark.parametrize("mutation", [wrong_sign, wrong_phase])
@pytest.mark.parametrize("n_sites", [4, 8, 12, 16])
def test_a_wrong_reconstruction_weight_fails_both_routes(n_sites, mutation):
    p, l = n_sites - 1, n_sites // 2 - 1
    # mutate the weight of the K = 1 bond
    weights, bonds = pair_reconstruction_terms(n_sites, p, l)
    terms = mutate(weights, 1, mutation, n_sites), bonds
    target = np.zeros((n_sites, n_sites))
    target[p, (p + l) % n_sites] = 1.0
    assert pair_norm(combination(ChainSpec(n_sites), *terms) - target) > RECONSTRUCTION_BOUND
    space = FockSpace(ChainSpec(n_sites))
    fock = fock_combination(space, *terms) - creation_pair_direct(space, p, l)
    assert fock.norm() > RECONSTRUCTION_BOUND


def test_pair_reconstruction_at_the_cap():
    # float phases gave 3.2e-13 at 14 sites; the exact table stays under the 1e-13 bound
    assert pair_reconstruction_max(14) <= RECONSTRUCTION_BOUND
    assert pair_reconstruction_max(16) <= RECONSTRUCTION_BOUND
