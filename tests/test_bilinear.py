"""The coefficient-matrix route against the Fock oracle, the norm formula, and mutations.

The H-bond identities and the pair reconstruction are checked in the
package on n x n coefficient matrices.  These tests evaluate the same
formula data on Fock operators (``fock_oracle``) and require agreement
per check to rounding, test the two facts the route rests on
(``[H, P_A] = P_{hA + A h^T}`` and the exact Fock norm of ``P_M``) on
seeded random matrices, and show that one wrong sign or phase in a
single coefficient is rejected by both routes under the unchanged bounds.
"""

import dataclasses

import numpy as np
import pytest
from conftest import dense_jw_creation
from fock_oracle import (
    fock_combination,
    fock_hamiltonian,
    fock_identity_residual,
    fock_identity_sides,
    fock_pair_bilinear,
    fock_quadratic,
    fock_space,
)

from bondboson.bilinear import (
    PairCoefficients,
    bond_identities,
    commutator_with_hopping,
    h_bond_commutator_residuals,
    hopping_matrix,
    identity_sides,
    pair_norm,
)
from bondboson.fock import FockSizeError, FockSpace, commutator, pair_bilinear
from bondboson.interactions import (
    creation_pair_direct,
    pair_coefficients,
    pair_from_bonds,
    pair_reconstruction_max,
    pair_reconstruction_terms,
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


def term_scale(coefficients, h, identity):
    """Sum of the Fock norms of the terms of both sides: the size rounding scales with."""
    lhs, _ = identity_sides(coefficients, h, identity)
    return pair_norm(lhs) + sum(abs(w) * pair_norm(coefficients.pair(p)) for w, p in identity.rhs)


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
    space = fock_space(spec)
    h_fock = fock_hamiltonian(space, spec)
    coefficients = PairCoefficients(spec)
    h = hopping_matrix(spec)
    identities = bond_identities(spec)
    residuals = h_bond_commutator_residuals(spec)
    assert len(residuals) == len(identities)
    for identity, row in zip(identities, residuals):
        assert (row.channel, row.sublattice, row.l, row.k) == (
            identity.channel, identity.sublattice, identity.l, identity.k)
        lhs, rhs = identity_sides(coefficients, h, identity)
        lhs_fock, rhs_fock = fock_identity_sides(space, h_fock, identity)
        tol = ROUNDING * term_scale(coefficients, h, identity)
        # each side separately, as operators, and the reported residual
        assert (pair_bilinear(space, lhs) - lhs_fock).norm() <= tol, identity
        assert (pair_bilinear(space, rhs) - rhs_fock).norm() <= tol, identity
        assert abs(row.residual - (lhs_fock - rhs_fock).norm()) <= tol, identity


def test_hopping_matrix_is_the_fock_hamiltonian():
    for spec in (ChainSpec(6, alpha_u=0.2), ChainSpec(4, alpha_u=0.1, spinful=True),
                 SquareSpec(2, 3, delta=0.4), ChainSpec(2, alpha_u=0.3)):
        space = fock_space(spec)
        difference = fock_quadratic(space, hopping_matrix(spec)) - fock_hamiltonian(space, spec)
        assert difference.norm() <= 1e-14


@pytest.mark.parametrize("n_modes", [2, 3, 5, 7])
def test_commutator_with_hopping_is_the_fock_commutator(n_modes):
    rng = np.random.default_rng(100 + n_modes)
    space = FockSpace.chain(8)
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
    space = FockSpace.chain(n_modes) if n_modes % 2 == 0 else FockSpace.chain(n_modes + 1)
    m = np.zeros((space.n_modes,) * 2, dtype=complex)
    m[:n_modes, :n_modes] = rng.normal(size=(n_modes,) * 2) + 1j * rng.normal(size=(n_modes,) * 2)
    fock = fock_pair_bilinear(space, m).norm()
    assert pair_norm(m) == pytest.approx(fock, rel=1e-14, abs=0.0)


def test_pair_bilinear_matches_the_dense_oracle():
    rng = np.random.default_rng(7)
    space = FockSpace.chain(4)
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
        space = FockSpace.chain(n_sites)
        coefficients = PairCoefficients(ChainSpec(n_sites))
        for p in range(n_sites):
            for l in range(1, n_sites):
                terms = pair_reconstruction_terms(n_sites, p, l)
                built = pair_from_bonds(space, p, l)
                assert (built - fock_combination(space, terms)).norm() <= 1e-13
                assert (built - creation_pair_direct(space, p, l)).norm() <= 1e-13
                target = np.zeros((n_sites, n_sites))
                target[p, (p + l) % n_sites] = 1.0
                assert pair_norm(pair_coefficients(coefficients, p, l) - target) <= 1e-13


# -- mutations: one wrong coefficient must fail both routes at the unchanged bound ----

def wrong_sign(weight, n_sites):
    return -weight


def wrong_phase(weight, n_sites):
    """One step of the finest momentum grid of the lattice."""
    return weight * unit_roots(n_sites)[1]


MUTATION_SPECS = [ChainSpec(4, alpha_u=0.1), ChainSpec(8, alpha_u=0.1), ChainSpec(12, alpha_u=0.1),
                  ChainSpec(16, alpha_u=0.1), ChainSpec(4, alpha_u=0.2, spinful=True),
                  SquareSpec(2, 2, delta=0.8), SquareSpec(2, 3, delta=0.8)]


def live_term(terms, coefficients):
    """Index of the first term that is not the zero operator, or None."""
    for i, (weight, pair) in enumerate(terms):
        if weight != 0 and pair_norm(coefficients.pair(pair)) > 0:
            return i
    return None


def mutate(terms, i, mutation, n_sites):
    weight, pair = terms[i]
    return terms[:i] + ((mutation(weight, n_sites), pair),) + terms[i + 1:]


@pytest.fixture(scope="module")
def fock_setups():
    cache = {}

    def setup(spec):
        if spec not in cache:
            space = fock_space(spec)
            cache[spec] = space, fock_hamiltonian(space, spec)
        return cache[spec]

    return setup


@pytest.mark.parametrize("mutation", [wrong_sign, wrong_phase])
@pytest.mark.parametrize("spec", MUTATION_SPECS, ids=spec_id)
def test_a_wrong_identity_coefficient_fails_both_routes(spec, mutation, fock_setups):
    coefficients = PairCoefficients(spec)
    h = hopping_matrix(spec)
    # the last identity (largest momentum) with a right-hand side that is not zero
    identity = next(i for i in reversed(bond_identities(spec))
                    if live_term(i.rhs, coefficients) is not None)
    term = live_term(identity.rhs, coefficients)
    mutated = dataclasses.replace(
        identity, rhs=mutate(identity.rhs, term, mutation, spec.n_sites))
    space, h_fock = fock_setups(spec)
    lhs, rhs = identity_sides(coefficients, h, identity)
    assert pair_norm(lhs - rhs) <= IDENTITY_BOUND
    assert fock_identity_residual(space, h_fock, identity) <= IDENTITY_BOUND
    lhs, rhs = identity_sides(coefficients, h, mutated)
    assert pair_norm(lhs - rhs) > IDENTITY_BOUND
    assert fock_identity_residual(space, h_fock, mutated) > IDENTITY_BOUND


@pytest.mark.parametrize("mutation", [wrong_sign, wrong_phase])
@pytest.mark.parametrize("n_sites", [4, 8, 12, 16])
def test_a_wrong_reconstruction_weight_fails_both_routes(n_sites, mutation):
    p, l = n_sites - 1, n_sites // 2 - 1
    coefficients = PairCoefficients(ChainSpec(n_sites))
    # mutate the weight of the K = 1 bond
    terms = mutate(pair_reconstruction_terms(n_sites, p, l), 1, mutation, n_sites)
    target = np.zeros((n_sites, n_sites))
    target[p, (p + l) % n_sites] = 1.0
    assert pair_norm(coefficients.combination(terms) - target) > RECONSTRUCTION_BOUND
    space = FockSpace.chain(n_sites)
    fock = fock_combination(space, terms) - creation_pair_direct(space, p, l)
    assert fock.norm() > RECONSTRUCTION_BOUND


def test_pair_reconstruction_at_the_cap():
    # float phases gave 3.2e-13 at 14 sites; the exact table stays under the 1e-13 bound
    assert pair_reconstruction_max(14) <= RECONSTRUCTION_BOUND
    assert pair_reconstruction_max(16) <= RECONSTRUCTION_BOUND
