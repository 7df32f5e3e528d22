"""Fock-space evaluation of the bilinear identities: the independent cross-check.

The package checks the H-bond identities and the pair reconstruction on
n x n coefficient matrices (``bondboson.bilinear``).  Here the same
formula data (:class:`~bondboson.bilinear.Identity` terms, the
reconstruction terms) are evaluated on 2^n-dimensional sparse Fock
operators instead: pair sums of the integer labels from ``_bond_sum`` /
``_square_pair_sum`` with ``np.exp`` phases, the Hamiltonian from ``chain_hamiltonian`` /
``dirac_hamiltonian`` and the left-hand side from ``commutator``.

The quartic interaction builds have their term-by-term references here
too: one sparse product and one sum per coupled pair, in (n, m) order,
against which the stacked builds of ``bondboson.interactions`` are
checked.
"""

import numpy as np
from scipy import sparse

from bondboson.bilinear import ChainPair
from bondboson.fock import (
    FockSpace,
    SparseOperator,
    _bond_sum,
    _square_pair_sum,
    chain_hamiltonian,
    commutator,
    dirac_hamiltonian,
    pair_bilinear,
)
from bondboson.interactions import pair_from_bonds
from bondboson.lattice import ChainSpec, unit_roots


def fock_space(spec) -> FockSpace:
    if isinstance(spec, ChainSpec):
        return FockSpace.chain(spec.n_sites, spec.spinful)
    return FockSpace.square(spec.lx, spec.ly)


def fock_hamiltonian(space, spec) -> SparseOperator:
    if isinstance(spec, ChainSpec):
        return chain_hamiltonian(space, spec)
    return dirac_hamiltonian(space, spec)


def fock_pair(space, pair) -> SparseOperator:
    """The Fock operator of one :class:`ChainPair` or :class:`SquarePair`."""
    if isinstance(pair, ChainPair):
        return _bond_sum(space, pair)
    return _square_pair_sum(space, pair)


def fock_combination(space, terms) -> SparseOperator:
    acc = SparseOperator.zero(space)
    for weight, pair in terms:
        acc = acc + complex(weight) * fock_pair(space, pair)
    return acc


def fock_identity_sides(space, h, identity):
    """``([H, target], sum rhs)`` as Fock operators."""
    return (commutator(h, fock_combination(space, identity.target)),
            fock_combination(space, identity.rhs))


def fock_identity_residual(space, h, identity) -> float:
    lhs, rhs = fock_identity_sides(space, h, identity)
    return (lhs - rhs).norm()


def fock_quadratic(space, h) -> SparseOperator:
    """``sum_ij h_ij c+_i c_j`` from creation matrices."""
    acc = SparseOperator.zero(space)
    for i, j in zip(*np.nonzero(h)):
        c_i = space._creation_matrix(int(i))
        c_j = space._creation_matrix(int(j))
        acc = acc + SparseOperator(space, complex(h[i, j]) * (c_i @ c_j.conj().T))
    return acc


def fock_pair_bilinear(space, m) -> SparseOperator:
    """``sum_ij M_ij c+_i c+_j`` from creation matrices."""
    acc = SparseOperator.zero(space)
    for i, j in zip(*np.nonzero(m)):
        c_i = space._creation_matrix(int(i))
        c_j = space._creation_matrix(int(j))
        acc = acc + SparseOperator(space, complex(m[i, j]) * (c_i @ c_j))
    return acc


def pair_reconstruction_terms(n_sites: int, p: int, l: int) -> tuple:
    """The inverse transform of ``c+_p c+_{p+l}`` as ``(weight, bond)`` terms, one per K.

    ``c+_p c+_{p+l} = (1/n_sites) sum_K e^{-ipk} e_{+lk}``: the term list
    that ``bondboson.interactions.reconstruction_stack`` contracts.
    """
    roots = unit_roots(n_sites)
    return tuple((roots[-K * p % n_sites] / n_sites, ChainPair(l, K)) for K in range(n_sites))


def sequential_pair_form(space, alpha) -> SparseOperator:
    """``-(1/2) sum alpha_nm (c+_n c+_m)(c_n c_m)``, n != m, summed term by term in (n, m) order."""
    n_sites = space.geometry["n_sites"]
    create = [space._creation_matrix(space.chain_mode(site)) for site in range(n_sites)]
    acc = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    for n in range(n_sites):
        for m in range(n_sites):
            if n == m or alpha[n, m] == 0.0:
                continue
            pair = create[n] @ create[m]
            lower = create[n].conj().T @ create[m].conj().T
            acc = acc - 0.5 * alpha[n, m] * (pair @ lower)
    return SparseOperator(space, acc)


def sequential_bond_assembly(space, alpha) -> SparseOperator:
    """The pair form with each pair bilinear reassembled from bonds, one product per term."""
    n_sites = space.geometry["n_sites"]
    assembled = SparseOperator.zero(space)
    for n in range(n_sites):
        for m in range(n_sites):
            if n == m or alpha[n, m] == 0.0:
                continue
            raising = pair_from_bonds(space, n, (m - n) % n_sites)
            lowering = pair_from_bonds(space, m, (n - m) % n_sites).adjoint()
            assembled = assembled + (-0.5 * alpha[n, m]) * (raising @ lowering)
    return assembled


def sequential_pair_products(space, raising, lowering, weights) -> SparseOperator:
    """``sum_t w_t P(A_t) P(B_t)^dag`` as one product and one pruned sum per term."""
    acc = SparseOperator.zero(space)
    for a, b, w in zip(raising, lowering, weights):
        acc = acc + complex(w) * (pair_bilinear(space, a) @ pair_bilinear(space, b).adjoint())
    return acc
