"""Fock-space evaluation of the bilinear identities: the independent cross-check.

The package checks the H-bond identities and the pair reconstruction on
n x n coefficient matrices (``bondboson.bilinear``).  Here the same
formula data (:class:`~bondboson.bilinear.Identity` terms, the
reconstruction terms) are evaluated on 2^n-dimensional sparse Fock
operators instead: pair sums of the integer labels from ``_bond_sum`` /
``_square_pair_sum`` with ``np.exp`` phases, the Hamiltonian from ``chain_hamiltonian`` /
``dirac_hamiltonian`` and the left-hand side from ``commutator``.
"""

import numpy as np

from bondboson.bilinear import ChainPair
from bondboson.fock import (
    FockSpace,
    SparseOperator,
    _bond_sum,
    _square_pair_sum,
    chain_hamiltonian,
    commutator,
    dirac_hamiltonian,
)
from bondboson.lattice import ChainSpec


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
