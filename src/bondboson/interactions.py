"""Density-density interactions rewritten in bond operators, verified exactly.

The quartic density-density coupling on a chain can be rewritten as a
pair-hopping form (exact for distinct sites, where the two forms agree
termwise), and every pair bilinear can in turn be assembled from the
momentum bond operators by an inverse transform over the full site
grid.  The pair reconstruction is quadratic, so it is done and measured
on n x n coefficient matrices (:mod:`bondboson.bilinear`); only the two
quartic statements, the density-vs-pair form and the bond-assembled
interaction, are checked on Fock-space operators.

The same pair-reconstruction mechanism would turn density couplings to
quantized lattice vibrations or to gauge fields into interactions
between those bosons and the bond bosons; only the density-density case
is implemented here.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .bilinear import ChainPair, PairCoefficients, pair_norm
from .fock import FockSpace, SparseOperator, pair_bilinear
from .lattice import ChainSpec, unit_roots
from .numerics import max_residual
# imported for the benchmark tracer, which wraps these names where interactions looks them up
from .fock import _bond_sum  # noqa: F401
from .lattice import chain_momenta  # noqa: F401


def _check_chain_space(space: FockSpace):
    if space.kind != "chain" or space.spinful:
        raise ValueError("interaction rewrites are defined on spinless chain spaces")


def _check_coupling(space: FockSpace, alpha) -> np.ndarray:
    a = np.asarray(alpha, dtype=float)
    n = space.geometry["n_sites"]
    if a.shape != (n, n):
        raise ValueError(f"coupling matrix shape {a.shape} does not match {n} sites")
    if not np.allclose(a, a.T, atol=1e-12):
        raise ValueError("coupling matrix must be symmetric")
    return a


def random_offdiag_coupling(n_sites: int, seed: int = 0, scale: float = 1.0) -> np.ndarray:
    """Seeded random symmetric coupling with zero diagonal."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-scale, scale, size=(n_sites, n_sites))
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, 0.0)
    return a


def creation_pair_direct(space: FockSpace, p: int, l: int) -> SparseOperator:
    """``c+_p c+_{p+l}`` built directly; the reconstruction target."""
    _check_chain_space(space)
    n_sites = space.geometry["n_sites"]
    if not 0 <= p < n_sites:
        raise ValueError(f"anchor {p} out of range 0..{n_sites - 1}")
    c1 = space._creation_matrix(space.chain_mode(p))
    c2 = space._creation_matrix(space.chain_mode(p + l))
    return SparseOperator(space, c1 @ c2)


def coulomb_operator(space: FockSpace, alpha) -> SparseOperator:
    """Density-density interaction ``(1/2) sum_{n,m} alpha_nm n_n n_m``."""
    _check_chain_space(space)
    a = _check_coupling(space, alpha)
    n_sites = space.geometry["n_sites"]
    numbers = []
    for site in range(n_sites):
        c = space._creation_matrix(space.chain_mode(site))
        numbers.append(c @ c.conj().T)
    acc = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    for n in range(n_sites):
        for m in range(n_sites):
            if a[n, m] != 0.0:
                acc = acc + 0.5 * a[n, m] * (numbers[n] @ numbers[m])
    return SparseOperator(space, acc)


def coulomb_pair_form(space: FockSpace, alpha) -> SparseOperator:
    """Pair-hopping rewrite ``-(1/2) sum alpha_nm (c+_n c+_m)(c_n c_m)``.

    For n != m this equals the density-density form termwise as an
    exact operator identity; the n = m terms vanish identically
    (a squared creation operator is zero) and are skipped, so a purely
    diagonal coupling maps to the zero operator.
    """
    _check_chain_space(space)
    a = _check_coupling(space, alpha)
    n_sites = space.geometry["n_sites"]
    create = [space._creation_matrix(space.chain_mode(site)) for site in range(n_sites)]
    acc = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    for n in range(n_sites):
        for m in range(n_sites):
            if n == m or a[n, m] == 0.0:
                continue
            pair = create[n] @ create[m]
            lower = create[n].conj().T @ create[m].conj().T
            acc = acc - 0.5 * a[n, m] * (pair @ lower)
    return SparseOperator(space, acc)


def pair_reconstruction_terms(n_sites: int, p: int, l: int) -> tuple:
    """The inverse transform of ``c+_p c+_{p+l}`` as ``(weight, bond)`` terms.

    ``c+_p c+_{p+l} = (1/n_sites) sum_K e^{-ipk} e_{+lk}`` over the full
    site grid k = 2 pi K / n_sites, with ``e_{+lk}`` the full-chain
    spin-up bond :class:`~bondboson.bilinear.ChainPair`.  The grid-size
    factor is required for the momentum sum to project out the single
    anchor p; the identity is exact for every offset
    1 <= l <= n_sites - 1.
    """
    if not 0 <= p < n_sites:
        raise ValueError(f"anchor {p} out of range 0..{n_sites - 1}")
    if not 1 <= l <= n_sites - 1:
        raise ValueError(f"offset {l} out of range 1..{n_sites - 1}")
    roots = unit_roots(n_sites)
    return tuple((roots[-K * p % n_sites] / n_sites, ChainPair(l, K)) for K in range(n_sites))


def pair_coefficients(coefficients: PairCoefficients, p: int, l: int) -> np.ndarray:
    """Coefficient matrix of ``c+_p c+_{p+l}`` reassembled from bond coefficients."""
    return coefficients.combination(pair_reconstruction_terms(coefficients.spec.n_sites, p, l))


def pair_from_bonds(space: FockSpace, p: int, l: int) -> SparseOperator:
    """Reassemble ``c+_p c+_{p+l}`` from bond operators.

    The inverse transform (:func:`pair_reconstruction_terms`) runs on
    the n x n bond coefficient matrices; the result is built on the
    Fock space in one pass (:func:`bondboson.fock.pair_bilinear`).
    """
    _check_chain_space(space)
    coefficients = PairCoefficients(ChainSpec(space.geometry["n_sites"]))
    return pair_bilinear(space, pair_coefficients(coefficients, p, l))


def pair_reconstruction_max(n_sites: int) -> float:
    """Largest Fock-space distance between ``c+_p c+_{p+l}`` and its bond reconstruction.

    Over every anchor p and offset 1 <= l <= n_sites - 1, measured on
    coefficients (:func:`bondboson.bilinear.pair_norm`) with no entry
    pruned.
    """
    coefficients = PairCoefficients(ChainSpec(n_sites))
    worst = []
    for p in range(n_sites):
        for l in range(1, n_sites):
            target = np.zeros((n_sites, n_sites), dtype=complex)
            target[p, (p + l) % n_sites] = 1.0
            worst.append(pair_norm(pair_coefficients(coefficients, p, l) - target))
    return max_residual(worst)


def interaction_equivalence_residual(space: FockSpace, alpha) -> float:
    """Frobenius distance between the pair form and its bond assembly.

    The pair-hopping interaction is rebuilt with every pair bilinear
    replaced by its bond-operator reconstruction; the distance to the
    directly constructed operator must vanish to machine precision.
    """
    _check_chain_space(space)
    a = _check_coupling(space, alpha)
    n_sites = space.geometry["n_sites"]
    direct = coulomb_pair_form(space, a)
    pairs = {}

    def pair(anchor, offset):
        key = (anchor, offset)
        if key not in pairs:
            pairs[key] = pair_from_bonds(space, anchor, offset)
        return pairs[key]

    assembled = SparseOperator.zero(space)
    for n in range(n_sites):
        for m in range(n_sites):
            if n == m or a[n, m] == 0.0:
                continue
            raising = pair(n, (m - n) % n_sites)
            lowering = pair(m, (n - m) % n_sites).adjoint()
            assembled = assembled + (-0.5 * a[n, m]) * (raising @ lowering)
    return (direct - assembled).norm()
