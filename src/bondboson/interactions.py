"""Density-density interactions rewritten in bond operators, verified exactly.

The quartic density-density coupling on a chain is rewritten as a
pair-hopping form (termwise exact for distinct sites), and every pair
bilinear in it is assembled from the momentum bond operators by an
inverse transform over the full site grid.  The reconstruction is
quadratic, so it is one stack of n x n coefficient matrices, built once
per chain length and measured on coefficients.  The two quartic
statements are checked on Fock operators: the density form is read from
the basis-state bits, and the pair form and its bond assembly are each
one stacked build of all coupled pairs (:func:`bondboson.fock.pair_products`,
an ordered scatter that adds each Fock entry's terms in (n, m) order).

The same pair-reconstruction mechanism would turn density couplings to
quantized lattice vibrations or to gauge fields into interactions
between those bosons and the bond bosons; only the density-density case
is implemented here.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import sparse

from .bilinear import ChainPair, pair_norms, pair_stack
from .fock import FockSpace, SparseOperator, pair_bilinear, pair_products
from .lattice import ChainSpec, unit_roots
from .numerics import max_residual
# imported for the benchmark tracer, which wraps these names where interactions looks them up
from .fock import _bond_sum  # noqa: F401
from .lattice import chain_momenta  # noqa: F401


def _check_chain_space(space: FockSpace) -> int:
    """The site count of a spinless chain space; other spaces are rejected."""
    if not isinstance(space.spec, ChainSpec) or space.spec.spinful:
        raise ValueError("interaction rewrites are defined on spinless chain spaces")
    return space.spec.n_sites


def _check_coupling(space: FockSpace, alpha) -> np.ndarray:
    n = _check_chain_space(space)
    a = np.asarray(alpha, dtype=float)
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


def _chain_sites(space: FockSpace, anchor: int) -> int:
    n_sites = _check_chain_space(space)
    if not 0 <= anchor < n_sites:
        raise ValueError(f"anchor {anchor} out of range 0..{n_sites - 1}")
    return n_sites


def creation_pair_direct(space: FockSpace, p: int, l: int) -> SparseOperator:
    """``c+_p c+_{p+l}`` built directly; the reconstruction target."""
    _chain_sites(space, p)
    c1 = space._creation_matrix(space.chain_mode(p))
    c2 = space._creation_matrix(space.chain_mode(p + l))
    return SparseOperator(space, c1 @ c2)


def coulomb_operator(space: FockSpace, alpha) -> SparseOperator:
    """Density-density interaction ``(1/2) sum_{n,m} alpha_nm n_n n_m``.

    Diagonal: each basis state adds ``alpha_nm / 2`` for every pair of its
    occupied bits, in row-major (n, m) order.  The occupations are read
    from the state bits, a route independent of the creation matrices.
    """
    a = _check_coupling(space, alpha)
    occupied = (np.arange(space.dim) >> np.arange(space.n_modes)[:, None]) & 1 == 1
    diagonal = np.zeros(space.dim)
    for n, m in zip(*np.nonzero(a)):
        diagonal[occupied[n] & occupied[m]] += 0.5 * a[n, m]
    return SparseOperator(space, sparse.diags(diagonal, format="csr"))


def _coupled_pairs(a: np.ndarray) -> tuple:
    """The sites (n, m), n != m, with a nonzero coupling, row-major."""
    return np.nonzero(a - np.diag(np.diag(a)))


def coulomb_pair_form(space: FockSpace, alpha) -> SparseOperator:
    """Pair-hopping rewrite ``-(1/2) sum alpha_nm (c+_n c+_m)(c_n c_m)``, n != m.

    Termwise equal to the density-density form as an exact operator
    identity; the n = m terms vanish identically and are skipped.  With
    ``c_n c_m = (c+_m c+_n)^dag`` it is one :func:`~bondboson.fock.pair_products`.
    """
    a = _check_coupling(space, alpha)
    n, m = _coupled_pairs(a)
    eye = np.eye(len(a))
    return pair_products(space, eye[n, :, None] * eye[m, None, :], eye[m, :, None] * eye[n, None, :],
                         -0.5 * a[n, m])


@lru_cache(maxsize=1)
def reconstruction_stack(n_sites: int) -> np.ndarray:
    """``R[p, l - 1]``, the coefficients of ``c+_p c+_{p+l}`` reassembled from bonds.

    ``c+_p c+_{p+l} = (1/n_sites) sum_K e^{-ipk} e_{+lk}`` over the full
    site grid k = 2 pi K / n_sites, with ``e_{+lk}`` the full-chain
    spin-up bond :class:`~bondboson.bilinear.ChainPair`; the grid-size
    factor projects out the single anchor p, exactly for every offset
    1 <= l <= n_sites - 1.  One contraction of the bond coefficient
    matrices (one :func:`~bondboson.bilinear.pair_stack` of every K and
    l) with the exact roots, summed over K in grid order; read-only.
    """
    grid = np.arange(n_sites)
    weights = unit_roots(n_sites)[-np.outer(grid, grid) % n_sites] / n_sites
    bonds = pair_stack(ChainSpec(n_sites), [ChainPair(l, K) for K in range(n_sites)
                                            for l in range(1, n_sites)])
    bonds = bonds.reshape(n_sites, n_sites - 1, n_sites, n_sites)
    stack = np.zeros((n_sites, n_sites - 1, n_sites, n_sites), dtype=complex)
    for K in grid:
        stack += weights[:, K, None, None, None] * bonds[K]
    stack.setflags(write=False)
    return stack


def pair_from_bonds(space: FockSpace, p: int, l: int) -> SparseOperator:
    """Reassemble ``c+_p c+_{p+l}`` from bond operators (:func:`reconstruction_stack`)."""
    n_sites = _chain_sites(space, p)
    if not 1 <= l <= n_sites - 1:
        raise ValueError(f"offset {l} out of range 1..{n_sites - 1}")
    return pair_bilinear(space, reconstruction_stack(n_sites)[p, l - 1])


def pair_reconstruction_max(n_sites: int) -> float:
    """Largest Fock-space distance between ``c+_p c+_{p+l}`` and its bond reconstruction.

    Over every anchor p and offset 1 <= l <= n_sites - 1, measured on
    coefficients (:func:`bondboson.bilinear.pair_norms`) with no entry
    pruned.
    """
    p, l = np.divmod(np.arange(n_sites * (n_sites - 1)), n_sites - 1)
    eye = np.eye(n_sites)
    residuals = (reconstruction_stack(n_sites).reshape(-1, n_sites, n_sites)
                 - eye[p, :, None] * eye[(p + l + 1) % n_sites, None, :])
    return max_residual(pair_norms(residuals))


def bond_assembled_pair_form(space: FockSpace, alpha) -> SparseOperator:
    """The pair form with each ``c+_n c+_m`` and ``c_n c_m`` rebuilt from bonds, as one stacked build."""
    a = _check_coupling(space, alpha)
    n, m = _coupled_pairs(a)
    stack = reconstruction_stack(len(a))
    return pair_products(space, stack[n, (m - n) % len(a) - 1], stack[m, (n - m) % len(a) - 1],
                         -0.5 * a[n, m])


def interaction_equivalence_residual(space: FockSpace, alpha, direct: SparseOperator) -> float:
    """Frobenius distance of ``direct``, the caller's :func:`coulomb_pair_form`, to its bond assembly."""
    return (direct - bond_assembled_pair_form(space, alpha)).norm()
