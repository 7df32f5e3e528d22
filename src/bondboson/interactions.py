"""Density-density interactions rewritten in bond operators, verified exactly.

The quartic density-density coupling on a chain is rewritten as a
pair-hopping form (termwise exact for distinct sites), and every pair
bilinear in it is assembled from the momentum bond operators by an
inverse transform over the full site grid.  The reconstruction is
quadratic, so it is one stack of n x n coefficient matrices, built once
per chain length and measured on coefficients.

The density form, the pair form and its bond assembly are (P, P) tensors
over the P fermion pairs, ``sum_pq T_pq P_p P_q^dag`` (:func:`pair_tensor`,
:func:`density_tensor`), measured with no 2^n object: the Frobenius norm
is a sum of squares of the tensor's entries (:func:`pair_tensor_norm`;
Hilbert-Schmidt orthogonality of fermion monomials, Bravyi and Kitaev,
quant-ph/0003137).  The Fock builds of the two forms are the tests' oracle.

No command loads :mod:`bondboson.fock` or scipy: the Fock builders
(:func:`creation_pair_direct`, :func:`coulomb_operator`,
:func:`coulomb_pair_form`, :func:`pair_from_bonds`) import them when
called.  ``_bond_sum`` is looked up here by the benchmark tracer alone;
the module ``__getattr__`` imports it from ``fock`` on lookup.

The same pair-reconstruction mechanism would turn density couplings to
quantized lattice vibrations or to gauge fields into interactions
between those bosons and the bond bosons; only the density-density case
is implemented here.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .bilinear import ChainPair, pair_norms, pair_stack
from .lattice import ChainSpec, unit_roots
from .numerics import max_residual, unfused_product
# imported for the benchmark tracer, which wraps these names where interactions looks them up
from .lattice import chain_momenta  # noqa: F401

if TYPE_CHECKING:
    from .fock import FockSpace, SparseOperator


def __getattr__(name: str):
    """``_bond_sum``, for the benchmark tracer, imported from :mod:`bondboson.fock` on lookup."""
    if name != "_bond_sum":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .fock import _bond_sum
    return _bond_sum


def _check_chain_space(space: FockSpace) -> int:
    """The site count of a spinless chain space; other spaces are rejected."""
    if not isinstance(space.spec, ChainSpec) or space.spec.spinful:
        raise ValueError("interaction rewrites are defined on spinless chain spaces")
    return space.spec.n_sites


def _check_coupling(alpha, space: FockSpace | None = None) -> np.ndarray:
    """``alpha`` as a symmetric square float array, one row per site of ``space``."""
    a = np.asarray(alpha, dtype=float)
    n = _check_chain_space(space) if space is not None else a.shape[0] if a.ndim else 0
    if a.shape != (n, n):
        raise ValueError(f"coupling matrix shape {a.shape} does not match {n} sites")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12):
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
    from .fock import SparseOperator

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
    from scipy import sparse

    from .fock import SparseOperator

    a = _check_coupling(alpha, space)
    occupied = (np.arange(space.dim) >> np.arange(space.n_modes)[:, None]) & 1 == 1
    diagonal = np.zeros(space.dim)
    for n, m in zip(*np.nonzero(a)):
        diagonal[occupied[n] & occupied[m]] += 0.5 * a[n, m]
    return SparseOperator(space, sparse.diags(diagonal, format="csr"))


def _coupled_pairs(a: np.ndarray) -> tuple:
    """The sites (n, m), n != m, with a nonzero coupling, row-major."""
    return np.nonzero(a - np.diag(np.diag(a)))


def pair_form_stacks(a: np.ndarray) -> tuple:
    """``(raising, lowering, weights)`` of the pair form of the validated coupling ``a``.

    One term per coupled pair (n, m), row-major: ``c+_n c+_m`` and
    ``c+_m c+_n`` as one-hot coefficient matrices, weight ``-alpha_nm / 2``.
    """
    n, m = _coupled_pairs(a)
    eye = np.eye(len(a))
    return eye[n, :, None] * eye[m, None, :], eye[m, :, None] * eye[n, None, :], -0.5 * a[n, m]


def coulomb_pair_form(space: FockSpace, alpha) -> SparseOperator:
    """Pair-hopping rewrite ``-(1/2) sum alpha_nm (c+_n c+_m)(c_n c_m)``, n != m.

    Termwise equal to the density-density form as an exact operator
    identity; the n = m terms vanish identically and are skipped.  With
    ``c_n c_m = (c+_m c+_n)^dag`` it is one :func:`~bondboson.fock.pair_products`
    of :func:`pair_form_stacks`.
    """
    from .fock import pair_products

    return pair_products(space, *pair_form_stacks(_check_coupling(alpha, space)))


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
    from .fock import pair_bilinear

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


def bond_assembled_stacks(a: np.ndarray) -> tuple:
    """:func:`pair_form_stacks` with each ``c+_n c+_m`` the :func:`reconstruction_stack` row
    that rebuilds it from bonds."""
    n, m = _coupled_pairs(a)
    stack = reconstruction_stack(len(a))
    return stack[n, (m - n) % len(a) - 1], stack[m, (n - m) % len(a) - 1], -0.5 * a[n, m]


def term_combinations(ta: np.ndarray, tb: np.ndarray, n_terms: int) -> tuple:
    """``(ka, kb)``: every entry ka of A's list with every entry kb of B's list of the same term.

    ``ta`` and ``tb`` are the terms of two entry lists, each grouped by
    term (B's in ascending term order); the pairs come in A's order, each
    A entry's B entries in B's order.
    """
    per_term = np.bincount(tb, minlength=n_terms)
    count = per_term[ta]
    ka = np.repeat(np.arange(len(ta)), count)
    kb = (np.repeat(np.cumsum(per_term)[ta] - count, count)  # the first entry of B's term
          + np.arange(len(ka)) - np.repeat(np.cumsum(count) - count, count))
    return ka, kb


def pair_tensor(raising, lowering, weights) -> np.ndarray:
    """``T = sum_t w_t a_t b_t^H`` of two (T, n, n) coefficient stacks and T weights.

    ``a_t``, ``b_t`` are the pair coefficients of A_t, B_t (the upper
    triangle of ``A - A^T``, the pairs p = (i < j) of
    :func:`bondboson.fock.pair_products`), so that operator is
    ``sum_pq T_pq P_p P_q^dag`` with ``P_p = c+_i c+_j``.  Each nonzero
    ``a_tp`` meets each nonzero ``b_tq`` in one unfused product
    ``(w_t a_tp) conj(b_tq)``, and each entry adds its products in term
    order (``np.bincount``); nothing is pruned.
    """
    a, b, w = (np.asarray(x, dtype=complex) for x in (raising, lowering, weights))
    n = a.shape[-1]
    if a.shape != b.shape or a.shape[1:] != (n, n) or w.shape != a.shape[:1]:
        raise ValueError(f"stacks {a.shape}, {b.shape} and weights {w.shape} do not match")
    i, j = np.triu_indices(n, 1)
    x, y = a[:, i, j] - a[:, j, i], (b[:, i, j] - b[:, j, i]).conj()
    ta, p = np.nonzero(x)
    tb, q = np.nonzero(y)
    ka, kb = term_combinations(ta, tb, len(w))
    product = unfused_product(unfused_product(w[ta], x[ta, p])[ka], y[tb, q][kb])
    slots, size = p[ka] * len(i) + q[kb], len(i) ** 2
    tensor = np.empty((len(i), len(i)), dtype=complex)
    tensor.real.flat = np.bincount(slots, product.real, size)
    tensor.imag.flat = np.bincount(slots, product.imag, size)
    return tensor


@lru_cache(maxsize=1)
def pair_gram_squares(n_modes: int) -> tuple:
    """``(diagonal, by_mode, shared, signs)``: the Gram matrix of the pair operators as squares.

    ``E_pq = P_p P_q^dag`` acts on the states with the bits of p u q fixed,
    with the Jordan-Wigner sign of :func:`bondboson.fock.pair_products`, so
    ``Tr(E_x^dag E_y)`` is nonzero only where x and y create the same modes
    and annihilate the same modes.  Over the flat indices ``x = p P + q``
    the Gram matrix is ``2^(n-4) (I + sum_r v_r v_r^T)``, with 0/+-1 rows:
    per ordered (i, l), i != l, the ``E_(is)(sl)`` over the modes s they
    share (``shared``), signed ``(-1)^[s lies between i and l]``
    (``signs``); and, as ``n_i n_j = (1 + z_i)(1 + z_j) / 4`` in
    orthogonal z monomials, one row of all ``E_pp`` (``diagonal``) and per
    mode i one of the ``E_pp`` with i in p (``by_mode``).  Built once per
    mode count; read-only.
    """
    i, j = np.triu_indices(n_modes, 1)
    count = len(i)
    pair = np.zeros((n_modes, n_modes), dtype=np.int64)
    pair[i, j] = pair[j, i] = np.arange(count)
    other = ~np.eye(n_modes, dtype=bool)
    created, annihilated = np.nonzero(other)
    shared = np.nonzero(other[created] & other[annihilated])[1]
    shared = shared.reshape(len(created), max(n_modes - 2, 0))
    squares = (np.arange(count) * (count + 1),
               (pair * (count + 1))[other].reshape(n_modes, max(n_modes - 1, 0)),
               pair[created[:, None], shared] * count + pair[shared, annihilated[:, None]],
               np.where((shared - created[:, None]) * (shared - annihilated[:, None]) < 0, -1.0, 1.0))
    for array in squares:
        array.setflags(write=False)
    return squares


def pair_tensor_norm(tensor: np.ndarray, n_modes: int) -> float:
    """Frobenius norm of ``sum_pq T_pq P_p P_q^dag`` on the 2^n_modes Fock space, from the tensor.

    ``||.||^2 = 2^(n-4) (|T|^2 + sum_r |v_r . T|^2)`` over the rows of
    :func:`pair_gram_squares`, real and imaginary parts apart: a sum of
    squares, so no clamp is needed and a NaN entry gives NaN.
    """
    diagonal, by_mode, shared, signs = pair_gram_squares(n_modes)
    if np.shape(tensor) != (len(diagonal),) * 2:
        raise ValueError(f"tensor shape {np.shape(tensor)} does not match {n_modes} modes")
    d = np.ascontiguousarray(tensor, dtype=complex).reshape(-1).view(float).reshape(-1, 2)
    squares = (d, d[diagonal].sum(axis=0), d[by_mode].sum(axis=1),
               (d[shared] * signs[..., None]).sum(axis=1))
    return float(np.sqrt(np.ldexp(sum(np.sum(s * s) for s in squares), n_modes - 4)))


def density_tensor(alpha) -> np.ndarray:
    """The :func:`pair_tensor` of ``(1/2) sum_nm alpha_nm n_n n_m``, alpha's diagonal zero.

    As ``n_i n_j = P_p P_p^dag``, it is diagonal: ``0.5 alpha_ij + 0.5 alpha_ji``
    (the form's sum in (n, m) order) on the pair p = (i < j).
    """
    a = _check_coupling(alpha)
    if np.any(np.diagonal(a)):
        raise ValueError("a diagonal coupling is a one-body term, not a pair operator")
    i, j = np.triu_indices(len(a), 1)
    return np.diag((0.5 * a[i, j] + 0.5 * a[j, i]).astype(complex))


def interaction_equivalence_residual(alpha, pair) -> float:
    """Frobenius distance of the pair form, of :func:`pair_tensor` ``pair``, to its bond assembly.

    The :func:`pair_tensor_norm` of ``pair`` less the tensor of
    :func:`bond_assembled_stacks`: nothing is pruned.
    """
    a = _check_coupling(alpha)
    return pair_tensor_norm(pair - pair_tensor(*bond_assembled_stacks(a)), len(a))
