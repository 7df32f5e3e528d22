"""Fock-space evaluation of the bilinear identities: the independent cross-check.

The package checks the H-bond identities and the pair reconstruction on
n x n coefficient matrices (``bondboson.bilinear``).  Here the same
formula data (the rows of an :class:`~bondboson.bilinear.IdentityTable`,
the reconstruction terms), each side a list of weights and of integer
pair labels, are evaluated on 2^n-dimensional sparse Fock operators
instead: pair sums of the labels from ``_bond_sum`` /
``_square_pair_sum`` with ``np.exp`` phases, the Hamiltonian from ``chain_hamiltonian`` /
``dirac_hamiltonian`` and the left-hand side from ``commutator``.

The quadratic builds have their one-at-a-time references here too: one
coefficient matrix per label (:func:`label_matrix`) and one weighted sum
per identity side (:func:`combination`), against which the stacked label
build and the batched identity evaluation of ``bondboson.bilinear`` are
checked bit for bit.

The quartic interaction builds have their term-by-term references here
too: one sparse product and one sum per coupled pair, in (n, m) order,
against which the stacked builds of ``bondboson.interactions`` are
checked.  The chunked sparse product (:func:`chunked_pair_products`) is
the reference that the ordered scatter of ``bondboson.fock.pair_products``
matches bit for bit.  The bond assembly of the pair form is built here as
a Fock operator (:func:`bond_assembled_pair_form`); the package measures
its distance to the pair form on coefficients, with the pair tensor of
``bondboson.interactions.pair_tensor``, whose term-by-term sum
(:func:`sequential_pair_tensor`) and unpruned Fock operator
(:func:`pair_tensor_operator`) are here too.

The near-filling table ``X W X^H`` has its sparse product here
(:func:`sparse_commutator_table`), the reference that the ordered
scatter of ``bondboson.bilinear.pair_commutator_table`` matches bit for
bit.
"""

import numpy as np
from scipy import sparse

from bondboson.bilinear import (
    ChainPair,
    SquarePair,
    commutator_with_hopping,
    pair_stack,
)
from bondboson.fermion_model import hopping_matrix
from bondboson.fock import (
    SparseOperator,
    _bond_sum,
    _pair_entries,
    _square_pair_sum,
    chain_hamiltonian,
    commutator,
    dirac_hamiltonian,
    pair_bilinear,
    pair_products,
)
from bondboson.numerics import unfused_product
from bondboson.interactions import bond_assembled_stacks, pair_from_bonds
from bondboson.lattice import ChainSpec, chain_anchors, chain_mode, square_mode, unit_roots


def fock_hamiltonian(space) -> SparseOperator:
    if isinstance(space.spec, ChainSpec):
        return chain_hamiltonian(space)
    return dirac_hamiltonian(space)


def as_label(spec, row):
    """The :class:`ChainPair` or :class:`SquarePair` of the spec's lattice spelled by ``row``."""
    label = ChainPair if isinstance(spec, ChainSpec) else SquarePair
    return label(*(int(field) for field in row))


def fock_pair(space, pair) -> SparseOperator:
    """The Fock operator of one pair label (a label or its row of ints)."""
    pair = as_label(space.spec, pair)
    if isinstance(pair, ChainPair):
        return _bond_sum(space, pair)
    return _square_pair_sum(space, pair)


def fock_combination(space, weights, labels) -> SparseOperator:
    acc = SparseOperator.zero(space)
    for weight, pair in zip(weights, labels):
        acc = acc + complex(weight) * fock_pair(space, pair)
    return acc


def identity_terms(identities, i) -> tuple:
    """``((weights, labels), (weights, labels))``: the target and the right-hand side of identity i."""
    return ((identities.target_weights[i], identities.target_labels[i]),
            (identities.rhs_weights[i], identities.rhs_labels[i]))


def fock_identity_sides(space, h, identities, i):
    """``([H, target], sum rhs)`` of identity i of the table, as Fock operators."""
    target, rhs = identity_terms(identities, i)
    return commutator(h, fock_combination(space, *target)), fock_combination(space, *rhs)


def fock_identity_residual(space, h, identities, i) -> float:
    lhs, rhs = fock_identity_sides(space, h, identities, i)
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


def label_matrix(spec, pair) -> np.ndarray:
    """The coefficient matrix of one pair label (a label or its row of ints), built alone."""
    pair = as_label(spec, pair)
    n = spec.n_modes
    a = np.zeros((n, n), dtype=complex)
    if isinstance(pair, ChainPair):
        n_sites, spinful = spec.n_sites, spec.spinful
        _, anchors, position = chain_anchors(n_sites, pair.sublattice)
        a[chain_mode(n_sites, anchors, pair.spin1, spinful),
          chain_mode(n_sites, anchors + pair.l, pair.spin2, spinful)] = (
            unit_roots(n_sites)[(pair.K * position) % n_sites])
        return a
    lx, ly = spec.lx, spec.ly
    x, y = (v.ravel() for v in np.meshgrid(np.arange(lx), np.arange(ly), indexing="ij"))
    a[square_mode(lx, ly, x, y, pair.comp1),
      square_mode(lx, ly, x + pair.l, y + pair.m, pair.comp2)] = (
        unit_roots(lx)[(pair.Kx * x) % lx] * unit_roots(ly)[(pair.Ky * y) % ly])
    return a


def combination(spec, weights, labels) -> np.ndarray:
    """``sum weight * label`` over the terms, one label at a time."""
    acc = np.zeros((spec.n_modes,) * 2, dtype=complex)
    for weight, pair in zip(weights, labels):
        acc += weight * label_matrix(spec, pair)
    return acc


def identity_sides(spec, h, identities, i):
    """``(hA + A h^T, sum rhs)``: the coefficient matrices of both sides of identity i."""
    target, rhs = identity_terms(identities, i)
    return commutator_with_hopping(h, combination(spec, *target)), combination(spec, *rhs)


def pair_norm_formula(m) -> float:
    """The Fock-space Frobenius norm of the pair bilinear of the n x n matrix m, by the
    formula ``2^((n-3)/2) * ||m - m^T||_F``, one ``np.linalg.norm`` per matrix: the
    reference that ``bondboson.bilinear.pair_norms`` matches bit for bit."""
    n = m.shape[0]
    return float(np.sqrt(2.0 ** (n - 3)) * np.linalg.norm(m - m.T))


def sequential_identity_residuals(spec, identities) -> list:
    """:func:`pair_norm_formula` of LHS - RHS, one identity at a time."""
    h = hopping_matrix(spec)
    return [pair_norm_formula(lhs - rhs) for lhs, rhs in (identity_sides(spec, h, identities, i)
                                                          for i in range(len(identities.channel)))]


def pair_reconstruction_terms(n_sites: int, p: int, l: int) -> tuple:
    """The inverse transform of ``c+_p c+_{p+l}`` as ``(weights, bonds)``, one term per K.

    ``c+_p c+_{p+l} = (1/n_sites) sum_K e^{-ipk} e_{+lk}``: the terms
    that ``bondboson.interactions.reconstruction_stack`` contracts.
    """
    K = np.arange(n_sites)
    return unit_roots(n_sites)[-K * p % n_sites] / n_sites, [ChainPair(l, k) for k in K.tolist()]


def sequential_pair_form(space, alpha) -> SparseOperator:
    """``-(1/2) sum alpha_nm (c+_n c+_m)(c_n c_m)``, n != m, summed term by term in (n, m) order."""
    n_sites = space.spec.n_sites
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
    n_sites = space.spec.n_sites
    assembled = SparseOperator.zero(space)
    for n in range(n_sites):
        for m in range(n_sites):
            if n == m or alpha[n, m] == 0.0:
                continue
            raising = pair_from_bonds(space, n, (m - n) % n_sites)
            lowering = pair_from_bonds(space, m, (n - m) % n_sites).adjoint()
            assembled = assembled + (-0.5 * alpha[n, m]) * (raising @ lowering)
    return assembled


def bond_assembled_pair_form(space, alpha) -> SparseOperator:
    """The pair form with each ``c+_n c+_m`` and ``c_n c_m`` rebuilt from bonds, as one stacked build."""
    return pair_products(space, *bond_assembled_stacks(np.asarray(alpha, dtype=float)))


def sequential_pair_tensor(raising, lowering, weights) -> np.ndarray:
    """``sum_t w_t a_t b_t^H`` of the pair coefficients, one outer product and one sum per term.

    Each product is ``(w_t a_tp) conj(b_tq)``, unfused, as in
    ``bondboson.interactions.pair_tensor``, which adds each entry's nonzero
    products in the same term order and so has these bits.
    """
    a, b = (np.asarray(x, dtype=complex) for x in (raising, lowering))
    i, j = np.triu_indices(a.shape[-1], 1)
    acc = np.zeros((len(i), len(i)), dtype=complex)
    for x, y, w in zip(a - a.transpose(0, 2, 1), b - b.transpose(0, 2, 1), weights):
        acc = acc + unfused_product(unfused_product(w, x[i, j])[:, None], y[i, j].conj()[None, :])
    return acc


def pair_tensor_operator(space, tensor):
    """``sum_pq T_pq (c+_i c+_j)(c+_k c+_l)^dag`` over the pairs p = (i < j), q = (k < l), from
    creation matrices, as a scipy matrix with no entry pruned."""
    n = space.n_modes
    create = [space._creation_matrix(mode) for mode in range(n)]
    pairs = [create[i] @ create[j] for i, j in zip(*np.triu_indices(n, 1))]
    total = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    for q, lowering in enumerate(pairs):
        raising = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
        for t, pair in zip(tensor[:, q], pairs):
            raising = raising + complex(t) * pair
        total = total + raising @ lowering.conj().T
    return total


def sequential_pair_products(space, raising, lowering, weights) -> SparseOperator:
    """``sum_t w_t P(A_t) P(B_t)^dag`` as one product and one pruned sum per term."""
    acc = SparseOperator.zero(space)
    for a, b, w in zip(raising, lowering, weights):
        acc = acc + complex(w) * (pair_bilinear(space, a) @ pair_bilinear(space, b).adjoint())
    return acc


# Terms per sparse product in :func:`chunked_pair_products`.
PRODUCT_CHUNK = 12


def chunked_pair_products(space, raising, lowering, weights) -> SparseOperator:
    """``sum_t w_t P(A_t) P(B_t)^dag`` as one sparse product per :data:`PRODUCT_CHUNK` terms.

    ``[S | w_1 P(A_1) | ...] @ [I ; P(B_1)^dag ; ...]`` carries the running
    sum S in as its leading term, so each Fock entry adds its terms to S
    one by one in stack order.  The stacked build of ``bondboson.fock``
    has the bits of this product.
    """
    a, b, w = (np.asarray(x, dtype=complex) for x in (raising, lowering, weights))
    n, dim = space.n_modes, space.dim
    eye = sparse.identity(dim, dtype=complex, format="csr")
    total = sparse.csr_matrix((dim, dim), dtype=complex)
    for start in range(0, len(w), PRODUCT_CHUNK):
        t, rows, cols, data = _pair_entries(n, a[start:start + PRODUCT_CHUNK])
        left = sparse.csr_matrix((w[start + t] * data, (rows, t * dim + cols)),
                                 shape=(dim, PRODUCT_CHUNK * dim))
        t, rows, cols, data = _pair_entries(n, b[start:start + PRODUCT_CHUNK])
        right = sparse.csr_matrix((data.conj(), (t * dim + cols, rows)),
                                  shape=(PRODUCT_CHUNK * dim, dim))
        total = sparse.hstack([total, left], format="csr") @ sparse.vstack([eye, right], format="csr")
    return SparseOperator(space, total)


def sparse_commutator_table(spec, pairs, holes) -> np.ndarray:
    """``<s| [P_A, P_B^dag] |s>`` for every ordered pair of labels, as one sparse product.

    s is the filled state with the modes ``holes`` empty.  The labels'
    ``a_ij`` (i < j) are the rows of X and ``n_i n_j - (1-n_i)(1-n_j)``
    the diagonal W; the table is scipy's ``X W X^H``, whose row-by-row
    product adds each entry's terms in ascending column of X.
    """
    n = spec.n_modes
    occupied = np.ones(n)
    occupied[list(holes)] = 0.0
    i, j = np.triu_indices(n, 1)
    weights = occupied[i] * occupied[j] - (1.0 - occupied[i]) * (1.0 - occupied[j])
    a = pair_stack(spec, pairs)
    x = sparse.csr_matrix((a - a.transpose(0, 2, 1))[:, i, j])
    return (x.multiply(weights).tocsr() @ x.conj().T).toarray()
