"""Exact many-body engine on occupation-bitset Fock spaces (<= 16 modes).

Creation operators, sparse operator algebra, hopping Hamiltonians and
the Fock-space builds from coefficient matrices: a pair bilinear
``P(M)``, and a weighted sum of pair products ``P(A) P(B)^dag`` built
from whole stacks of coefficient matrices by one ordered scatter of
their state-by-state contributions, with no sparse product.  The
package uses them for the quartic interaction checks
(:mod:`bondboson.interactions`); every quadratic statement is evaluated
on n x n coefficient matrices in :mod:`bondboson.bilinear`.

The pair sums :func:`_bond_sum` and :func:`_square_pair_sum` build the
Fock operator of an integer pair label (a ``ChainPair`` or
``SquarePair``, read by its named fields) directly from creation
matrices, with ``np.exp`` phases.
No command calls them: they are the tests' independent cross-check of
the coefficient route.

A space is built from the lattice's spec, ``FockSpace(ChainSpec(...))``
or ``FockSpace(SquareSpec(...))``, which it keeps as ``space.spec``: the
Hamiltonians and pair sums read the lattice from it.  Basis state ``i``
occupies mode ``b`` iff bit ``b`` of ``i`` is set.  Mode order is
site-major:

* chain, spinless: ``mode = site``
* chain, spinful:  ``mode = 2*site + spin`` (spin 0 = up, 1 = down)
* square lattice:  ``mode = 2*(x*ly + y) + component`` (0 = c, 1 = b)

Signs follow the Jordan-Wigner convention: applying a creation operator
to a basis state picks up the parity of the occupied modes below the
target.  All verified statements are representation independent; the
fixed convention exists so golden files are deterministic.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .bilinear import check_mode_cap
from .lattice import chain_anchors, chain_mode, square_mode
from .numerics import unfused_product
# imported for the benchmark tracer, which wraps these names where fock looks them up
from .lattice import chain_momenta, on_grid, square_momenta  # noqa: F401

# Entries with modulus below this are dropped from stored operators.
PRUNE_TOL = 1e-15

# Contributions per scatter block in :func:`pair_products` (a block holds at
# least one pair combination): bounds the state arrays, which would grow
# with the term count if built all at once.
SCATTER_BLOCK = 1 << 13


class FockSpace:
    """Full 2^n_modes occupation basis of the lattice of a ChainSpec or SquareSpec."""

    def __init__(self, spec):
        check_mode_cap(spec.n_modes)
        self.spec = spec
        self.n_modes = spec.n_modes
        self.dim = 1 << self.n_modes
        self._creation_cache = {}
        # Built pair sums, keyed by their pair label; operators are
        # immutable after construction, so sharing is safe.
        self._op_cache = {}

    @property
    def filled_state(self) -> int:
        return self.dim - 1

    def chain_mode(self, site: int, spin: int = 0) -> int:
        """The mode of a site and spin of the chain spec's space."""
        if spin != 0 and not self.spec.spinful:
            raise ValueError("spinless space has a single species")
        return chain_mode(self.spec.n_sites, site, spin, self.spec.spinful)

    def _creation_matrix(self, mode: int):
        if mode < 0 or mode >= self.n_modes:
            raise ValueError(f"mode {mode} out of range for {self.n_modes} modes")
        cached = self._creation_cache.get(mode)
        if cached is not None:
            return cached
        states = np.arange(self.dim, dtype=np.uint32)
        cols = states[(states >> mode) & 1 == 0]
        rows = cols | np.uint32(1 << mode)
        below = np.bitwise_count(cols & np.uint32((1 << mode) - 1))
        signs = (1.0 - 2.0 * (below.astype(np.int64) & 1)).astype(complex)
        mat = sparse.csr_matrix(
            (signs, (rows.astype(np.int64), cols.astype(np.int64))),
            shape=(self.dim, self.dim),
        )
        self._creation_cache[mode] = mat
        return mat

    def __repr__(self):
        return f"FockSpace({self.spec!r})"


class SparseOperator:
    """Sparse complex operator bound to a FockSpace.

    Thin wrapper over CSR storage; algebra between operators living on
    different spaces is rejected, and entries with modulus below 1e-15
    are pruned after every operation.
    """

    __slots__ = ("space", "matrix")

    def __init__(self, space: FockSpace, matrix):
        m = matrix.tocsr() if sparse.issparse(matrix) else sparse.csr_matrix(matrix)
        if m.dtype != complex:
            m = m.astype(complex)
        if m.shape != (space.dim, space.dim):
            raise ValueError(f"matrix shape {m.shape} does not match space dim {space.dim}")
        if m.nnz:
            mask = np.abs(m.data) < PRUNE_TOL
            if mask.any():
                m.data[mask] = 0.0
                m.eliminate_zeros()
        self.space = space
        self.matrix = m

    @classmethod
    def zero(cls, space: FockSpace) -> "SparseOperator":
        return cls(space, sparse.csr_matrix((space.dim, space.dim), dtype=complex))

    @classmethod
    def identity(cls, space: FockSpace) -> "SparseOperator":
        return cls(space, sparse.identity(space.dim, dtype=complex, format="csr"))

    def _check_space(self, other: "SparseOperator"):
        if self.space is not other.space:
            raise ValueError("operators live on different Fock spaces")

    def __add__(self, other):
        self._check_space(other)
        return SparseOperator(self.space, self.matrix + other.matrix)

    def __sub__(self, other):
        self._check_space(other)
        return SparseOperator(self.space, self.matrix - other.matrix)

    def __neg__(self):
        return SparseOperator(self.space, -self.matrix)

    def __mul__(self, scalar):
        return SparseOperator(self.space, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check_space(other)
        return SparseOperator(self.space, self.matrix @ other.matrix)

    def adjoint(self) -> "SparseOperator":
        return SparseOperator(self.space, self.matrix.conj().T)

    def norm(self) -> float:
        """Frobenius norm."""
        if self.matrix.nnz == 0:
            return 0.0
        return float(np.sqrt(np.sum(np.abs(self.matrix.data) ** 2)))

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def expectation(self, state: int) -> complex:
        """Diagonal matrix element in the occupation basis state ``state``."""
        if state < 0 or state >= self.space.dim:
            raise ValueError(f"basis state {state} out of range")
        return complex(self.matrix[state, state])

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def __repr__(self):
        return f"SparseOperator(dim={self.space.dim}, nnz={self.nnz})"


def creation_op(space: FockSpace, mode: int) -> SparseOperator:
    """Creation operator of one mode (Jordan-Wigner signs)."""
    return SparseOperator(space, space._creation_matrix(mode))


def commutator(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """AB - BA, pruned; rejects operators from different spaces."""
    a._check_space(b)
    return SparseOperator(a.space, a.matrix @ b.matrix - b.matrix @ a.matrix)


def _pairs(stack: np.ndarray) -> tuple:
    """The pairs ``(term, i, j, weight)``, i < j, of the pair bilinears of a (T, n, n) stack.

    ``sum_ij M_ij c+_i c+_j = sum_{i<j} (M_ij - M_ji) c+_i c+_j``.  Pairs
    whose weight is below the pruning tolerance are dropped, as pruning
    the built operator would do.
    """
    weights = np.triu(stack - stack.transpose(0, 2, 1), 1)
    t, i, j = np.nonzero(np.abs(weights) >= PRUNE_TOL)
    return t, i, j, weights[t, i, j]


def _pair_entries(n_modes: int, stack: np.ndarray) -> tuple:
    """COO entries ``(term, row, col, value)`` of the pair bilinears of a (T, n, n) stack.

    Each pair of :func:`_pairs` has one entry per basis state s with modes
    i and j empty, at row ``s | 2^i | 2^j``, with a Jordan-Wigner sign;
    all are built in one vectorized pass.
    """
    t, i, j, weights = (x[:, None] for x in _pairs(stack))
    # the states with modes i < j empty: insert a zero bit at i, then at j
    free = np.arange(1 << (n_modes - 2), dtype=np.int64)[None, :]
    free = ((free >> i) << (i + 1)) | (free & ((1 << i) - 1))
    free = ((free >> j) << (j + 1)) | (free & ((1 << j) - 1))
    below = np.bitwise_count(free & ((1 << i) - 1)) + np.bitwise_count(free & ((1 << j) - 1))
    data = weights * (1.0 - 2.0 * (below & 1))
    rows = free | (1 << i) | (1 << j)
    return np.broadcast_to(t, free.shape).ravel(), rows.ravel(), free.ravel(), data.ravel()


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


def pair_bilinear(space: FockSpace, coefficients) -> SparseOperator:
    """The pair bilinear ``P(M) = sum_ij M_ij c+_i c+_j`` of an n x n coefficient matrix M."""
    m = np.asarray(coefficients, dtype=complex)
    n = space.n_modes
    if m.shape != (n, n):
        raise ValueError(f"coefficient shape {m.shape} does not match {n} modes")
    _, rows, cols, data = _pair_entries(n, m[None])
    return SparseOperator(space, sparse.csr_matrix((data, (rows, cols)), shape=(space.dim,) * 2))


def pair_products(space: FockSpace, raising, lowering, weights) -> SparseOperator:
    """``sum_t w_t P(A_t) P(B_t)^dag`` of two (T, n, n) coefficient stacks and T weights.

    One ordered scatter, with the bits of the row-by-row sparse product
    ``[w_1 P(A_1) | ...] @ [P(B_1)^dag ; ...]``.  Each combination of a
    pair a of A_t and a pair b of B_t adds, in every state m with the
    modes of both empty, ``(w_t A_a) conj(B_b)`` times a Jordan-Wigner
    sign at row ``r = m | a`` and column ``r ^ a ^ b``.  Each Fock entry
    adds its contributions to zero one by one, in term order and then
    ascending m (a term's pairs a in descending bit-mask order), and each
    product is formed as ``(w A) B^dag`` with the unfused complex
    product of the sparse kernel.  No entry is pruned before the sum is
    complete; exact zeros are dropped.
    """
    a, b, w = (np.asarray(x, dtype=complex) for x in (raising, lowering, weights))
    n, dim = space.n_modes, space.dim
    if a.shape != b.shape or a.shape[1:] != (n, n) or w.shape != a.shape[:1]:
        raise ValueError(f"stacks {a.shape}, {b.shape}, weights {w.shape} do not fit {n} modes")
    ta, ia, ja, left = _pairs(a)
    tb, ib, jb, right = _pairs(b)
    left, right = w[ta] * left, right.conj()
    # every pair ka of A_t with every pair kb of B_t, a term's pairs of A in
    # descending bit-mask order
    order = np.lexsort((-ia, -ja, ta))
    ta, ia, ja, left = ta[order], ia[order], ja[order], left[order]
    ka, kb = term_combinations(ta, tb, len(w))
    modes = np.stack([ia[ka], ja[ka], ib[kb], jb[kb]], axis=1)
    pair_a = (1 << modes[:, 0]) | (1 << modes[:, 1])
    pair_b = (1 << modes[:, 2]) | (1 << modes[:, 3])
    shift, size = pair_a ^ pair_b, np.bitwise_count(pair_a | pair_b)
    flip = np.bitwise_xor.reduce((1 << modes) - 1, axis=1)  # m's bits below each mode
    # each union's distinct modes first, in ascending order
    modes.sort(axis=1)
    modes = np.sort(np.where(np.diff(modes, axis=1, prepend=-1) == 0, n, modes), axis=1)
    # one product per combination (a sign only negates it), formed unfused as the
    # sparse kernel does
    product = unfused_product(left[ka], right[kb])
    # one slot per (shift, row) of each shift a ^ b that occurs; different union
    # sizes never share one, so each size is scattered on its own
    shifts, slot = np.unique(shift, return_inverse=True)
    sums = np.zeros(len(shifts) * dim, dtype=complex)
    for union in (2, 3, 4):
        combos = np.flatnonzero(size == union)
        if not len(combos):
            continue
        per_block = max(1, SCATTER_BLOCK >> (n - union))
        for start in range(0, len(combos), per_block):
            c = combos[start:start + per_block]
            # the states with the union's modes empty: insert a zero bit at each
            m = np.arange(1 << (n - union), dtype=np.int64)[None, :]
            for u in modes[c, :union].T[:, :, None]:
                m = ((m >> u) << (u + 1)) | (m & ((1 << u) - 1))
            sign = 1.0 - 2.0 * (np.bitwise_count(m & flip[c, None]) & 1)
            np.add.at(sums, (slot[c, None] * dim + (m | pair_a[c, None])).ravel(),
                      (product[c, None] * sign).ravel())
    keys = np.flatnonzero(sums)
    rows = keys % dim
    return SparseOperator(space, sparse.csr_matrix((sums[keys], (rows, rows ^ shifts[keys // dim])),
                                                   shape=(dim, dim)))


# ---------------------------------------------------------------------------
# Many-body Hamiltonians (mirror the single-particle builders exactly)
# ---------------------------------------------------------------------------

def chain_hamiltonian(space: FockSpace) -> SparseOperator:
    """Hopping Hamiltonian of the dimerized chain of the space's :class:`ChainSpec`."""
    spec = space.spec
    spins = (0, 1) if spec.spinful else (0,)
    acc = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    for site in range(spec.n_sites):
        amp = spec.bond_amplitude(site)
        for spin in spins:
            c_here = space._creation_matrix(space.chain_mode(site, spin))
            c_next = space._creation_matrix(space.chain_mode(site + 1, spin))
            hop = c_here @ c_next.conj().T
            acc = acc + amp * (hop + hop.conj().T)
    return SparseOperator(space, acc)


def dirac_hamiltonian(space: FockSpace) -> SparseOperator:
    """Two-component Hamiltonian of the square lattice of the space's :class:`SquareSpec`."""
    spec = space.spec
    acc = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    lx, ly = spec.lx, spec.ly
    create = lambda x, y, comp: space._creation_matrix(square_mode(lx, ly, x, y, comp))
    for x in range(lx):
        for y in range(ly):
            c = create(x, y, 0)
            b = create(x, y, 1)
            b_xm = create(x - 1, y, 1).conj().T
            b_xp = create(x + 1, y, 1).conj().T
            b_yp = create(x, y + 1, 1).conj().T
            b_ym = create(x, y - 1, 1).conj().T
            c_xp = create(x + 1, y, 0).conj().T
            c_xm = create(x - 1, y, 0).conj().T
            c_yp = create(x, y + 1, 0).conj().T
            c_ym = create(x, y - 1, 0).conj().T
            acc = acc + c @ (b_xm - b_xp) + 1j * (c @ (b_yp - b_ym))
            acc = acc + b @ (c_xp - c_xm) + 1j * (b @ (c_yp - c_ym))
            acc = acc + spec.delta * (c @ c.conj().T - b @ b.conj().T)
    return SparseOperator(space, acc)


# ---------------------------------------------------------------------------
# Pair sums of integer-momentum labels: the tests' independent oracle
# ---------------------------------------------------------------------------

def _bond_sum(space: FockSpace, pair) -> SparseOperator:
    """The Fock operator of a chain pair label (a :class:`bondboson.bilinear.ChainPair`).

    ``sum_n e^{2 pi i (K p(n) mod N)/N} c+_{n,s1} c+_{n+l,s2}`` over the
    anchors n of the label's sublattice, N the site count.  Unvalidated;
    l = 0 gives the zero operator.  Each phase comes from ``np.exp``, not
    from the exact root table of the coefficient route.
    """
    cached = space._op_cache.get(pair)
    if cached is not None:
        return cached
    n_sites = space.spec.n_sites
    _, sites, positions = chain_anchors(n_sites, pair.sublattice)
    acc = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    for site, position in zip(sites.tolist(), positions.tolist()):
        c1 = space._creation_matrix(space.chain_mode(site, pair.spin1))
        c2 = space._creation_matrix(space.chain_mode(site + pair.l, pair.spin2))
        turn = (pair.K * position) % n_sites
        acc = acc + np.exp(2j * np.pi * turn / n_sites) * (c1 @ c2)
    op = SparseOperator(space, acc)
    space._op_cache[pair] = op
    return op


def _square_pair_sum(space: FockSpace, pair) -> SparseOperator:
    """The Fock operator of a square-lattice pair label (a :class:`bondboson.bilinear.SquarePair`).

    ``sum_r e^{2 pi i ((Kx x mod lx)/lx + (Ky y mod ly)/ly)} a+_r a'+_{r+(l,m)}``
    over every site r = (x, y), with ``np.exp`` phases as in :func:`_bond_sum`.
    """
    cached = space._op_cache.get(pair)
    if cached is not None:
        return cached
    lx, ly = space.spec.lx, space.spec.ly
    acc = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    for x in range(lx):
        for y in range(ly):
            c1 = space._creation_matrix(square_mode(lx, ly, x, y, pair.comp1))
            c2 = space._creation_matrix(square_mode(lx, ly, x + pair.l, y + pair.m, pair.comp2))
            turns = (pair.Kx * x) % lx / lx + (pair.Ky * y) % ly / ly
            acc = acc + np.exp(2j * np.pi * turns) * (c1 @ c2)
    op = SparseOperator(space, acc)
    space._op_cache[pair] = op
    return op
