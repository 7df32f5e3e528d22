"""Exact many-body engine on occupation-bitset Fock spaces (<= 16 modes).

Creation operators, sparse operator algebra, hopping Hamiltonians and
the Fock-space build of a pair bilinear from its coefficient matrix.
The package uses them for the quartic interaction checks
(:mod:`bondboson.interactions`); every quadratic statement is evaluated
on n x n coefficient matrices in :mod:`bondboson.bilinear`.

The pair sums :func:`_bond_sum` and :func:`_square_pair_sum` build the
Fock operator of an integer-momentum pair label (a ``ChainPair`` or
``SquarePair``) directly from creation matrices, with ``np.exp`` phases.
No command calls them: they are the tests' independent cross-check of
the coefficient route.

Basis state ``i`` occupies mode ``b`` iff bit ``b`` of ``i`` is set.
Mode order is site-major:

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

from .lattice import (
    ChainSpec,
    SquareSpec,
    chain_anchors,
    chain_mode,
    phase_position,
    square_mode,
)
# imported for the benchmark tracer, which wraps these names where fock looks them up
from .lattice import chain_momenta, on_grid, square_momenta  # noqa: F401

MAX_MODES = 16

# Entries with modulus below this are dropped from stored operators.
PRUNE_TOL = 1e-15


class FockSizeError(ValueError):
    """Raised when a requested space exceeds the exact-representation cap."""


def check_mode_cap(n_modes: int) -> None:
    """Raise :class:`FockSizeError` if ``n_modes`` exceeds :data:`MAX_MODES`."""
    if n_modes > MAX_MODES:
        raise FockSizeError(f"{n_modes} modes exceed the exact-representation cap of {MAX_MODES}")


# The spins of the two created fermions of a chain channel, and the
# components of a square-lattice pairing (0 = c, 1 = b).
CHAIN_CHANNEL_SPINS = {"uu": (0, 0), "dd": (1, 1), "ud": (0, 1), "du": (1, 0)}
SQUARE_PAIRING_COMPONENTS = {"cc": (0, 0), "bb": (1, 1), "cb": (0, 1), "bc": (1, 0)}


class FockSpace:
    """Full 2^n_modes occupation basis for a chain or square lattice."""

    def __init__(self, kind, n_modes, geometry):
        check_mode_cap(n_modes)
        self.kind = kind
        self.n_modes = n_modes
        self.dim = 1 << n_modes
        self.geometry = geometry
        self._creation_cache = {}
        # Built pair sums, keyed by their pair label; operators are
        # immutable after construction, so sharing is safe.
        self._op_cache = {}

    @classmethod
    def chain(cls, n_sites: int, spinful: bool = False) -> "FockSpace":
        """Fock space of a periodic chain; sublattice A = odd sites, B = even."""
        if n_sites <= 0 or n_sites % 2 != 0:
            raise ValueError(f"n_sites must be a positive even integer, got {n_sites}")
        return cls("chain", n_sites * (2 if spinful else 1), {"n_sites": n_sites, "spinful": spinful})

    @classmethod
    def square(cls, lx: int, ly: int) -> "FockSpace":
        """Fock space of the two-component periodic square lattice."""
        if lx < 1 or ly < 1:
            raise ValueError(f"lattice dims must be >= 1, got {lx}x{ly}")
        return cls("square", 2 * lx * ly, {"lx": lx, "ly": ly})

    # -- geometry accessors -------------------------------------------------
    @property
    def n_sites(self) -> int:
        if self.kind == "chain":
            return self.geometry["n_sites"]
        return self.geometry["lx"] * self.geometry["ly"]

    @property
    def spinful(self) -> bool:
        return self.kind == "chain" and self.geometry["spinful"]

    @property
    def filled_state(self) -> int:
        return self.dim - 1

    def chain_mode(self, site: int, spin: int = 0) -> int:
        if spin != 0 and not self.spinful:
            raise ValueError("spinless space has a single species")
        return chain_mode(self.geometry["n_sites"], site, spin, self.spinful)

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
        return f"FockSpace(kind={self.kind!r}, n_modes={self.n_modes})"


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


def pair_bilinear(space: FockSpace, coefficients) -> SparseOperator:
    """The pair bilinear ``sum_ij M_ij c+_i c+_j`` of an n x n coefficient matrix M.

    Since ``c+_i c+_j = -c+_j c+_i``, the operator is
    ``sum_{i<j} (M_ij - M_ji) c+_i c+_j``.  Each such term has one entry
    per basis state s with modes i and j empty, at row
    ``s | 2^i | 2^j``, so every Fock entry is one antisymmetric
    coefficient with a Jordan-Wigner sign: weights below the pruning
    tolerance are dropped before the build, which is what pruning the
    built operator would do.  All remaining pairs are built in one
    vectorized pass over the 2^(n-2) states each acts on.
    """
    m = np.asarray(coefficients, dtype=complex)
    n = space.n_modes
    if m.shape != (n, n):
        raise ValueError(f"coefficient shape {m.shape} does not match {n} modes")
    weights = np.triu(m - m.T, 1)
    i, j = np.nonzero(np.abs(weights) >= PRUNE_TOL)
    if i.size == 0:
        return SparseOperator.zero(space)
    i, j = i[:, None], j[:, None]
    # the states with modes i < j empty: insert a zero bit at i, then at j
    free = np.arange(1 << (n - 2), dtype=np.int64)[None, :]
    free = ((free >> i) << (i + 1)) | (free & ((1 << i) - 1))
    free = ((free >> j) << (j + 1)) | (free & ((1 << j) - 1))
    below = np.bitwise_count(free & ((1 << i) - 1)) + np.bitwise_count(free & ((1 << j) - 1))
    data = weights[i, j] * (1.0 - 2.0 * (below & 1))
    rows = free | (1 << i) | (1 << j)
    matrix = sparse.csr_matrix((data.ravel(), (rows.ravel(), free.ravel())),
                               shape=(space.dim, space.dim))
    return SparseOperator(space, matrix)


# ---------------------------------------------------------------------------
# Many-body Hamiltonians (mirror the single-particle builders exactly)
# ---------------------------------------------------------------------------

def chain_hamiltonian(space: FockSpace, spec: ChainSpec) -> SparseOperator:
    """Hopping Hamiltonian of the dimerized chain on the Fock space."""
    if space.kind != "chain" or space.geometry["n_sites"] != spec.n_sites:
        raise ValueError("space geometry does not match the chain spec")
    if space.spinful != spec.spinful:
        raise ValueError("space and spec disagree on spinfulness")
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


def dirac_hamiltonian(space: FockSpace, spec: SquareSpec) -> SparseOperator:
    """Two-component square-lattice Hamiltonian on the Fock space."""
    if space.kind != "square" or (space.geometry["lx"], space.geometry["ly"]) != (spec.lx, spec.ly):
        raise ValueError("space geometry does not match the square spec")
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
    n_sites = space.geometry["n_sites"]
    spin1, spin2 = CHAIN_CHANNEL_SPINS[pair.channel]
    acc = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    for site in chain_anchors(n_sites, pair.sublattice):
        c1 = space._creation_matrix(space.chain_mode(site, spin1))
        c2 = space._creation_matrix(space.chain_mode(site + pair.l, spin2))
        turn = (pair.K * phase_position(pair.sublattice, site)) % n_sites
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
    lx, ly = space.geometry["lx"], space.geometry["ly"]
    comp1, comp2 = SQUARE_PAIRING_COMPONENTS[pair.pairing]
    acc = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    for x in range(lx):
        for y in range(ly):
            c1 = space._creation_matrix(square_mode(lx, ly, x, y, comp1))
            c2 = space._creation_matrix(square_mode(lx, ly, x + pair.l, y + pair.m, comp2))
            turns = (pair.Kx * x) % lx / lx + (pair.Ky * y) % ly / ly
            acc = acc + np.exp(2j * np.pi * turns) * (c1 @ c2)
    op = SparseOperator(space, acc)
    space._op_cache[pair] = op
    return op
