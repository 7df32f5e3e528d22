"""Exact many-body engine on occupation-bitset Fock spaces (<= 16 modes).

Creation/annihilation operators, momentum-superposed pair ("bond")
operators, hopping Hamiltonians, the Fock-space build of a pair
bilinear from its coefficient matrix, and the near-filling commutator
table.  The quadratic H-bond identities are checked on coefficient
matrices in :mod:`bondboson.bilinear`; the operators here are what those
matrices stand for, and the tests keep the Fock evaluation of the
identities as an independent cross-check.

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

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .lattice import (
    ChainSpec,
    SquareSpec,
    chain_anchors,
    chain_mode,
    on_grid,
    phase_position,
    square_mode,
)
# imported for the benchmark tracer, which wraps the grids where fock looks them up
from .lattice import chain_momenta, square_momenta  # noqa: F401

MAX_MODES = 16

# Entries with modulus below this are dropped from stored operators.
PRUNE_TOL = 1e-15


class FockSizeError(ValueError):
    """Raised when a requested space exceeds the exact-representation cap."""


def check_mode_cap(n_modes: int) -> None:
    """Raise :class:`FockSizeError` if ``n_modes`` exceeds :data:`MAX_MODES`."""
    if n_modes > MAX_MODES:
        raise FockSizeError(f"{n_modes} modes exceed the exact-representation cap of {MAX_MODES}")


_SQRT2 = float(np.sqrt(2.0))

# The spins of the two created fermions of a chain channel, and the
# components of a square-lattice pairing (0 = c, 1 = b).
CHAIN_CHANNEL_SPINS = {"uu": (0, 0), "dd": (1, 1), "ud": (0, 1), "du": (1, 0)}
SQUARE_PAIRING_COMPONENTS = {"cc": (0, 0), "bb": (1, 1), "cb": (0, 1), "bc": (1, 0)}
_CHAIN_CHANNELS = tuple(CHAIN_CHANNEL_SPINS)
_SQUARE_PAIRINGS = tuple(SQUARE_PAIRING_COMPONENTS)


class FockSpace:
    """Full 2^n_modes occupation basis for a chain or square lattice."""

    def __init__(self, kind, n_modes, mode_labels, geometry):
        check_mode_cap(n_modes)
        self.kind = kind
        self.n_modes = n_modes
        self.dim = 1 << n_modes
        self.mode_labels = tuple(mode_labels)
        self.geometry = geometry
        self._creation_cache = {}
        # Built pair sums, keyed by their defining parameters; operators
        # are immutable after construction, so sharing is safe.
        self._op_cache = {}

    @classmethod
    def chain(cls, n_sites: int, spinful: bool = False) -> "FockSpace":
        """Fock space of a periodic chain; sublattice A = odd sites, B = even."""
        if n_sites <= 0 or n_sites % 2 != 0:
            raise ValueError(f"n_sites must be a positive even integer, got {n_sites}")
        spins = ("up", "down") if spinful else ("up",)
        labels = []
        for site in range(n_sites):
            for spin in spins:
                labels.append((site, "A" if site % 2 == 1 else "B", spin))
        return cls("chain", n_sites * len(spins), labels, {"n_sites": n_sites, "spinful": spinful})

    @classmethod
    def square(cls, lx: int, ly: int) -> "FockSpace":
        """Fock space of the two-component periodic square lattice."""
        if lx < 1 or ly < 1:
            raise ValueError(f"lattice dims must be >= 1, got {lx}x{ly}")
        labels = []
        for x in range(lx):
            for y in range(ly):
                for comp in ("c", "b"):
                    labels.append(((x, y), "-", comp))
        return cls("square", 2 * lx * ly, labels, {"lx": lx, "ly": ly})

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


def annihilation_op(space: FockSpace, mode: int) -> SparseOperator:
    """Annihilation operator of one mode; adjoint of :func:`creation_op`."""
    return SparseOperator(space, space._creation_matrix(mode).conj().T)


def commutator(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """AB - BA, pruned; rejects operators from different spaces."""
    a._check_space(b)
    return SparseOperator(a.space, a.matrix @ b.matrix - b.matrix @ a.matrix)


def anticommutator(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """AB + BA, pruned."""
    a._check_space(b)
    return SparseOperator(a.space, a.matrix @ b.matrix + b.matrix @ a.matrix)


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
# Bond (pair) operators
# ---------------------------------------------------------------------------

def _bond_sum(space: FockSpace, l: int, k: float, channel: str, sublattice: str) -> SparseOperator:
    """Unvalidated pair-raising sum; l = 0 yields the zero operator."""
    n_sites = space.geometry["n_sites"]
    key = ("chain", l % n_sites, round(float(k), 14), channel, sublattice)
    cached = space._op_cache.get(key)
    if cached is not None:
        return cached
    spin1, spin2 = CHAIN_CHANNEL_SPINS[channel]
    acc = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    for site in chain_anchors(n_sites, sublattice):
        c1 = space._creation_matrix(space.chain_mode(site, spin1))
        c2 = space._creation_matrix(space.chain_mode(site + l, spin2))
        acc = acc + np.exp(1j * k * phase_position(sublattice, site)) * (c1 @ c2)
    op = SparseOperator(space, acc)
    space._op_cache[key] = op
    return op


def bond_operator(space: FockSpace, l: int, k: float, channel: str = "uu",
                  sublattice: str = "all") -> SparseOperator:
    """Momentum-superposed pair-raising operator on a chain.

    ``sum_n phase(n) * c^dag_{n,s1} c^dag_{n+l,s2}`` with the anchor n
    running over the chosen sublattice and the site index wrapping
    periodically.  Phases: ``e^{ikn}`` for the full chain and for
    sublattice A (odd sites); ``e^{ik n/2}`` (cell index) for
    sublattice B (even sites).  The adjoint is the matching
    pair-lowering operator.

    k must close on the periodic ring: the full-chain/A phase needs
    ``e^{ik n_sites} = 1``, the B phase ``e^{ik n_cells} = 1``.
    """
    if space.kind != "chain":
        raise ValueError("bond_operator is defined on chain spaces; see square_pair_operator")
    if channel not in _CHAIN_CHANNELS:
        raise ValueError(f"unknown channel {channel!r}; expected one of {_CHAIN_CHANNELS}")
    if channel != "uu" and not space.spinful:
        raise ValueError(f"channel {channel!r} needs a spinful space")
    n_sites = space.geometry["n_sites"]
    n_cells = n_sites // 2
    if l == 0:
        raise ValueError("l = 0 rejected: the same-site pair vanishes identically")
    if not 1 <= l <= n_cells:
        raise ValueError(f"bond length l must lie in 1..{n_cells}, got {l}")
    closure = n_cells if sublattice == "B" else n_sites
    if not on_grid(k, closure):
        raise ValueError(
            f"momentum {k} is off-grid: e^(i k {closure}) must equal 1 for "
            f"sublattice {sublattice!r}"
        )
    return _bond_sum(space, l, k, channel, sublattice)


def combo_operator(space: FockSpace, l: int, k: float, family: str = "E",
                   parity: int = +1, sublattice: str = "all") -> SparseOperator:
    """Spin-channel combination of bond operators.

    family "E": same-spin sum/difference (uu + parity * dd);
    family "D": mixed-spin sum/difference (ud + parity * du).
    Needs a spinful chain space.
    """
    if family not in ("E", "D"):
        raise ValueError(f"unknown family {family!r}; expected 'E' or 'D'")
    if parity not in (+1, -1):
        raise ValueError(f"parity must be +1 or -1, got {parity}")
    if space.kind != "chain" or not space.spinful:
        raise ValueError(f"family {family!r} combinations need a spinful chain space")
    # Delegate validation of l, k, sublattice.
    first = bond_operator(space, l, k, "uu" if family == "E" else "ud", sublattice)
    second = bond_operator(space, l, k, "dd" if family == "E" else "du", sublattice)
    return first + parity * second


def _square_pair_sum(space: FockSpace, l: int, m: int, kx: float, ky: float,
                     pairing: str) -> SparseOperator:
    lx, ly = space.geometry["lx"], space.geometry["ly"]
    key = ("square", l % lx, m % ly, round(float(kx), 14), round(float(ky), 14), pairing)
    cached = space._op_cache.get(key)
    if cached is not None:
        return cached
    comp1, comp2 = SQUARE_PAIRING_COMPONENTS[pairing]
    acc = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    for x in range(lx):
        for y in range(ly):
            c1 = space._creation_matrix(square_mode(lx, ly, x, y, comp1))
            c2 = space._creation_matrix(square_mode(lx, ly, x + l, y + m, comp2))
            acc = acc + np.exp(1j * (kx * x + ky * y)) * (c1 @ c2)
    op = SparseOperator(space, acc)
    space._op_cache[key] = op
    return op


def square_bond_offsets(lx: int, ly: int) -> list:
    """One representative per {d, -d} class of nonzero lattice offsets.

    Pair sums at offset d and at its reversal -d (mod lattice) create
    the same fermion pairs with opposite orientation, so only one of
    each class is an independent bond; self-reversed offsets
    (2d = 0 mod lattice) stay in the list and are flagged by
    :func:`boson_commutator_report` as self-paired.
    """
    offsets = []
    seen = set()
    for l in range(lx):
        for m in range(ly):
            if (l, m) == (0, 0) or (l, m) in seen:
                continue
            seen.add(((-l) % lx, (-m) % ly))
            offsets.append((l, m))
    return offsets


def square_pair_operator(space: FockSpace, l: int, m: int, kx: float, ky: float,
                         pairing: str = "cc") -> SparseOperator:
    """2D pair-raising operator ``sum_r e^{i k.r} a^dag_r a'^dag_{r+(l,m)}``.

    ``pairing`` picks the components of the two created fermions
    ("cc", "bb", "cb", "bc").  Same-component pairings at offset
    (0, 0) mod lattice vanish identically and are rejected.
    """
    if space.kind != "square":
        raise ValueError("square_pair_operator is defined on square spaces")
    if pairing not in _SQUARE_PAIRINGS:
        raise ValueError(f"unknown pairing {pairing!r}; expected one of {_SQUARE_PAIRINGS}")
    lx, ly = space.geometry["lx"], space.geometry["ly"]
    if pairing in ("cc", "bb") and (l % lx, m % ly) == (0, 0):
        raise ValueError("same-component pair at zero offset vanishes identically")
    if not on_grid(kx, lx) or not on_grid(ky, ly):
        raise ValueError(f"momentum ({kx}, {ky}) is off the {lx}x{ly} grid")
    return _square_pair_sum(space, l, m, kx, ky, pairing)


def _square_combo_sum(space: FockSpace, l: int, m: int, kx: float, ky: float,
                      family: int, parity: int) -> SparseOperator:
    first, second = ("cc", "bb") if family == 1 else ("cb", "bc")
    op = _square_pair_sum(space, l, m, kx, ky, first) + parity * _square_pair_sum(
        space, l, m, kx, ky, second
    )
    return (1.0 / _SQRT2) * op


def square_combo_operator(space: FockSpace, l: int, m: int, kx: float, ky: float,
                          family: int = 1, parity: int = +1) -> SparseOperator:
    """Component combination ``(pair1 + parity*pair2)/sqrt(2)`` in 2D.

    family 1 combines the same-component pairs (cc, bb); family 2 the
    mixed pairs (cb, bc).
    """
    if family not in (1, 2):
        raise ValueError(f"family must be 1 or 2, got {family}")
    if parity not in (+1, -1):
        raise ValueError(f"parity must be +1 or -1, got {parity}")
    if space.kind != "square":
        raise ValueError("square_combo_operator is defined on square spaces")
    if not on_grid(kx, space.geometry["lx"]) or not on_grid(ky, space.geometry["ly"]):
        raise ValueError("momentum off the lattice grid")
    return _square_combo_sum(space, l, m, kx, ky, family, parity)


# ---------------------------------------------------------------------------
# Near-filling boson commutator report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BosonCommutatorReport:
    """Expectation of one pair-operator commutator in a near-filled state.

    ``target`` is the canonical-boson value (site count when the two
    operators match, zero otherwise); ``deviation`` is the distance of
    the measured expectation from it.  ``self_paired`` flags bond
    lengths that wrap onto themselves (2l = 0 mod ring), where the
    full-chain pair sum degenerates and the canonical value cannot be
    expected.
    """

    expectation: complex
    target: float
    deviation: float
    holes: tuple
    self_paired: bool


def _momenta_match(k, kp, tol=1e-12) -> bool:
    k = np.atleast_1d(np.asarray(k, dtype=float))
    kp = np.atleast_1d(np.asarray(kp, dtype=float))
    if k.shape != kp.shape:
        return False
    d = np.mod(k - kp + np.pi, 2.0 * np.pi) - np.pi
    return bool(np.max(np.abs(d)) < tol)


def bond_self_paired(space: FockSpace, l) -> bool:
    """Whether bond length ``l`` wraps onto itself (2l = 0 mod the lattice).

    Chain: ``l`` is an int; square lattice: an ``(l, m)`` offset.
    """
    if space.kind == "chain":
        return (2 * int(l)) % space.geometry["n_sites"] == 0
    lx, ly = space.geometry["lx"], space.geometry["ly"]
    return (2 * int(l[0]) % lx, 2 * int(l[1]) % ly) == (0, 0)


def _near_filling_pair(space: FockSpace, l, k) -> SparseOperator:
    # chain: spin-up pairs over the full chain; square: c-c pairs
    if space.kind == "chain":
        return _bond_sum(space, int(l), float(k), "uu", "all")
    return _square_pair_sum(space, int(l[0]), int(l[1]), float(k[0]), float(k[1]), "cc")


def near_filling_commutator_table(space: FockSpace, labels, n_holes: int = 0,
                                  seed: int = 0):
    """``<s| [e_i, e_j^dag] |s>`` for every ordered pair of bond labels.

    ``labels`` is a sequence of ``(l, k)`` bond labels (chain: int l and
    float k; square lattice: ``(l, m)`` and ``(kx, ky)``).  The state s is
    the filled Fock state with ``n_holes`` holes drawn deterministically
    (``seed``) from the modes the pair operators act on (chain: spin-up
    modes; square: c modes).  Returns ``(table, holes)``: a P x P complex
    array with ``table[i, j]`` the expectation for labels i and j, and
    the sorted hole modes.

    Each operator's row and column at s are read once and stacked: R
    (CSR, row i = row s of e_i) and C (CSC, column i = column s of e_i).
    Then ``table[i, j] = (R R^H)[i, j] - (C^H C)[j, i]``, two sparse
    products (no dense BLAS, which would regroup the sums).  A sparse
    product adds each entry over the shared basis index in the order of
    the left factor's row: R keeps each operator's stored row order and
    C^H lists the basis states in ascending order, exactly as the
    single-pair products ``row_i . row_j^H`` and ``col_j^H . col_i`` do.
    So every entry is bit-for-bit the value its pair gives alone,
    whatever else is in the table.
    """
    if space.kind == "chain":
        anchor_modes = [space.chain_mode(site, 0) for site in range(space.geometry["n_sites"])]
    else:
        lx, ly = space.geometry["lx"], space.geometry["ly"]
        anchor_modes = [square_mode(lx, ly, x, y, 0) for x in range(lx) for y in range(ly)]
    ops = [_near_filling_pair(space, l, k).matrix for l, k in labels]
    if n_holes > space.n_modes:
        raise ValueError(f"{n_holes} holes exceed the {space.n_modes} available modes")
    if n_holes > len(anchor_modes):
        raise ValueError(f"{n_holes} holes exceed the {len(anchor_modes)} pair-carrying modes")
    rng = np.random.default_rng(seed)
    holes = tuple(sorted(int(h) for h in rng.choice(anchor_modes, size=n_holes, replace=False)))
    state = space.filled_state
    for hole in holes:
        state &= ~(1 << hole)

    row_data, row_idx, col_data, col_idx = [], [], [], []
    for m in ops:
        lo, hi = m.indptr[state], m.indptr[state + 1]
        row_data.append(m.data[lo:hi])
        row_idx.append(m.indices[lo:hi])
        # positions holding column s, in ascending row order
        at = np.flatnonzero(m.indices == state)
        col_data.append(m.data[at])
        col_idx.append(np.searchsorted(m.indptr, at, side="right") - 1)

    def stack(data, idx, cls, shape):
        ptr = np.concatenate(([0], np.cumsum([len(d) for d in data])))
        return cls((np.concatenate(data), np.concatenate(idx), ptr), shape=shape)

    P = len(ops)
    R = stack(row_data, row_idx, sparse.csr_matrix, (P, space.dim))
    C = stack(col_data, col_idx, sparse.csc_matrix, (space.dim, P))
    raise_then_lower = (R @ R.conj().T).toarray()
    lower_then_raise = (C.conj().T @ C).toarray()
    return raise_then_lower - lower_then_raise.T, holes


def boson_commutator_report(space: FockSpace, l, lp, k, kp, n_holes: int = 0,
                            seed: int = 0) -> BosonCommutatorReport:
    """Measure ``<state| [e_{+lk}, e_{-l'k'}] |state>`` near full filling.

    The state and the expectation are those of
    :func:`near_filling_commutator_table` on the labels ``(l, k)`` and
    ``(l', k')``, so a report equals the table entry for the same pair
    bit for bit.  Momenta come from the full site grid.  Raw,
    un-normalised expectations are reported; the near-filling target is
    the site count when (l, k) = (l', k').
    """
    table, holes = near_filling_commutator_table(space, [(l, k), (lp, kp)], n_holes, seed)
    if space.kind == "chain":
        matched = int(l) == int(lp) and _momenta_match(k, kp)
    else:
        lx, ly = space.geometry["lx"], space.geometry["ly"]
        matched = (int(l[0]) % lx, int(l[1]) % ly) == (int(lp[0]) % lx, int(lp[1]) % ly) \
            and _momenta_match(k, kp)
    expectation = complex(table[0, 1])
    target = float(space.n_sites) if matched else 0.0
    return BosonCommutatorReport(
        expectation=expectation,
        target=target,
        deviation=abs(expectation - target),
        holes=holes,
        self_paired=matched and bond_self_paired(space, l),
    )
