"""Quadratic fermion algebra on n x n coefficient matrices.

A pair bilinear ``P_A = sum_ij A_ij c+_i c+_j`` and a hopping operator
``H = sum_ij h_ij c+_i c_j`` on n modes close under commutation,

    [H, P_A] = P_{hA + A h^T},

an identity between n x n matrices (S. Bravyi, "Lagrangian
representation for fermionic linear optics", quant-ph/0404180).  Since
``c+_i c+_j = -c+_j c+_i`` only the antisymmetric part of a coefficient
matrix matters, and the terms ``c+_i c+_j`` (i < j) are orthogonal in
the Frobenius inner product of the 2^n-dimensional Fock space, each
with 2^(n-2) entries of modulus one.  So the Fock-space norm is exact
on coefficients:

    ||P_M||_F = 2^((n-2)/2) * ||M - M^T||_F / sqrt(2).

The H-bond identities are stated here once, as data: an
:class:`IdentityTable` whose sides are (identity, term) arrays of
weights and of pair labels, each label one row of ints
(:class:`ChainPair`, :class:`SquarePair`).  :func:`h_bond_commutator_residuals`
evaluates both sides on coefficients and reports the Fock-space
Frobenius norm of LHS - RHS; the tests evaluate the same table on Fock
matrices as a cross-check.  All identities of a lattice are evaluated
in one batch (:func:`identity_residuals`): one stacked build of every
distinct label (:func:`pair_stack`), the weighted sums of all
sides accumulated term by term at once, and ``[H, .]`` as one stacked
product.  Each entry still adds its terms in the listed order, so the
residuals have the bits of a one-identity-at-a-time evaluation.  Every
phase comes from one exact table per grid axis
(:func:`bondboson.lattice.unit_roots`), indexed by integer momentum, so
``e^{i pi}`` is exactly -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fermion_model import dirac2d_hopping_matrix, ssh_hopping_matrix
from .lattice import (
    ALL_SITES,
    SUBLATTICE_A,
    SUBLATTICE_B,
    ChainSpec,
    SquareSpec,
    chain_anchors,
    chain_mode,
    square_mode,
    unit_roots,
)

_SQRT2 = float(np.sqrt(2.0))

MAX_MODES = 16


class FockSizeError(ValueError):
    """Raised when a requested space exceeds the exact-representation cap."""


def check_mode_cap(n_modes: int) -> None:
    """Raise :class:`FockSizeError` if ``n_modes`` exceeds :data:`MAX_MODES`."""
    if n_modes > MAX_MODES:
        raise FockSizeError(f"{n_modes} modes exceed the exact-representation cap of {MAX_MODES}")


class ChainPair(NamedTuple):
    """``sum_n w[K*p(n)] c+_{n,spin1} c+_{n+l,spin2}`` over the anchors n of a sublattice.

    ``K`` is the momentum index on the site grid (k = 2*pi*K/n_sites);
    spin 0 is up, 1 down.  ``sublattice`` is a code of
    :mod:`bondboson.lattice`: the anchors are every site (``ALL_SITES``,
    p(n) = n), the odd sites (``SUBLATTICE_A``, p(n) = n) or the even
    sites (``SUBLATTICE_B``, p(n) = n // 2, the cell index).
    """

    l: int
    K: int
    spin1: int = 0
    spin2: int = 0
    sublattice: int = ALL_SITES


class SquarePair(NamedTuple):
    """``sum_r w_x[Kx*x] w_y[Ky*y] a+_r a'+_{r+(l,m)}`` on the square lattice.

    ``Kx``, ``Ky`` index the two axis grids; ``comp1`` and ``comp2`` are
    the components of the two created fermions (0 = c, 1 = b).
    """

    l: int
    m: int
    Kx: int
    Ky: int
    comp1: int = 0
    comp2: int = 0


class IdentityTable(NamedTuple):
    """The H-bond identities ``[H, sum target] = sum rhs`` of a lattice, one row each.

    Report columns: ``channel`` and ``sublattice`` (names), ``l`` and ``k`` (ints, (I,) on
    the chain, k the index K on its site grid, and (I, 2) in 2D).  Each side: (identity,
    term) complex weights and (identity, term, C) labels, in the order they are summed.
    """

    channel: np.ndarray
    sublattice: np.ndarray
    l: np.ndarray
    k: np.ndarray
    target_weights: np.ndarray
    target_labels: np.ndarray
    rhs_weights: np.ndarray
    rhs_labels: np.ndarray


def commutator_with_hopping(h: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Coefficients of ``[H, P_A]``: ``hA + A h^T``."""
    return h @ a + a @ h.T


def pair_norm(m: np.ndarray) -> float:
    """Fock-space Frobenius norm of the pair bilinear of the n x n matrix m."""
    n = m.shape[0]
    return float(np.sqrt(2.0 ** (n - 3)) * np.linalg.norm(m - m.T))


def pair_stack(spec, labels) -> np.ndarray:
    """The ``(P, n, n)`` coefficient matrices of the pair labels, in order; read-only.

    ``labels`` is a (P, C) integer table or a list of P labels:
    :class:`ChainPair` rows of a :class:`ChainSpec` (its site count and
    spinfulness are read) or :class:`SquarePair` rows of a
    :class:`SquareSpec` (its extents).  All labels are written by one
    fancy-index assignment.  Every phase is an entry of
    :func:`~bondboson.lattice.unit_roots` (a product of one per axis in
    2D), so a label's matrix has the same bits in any table.
    """
    if isinstance(spec, ChainSpec):
        n_sites = spec.n_sites
        l, K, spin1, spin2, sublattice = np.asarray(labels, dtype=np.int64).reshape(
            -1, len(ChainPair._fields)).T
        p, site, position = chain_anchors(n_sites, sublattice)
        entries = (p, chain_mode(n_sites, site, spin1[p], spec.spinful),
                   chain_mode(n_sites, site + l[p], spin2[p], spec.spinful))
        values = unit_roots(n_sites)[(K[p] * position) % n_sites]
    else:
        lx, ly = spec.lx, spec.ly
        l, m, Kx, Ky, comp1, comp2 = np.asarray(labels, dtype=np.int64).reshape(
            -1, len(SquarePair._fields)).T[:, :, None]
        x, y = (v.ravel() for v in np.meshgrid(np.arange(lx), np.arange(ly), indexing="ij"))
        entries = (np.arange(len(l))[:, None], square_mode(lx, ly, x, y, comp1),
                   square_mode(lx, ly, x + l, y + m, comp2))
        values = unit_roots(lx)[(Kx * x) % lx] * unit_roots(ly)[(Ky * y) % ly]
    stack = np.zeros((len(l), spec.n_modes, spec.n_modes), dtype=complex)
    stack[entries] = values
    stack.setflags(write=False)
    return stack


def hopping_matrix(spec) -> np.ndarray:
    """``h`` of the spec's Hamiltonian in the Fock mode order (``h (x) I_2`` when spinful)."""
    if isinstance(spec, ChainSpec):
        h = ssh_hopping_matrix(spec).array
        return np.kron(h, np.eye(2)) if spec.spinful else h
    return dirac2d_hopping_matrix(spec).array


def _rows(*fields) -> np.ndarray:
    """The label rows ``(..., C)`` of C broadcast integer fields."""
    return np.stack(np.broadcast_arrays(*fields), axis=-1)


def _identity_table(channel, sublattice, l, k, weights, labels) -> IdentityTable:
    """The table of ``weights`` (..., term, part) and ``labels`` (..., term, part, C),
    identities in C order; term 0 is the target."""
    n, width = len(channel), labels.shape[-1]
    return IdentityTable(channel, sublattice, l, k,
                         weights[..., :1, :].reshape(n, -1),
                         labels[..., :1, :, :].reshape(n, -1, width),
                         weights[..., 1:, :].reshape(n, -1),
                         labels[..., 1:, :, :].reshape(n, -1, width))


def _chain_identities(spec: ChainSpec) -> IdentityTable:
    """The exact [H, bond] identities of the dimerized chain.

    With hopping ``-t0 + (-1)^n 2 alpha_u`` on bond (n, n+1), sublattice
    A = odd sites (site phase e^{ikn}), B = even sites (cell phase
    e^{ik n/2}), and t_l = t0 + (-1)^l 2 alpha_u, t_pm = t0 +- 2 alpha_u,
    the commutators close exactly as

      [H, F_A(l, k)] = -( t_l F_A(l+1, k) + t_{l+1} F_A(l-1, k)
                          + t_- e^{ik}  F_B(l+1, 2k) + t_+ e^{-ik}  F_B(l-1, 2k) )
      [H, F_B(l, k)] = -( t_{l+1} F_B(l+1, k) + t_l F_B(l-1, k)
                          + t_+ e^{ik/2} F_A(l+1, k/2) + t_- e^{-ik/2} F_A(l-1, k/2) )

    for every same-spin or mixed-spin channel F, with k on the cell
    grid.  The B entries appear at momentum 2k (resp. A at k/2) because
    the two sublattices carry site and cell phases respectively.  With
    k = 2 pi j / n_cells, the site-grid index of k is 2j, of 2k is 4j
    and of k/2 is j.

    The identities run over (channel, j, l, sublattice A then B), and the
    terms of each side over its pair sums F, then the channel's spin pairs.
    """
    n_sites, n_cells = spec.n_sites, spec.n_cells
    roots = unit_roots(n_sites)
    t0, au = spec.t0, spec.alpha_u
    t_plus, t_minus = t0 + 2.0 * au, t0 - 2.0 * au
    t = t0 + np.where(np.arange(n_cells + 2) % 2, -2.0, 2.0) * au  # t_l, l = 0 .. n_cells + 1
    # per channel, (spin1, spin2, sign) of each pair sum F it adds up
    if spec.spinful:
        channels = {"E(+)": [(0, 0, 1), (1, 1, 1)], "E(-)": [(0, 0, 1), (1, 1, -1)],
                    "D(+)": [(0, 1, 1), (1, 0, 1)], "D(-)": [(0, 1, 1), (1, 0, -1)]}
    else:
        channels = {"e": [(0, 0, 1)]}
    # axes (channel, j, l, sublattice, term, spin pair); term 0 is the target
    spin1, spin2, sign = np.moveaxis(np.array(list(channels.values())), -1, 0)[
        :, :, None, None, None, None, :]
    j, l = np.indices((n_cells, n_cells))
    l, K = l + 1, 2 * j

    def sides(a, b):
        """The terms of the A identities and of the B identities, on the (j, l) grid."""
        return np.stack([np.stack(np.broadcast_arrays(*a), -1),
                         np.stack(np.broadcast_arrays(*b), -1)], -2)[None, ..., None]

    # the real weights (the target's and the same-sublattice hops) and the phased
    # ones are signed apart: a real weight times its sign is a float product
    real = sides((1.0, -t[l], -t[l + 1]), (1.0, -t[l + 1], -t[l]))
    phased = sides((-t_minus * roots[K % n_sites], -t_plus * roots[-K % n_sites]),
                   (-t_plus * roots[j], -t_minus * roots[-j % n_sites]))
    shifts = (l, l + 1, l - 1, l + 1, l - 1)
    A, B = SUBLATTICE_A, SUBLATTICE_B
    labels = _rows(sides(shifts, shifts), sides((K, K, K, 2 * K, 2 * K), (K, K, K, j, j)) % n_sites,
                   spin1, spin2, np.array([[A, A, A, B, B], [B, B, B, A, A]])[:, :, None])
    column = lambda a: np.broadcast_to(a, (len(channels), n_cells, n_cells, 2)).ravel()
    return _identity_table(column(np.array(list(channels))[:, None, None, None]),
                           column(np.array(["A", "B"])), column(l[:, :, None]), column(K[:, :, None]),
                           np.concatenate([real * sign, phased * sign], axis=4), labels)


def _square_identities(spec: SquareSpec) -> IdentityTable:
    """The exact [H, combo] identities of the two-component square lattice.

    With E1(s) the same-component and E2(s) the mixed-component
    combinations (s = +-1), each ``(pair1 + s*pair2)/sqrt(2)``, the
    commutators with the two-component Hamiltonian close exactly as

      [H, E1(+)] = -(1+X) E2(-; l+1) + (1+X*) E2(-; l-1)
                   + i(Y-1) E2(+; m+1) - i(Y*-1) E2(+; m-1) + 2 delta E1(-)
      [H, E1(-)] =  (X-1) E2(+; l+1) + (1-X*) E2(+; l-1)
                   - i(1+Y) E2(-; m+1) + i(1+Y*) E2(-; m-1) + 2 delta E1(+)
      [H, E2(+)] =  (1-X) E1(-; l+1) - (1-X*) E1(-; l-1)
                   + i(Y-1) E1(+; m+1) - i(Y*-1) E1(+; m-1)
      [H, E2(-)] =  (1+X) E1(+; l+1) - (1+X*) E1(+; l-1)
                   - i(1+Y) E1(-; m+1) + i(1+Y*) E1(-; m-1)

    where X = e^{i kx}, Y = e^{i ky} and only the shifted index is
    written.  The mass couples E1(+) and E1(-) with weight 2*delta and
    leaves the mixed combinations alone.

    The identities run over (Kx, Ky, l, m, the four rows above), and the
    terms of each side over its combinations (the mass term last, with
    weight zero on the E2 rows), then the two pair sums of each.
    """
    lx, ly = spec.lx, spec.ly
    mass = 2.0 * spec.delta
    Kx, Ky = np.indices((lx, ly))
    X, Xc = unit_roots(lx)[Kx], unit_roots(lx)[-Kx % lx]
    Y, Yc = unit_roots(ly)[Ky], unit_roots(ly)[-Ky % ly]
    # per row E1(+), E1(-), E2(+), E2(-): the weights of the combinations shifted
    # to l+1, l-1, m+1 and m-1; then the family (1 or 2), parity s and shift of
    # the target, of those four and of the mass term
    shifted = np.stack([np.stack(weights, -1) for weights in (
        (-(1 + X), 1 + Xc, 1j * (Y - 1), -1j * (Yc - 1)),
        (X - 1, 1 - Xc, -1j * (1 + Y), 1j * (1 + Yc)),
        (1 - X, -(1 - Xc), 1j * (Y - 1), -1j * (Yc - 1)),
        (1 + X, -(1 + Xc), -1j * (1 + Y), 1j * (1 + Yc)))], -2)[:, :, None, None, :, :, None]
    family = np.array([[1, 2, 2, 2, 2, 1]] * 2 + [[2, 1, 1, 1, 1, 1]] * 2)
    parity = np.array([[1, -1, -1, 1, 1, -1], [-1, 1, 1, -1, -1, 1],
                       [1, -1, -1, 1, 1, 1], [-1, 1, 1, -1, -1, 1]])
    dl, dm = np.array([0, 1, -1, 0, 0, 0]), np.array([0, 0, 0, 1, -1, 0])
    pairs = np.stack(np.broadcast_arrays(1.0 / _SQRT2, parity / _SQRT2), -1)

    # axes (Kx, Ky, l, m, row, term, pair); term 0 is the target
    shape = (lx, ly, lx, ly, 4)
    kx, ky, l, m, row = (a[..., None, None] for a in np.indices(shape))
    term, pair = np.arange(6)[:, None], np.arange(2)
    terms = lambda a, n: np.broadcast_to(a, shape + (n, 2))
    weights = np.concatenate([terms(pairs[:, :1], 1), terms(shifted * pairs[:, 1:5], 4),
                              terms(np.array([mass, mass, 0.0, 0.0])[:, None, None]
                                    * pairs[:, 5:], 1)], axis=5)
    labels = _rows(l + dl[term], m + dm[term], kx, ky, pair, pair ^ (family[row, term] == 2))
    column = lambda a: a[..., 0, 0].ravel()
    return _identity_table(np.array(["E1(+)", "E1(-)", "E2(+)", "E2(-)"])[column(row)],
                           np.full(lx * ly * lx * ly * 4, "-"),
                           np.stack([column(l), column(m)], -1),
                           np.stack([column(kx), column(ky)], -1), weights, labels)


def bond_identities(spec) -> IdentityTable:
    """The H-bond identities of a chain or square-lattice spec, in report order.

    Raises :class:`FockSizeError` beyond the 16-mode cap:
    each residual is a Fock-space norm with an absolute bound.
    """
    check_mode_cap(spec.n_modes)
    if isinstance(spec, ChainSpec):
        return _chain_identities(spec)
    return _square_identities(spec)


def identity_residuals(spec, identities: IdentityTable) -> np.ndarray:
    """The Fock-space Frobenius norm of LHS - RHS of each identity, in order.

    One batch: the distinct label rows of all identities are found by
    :func:`numpy.unique` on one integer key per row and built once
    (:func:`pair_stack`), and each side's sums are accumulated term by
    term over all identities at once, so every entry adds its terms in
    the order the identity lists them.  ``[H, .]`` is one stacked
    product (:func:`commutator_with_hopping`) and each difference is
    measured by :func:`pair_norm`.
    """
    width = identities.target_labels.shape[-1]
    labels = np.concatenate([identities.target_labels.reshape(-1, width),
                             identities.rhs_labels.reshape(-1, width)])
    # one integer key per label row, in the rows' lexicographic order
    low = labels.min(0)
    _, first, rows = np.unique(np.ravel_multi_index((labels - low).T, labels.max(0) - low + 1),
                               return_index=True, return_inverse=True)
    stack = pair_stack(spec, labels[first])
    split = identities.target_weights.size

    def summed(weights, rows):
        acc = np.zeros((len(weights),) + stack.shape[1:], dtype=complex)
        for t, column in enumerate(rows.reshape(weights.shape).T):
            acc += weights[:, t, None, None] * stack[column]
        return acc

    lhs = commutator_with_hopping(hopping_matrix(spec),
                                  summed(identities.target_weights, rows[:split]))
    return np.array([pair_norm(d) for d in lhs - summed(identities.rhs_weights, rows[split:])])


def h_bond_commutator_residuals(spec) -> tuple:
    """``(identities, residuals)``: the spec's :class:`IdentityTable` and, per identity, the Fock-space
    Frobenius norm of LHS - RHS, evaluated exactly on coefficients (:func:`identity_residuals`)."""
    identities = bond_identities(spec)
    return identities, identity_residuals(spec, identities)


# ---------------------------------------------------------------------------
# Near-filling commutator table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BosonCommutatorReport:
    """Expectation of one pair-operator commutator in a near-filled state.

    ``target`` is the canonical-boson value (site count when the two
    pair labels are equal, zero otherwise); ``deviation`` is the
    distance of the measured expectation from it.  ``self_paired`` flags
    bond lengths that wrap onto themselves (2l = 0 mod the lattice),
    where the pair sum degenerates and the canonical value cannot be
    expected.
    """

    expectation: complex
    target: float
    deviation: float
    holes: tuple
    self_paired: bool


def square_bond_offsets(lx: int, ly: int) -> list:
    """One representative per {d, -d} class of nonzero lattice offsets.

    Pair sums at offset d and at its reversal -d (mod lattice) create
    the same fermion pairs with opposite orientation, so only one of
    each class is an independent bond; self-reversed offsets
    (2d = 0 mod lattice) stay in the list and are flagged by
    :func:`bond_self_paired`.
    """
    offsets, seen = [], set()
    for l, m in np.ndindex(lx, ly):
        if (l, m) != (0, 0) and (l, m) not in seen:
            seen.add((-l % lx, -m % ly))
            offsets.append((l, m))
    return offsets


def bond_self_paired(spec, pairs) -> np.ndarray:
    """Whether the offset of each pair label wraps onto itself (2l = 0 mod the lattice):
    one flag per label of a list or table of them, or one for a single label."""
    table = np.asarray(pairs)
    if isinstance(spec, ChainSpec):
        return 2 * table[..., 0] % spec.n_sites == 0
    return (2 * table[..., 0] % spec.lx == 0) & (2 * table[..., 1] % spec.ly == 0)


def pair_commutator_table(spec, pairs, n_holes: int = 0, seed: int = 0):
    """``<s| [P_A, P_B^dag] |s>`` for every ordered pair of the labels ``pairs``.

    ``pairs`` are :class:`ChainPair` or :class:`SquarePair` labels of
    the spec's lattice.  The state s is the filled state with
    ``n_holes`` holes drawn deterministically (``seed``) from the
    pair-carrying modes (chain: spin-up modes; square lattice: c
    modes).  Returns ``(table, holes)``: a P x P complex array with
    ``table[p, q]`` the expectation for labels p and q, and the sorted
    hole modes.

    With occupations n_i of s, ``a = A - A^T`` and ``b = B - B^T``,
    Wick's theorem gives

        <s|[P_A, P_B^dag]|s> = sum_{i<j} a_ij conj(b_ij) (n_i n_j - (1-n_i)(1-n_j)):

    ``P_A P_B^dag`` removes a pair (i, j) and puts it back, which needs
    both modes occupied, ``P_B^dag P_A`` adds it first, which needs both
    empty, and the Jordan-Wigner signs of a round trip cancel.  With the
    labels' ``a_ij`` (i < j) stacked as the rows of X and the bracket as
    the diagonal W, the table is ``X W X^H``.  It is one sparse product,
    which adds each entry in the same order on every machine (a BLAS
    product's order depends on the CPU kernel), so reports are
    reproducible to the last digit.
    """
    n = spec.n_modes
    check_mode_cap(n)
    if isinstance(spec, ChainSpec):
        modes = [chain_mode(spec.n_sites, site, 0, spec.spinful) for site in range(spec.n_sites)]
    else:
        modes = [square_mode(spec.lx, spec.ly, x, y, 0)
                 for x in range(spec.lx) for y in range(spec.ly)]
    if n_holes > len(modes):
        raise ValueError(f"{n_holes} holes exceed the {len(modes)} pair-carrying modes")
    rng = np.random.default_rng(seed)
    holes = tuple(sorted(int(h) for h in rng.choice(modes, size=n_holes, replace=False)))
    occupied = np.ones(n)
    occupied[list(holes)] = 0.0
    i, j = np.triu_indices(n, 1)
    weights = occupied[i] * occupied[j] - (1.0 - occupied[i]) * (1.0 - occupied[j])
    from scipy import sparse  # imported at its one use: commands without this table skip it

    a = pair_stack(spec, pairs)
    x = sparse.csr_matrix((a - a.transpose(0, 2, 1))[:, i, j])
    return (x.multiply(weights).tocsr() @ x.conj().T).toarray(), holes


def boson_commutator_report(spec, pair, other, n_holes: int = 0,
                            seed: int = 0) -> BosonCommutatorReport:
    """Measure ``<s| [P_pair, P_other^dag] |s>`` near full filling.

    The state and the expectation are those of
    :func:`pair_commutator_table` on the two labels, so a report equals
    the table entry for the same pair bit for bit.  Raw, un-normalised
    expectations are reported; the near-filling target is the site
    count when the labels are equal (momentum indices are taken on
    their grid, 0 <= K < n).
    """
    table, holes = pair_commutator_table(spec, [pair, other], n_holes, seed)
    matched = pair == other
    expectation = complex(table[0, 1])
    target = float(spec.n_sites) if matched else 0.0
    return BosonCommutatorReport(
        expectation=expectation,
        target=target,
        deviation=abs(expectation - target),
        holes=holes,
        self_paired=matched and bool(bond_self_paired(spec, pair)),
    )
