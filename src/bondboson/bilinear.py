"""Quadratic fermion algebra on n x n coefficient matrices.

A pair bilinear ``P_A = sum_ij A_ij c+_i c+_j`` and a hopping operator
``H = sum_ij h_ij c+_i c_j`` on n modes (h from
:func:`bondboson.fermion_model.hopping_matrix`) close under commutation,

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
in one batch (:func:`identity_residuals`): each side one scatter of
its labels' weighted entries into one matrix per identity, and
``[H, .]`` as one stacked product.  Each entry still adds its terms in
the listed order, so the residuals have the bits of a
one-identity-at-a-time evaluation.  One builder gives every label's
entries (:func:`pair_entries`): the identity sums and the stack
(:func:`pair_stack`) write them, and the near-filling table
(:func:`pair_commutator_table`) takes the nonzeros of its sparse X from
them.  Every phase is an entry of one exact table per grid axis
(:func:`bondboson.lattice.unit_roots`), so ``e^{i pi}`` is exactly -1.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .fermion_model import hopping_matrix
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
from .numerics import unfused_product

_SQRT2 = float(np.sqrt(2.0))

MAX_MODES = 16

# products per block of the near-filling scatter (:func:`pattern_table`)
SCATTER_PRODUCTS = 1 << 16


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


def pair_norms(stack: np.ndarray) -> np.ndarray:
    """Fock-space Frobenius norm of the pair bilinear of each matrix of the (P, n, n) stack:
    one antisymmetrization of the stack, then per matrix the two dot products (real and
    imaginary parts) that ``np.linalg.norm`` takes, so each norm has its bits."""
    n = stack.shape[-1]
    d = (stack - np.swapaxes(stack, 1, 2)).reshape(len(stack), n * n)
    squares = [r.dot(r) + i.dot(i) for r, i in zip(d.real, d.imag)]
    return np.sqrt(2.0 ** (n - 3)) * np.sqrt(np.array(squares, dtype=float))


def pair_norm(m: np.ndarray) -> float:
    """Fock-space Frobenius norm of the pair bilinear of the n x n matrix m."""
    return float(pair_norms(m[None])[0])


def pair_entries(spec, labels) -> tuple:
    """The written entries ``(label, row, col, value)`` of the labels' coefficient matrices,
    four flat arrays, label by label; no two share a (label, row, col).

    ``labels`` is a (P, C) integer table or a list of P labels: :class:`ChainPair` rows of a
    :class:`ChainSpec` or :class:`SquarePair` rows of a :class:`SquareSpec`.  Every phase is
    an entry of :func:`~bondboson.lattice.unit_roots` (a product of one per axis in 2D), so
    a label's entries have the same bits in any table.
    """
    if isinstance(spec, ChainSpec):
        n_sites = spec.n_sites
        l, K, spin1, spin2, sublattice = np.asarray(labels, dtype=np.int64).reshape(
            -1, len(ChainPair._fields)).T
        p, site, position = chain_anchors(n_sites, sublattice)
        return (p, chain_mode(n_sites, site, spin1[p], spec.spinful),
                chain_mode(n_sites, site + l[p], spin2[p], spec.spinful),
                unit_roots(n_sites)[(K[p] * position) % n_sites])
    lx, ly = spec.lx, spec.ly
    l, m, Kx, Ky, comp1, comp2 = np.asarray(labels, dtype=np.int64).reshape(
        -1, len(SquarePair._fields)).T[:, :, None]
    x, y = np.divmod(np.arange(lx * ly), ly)
    return tuple(a.ravel() for a in np.broadcast_arrays(
        np.arange(len(l))[:, None], square_mode(lx, ly, x, y, comp1),
        square_mode(lx, ly, x + l, y + m, comp2),
        unit_roots(lx)[(Kx * x) % lx] * unit_roots(ly)[(Ky * y) % ly]))


def pair_stack(spec, labels) -> np.ndarray:
    """The ``(P, n, n)`` coefficient matrices of the pair labels (:func:`pair_entries`), in
    order; read-only."""
    label, row, col, values = pair_entries(spec, labels)
    stack = np.zeros((len(labels), spec.n_modes, spec.n_modes), dtype=complex)
    stack[label, row, col] = values
    stack.setflags(write=False)
    return stack


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

    One batch: each side is one ``np.add.at`` scatter of its labels' entries
    (:func:`pair_entries`), each times its term's weight, into one ``(I, n, n)``
    matrix per identity.  The entries come label by label, so every entry adds
    its terms from +0 in the order the identity lists them; an unwritten entry
    would only add a signed zero, which leaves such a sum as it is.  ``[H, .]``
    is one stacked product (:func:`commutator_with_hopping`) and the
    differences are measured by :func:`pair_norms`.
    """
    def summed(weights, labels):
        label, row, col, values = pair_entries(spec, labels.reshape(-1, labels.shape[-1]))
        acc = np.zeros((len(weights), spec.n_modes, spec.n_modes), dtype=complex)
        np.add.at(acc, (label // weights.shape[1], row, col), weights.ravel()[label] * values)
        return acc

    lhs = commutator_with_hopping(hopping_matrix(spec),
                                  summed(identities.target_weights, identities.target_labels))
    return pair_norms(lhs - summed(identities.rhs_weights, identities.rhs_labels))


def h_bond_commutator_residuals(spec) -> tuple:
    """``(identities, residuals)``: the spec's :class:`IdentityTable` and, per identity, the Fock-space
    Frobenius norm of LHS - RHS, evaluated exactly on coefficients (:func:`identity_residuals`)."""
    identities = bond_identities(spec)
    return identities, identity_residuals(spec, identities)


# ---------------------------------------------------------------------------
# Near-filling commutator table
# ---------------------------------------------------------------------------

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


def pair_carrying_modes(spec) -> np.ndarray:
    """The modes holes are drawn from, site by site: spin-up chain modes, c modes in 2D."""
    if isinstance(spec, ChainSpec):
        return chain_mode(spec.n_sites, np.arange(spec.n_sites), 0, spec.spinful)
    return square_mode(spec.lx, spec.ly, *np.divmod(np.arange(spec.lx * spec.ly), spec.ly), 0)


def filling_weights(spec, n_holes: int, seed: int, modes, triangle) -> tuple:
    """``(weights, holes)``: ``n_holes`` sorted holes drawn deterministically (``seed``) from
    ``modes`` (:func:`pair_carrying_modes`), and the filled state's bracket
    ``n_i n_j - (1-n_i)(1-n_j)`` (-1.0, 0.0 or 1.0) at each ``triangle = np.triu_indices(n, 1)``
    mode pair."""
    if n_holes > len(modes):
        raise ValueError(f"{n_holes} holes exceed the {len(modes)} pair-carrying modes")
    rng = np.random.default_rng(seed)
    holes = tuple(sorted(int(h) for h in rng.choice(modes, size=n_holes, replace=False)))
    occupied = np.ones(spec.n_modes)
    occupied[list(holes)] = 0.0
    i, j = triangle
    return occupied[i] * occupied[j] - (1.0 - occupied[i]) * (1.0 - occupied[j]), holes


def pair_pattern(spec, labels) -> tuple:
    """The nonzeros ``(k, r, values)`` of X, whose row r is label r's ``a_ij - a_ji`` over the
    mode pairs (i, j) of ``np.triu_indices(n, 1)``, k ascending, then r.

    Made from the label entries (:func:`pair_entries`) with the bits of ``np.nonzero`` on the
    dense ``(A - A^T)[:, i, j]``: ``a_ij - a_ji`` with 0 for an unwritten entry, exact zeros
    dropped.  A boolean grid of (k, r) keys gives the order without a sort.
    """
    label, row, col, values = pair_entries(spec, labels)
    n, count = spec.n_modes, len(labels)
    low, high = np.minimum(row, col), np.maximum(row, col)
    # the index of (low, high) in np.triu_indices(n, 1), then the label
    key = (low * (2 * n - 3 - low) // 2 + high - 1) * count + label
    grid = np.zeros(n * (n - 1) // 2 * count, dtype=bool)
    grid[key[row != col]] = True
    pattern = np.flatnonzero(grid)
    at = np.searchsorted(pattern, key)
    x = np.zeros(len(pattern), dtype=complex)
    x[at[row < col]] = values[row < col]
    x[at[row > col]] -= values[row > col]
    nonzero = x != 0
    return (*np.divmod(pattern[nonzero], count), x[nonzero])


def pattern_table(pattern, weights, count: int) -> np.ndarray:
    """``X W X^H`` of a :func:`pair_pattern` of ``count`` labels and weights W
    (:func:`filling_weights`): every pair of nonzeros ``x_rk``, ``x_sk`` (r <= s) of a
    column k gives ``(x_rk w_k) conj(x_sk)`` (:func:`~bondboson.numerics.unfused_product`),
    scattered by ``np.add.at`` in pattern order about :data:`SCATTER_PRODUCTS` at a time,
    so each entry adds its terms to zero in ascending k."""
    k, r, values = pattern
    # entry e = (r, k) gives one product per entry (s, k), s >= r, of its column: itself
    # and the ``per - 1`` after it, numbered from ``first``; product t pairs it with t - lag
    entry = np.arange(len(k))
    per = np.cumsum(np.bincount(k))[k] - entry
    first = np.cumsum(per) - per
    lag = first - entry
    scaled, conjugates = np.multiply(values, weights[k]), values.conj()
    table = np.zeros((count, count), dtype=complex)
    edges = np.flatnonzero(np.diff(first // SCATTER_PRODUCTS, prepend=-1)).tolist()
    for start, stop in zip(edges, edges[1:] + [len(k)]):
        block = per[start:stop]
        partner = np.arange(first[start], first[start] + block.sum())
        partner -= np.repeat(lag[start:stop], block)
        np.add.at(table.ravel(), np.repeat(r[start:stop] * count, block) + r.take(partner),
                  unfused_product(np.repeat(scaled[start:stop], block), conjugates.take(partner)))
    # w_k is real, so the (s, r) sum is +0 plus the conjugate of the (r, s) sum, as the
    # sparse product's is; a sum from +0 holds no -0, so the +0 added above changes nothing
    rows = max(1, SCATTER_PRODUCTS // max(count, 1))
    for start in range(0, count, rows):
        table[start:start + rows] += np.tril(table[:, start:start + rows].conj().T, start - 1)
    return table


def pattern_diagonal(pattern, weights, count: int) -> np.ndarray:
    """The diagonal of :func:`pattern_table` alone, with its bits: each label's terms
    ``(x_rk w_k) conj(x_rk)`` added to zero in ascending k."""
    k, r, values = pattern
    diagonal = np.zeros(count, dtype=complex)
    np.add.at(diagonal, r, unfused_product(np.multiply(values, weights[k]), values.conj()))
    return diagonal


def pair_commutator_table(spec, pairs, n_holes: int = 0, seed: int = 0):
    """``(table, holes)``: ``table[p, q] = <s| [P_A, P_B^dag] |s>`` for every ordered pair
    of the :class:`ChainPair` or :class:`SquarePair` labels ``pairs`` (a P x P complex array),
    s the filled state with the sorted hole modes ``holes`` (:func:`filling_weights`).

    With occupations n_i of s, ``a = A - A^T`` and ``b = B - B^T``,
    Wick's theorem gives

        <s|[P_A, P_B^dag]|s> = sum_{i<j} a_ij conj(b_ij) (n_i n_j - (1-n_i)(1-n_j)):

    ``P_A P_B^dag`` removes a pair (i, j) and puts it back, which needs
    both modes occupied, ``P_B^dag P_A`` adds it first, which needs both
    empty, and the Jordan-Wigner signs of a round trip cancel.  With the
    labels' ``a_ij`` (i < j) as the rows of X and the bracket as the
    diagonal W, the table is ``X W X^H``, with the nonzeros of X taken from
    the labels' entries (:func:`pair_pattern`), never a dense X, and one
    ordered numpy scatter with the bits of the row-by-row sparse product
    (Gustavson, ACM TOMS 4(3), 1978; scipy's ``csr_matmat``)
    (:func:`pattern_table`), the same on every machine.
    """
    check_mode_cap(spec.n_modes)
    weights, holes = filling_weights(spec, n_holes, seed, pair_carrying_modes(spec),
                                     np.triu_indices(spec.n_modes, 1))
    return pattern_table(pair_pattern(spec, pairs), weights, len(pairs)), holes


def boson_commutator_report(spec, pair, n_holes: int = 0, seed: int = 0) -> complex:
    """``<s| [P_pair, P_pair^dag] |s>`` near full filling, un-normalised: the one entry of
    the :func:`pair_commutator_table` of ``pair`` alone (a one-label pattern), with its state
    and bits.  The caller compares it with the canonical-boson value, the site count."""
    return complex(pair_commutator_table(spec, [pair], n_holes, seed)[0][0, 0])
