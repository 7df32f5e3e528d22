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

The H-bond identities are stated here once, as data: each
:class:`Identity` lists its target bond (or combination) and the
weighted pair sums of its right-hand side.  :func:`h_bond_commutator_residuals`
evaluates both sides on coefficients and reports the Fock-space
Frobenius norm of LHS - RHS; the tests evaluate the same data on Fock
matrices as a cross-check.  All identities of a lattice are evaluated
in one batch (:func:`identity_residuals`): one stacked build of every
distinct pair label (:func:`pair_stack`), the weighted sums of all
sides accumulated term by term at once, and ``[H, .]`` as one stacked
product.  Each entry still adds its terms in the listed order, so the
residuals have the bits of a one-identity-at-a-time evaluation.  Every
phase comes from one exact table per grid axis
(:func:`bondboson.lattice.unit_roots`), indexed by integer momentum, so
``e^{i pi}`` is exactly -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .fermion_model import dirac2d_hopping_matrix, ssh_hopping_matrix
from .lattice import (
    ChainSpec,
    SquareSpec,
    chain_anchors,
    chain_mode,
    phase_position,
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


# The spins of the two created fermions of a chain channel, and the
# components of a square-lattice pairing (0 = c, 1 = b).
CHAIN_CHANNEL_SPINS = {"uu": (0, 0), "dd": (1, 1), "ud": (0, 1), "du": (1, 0)}
SQUARE_PAIRING_COMPONENTS = {"cc": (0, 0), "bb": (1, 1), "cb": (0, 1), "bc": (1, 0)}


@dataclass(frozen=True)
class ChainPair:
    """``sum_n w[K*p(n)] c+_{n,s1} c+_{n+l,s2}`` over the anchors n of a sublattice.

    ``K`` is the momentum index on the site grid (k = 2*pi*K/n_sites).
    The anchors are every site ("all"), the odd sites ("A", p(n) = n) or
    the even sites ("B", p(n) = n // 2, the cell index); on the full
    chain p(n) = n.  ``channel`` names the two spins (see
    :data:`CHAIN_CHANNEL_SPINS`).
    """

    l: int
    K: int
    channel: str = "uu"
    sublattice: str = "all"


@dataclass(frozen=True)
class SquarePair:
    """``sum_r w_x[Kx*x] w_y[Ky*y] a+_r a'+_{r+(l,m)}`` on the square lattice.

    ``Kx``, ``Ky`` index the two axis grids; ``pairing`` names the
    components of the two created fermions ("cc", "bb", "cb", "bc").
    """

    l: int
    m: int
    Kx: int
    Ky: int
    pairing: str = "cc"


@dataclass(frozen=True)
class Identity:
    """One H-bond identity ``[H, sum target] = sum rhs``.

    ``target`` and ``rhs`` are tuples of ``(weight, pair)`` with pairs
    :class:`ChainPair` or :class:`SquarePair`; ``channel``,
    ``sublattice``, ``l`` and ``k`` label the check in reports (k as
    the integer momentum index: K on the chain's site grid, (Kx, Ky) on
    the two axis grids).
    """

    channel: str
    sublattice: str
    l: object
    k: object
    target: tuple
    rhs: tuple


def commutator_with_hopping(h: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Coefficients of ``[H, P_A]``: ``hA + A h^T``."""
    return h @ a + a @ h.T


def pair_norm(m: np.ndarray) -> float:
    """Fock-space Frobenius norm of the pair bilinear of the n x n matrix m."""
    n = m.shape[0]
    return float(np.sqrt(2.0 ** (n - 3)) * np.linalg.norm(m - m.T))


def _scaled(weight, terms) -> tuple:
    return tuple((weight * w, pair) for w, pair in terms)


def pair_stack(spec, labels) -> np.ndarray:
    """The ``(P, n, n)`` coefficient matrices of the pair labels, in order; read-only.

    ``labels`` are :class:`ChainPair` labels of a :class:`ChainSpec` (its
    site count and spinfulness are read) or :class:`SquarePair` labels of
    a :class:`SquareSpec` (its extents).  Labels that share their anchors
    are written by one fancy-index assignment: one per sublattice on the
    chain, one for all labels in 2D.  Every phase is an entry of
    :func:`~bondboson.lattice.unit_roots` (a product of one per axis in
    2D), so a label's matrix has the same bits in any list.
    """
    n = spec.n_modes
    stack = np.zeros((len(labels), n, n), dtype=complex)
    if isinstance(spec, ChainSpec):
        n_sites, spinful = spec.n_sites, spec.spinful
        roots = unit_roots(n_sites)
        for sublattice in dict.fromkeys(label.sublattice for label in labels):
            anchors = np.array(chain_anchors(n_sites, sublattice))
            position = phase_position(sublattice, anchors)
            rows = [p for p, label in enumerate(labels) if label.sublattice == sublattice]
            l, K, spin1, spin2 = np.array(
                [(labels[p].l, labels[p].K, *CHAIN_CHANNEL_SPINS[labels[p].channel])
                 for p in rows]).T[:, :, None]
            stack[np.array(rows)[:, None], chain_mode(n_sites, anchors, spin1, spinful),
                  chain_mode(n_sites, anchors + l, spin2, spinful)] = roots[(K * position) % n_sites]
    else:
        lx, ly = spec.lx, spec.ly
        x, y = (v.ravel() for v in np.meshgrid(np.arange(lx), np.arange(ly), indexing="ij"))
        l, m, Kx, Ky, comp1, comp2 = np.array(
            [(label.l, label.m, label.Kx, label.Ky, *SQUARE_PAIRING_COMPONENTS[label.pairing])
             for label in labels], dtype=int).reshape(-1, 6).T[:, :, None]
        stack[np.arange(len(labels))[:, None], square_mode(lx, ly, x, y, comp1),
              square_mode(lx, ly, x + l, y + m, comp2)] = (
            unit_roots(lx)[(Kx * x) % lx] * unit_roots(ly)[(Ky * y) % ly])
    stack.setflags(write=False)
    return stack


def hopping_matrix(spec) -> np.ndarray:
    """``h`` of the spec's Hamiltonian in the Fock mode order (``h (x) I_2`` when spinful)."""
    if isinstance(spec, ChainSpec):
        h = ssh_hopping_matrix(spec).array
        return np.kron(h, np.eye(2)) if spec.spinful else h
    return dirac2d_hopping_matrix(spec).array


def _chain_identities(spec: ChainSpec) -> list:
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
    """
    n_sites, n_cells = spec.n_sites, spec.n_cells
    roots = unit_roots(n_sites)
    t0, au = spec.t0, spec.alpha_u
    t_l = lambda l: t0 + (-1) ** l * 2.0 * au
    t_plus, t_minus = t0 + 2.0 * au, t0 - 2.0 * au
    if spec.spinful:
        channels = [("E(+)", (("uu", 1), ("dd", 1))), ("E(-)", (("uu", 1), ("dd", -1))),
                    ("D(+)", (("ud", 1), ("du", 1))), ("D(-)", (("ud", 1), ("du", -1)))]
    else:
        channels = [("e", (("uu", 1),))]

    identities = []
    for name, parts in channels:
        def op(weight, l, K, sublattice):
            return tuple((weight * sign, ChainPair(l, K % n_sites, channel, sublattice))
                         for channel, sign in parts)

        for j in range(n_cells):
            K = 2 * j
            phase, phase_c = roots[K % n_sites], roots[-K % n_sites]
            half, half_c = roots[j], roots[-j % n_sites]
            for l in range(1, n_cells + 1):
                identities.append(Identity(name, "A", l, K, op(1.0, l, K, "A"), (
                    op(-t_l(l), l + 1, K, "A") + op(-t_l(l + 1), l - 1, K, "A")
                    + op(-t_minus * phase, l + 1, 2 * K, "B")
                    + op(-t_plus * phase_c, l - 1, 2 * K, "B"))))
                identities.append(Identity(name, "B", l, K, op(1.0, l, K, "B"), (
                    op(-t_l(l + 1), l + 1, K, "B") + op(-t_l(l), l - 1, K, "B")
                    + op(-t_plus * half, l + 1, j, "A")
                    + op(-t_minus * half_c, l - 1, j, "A"))))
    return identities


def _square_identities(spec: SquareSpec) -> list:
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
    """
    lx, ly = spec.lx, spec.ly
    roots_x, roots_y = unit_roots(lx), unit_roots(ly)
    mass = 2.0 * spec.delta

    identities = []
    for Kx, Ky in np.ndindex(lx, ly):
        X, Y = roots_x[Kx], roots_y[Ky]
        Xc, Yc = roots_x[-Kx % lx], roots_y[-Ky % ly]

        def E(family, parity, l, m):
            first, second = ("cc", "bb") if family == 1 else ("cb", "bc")
            return ((1.0 / _SQRT2, SquarePair(l, m, Kx, Ky, first)),
                    (parity / _SQRT2, SquarePair(l, m, Kx, Ky, second)))

        for l in range(lx):
            for m in range(ly):
                checks = [
                    ("E1(+)", E(1, +1, l, m),
                     _scaled(-(1 + X), E(2, -1, l + 1, m))
                     + _scaled(1 + Xc, E(2, -1, l - 1, m))
                     + _scaled(1j * (Y - 1), E(2, +1, l, m + 1))
                     + _scaled(-1j * (Yc - 1), E(2, +1, l, m - 1))
                     + _scaled(mass, E(1, -1, l, m))),
                    ("E1(-)", E(1, -1, l, m),
                     _scaled(X - 1, E(2, +1, l + 1, m))
                     + _scaled(1 - Xc, E(2, +1, l - 1, m))
                     + _scaled(-1j * (1 + Y), E(2, -1, l, m + 1))
                     + _scaled(1j * (1 + Yc), E(2, -1, l, m - 1))
                     + _scaled(mass, E(1, +1, l, m))),
                    ("E2(+)", E(2, +1, l, m),
                     _scaled(1 - X, E(1, -1, l + 1, m))
                     + _scaled(-(1 - Xc), E(1, -1, l - 1, m))
                     + _scaled(1j * (Y - 1), E(1, +1, l, m + 1))
                     + _scaled(-1j * (Yc - 1), E(1, +1, l, m - 1))),
                    ("E2(-)", E(2, -1, l, m),
                     _scaled(1 + X, E(1, +1, l + 1, m))
                     + _scaled(-(1 + Xc), E(1, +1, l - 1, m))
                     + _scaled(-1j * (1 + Y), E(1, -1, l, m + 1))
                     + _scaled(1j * (1 + Yc), E(1, -1, l, m - 1))),
                ]
                for name, target, rhs in checks:
                    identities.append(Identity(name, "-", (l, m), (Kx, Ky), target, rhs))
    return identities


def bond_identities(spec) -> list:
    """The H-bond identities of a chain or square-lattice spec, in report order.

    Raises :class:`FockSizeError` beyond the 16-mode cap:
    each residual is a Fock-space norm with an absolute bound.
    """
    check_mode_cap(spec.n_modes)
    if isinstance(spec, ChainSpec):
        return _chain_identities(spec)
    return _square_identities(spec)


def identity_residuals(spec, identities) -> list:
    """The Fock-space Frobenius norm of LHS - RHS of each identity, in order.

    One batch: the distinct labels of all identities are built once
    (:func:`pair_stack`), each side becomes an (identity, term) table of
    weights and stack rows, and its sums are accumulated term by term
    over all identities at once, so every entry adds its terms in the
    order the identity lists them.  Shorter sides are padded with zero
    weights, which can only change the sign of a zero entry.  ``[H, .]``
    is one stacked product (:func:`commutator_with_hopping`) and each
    difference is measured by :func:`pair_norm`.
    """
    labels = list(dict.fromkeys(pair for identity in identities
                                for _, pair in identity.target + identity.rhs))
    row = {label: p for p, label in enumerate(labels)}
    stack = pair_stack(spec, labels)

    def summed(sides):
        width = max(map(len, sides), default=0)
        weights = np.zeros((len(sides), width), dtype=complex)
        rows = np.zeros((len(sides), width), dtype=int)
        for i, terms in enumerate(sides):
            for t, (weight, pair) in enumerate(terms):
                weights[i, t], rows[i, t] = weight, row[pair]
        acc = np.zeros((len(sides),) + stack.shape[1:], dtype=complex)
        for t in range(width):
            acc += weights[:, t, None, None] * stack[rows[:, t]]
        return acc

    lhs = commutator_with_hopping(hopping_matrix(spec),
                                  summed([identity.target for identity in identities]))
    return [pair_norm(d) for d in lhs - summed([identity.rhs for identity in identities])]


def h_bond_commutator_residuals(spec) -> list:
    """``(identity, residual)`` for each H-bond identity, in report order.

    Each residual is the Frobenius norm of LHS - RHS as Fock-space
    operators, evaluated exactly on coefficient matrices
    (:func:`identity_residuals`).
    """
    identities = bond_identities(spec)
    return list(zip(identities, identity_residuals(spec, identities)))


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
    offsets = []
    seen = set()
    for l in range(lx):
        for m in range(ly):
            if (l, m) == (0, 0) or (l, m) in seen:
                continue
            seen.add(((-l) % lx, (-m) % ly))
            offsets.append((l, m))
    return offsets


def bond_self_paired(spec, pair) -> bool:
    """Whether the offset of ``pair`` wraps onto itself (2l = 0 mod the lattice)."""
    if isinstance(spec, ChainSpec):
        return (2 * pair.l) % spec.n_sites == 0
    return (2 * pair.l % spec.lx, 2 * pair.m % spec.ly) == (0, 0)


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
        self_paired=matched and bond_self_paired(spec, pair),
    )
