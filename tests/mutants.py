"""Named mutants: one wrong variant of one package attribute each, and the check that kills it.

A mutant is a monkeypatch of a package attribute that callers look up at call
time.  ``tests/test_mutants.py`` patches each one in, runs its check in process
and requires the check to fail; unpatched, the same check must pass.  So a
test that stops seeing a defect shows as a failing mutant test.  Mutation
testing: DeMillo, Lipton and Sayward, "Hints on test data selection", IEEE
Computer 11(4), 1978.

Each check runs at the smallest size that kills its mutant.  ``goldens`` says
whether a golden report kills the mutant as well; a mutant that only a direct
unit test kills is visible here.

A module that imports a name by name (``from .bilinear import pattern_table``)
looks it up in its own globals, so a mutant is patched on the module whose calls
it should change: a mutant the CLI should see is patched on ``cli`` too.  A
change inside a function's body is expressed by :func:`recompiled`.
"""

import inspect
import textwrap
from dataclasses import dataclass
from typing import Callable

import numpy as np

import test_bilinear
import test_fock
import test_identity_writer
import test_interactions
import test_table_writer
from bondboson import bilinear, cli, fock, interactions
from bondboson.fermion_model import hopping_matrix
from bondboson.lattice import ChainSpec

_rows_json = cli._rows_json
_pair_gram_squares = interactions.pair_gram_squares
_pair_form_stacks = interactions.pair_form_stacks


def recompiled(function, old, new):
    """``function`` compiled again in its module's globals, with the one ``old`` of its
    source replaced by ``new``: a source-level mutant as a replacement attribute."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, (function.__name__, old)
    namespace = {}
    exec(source.replace(old, new), function.__globals__, namespace)
    return namespace[function.__name__]


def exp_unit_roots(n):
    """``unit_roots`` as ``np.exp(2 pi i m / n)``, which is not exact at quarter turns."""
    return np.exp(2j * np.pi * np.arange(n) / n)


def flipped_hop_matrix(spec):
    """``hopping_matrix`` with the sign of its first hop (the first nonzero above the
    diagonal) and of its Hermitian partner flipped."""
    h = hopping_matrix(spec).copy()
    i, j = np.argwhere(np.triu(h, 1))[0]
    h[i, j], h[j, i] = -h[i, j], -h[j, i]
    return h


def einsum_pair_norms(stack):
    """``pair_norms`` with each squared norm summed by ``np.einsum`` over the stack."""
    d = stack - np.swapaxes(stack, 1, 2)
    squares = np.einsum("pij,pij->p", d.real, d.real) + np.einsum("pij,pij->p", d.imag, d.imag)
    return np.sqrt(2.0 ** (stack.shape[-1] - 3)) * np.sqrt(squares)


def vecdot_pair_norms(stack):
    """``pair_norms`` with each squared norm summed by ``np.vecdot`` of the flattened stack."""
    d = (stack - np.swapaxes(stack, 1, 2)).reshape(len(stack), -1)
    return np.sqrt(2.0 ** (stack.shape[-1] - 3)) * np.sqrt(np.vecdot(d, d).real)


def residuals_scattered_as(spec, identities, scattered):
    """``identity_residuals`` with each side's ``np.add.at`` scatter of ``scattered(weights,
    label, row, col, values)``, given the side's :func:`bilinear.pair_entries`, which
    returns the entries to add in order as ``(label, row, col, term value)``."""
    def summed(weights, labels):
        entries = bilinear.pair_entries(spec, labels.reshape(-1, labels.shape[-1]))
        label, row, col, values = scattered(weights, *entries)
        acc = np.zeros((len(weights), spec.n_modes, spec.n_modes), dtype=complex)
        np.add.at(acc, (label // weights.shape[1], row, col), values)
        return acc

    lhs = bilinear.commutator_with_hopping(
        hopping_matrix(spec), summed(identities.target_weights, identities.target_labels))
    return bilinear.pair_norms(lhs - summed(identities.rhs_weights, identities.rhs_labels))


def wrong_term_identity_residuals(spec, identities):
    """``identity_residuals`` with each term's entries scaled by the weight of the term
    before it (cyclically): a wrong weight index in the scatter."""
    return residuals_scattered_as(spec, identities, lambda weights, label, row, col, values: (
        label, row, col, np.roll(weights, 1, axis=1).ravel()[label] * values))


def reversed_identity_residuals(spec, identities):
    """``identity_residuals`` with each side's entries scattered in reverse order, so each
    entry adds its terms last to first."""
    return residuals_scattered_as(spec, identities, lambda weights, label, row, col, values: (
        label[::-1], row[::-1], col[::-1], (weights.ravel()[label] * values)[::-1]))


def unsigned_pair_gram_squares(n_modes):
    """``pair_gram_squares`` with the Jordan-Wigner sign of every shared-mode row dropped."""
    *squares, signs = _pair_gram_squares(n_modes)
    return (*squares, np.ones_like(signs))


def modeless_pair_gram_squares(n_modes):
    """``pair_gram_squares`` with no ``by_mode`` rows, so ``pair_tensor_norm`` drops the
    squares of the per-mode sums of the ``E_pp``."""
    diagonal, by_mode, shared, signs = _pair_gram_squares(n_modes)
    return diagonal, by_mode[:, :0], shared, signs


def negated_pair_form_stacks(a):
    """``pair_form_stacks`` with every weight's sign flipped."""
    raising, lowering, weights = _pair_form_stacks(a)
    return raising, lowering, -weights


def upper_density_tensor(alpha):
    """``density_tensor`` with entry ``alpha_ij`` on the pair (i < j), not the half-sum
    of ``alpha_ij`` and ``alpha_ji``."""
    a = np.asarray(alpha, dtype=float)
    i, j = np.triu_indices(len(a), 1)
    return np.diag(a[i, j].astype(complex))


def fused_pattern_diagonal(pattern, weights, count):
    """``pattern_diagonal`` with numpy's complex ``*``, which may fuse a multiply-add."""
    k, r, values = pattern
    diagonal = np.zeros(count, dtype=complex)
    np.add.at(diagonal, r, np.multiply(values, weights[k]) * values.conj())
    return diagonal


def quoted_pass(report, row, fields):
    """``_rows_json`` with the row template's ``pass`` column quoted, like a text column."""
    return _rows_json(report, {**row, "pass": str(row["pass"])} if "pass" in row else row, fields)


@dataclass(frozen=True)
class Mutant:
    owners: tuple  # the modules whose binding of ``attribute`` is patched
    attribute: str
    replacement: Callable
    check: Callable  # called with a temporary directory; raises AssertionError when it kills
    goldens: bool


MUTANTS = {
    # a sum in another order moves a norm by an ulp or so, which 15 printed digits
    # seldom show: no golden changes
    "pair_norms summed by einsum": Mutant(
        (bilinear,), "pair_norms", einsum_pair_norms,
        lambda tmp: test_bilinear.test_pair_norms_have_the_bits_of_the_norm_formula(12, 40),
        goldens=False),
    "pair_norms summed by vecdot": Mutant(
        (bilinear,), "pair_norms", vecdot_pair_norms,
        lambda tmp: test_bilinear.test_pair_norms_have_the_bits_of_the_norm_formula(12, 40),
        goldens=False),
    # a wrong weight leaves residuals of order one: the identities goldens fail their verdict
    "identity scatter with the weight of the wrong term": Mutant(
        (bilinear,), "identity_residuals", wrong_term_identity_residuals,
        lambda tmp: test_bilinear.test_batched_residuals_have_the_bits_of_the_per_identity_loop(
            ChainSpec(4, alpha_u=0.1)),
        goldens=True),
    # no golden or verify_identities argv has an entry with more than two nonzero terms
    # except dirac2d 1x1, whose four are exact: only a made-up side shows the order
    "identity scatter in reverse term order": Mutant(
        (bilinear,), "identity_residuals", reversed_identity_residuals,
        lambda tmp: test_bilinear.test_each_entry_adds_its_terms_in_the_listed_order(),
        goldens=False),
    # the sign moves the bond-assembled residual's rounding: verify_interactions_ssh10.json
    # changes, verify_interactions_ssh6.json keeps its bytes
    "pair Gram squares without the sign parity": Mutant(
        (interactions,), "pair_gram_squares", unsigned_pair_gram_squares,
        lambda tmp: test_interactions.test_pair_tensor_norm_is_the_fock_norm(4),
        goldens=True),
    # the E_pp rows carry the pair form's norm: interaction_norm and the bond check's
    # tolerance change in every interactions golden
    "pair_tensor_norm without its by_mode rows": Mutant(
        (interactions,), "pair_gram_squares", modeless_pair_gram_squares,
        lambda tmp: test_interactions.test_suite_numbers_are_the_fock_oracle(4, tmp),
        goldens=True),
    # the pair form of -alpha: density_vs_pair_form and bond_assembled_interaction fail
    "pair_form_stacks with the weights' sign flipped": Mutant(
        (interactions, cli), "pair_form_stacks", negated_pair_form_stacks,
        lambda tmp: test_interactions.test_density_tensor_is_the_pair_form_tensor(0.0),
        goldens=True),
    # every golden coupling is exactly symmetric, where alpha_ij is the half-sum's bits
    "density tensor without the half-sum": Mutant(
        (interactions, cli), "density_tensor", upper_density_tensor,
        lambda tmp: test_interactions.test_density_tensor_is_the_pair_form_tensor(1e-13),
        goldens=False),
    # one flipped term leaves a residual of order one: the interactions verdicts fail
    "bond-assembled stacks with a wrong term": Mutant(
        (interactions,), "bond_assembled_stacks",
        test_interactions.wrong_term(interactions.bond_assembled_stacks, "flip_sign", 0),
        lambda tmp: test_interactions.test_equivalence_residual_seeded_random(),
        goldens=True),
    # the interactions goldens keep their bytes with a fused product in the pair tensor too
    "pair_tensor with numpy's fused complex product": Mutant(
        (interactions,), "unfused_product", np.multiply,
        lambda tmp: test_interactions.test_pair_tensors_have_the_bits_of_the_term_by_term_sum(6),
        goldens=False),
    # the interactions goldens keep their bytes with the fused product
    "pair_products with numpy's fused complex product": Mutant(
        (fock,), "unfused_product", np.multiply,
        lambda tmp: test_interactions.test_random_stacks_have_the_bits_of_the_chunked_product(
            4, 0.1),
        goldens=False),
    # the CLI's hole rows are K = 0 labels, whose products are exact
    "pattern_diagonal with numpy's fused complex product": Mutant(
        (bilinear, cli), "pattern_diagonal", fused_pattern_diagonal,
        lambda tmp: test_fock.test_pattern_diagonal_has_the_bits_of_the_table_diagonal(
            ChainSpec(6)),
        goldens=False),
    # the phases of every pair coefficient move: 12 of the 20 goldens change, among them
    # every identities golden
    "unit_roots with np.exp phases": Mutant(
        (bilinear,), "unit_roots", exp_unit_roots,
        lambda tmp: test_bilinear.test_batched_residuals_have_the_bits_of_the_per_identity_loop(
            ChainSpec(4, alpha_u=0.1)),
        goldens=True),
    # the matched diagonal of the commutators suite moves where phases round: the
    # commutators goldens of ssh 6, ssh 16 and dirac2d 2x3 change
    "pattern_table with numpy's fused complex product": Mutant(
        (bilinear, cli), "pattern_table",
        recompiled(bilinear.pattern_table, "unfused_product(", "np.multiply("),
        lambda tmp: test_fock.test_pattern_diagonal_has_the_bits_of_the_table_diagonal(
            ChainSpec(6)),
        goldens=True),
    # a wrong h leaves residuals of order one: the identities goldens fail their verdict
    "hopping_matrix with one hop flipped": Mutant(
        (bilinear,), "hopping_matrix", flipped_hop_matrix,
        lambda tmp: test_bilinear.test_identities_agree_with_the_fock_oracle_per_check(
            ChainSpec(4, alpha_u=0.1)),
        goldens=True),
    # the remainder is off by up to an ulp of the scaled value, which misrounds values
    # near a decimal tie: spectrum_ssh40_alpha013.csv changes
    "_format_floats without Dekker's correction term": Mutant(
        (cli,), "_format_floats", recompiled(
            cli._format_floats, "(((((a1 * h1 - p) + a1 * h2) + a2 * h1) + a2 * h2) + a * lo)",
            "a * lo"),
        lambda tmp: test_table_writer.test_kernel_matches_fmt_float_at_decimal_near_ties(),
        goldens=True),
    # no golden holds a residual at its bound
    "_passes with <": Mutant(
        (cli,), "_passes", lambda residual, bound: residual < bound,
        lambda tmp: test_identity_writer.test_a_residual_passes_up_to_its_bound(
            test_identity_writer.TOLERANCE, 0, tmp),
        goldens=False),
    "identity row template with pass quoted": Mutant(
        (cli,), "_rows_json", quoted_pass,
        lambda tmp: test_identity_writer.test_report_has_the_bytes_of_the_dict_route(
            ["--model", "ssh", "--sites", "2", "--alpha-u", "0"], tmp),
        goldens=True),
}
