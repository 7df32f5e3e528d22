"""In-memory spans and per-layer counters, installed around the package's layers.

The benchmark wraps each layer's public functions at the place where
the caller looks the name up: ``cli`` imports ``correspondence_report``
and ``boson_commutator_report`` by name, ``blocks`` imports
``hermitian_eigenvalues`` and the band formulas by name, so the wrapper
goes into the importing module's namespace.  Methods of
``SparseOperator`` and ``FockSpace`` are wrapped on the class.  Nothing
in the package is edited; ``uninstall`` puts every original back.

Every wrapped call adds to its ``(layer, name)`` call count and time.
Calls that are few per command (commands, suites, Hamiltonians,
commutators, near-filling reports, interaction builders) also record a
span: id, parent span, request (one per CLI command), name, start, end.
Hot leaf calls (float formatting, 4x4 blocks, sparse arithmetic) are
counted only, which keeps the tracing overhead and the span file small.

A layer's self time is the time its frames are on top of the layer
stack: the duration of each entry into the layer minus the time spent
in other layers called from it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (module, attribute looked up by callers, layer, metric name, records a span).
# Sites whose counts are not exported (bond_offsets, bond_sum, coupling,
# creation_pair_direct) are wrapped so that their time counts to their layer.
FUNCTION_SITES = [
    ("cli", "fmt_momentum", "cli", "fmt_momentum", False),
    ("cli", "fmt_float", "cli", "fmt_float", False),
    ("cli", "correspondence_report", "blocks", "correspondence_report", True),
    ("blocks", "ssh_boson_block", "blocks", "block_build", False),
    ("blocks", "dirac_boson_block", "blocks", "block_build", False),
    ("blocks", "ssh_boson_closed_eigs", "blocks", "closed_form", False),
    ("blocks", "dirac_boson_closed_eigs", "blocks", "closed_form", False),
    ("blocks", "hermitian_eigenvalues", "numerics", "hermitian_eigenvalues", False),
    ("blocks", "HermitianMatrix", "numerics", "HermitianMatrix", False),
    ("blocks", "ssh_band_energy", "fermion_model", "band_energy", False),
    ("blocks", "dirac2d_band_energy", "fermion_model", "band_energy", False),
    ("blocks", "chain_momenta", "lattice", "grid", False),
    ("blocks", "square_momenta", "lattice", "grid", False),
    ("cli", "chain_momenta", "lattice", "grid", False),
    ("cli", "square_momenta", "lattice", "grid", False),
    ("fock", "chain_momenta", "lattice", "grid", False),
    ("fock", "square_momenta", "lattice", "grid", False),
    ("interactions", "chain_momenta", "lattice", "grid", False),
    ("fock", "on_grid", "lattice", "on_grid", False),
    ("cli", "h_bond_commutator_residuals", "fock", "identity_residuals", True),
    ("fock", "chain_hamiltonian", "fock", "hamiltonian", True),
    ("fock", "dirac_hamiltonian", "fock", "hamiltonian", True),
    ("fock", "commutator", "fock", "commutator", True),
    ("cli", "boson_commutator_report", "fock", "boson_commutator_report", True),
    ("cli", "square_bond_offsets", "fock", "bond_offsets", False),
    ("interactions", "_bond_sum", "fock", "bond_sum", False),
    ("cli", "random_offdiag_coupling", "interactions", "coupling", False),
    ("cli", "coulomb_operator", "interactions", "coulomb", True),
    ("cli", "coulomb_pair_form", "interactions", "coulomb", True),
    ("interactions", "coulomb_pair_form", "interactions", "coulomb", True),
    ("cli", "creation_pair_direct", "interactions", "creation_pair_direct", False),
    ("cli", "pair_from_bonds", "interactions", "pair_from_bonds", True),
    ("interactions", "pair_from_bonds", "interactions", "pair_from_bonds", True),
    ("cli", "interaction_equivalence_residual", "interactions", "equivalence", True),
]

SPARSE_ALGEBRA = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__matmul__",
                  "adjoint")


class Tracer:
    """Span stack, per-(layer, name) counters and per-layer self time."""

    def __init__(self, modules: dict):
        self.modules = modules
        self._originals = []
        self.reset()

    def reset(self):
        self.stats = defaultdict(lambda: [0, 0.0])
        self.self_s = defaultdict(float)
        self.spans = []
        self.nnz = 0
        self.spaces = []
        self.space_dim = 0
        self.op_cache_entries = 0
        self.creation_cache_entries = 0
        # frames: [layer, time spent in other layers called from this frame]
        self._stack = []
        self._span = None
        self._request = None

    # -- recording ----------------------------------------------------------
    def _wrap(self, fn, layer, name, span, post=None):
        stack = self._stack
        stats = self.stats[f"{layer}.{name}"]
        self_s = self.self_s
        clock = time.perf_counter

        def finish(frame, start):
            end = clock()
            dur = end - start
            stack.pop()
            stats[0] += 1
            stats[1] += dur
            parent = stack[-1]
            if parent[0] == layer:
                parent[1] += frame[1]
            else:
                self_s[layer] += dur - frame[1]
                parent[1] += dur
            return end

        if span:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                parent_span = self._span
                sid = len(self.spans)
                self.spans.append(None)
                self._span = sid
                frame = [layer, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = finish(frame, start)
                    self._span = parent_span
                    self.spans[sid] = (sid, parent_span, self._request, f"{layer}.{name}",
                                       start, end)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = [layer, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    finish(frame, start)
                if post is not None:
                    post(args)
                return result
        return wrapper

    def command(self, request: int, fn, *args):
        """Run one CLI command as the root ``cli`` frame of request ``request``."""
        self._request = request
        sid = len(self.spans)
        self.spans.append(None)
        self._span = sid
        root = ["cli", 0.0]
        self._stack.append(root)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.self_s["cli"] += end - start - root[1]
            self.spans[sid] = (sid, None, request, "cli.command", start, end)
            self._span = None
            self._harvest_spaces()

    def _count_nnz(self, args):
        self.nnz += args[0].matrix.nnz

    def _register_space(self, args):
        self.spaces.append(args[0])

    def _harvest_spaces(self):
        for space in self.spaces:
            self.space_dim = max(self.space_dim, space.dim)
            self.op_cache_entries += len(space._op_cache)
            self.creation_cache_entries += len(space._creation_cache)
        self.spaces.clear()

    # -- installation -------------------------------------------------------
    def _patch(self, owner, attr, replacement):
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Reset the counters and wrap every site; wrappers bind the fresh counters."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        self.reset()
        for module, attr, layer, name, span in FUNCTION_SITES:
            owner = self.modules[module]
            self._patch(owner, attr, self._wrap(getattr(owner, attr), layer, name, span))
        sparse_op = self.modules["fock"].SparseOperator
        space = self.modules["fock"].FockSpace
        self._patch(sparse_op, "norm", self._wrap(sparse_op.norm, "fock", "norm", False))
        self._patch(sparse_op, "__init__", self._wrap(
            sparse_op.__init__, "fock", "sparse_operator", False, post=self._count_nnz))
        for attr in SPARSE_ALGEBRA:
            self._patch(sparse_op, attr, self._wrap(
                getattr(sparse_op, attr), "fock", "sparse_algebra", False))
        self._patch(space, "__init__", self._wrap(
            space.__init__, "fock", "space", False, post=self._register_space))
        # the bottom frame: calls outside a command land here and are ignored
        self._stack.append(["", 0.0])

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
        self._stack.clear()

    # -- results ------------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer values of everything recorded since the last reset."""
        out = {}
        for layer in ("cli", "blocks", "fock", "interactions"):
            out[f"{layer}.self_s"] = self.self_s[layer]
        for key in ("cli.fmt_momentum", "cli.fmt_float", "blocks.block_build",
                    "blocks.closed_form", "numerics.hermitian_eigenvalues",
                    "numerics.HermitianMatrix", "fermion_model.band_energy", "lattice.grid",
                    "fock.commutator", "fock.norm", "fock.boson_commutator_report",
                    "fock.sparse_algebra", "interactions.pair_from_bonds"):
            calls, seconds = self.stats[key]
            out[f"{key}.calls"] = calls
            out[f"{key}.s"] = seconds
        out["lattice.on_grid.calls"] = self.stats["lattice.on_grid"][0]
        out["fock.hamiltonian.s"] = self.stats["fock.hamiltonian"][1]
        out["fock.sparse_operator.calls"] = self.stats["fock.sparse_operator"][0]
        out["fock.sparse_operator.nnz"] = self.nnz
        out["fock.space.dim"] = self.space_dim
        out["fock.op_cache.entries"] = self.op_cache_entries
        out["fock.creation_cache.entries"] = self.creation_cache_entries
        out["interactions.coulomb.s"] = self.stats["interactions.coulomb"][1]
        out["interactions.equivalence.s"] = self.stats["interactions.equivalence"][1]
        return out



def write_spans(path: str, passes: list):
    """Write ``[(pass index, spans), ...]`` to ``path``, one JSON span per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for pass_index, spans in passes:
            for sid, parent, request, name, start, end in spans:
                fh.write(json.dumps({"pass": pass_index, "id": sid, "parent": parent,
                                     "request": request, "name": name,
                                     "start": start, "end": end}) + "\n")
