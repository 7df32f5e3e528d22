"""A fixed reference workload, timed next to the passes to take out host speed.

On a shared host the speed given to one process drifts by up to 1.5-2x,
in levels that last from seconds to minutes, so raw pass times of the
same code scatter across runs by more than any useful bound.  The worker
times this reference after every pass, in the same process, and the
parent divides each pass's time by the mean of the references just
before and just after it (the first pass has only the one after it).

The reference uses numpy, scipy and the interpreter, never bondboson, so
no change to the package moves it.  Its parts mirror the kinds of work
the workloads do: sparse products and single row and column reads of a
4096-dim sparse matrix (``fock``), eigenvalues of small Hermitian
matrices (``blocks``/``numerics``) and float formatting into a dict
(``cli``).  Its inputs come from a fixed seed, not from the benchmark's
``--seed``, so every run times the same work.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

DIM = 4096


def reference_time() -> float:
    """Seconds taken by one round of the reference work.

    The inputs are built on every call, outside the timed part, and
    dropped on return, so nothing of the reference stays resident
    while the passes run.
    """
    rng = np.random.default_rng(20240611)
    m = sp.random(DIM, DIM, density=0.001, format="csr", random_state=rng)
    raw = rng.standard_normal((1000, 4, 4)) + 1j * rng.standard_normal((1000, 4, 4))
    blocks = list(raw + raw.conj().transpose(0, 2, 1))
    values = rng.standard_normal(10_000).tolist()
    t0 = time.perf_counter()
    total = 0
    for _ in range(16):
        total += (m @ m).nnz
    for i in range(0, DIM, 4):
        total += m.getrow(i).sum() + m[:, i].sum()
    for block in blocks:
        total += np.linalg.eigvalsh(block)[0]
    table = {}
    for _ in range(4):
        for i, value in enumerate(values):
            table[i & 255] = f"{value:.17g}"
    return time.perf_counter() - t0
