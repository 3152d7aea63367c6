"""Seeded random instances: unitaries, PSD matrices, rays.

Used by the CLI generator, the self-test suites, and the test corpus.  All
sampling is driven by an explicit `numpy.random.Generator` so concurrent or
repeated runs reproduce the same instances.  A sampler that keeps only some
columns of a unitary draws the whole of `random_unitary`'s Gaussian block but
factors only those columns (`_unitary_columns`), so the generator advances
the same and the instance is the one the whole unitary gives, up to rounding.
"""

from __future__ import annotations

import numpy as np

from . import core
from .core import MatrixError

__all__ = [
    "rng_from_seed",
    "random_unitary",
    "random_psd",
    "random_vector",
    "random_ray_in_range",
    "incomparable_pair",
    "shared_core_pair",
    "disjoint_projector_pair",
]

# Spectra are kept inside a moderate band so rank decisions and PSD floors
# stay far from the tolerance cutoffs on generated instances.
DEFAULT_SPREAD = (0.3, 3.0)


def rng_from_seed(seed: int | None) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_unitary(rng: np.random.Generator, n: int, complex_entries: bool = True) -> np.ndarray:
    """Haar-ish unitary (orthogonal when real) from a QR factorization."""
    return _unitary_columns(rng, n, n, complex_entries)


def _unitary_columns(rng: np.random.Generator, n: int, k: int, complex_entries: bool) -> np.ndarray:
    """The first ``k`` columns of `random_unitary` from the same draws.

    Draws the whole n×n Gaussian block (and its imaginary block), so ``rng``
    advances as `random_unitary`'s does, but QR-factors and phase-fixes only
    the block's first ``k`` columns: Householder QR's first ``k`` columns
    depend on those alone (Mezzadri, Notices AMS 54, 2007).
    """
    g = rng.standard_normal((n, n))[:, :k]
    if complex_entries:
        g = g + 1j * rng.standard_normal((n, n))[:, :k]
    q, r = np.linalg.qr(g)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[np.newaxis, :]


def random_psd(
    rng: np.random.Generator,
    n: int,
    rank: int | None = None,
    complex_entries: bool = True,
) -> np.ndarray:
    """PSD matrix ``q diag(values, 0...) q*`` with seeded unitary ``q``.

    Eigenvalues are uniform in ``DEFAULT_SPREAD``; ``rank`` of them are positive,
    the rest exactly zero.  ``rank`` must satisfy ``1 <= rank <= n``.  Only the
    ``rank`` columns of ``q`` that meet a positive eigenvalue are factored and
    multiplied; they are `random_unitary`'s first ``rank`` columns.
    """
    if rank is None:
        rank = n
    if not 1 <= rank <= n:
        raise MatrixError(f"rank {rank} out of range 1..{n}")
    vals = rng.uniform(*DEFAULT_SPREAD, size=rank)
    q = _unitary_columns(rng, n, rank, complex_entries)
    return core.hermitian_part((q * vals) @ q.conj().T)


def random_vector(rng: np.random.Generator, n: int, complex_entries: bool = True) -> np.ndarray:
    g = rng.standard_normal(n)
    if complex_entries:
        g = g + 1j * rng.standard_normal(n)
    return g


def random_ray_in_range(rng: np.random.Generator, a, complex_entries: bool = True) -> np.ndarray:
    """Random ray inside the range of ``a`` (falls back to a plain ray for zero ``a``)."""
    m = core.as_matrix(a)
    g = random_vector(rng, m.shape[0], complex_entries)
    f = m @ g
    if float(np.linalg.norm(f)) < 1e-12:
        return g
    return f


def incomparable_pair(
    rng: np.random.Generator,
    n: int,
    complex_entries: bool = True,
    margin: float = 0.05,
) -> tuple[np.ndarray, np.ndarray]:
    """Pair of PSD matrices incomparable in the Loewner order, robustly so.

    The difference has eigenvalues on both sides of zero beyond ``margin``.
    Requires ``n >= 2`` (all 1x1 PSD pairs are comparable).
    """
    if n < 2:
        raise MatrixError("incomparable pairs need dimension at least 2")
    for _ in range(200):
        a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_entries=complex_entries)
        b = random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_entries=complex_entries)
        w = np.linalg.eigvalsh(b - a)
        if w[0] < -margin and w[-1] > margin:
            return a, b
    raise MatrixError("failed to sample an incomparable pair")


def shared_core_pair(
    rng: np.random.Generator,
    n: int,
    core_rank: int,
    complex_entries: bool = True,
    tails: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Pair supported on one ``core_rank``-dimensional subspace.

    Without tails the two matrices have equal ranges (mutually absolutely
    continuous).  With tails each also gets a rank-one piece in its own
    private direction, so both singular parts are non-trivial.  Needs
    ``core_rank + 2 <= n`` for tails.  The subspace and the tail directions
    are `random_unitary`'s first ``core_rank`` (+2 with tails) columns, the
    only ones factored.
    """
    if not 1 <= core_rank <= n:
        raise MatrixError(f"core rank {core_rank} out of range 1..{n}")
    if tails and core_rank + 2 > n:
        raise MatrixError("tails need two extra directions")
    q = _unitary_columns(rng, n, core_rank + 2 if tails else core_rank, complex_entries)
    v = q[:, :core_rank]
    m = random_psd(rng, core_rank, complex_entries=complex_entries)
    w = random_psd(rng, core_rank, complex_entries=complex_entries)
    a = v @ m @ v.conj().T
    b = v @ w @ v.conj().T
    if tails:
        u1 = q[:, core_rank]
        u2 = q[:, core_rank + 1]
        a = a + float(rng.uniform(0.5, 2.0)) * np.outer(u1, u1.conj())
        b = b + float(rng.uniform(0.5, 2.0)) * np.outer(u2, u2.conj())
    return core.hermitian_part(a), core.hermitian_part(b)


def disjoint_projector_pair(
    rng: np.random.Generator,
    n: int,
    complex_entries: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projectors with trivially intersecting (disjoint) ranges.

    Their ranges are spanned by the first ``k1`` and ``k2`` columns of two
    `random_unitary` draws, and only those columns are factored.
    """
    if n < 2:
        raise MatrixError("disjoint ranges need dimension at least 2")
    k1 = int(rng.integers(1, n))
    k2 = int(rng.integers(1, n - k1 + 1))
    for _ in range(100):
        q1 = _unitary_columns(rng, n, k1, complex_entries)
        q2 = _unitary_columns(rng, n, k2, complex_entries)
        p1 = core.hermitian_part(q1 @ q1.conj().T)
        p2 = core.hermitian_part(q2 @ q2.conj().T)
        # ranges intersect iff p1 + p2 has eigenvalue 2; keep a margin so
        # they are numerically disjoint, not just generically so
        top = float(np.linalg.eigvalsh(p1 + p2)[-1])
        if top < 2.0 - 1e-3:
            return p1, p2
    raise MatrixError("failed to sample projectors with disjoint ranges")
