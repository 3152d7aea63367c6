"""Seeded random instances: unitaries, PSD matrices, rays.

Used by the CLI generator, the self-test suites, and the test corpus.  All
sampling is driven by an explicit `numpy.random.Generator` so concurrent or
repeated runs reproduce the same instances.  A sampler that keeps only some
columns of a unitary draws the whole of `random_unitary`'s Gaussian block but
factors only those columns (`_unitary_columns`), so the generator advances
the same and the instance is the one the whole unitary gives, up to rounding.
A sampler that may reject a draw decides from the factors it drew
(`_psd_factors`, `_unitary_columns`) and forms n×n matrices only for the draw
it keeps, or where the factors cannot settle the test.
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

# An acceptance test read from a sampler's factors settles only this far past its threshold:
# far beyond the rounding of the formed matrices' spectra (about n eps times the spread).
_SETTLED = 1e-8


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
    return _product(*_psd_factors(rng, n, rank, complex_entries))


def _psd_factors(rng: np.random.Generator, n: int, rank: int, complex_entries: bool):
    """``(q, vals)`` of `random_psd`'s draw, ``q diag(vals) q*``, drawn in its order: values, then columns."""
    vals = rng.uniform(*DEFAULT_SPREAD, size=rank)
    return _unitary_columns(rng, n, rank, complex_entries), vals


def _product(q: np.ndarray, vals: np.ndarray | None = None) -> np.ndarray:
    """``q diag(vals) q*`` (``q q*`` without ``vals``), exactly Hermitian."""
    return core._symmetrized((q if vals is None else q * vals) @ q.conj().T)


def random_vector(rng: np.random.Generator, n: int, complex_entries: bool = True) -> np.ndarray:
    g = rng.standard_normal(n)
    if complex_entries:
        g = g + 1j * rng.standard_normal(n)
    return g


def random_ray_in_range(rng: np.random.Generator, a, complex_entries: bool = True) -> np.ndarray:
    """Random ray ``a g`` inside the range of ``a``, at any scale of ``a``; the plain ray ``g``
    when ``a g`` is exactly zero."""
    m = core.as_matrix(a)
    g = random_vector(rng, m.shape[0], complex_entries)
    f = m @ g
    return f if np.any(f) else g


def incomparable_pair(
    rng: np.random.Generator,
    n: int,
    complex_entries: bool = True,
    margin: float = 0.05,
) -> tuple[np.ndarray, np.ndarray]:
    """Pair of PSD matrices incomparable in the Loewner order, robustly so.

    The difference has eigenvalues on both sides of zero beyond ``margin``.
    Requires ``n >= 2`` (all 1x1 PSD pairs are comparable).  Each draw is two
    `random_psd` draws, and a draw that the Rayleigh quotients along their
    eigenvectors cannot settle is decided by the spectrum of ``b - a``: the
    pairs kept are the ones that spectrum alone would keep.
    """
    if n < 2:
        raise MatrixError("incomparable pairs need dimension at least 2")
    reach = margin + max(margin, _SETTLED)
    for _ in range(200):
        qa, va = _psd_factors(rng, n, int(rng.integers(1, n + 1)), complex_entries)
        qb, vb = _psd_factors(rng, n, int(rng.integers(1, n + 1)), complex_entries)
        # The Rayleigh quotients of b - a along the drawn eigenvectors of a and of b, read from
        # |qa* qb|², bound its spectrum (Courant–Fischer): one below -reach and one above reach
        # settle the test.  Otherwise the spectrum of b - a decides.
        c = np.abs(qa.conj().T @ qb) ** 2
        a, b = _product(qa, va), _product(qb, vb)
        if np.min(c @ vb - va) < -reach and np.max(vb - va @ c) > reach:
            return a, b
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
    return core._symmetrized(a), core._symmetrized(b)


def disjoint_projector_pair(
    rng: np.random.Generator,
    n: int,
    complex_entries: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projectors with trivially intersecting (disjoint) ranges.

    Their ranges are spanned by the first ``k1`` and ``k2`` columns of two
    `random_unitary` draws, and only those columns are factored.  A draw is
    kept when the largest principal-angle cosine ``||q1* q2||_2``, a k1×k2
    spectral norm, is below ``1 - 1e-3``, and only the kept draw forms its
    projectors.
    """
    if n < 2:
        raise MatrixError("disjoint ranges need dimension at least 2")
    k1 = int(rng.integers(1, n))
    k2 = int(rng.integers(1, n - k1 + 1))
    for _ in range(100):
        q1 = _unitary_columns(rng, n, k1, complex_entries)
        q2 = _unitary_columns(rng, n, k2, complex_entries)
        # ranges intersect iff p1 + p2 has eigenvalue 2; keep a margin so they are numerically
        # disjoint, not just generically so.  Its top eigenvalue is 1 + ||q1* q2||_2, one plus the
        # largest principal-angle cosine, so only a draw too near the margin to tell forms p1 + p2.
        top = 1.0 + float(np.linalg.norm(q1.conj().T @ q2, 2))
        if abs(top - (2.0 - 1e-3)) <= _SETTLED:
            top = float(np.linalg.eigvalsh(_product(q1) + _product(q2))[-1])
        if top < 2.0 - 1e-3:
            return _product(q1), _product(q2)
    raise MatrixError("failed to sample projectors with disjoint ranges")
