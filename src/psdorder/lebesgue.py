"""Absolute continuity, singularity, and the Lebesgue decomposition.

For PSD matrices the sequential definition of absolute continuity
collapses to range inclusion: ``b`` is absolutely continuous with respect
to ``a`` iff ``ran b`` is contained in ``ran a``.  Two PSD matrices are
mutually singular iff their ranges intersect trivially, which is the same
as saying the zero matrix is the only common Loewner minorant.

`ac_part` splits ``b`` into ``b = ac + sing`` where ``ac`` is the largest
PSD matrix below ``b`` whose range lies inside ``ran a``: with
``r = b^{1/2}`` and ``p`` the projector onto ``{x : r x in ran a}``, the
parts are ``ac = r p r`` and ``sing = r (1 - p) r``.  The same maximal
part is the monotone limit of the parallel sums ``(n a) : b`` as ``n``
grows, which serves as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import DEFAULT_TOL, Tolerance

__all__ = [
    "LebesgueParts",
    "absolutely_continuous",
    "mutually_singular",
    "parallel_sum",
    "ac_part",
]


@dataclass(frozen=True)
class LebesgueParts:
    """Decomposition ``b = ac + sing`` with the construction projector.

    ``ac`` is absolutely continuous with respect to the reference matrix,
    ``sing`` is singular to it, and ``projector`` is the orthogonal
    projector (onto ``{x : b^{1/2} x in ran a}``) used to carve them out.
    """

    ac: np.ndarray
    sing: np.ndarray
    projector: np.ndarray


def absolutely_continuous(b, a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``ran b`` is contained in ``ran a`` (so ``b << a``)."""
    db = core.eig_hermitian(b, tol)
    da = core.eig_hermitian(a, tol)
    core._same_dim(da.vectors, db.vectors)
    pa = da.projector(tol)
    pb = db.projector(tol)
    eye = np.eye(pa.shape[0])
    return float(np.linalg.norm((eye - pa) @ pb, 2)) <= tol.rel


def mutually_singular(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``ran a`` and ``ran b`` intersect only in ``{0}``.

    Tested through rank additivity: the ranks of ``a`` and ``b`` must add
    up to the rank of the projector onto ``ran a + ran b``.
    """
    da = core.eig_hermitian(a, tol)
    db = core.eig_hermitian(b, tol)
    core._same_dim(da.vectors, db.vectors)
    return _rank_additivity(da, db, tol)[0]


def _rank_additivity(
    da: core.EigDecomp, db: core.EigDecomp, tol: Tolerance
) -> tuple[bool, core.EigDecomp]:
    """`mutually_singular` verdict and the decomposition of ``P(a) + P(b)``.

    ``P(x)`` is the projector onto ``ran x``; callers that go on to look
    for a shared range direction read it from the returned decomposition.
    """
    dsum = core.eig_hermitian(da.projector(tol) + db.projector(tol), tol)
    ra = core.numeric_rank(da, tol)
    rb = core.numeric_rank(db, tol)
    return ra + rb == core.numeric_rank(dsum, tol), dsum


_GRADED_RATIO = float(2**20)


def _machine_pinv(m: np.ndarray) -> np.ndarray:
    """Pseudo-inverse with a machine-precision rank cutoff.

    The policy cutoff of `core.pinv_psd` is relative to the largest
    eigenvalue; callers of `parallel_sum` scale one argument by huge
    factors (e.g. ``2^30``) when using it as a limit oracle, and a
    relative cutoff at that scale would null genuinely informative
    eigenvalues of the sum.
    """
    w, v = np.linalg.eigh(m)
    top = max(float(np.max(np.abs(w))), 0.0) if w.size else 0.0
    cut = 100.0 * m.shape[0] * np.finfo(float).eps * top
    inv = np.where(w > cut, 1.0 / np.where(w > cut, w, 1.0), 0.0)
    return (v * inv) @ v.conj().T


def parallel_sum(a, b) -> np.ndarray:
    """Parallel sum ``a (a + b)^+ b``.

    Symmetric in its arguments and a lower bound of both.  When the two
    operands differ in scale by many orders of magnitude, the sum is
    never formed directly: adding ``2^30 a`` to ``b`` entrywise rounds
    away the`` b``-level information that the limit oracle depends on.
    Instead the inverse is computed through a congruence that balances
    the sum in the eigenbasis of the dominant operand, which yields the
    same product because any Hermitian reflexive inverse ``w`` of
    ``s = a + b`` satisfies ``a w b = a s^+ b`` (the kernel of ``s`` lies
    in the kernels of both operands).
    """
    ha = core.as_hermitian(a)
    hb = core.as_hermitian(b)
    core._same_dim(ha, hb)
    na = float(np.max(np.abs(ha)))
    nb = float(np.max(np.abs(hb)))
    if na == 0.0 or nb == 0.0:
        return np.zeros_like(ha)
    if max(na, nb) <= _GRADED_RATIO * min(na, nb):
        spinv = _machine_pinv(core.hermitian_part(ha + hb))
        return core.hermitian_part(ha @ spinv @ hb)
    swapped = na < nb
    big, small = (hb, ha) if swapped else (ha, hb)
    gamma = float(np.max(np.abs(small)))
    wb, ub = np.linalg.eigh(big)
    # machine-rank truncation of the dominant spectrum: eigh noise on the
    # kernel of `big` would otherwise masquerade as content at a scale far
    # above machine precision relative to `small`
    cut_big = 100.0 * big.shape[0] * np.finfo(float).eps * float(np.max(np.abs(wb)))
    wb = np.where(wb > cut_big, wb, 0.0)
    d = 1.0 / np.sqrt(np.clip(wb, gamma, None))
    # the sum in big's eigenbasis: exactly diagonal big plus rotated small
    n_mat = np.diag(wb.astype(np.complex128)) + ub.conj().T @ small @ ub
    m_bal = core.hermitian_part(n_mat * d[np.newaxis, :] * d[:, np.newaxis])
    w_bal = _machine_pinv(m_bal)
    # factored product a (t w t*) b with the dominant side applied
    # spectrally: forming `big @ t` entrywise would cancel 1e9-scale terms
    # down to order one and lose the small-operand information again
    big_factor = ub * (wb * d)[np.newaxis, :]
    t = ub * d[np.newaxis, :]
    if swapped:
        left = ha @ t
        right = big_factor.conj().T
    else:
        left = big_factor
        right = t.conj().T @ hb
    return core.hermitian_part(left @ w_bal @ right)


def ac_part(b, a, tol: Tolerance = DEFAULT_TOL) -> LebesgueParts:
    """Lebesgue decomposition of ``b`` with respect to ``a``.

    Returns the maximal decomposition: ``ac`` is the largest PSD matrix
    satisfying ``ac <= b`` and ``ac << a``.  Alternative (non-maximal)
    decompositions exist in general and are not enumerated.
    """
    db = core.eig_hermitian(b, tol)
    da = core.eig_hermitian(a, tol)
    core._same_dim(da.vectors, db.vectors)
    r = core.sqrt_psd(db, tol)
    pa = da.projector(tol)
    eye = np.eye(r.shape[0])
    # Kernel of (1 - pa) r computed from the PSD product r (1 - pa) r to
    # avoid forming non-Hermitian intermediates.
    k = core.hermitian_part(r @ (eye - pa) @ r)
    p = core.hermitian_part(eye - core.range_projector(k, tol))
    ac = core.hermitian_part(r @ p @ r)
    sing = core.hermitian_part(r @ (eye - p) @ r)
    return LebesgueParts(ac, sing, p)
