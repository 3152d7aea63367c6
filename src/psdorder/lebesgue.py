"""Absolute continuity, singularity, and the Lebesgue decomposition.

For PSD matrices the sequential definition of absolute continuity
collapses to range inclusion: ``b`` is absolutely continuous with respect
to ``a`` iff ``ran b`` is contained in ``ran a``.  Two PSD matrices are
mutually singular iff their ranges intersect trivially, which is the same
as saying the zero matrix is the only common Loewner minorant.

Every range question is answered from the principal angles of ``ran b``
against ``ran a`` (Björck & Golub, Math. Comp. 27, 1973): the singular
values of ``Qb - Qa Qa* Qb`` are their sines, and an angle counts as zero
when its sine is at most ``tol.rel``.  ``b << a`` iff every angle is zero,
the pair is singular iff none is, and the zero angles span
``ran a ∩ ran b``.  On that intersection `ac_part` builds the maximal part
of ``b`` by the shorted-operator formula ``ac = V (V* b^+ V)^{-1} V*``
(Anderson & Trapp, SIAM J. Appl. Math. 28, 1975); the same maximal part is
the monotone limit of the parallel sums ``(n a) : b`` as ``n`` grows,
which serves as an independent oracle.
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


def _angles(da: core.EigDecomp, db: core.EigDecomp, tol: Tolerance):
    """Principal angles of ``ran b`` against ``ran a``, one SVD.

    Returns ``(qb, sines, c)``: the range basis of ``b``, the sines in
    descending order, and the matching right singular vectors in ``qb``
    coordinates, so ``qb @ c[:, sines <= tol.rel]`` is an orthonormal basis
    of ``ran a ∩ ran b``.
    """
    core._same_dim(da.vectors, db.vectors)
    qa = da.range_basis(tol)
    qb = db.range_basis(tol)
    _, sines, vh = np.linalg.svd(qb - qa @ (qa.conj().T @ qb), full_matrices=False)
    return qb, sines, vh.conj().T


def absolutely_continuous(b, a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``ran b`` is contained in ``ran a`` (so ``b << a``)."""
    sines = _angles(core.eig_hermitian(a, tol), core.eig_hermitian(b, tol), tol)[1]
    return not np.any(sines > tol.rel)


def mutually_singular(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``ran a`` and ``ran b`` intersect only in ``{0}``."""
    sines = _angles(core.eig_hermitian(a, tol), core.eig_hermitian(b, tol), tol)[1]
    return not np.any(sines <= tol.rel)


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
    n_mat = np.diag(wb) + ub.conj().T @ small @ ub
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


def _shorted(db: core.EigDecomp, da: core.EigDecomp, tol: Tolerance):
    """`ac_part`'s shorted-operator step: ``ac`` and the ``qb, y, m`` its projector reads."""
    qb, sines, c = _angles(da, db, tol)
    c0 = c[:, sines <= tol.rel]
    # y spans the coordinates z with b^{1/2} qb z in ran a; m = V* b^+ V
    y = c0 / np.sqrt(db.eigenvalues[db.kept(tol)])[:, np.newaxis]
    m = y.conj().T @ y
    v = qb @ c0
    return core.hermitian_part(v @ np.linalg.solve(m, v.conj().T)), qb, y, m


def _reduced_pair(a, b, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Maximal parts ``([b]a, [a]b)``, each operand decomposed once; no singular part or projector."""
    da = core.eig_hermitian(a, tol).require_psd(tol)
    db = core.eig_hermitian(b, tol).require_psd(tol)
    return _shorted(da, db, tol)[0], _shorted(db, da, tol)[0]


def ac_part(b, a, tol: Tolerance = DEFAULT_TOL) -> LebesgueParts:
    """Lebesgue decomposition of ``b`` with respect to ``a``.

    Returns the maximal decomposition: ``ac`` is the largest PSD matrix
    satisfying ``ac <= b`` and ``ac << a``.  Alternative (non-maximal)
    decompositions exist in general and are not enumerated.
    """
    db = core.eig_hermitian(b, tol).require_psd(tol)
    ac, qb, y, m = _shorted(db, core.eig_hermitian(a, tol), tol)
    qy = qb @ y
    p = np.eye(qb.shape[0]) - qb @ qb.conj().T + qy @ np.linalg.solve(m, qy.conj().T)
    return LebesgueParts(ac, core.hermitian_part(db.reconstruct() - ac), core.hermitian_part(p))
