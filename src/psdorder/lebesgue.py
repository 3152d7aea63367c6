"""Absolute continuity, singularity, and the Lebesgue decomposition.

For PSD matrices the sequential definition of absolute continuity
collapses to range inclusion: ``b`` is absolutely continuous with respect
to ``a`` iff ``ran b`` is contained in ``ran a``.  Two PSD matrices are
mutually singular iff their ranges intersect trivially, which is the same
as saying the zero matrix is the only common Loewner minorant.

Every range question is answered from the principal angles of ``ran b``
against ``ran a`` (Björck & Golub, Math. Comp. 27, 1973): with ``Qa⊥`` the
eigenvectors of ``a`` outside its range, the singular values of
``Qa⊥* Qb`` are their sines, and `_angles` alone counts an angle as zero
when its sine is at most ``tol.rel``.  ``b << a`` iff every angle is zero,
the pair is singular iff none is, and the zero angles span
``ran a ∩ ran b``, computed once per pair.  On that intersection ``V``
`ac_part` builds the maximal part of ``b`` by the shorted-operator formula
``V (V* b^+ V)^{-1} V*`` (Anderson & Trapp, SIAM J. Appl. Math. 28, 1975),
and `_reduced_pair` shorts both ``a`` and ``b`` to the one ``V``, keeping
only the r×r middle factors; the maximal part is also the monotone limit of
the parallel sums ``(n a) : b`` as ``n`` grows, which serves as an
independent oracle.
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
    """Principal angles of ``ran b`` against ``ran a``, at most one SVD, and the zero-angle rule.

    Returns ``(qb, sines, c0)``: the range basis of ``b``, its ``r_b`` sines
    in descending order, and the zero angles' right singular vectors in
    ``qb`` coordinates, so ``qb @ c0`` is an orthonormal basis of
    ``ran a ∩ ran b``.  The sines are the singular values of
    ``Qa⊥* qb``, (n - r_a)×r_b, padded with zeros when ``n - r_a < r_b``;
    when ``ran a`` is the whole space no SVD runs and ``c0`` is the identity.
    Both operands must be PSD (`NotPsdError` otherwise).
    """
    core._same_dim(da.matrix, db.matrix)
    da.require_psd(tol)
    db.require_psd(tol)
    qb = db.range_basis(tol)
    rb = qb.shape[1]
    z = da.vectors[:, ~da.kept(tol)].conj().T @ qb
    sines, c = np.zeros(rb), np.eye(rb)
    if z.size:
        _, s, vh = np.linalg.svd(z, full_matrices=z.shape[0] < rb)
        sines[: s.size], c = s, vh.conj().T
    return qb, sines, c[:, sines <= tol.rel]


def absolutely_continuous(b, a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``ran b`` is contained in ``ran a`` (so ``b << a``); both must be PSD."""
    qb, _, c0 = _angles(core.eig_hermitian(a, tol), core.eig_hermitian(b, tol), tol)
    return c0.shape[1] == qb.shape[1]


def mutually_singular(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``ran a`` and ``ran b`` intersect only in ``{0}``; both must be PSD."""
    return _angles(core.eig_hermitian(a, tol), core.eig_hermitian(b, tol), tol)[2].shape[1] == 0


_GRADED_RATIO = float(2**20)


def _machine_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of ``m`` with each eigenvalue at most ``100 n ε max|w|`` set to zero.

    This machine-precision rank cutoff is `parallel_sum`'s own: the policy
    cutoff of `core.pinv_psd` is relative to the largest eigenvalue, callers
    of `parallel_sum` scale one argument by huge factors (e.g. ``2^30``) when
    using it as a limit oracle, and a relative cutoff at that scale would null
    genuinely informative eigenvalues of the sum.
    """
    w, v = np.linalg.eigh(m)
    cut = 100.0 * m.shape[0] * np.finfo(float).eps * float(np.max(np.abs(w)))
    return np.where(w > cut, w, 0.0), v


def _machine_pinv(m: np.ndarray) -> np.ndarray:
    """Pseudo-inverse with `_machine_eigh`'s rank cutoff."""
    w, v = _machine_eigh(m)
    inv = np.where(w > 0.0, 1.0 / np.where(w > 0.0, w, 1.0), 0.0)
    return (v * inv) @ v.conj().T


def parallel_sum(a, b) -> np.ndarray:
    """Parallel sum ``a (a + b)^+ b`` of two PSD matrices (`core.as_psd`).

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
    ha, hb = core.as_psd(a), core.as_psd(b)
    core._same_dim(ha, hb)
    na = float(np.max(np.abs(ha)))
    nb = float(np.max(np.abs(hb)))
    if na == 0.0 or nb == 0.0:
        return np.zeros_like(ha)
    if max(na, nb) <= _GRADED_RATIO * min(na, nb):
        spinv = _machine_pinv(core._exact(ha + hb).matrix)
        return core._symmetrized(ha @ spinv @ hb)
    swapped = na < nb
    big, small = (hb, ha) if swapped else (ha, hb)
    gamma = float(np.max(np.abs(small)))
    # machine-rank truncation of the dominant spectrum: eigh noise on the
    # kernel of `big` would otherwise masquerade as content at a scale far
    # above machine precision relative to `small`
    wb, ub = _machine_eigh(big)
    d = 1.0 / np.sqrt(np.clip(wb, gamma, None))
    # the sum in big's eigenbasis: exactly diagonal big plus rotated small
    n_mat = np.diag(wb) + ub.conj().T @ small @ ub
    m_bal = core._symmetrized(n_mat * d[np.newaxis, :] * d[:, np.newaxis])
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
    return core._symmetrized(left @ w_bal @ right)


def _shorted(d: core.EigDecomp, v: np.ndarray, tol: Tolerance):
    """``(m^{-1}, y)``: ``d`` shorted to ``ran v`` (``v`` orthonormal in ``ran d``) is ``v m^{-1} v*``,
    with ``y`` the coordinates of ``(d^+)^{1/2} v`` in the range basis of ``d`` and ``m = y* y``."""
    y = (d.range_basis(tol).conj().T @ v) / np.sqrt(d.eigenvalues[d.kept(tol)])[:, np.newaxis]
    return core._symmetrized(np.linalg.inv(y.conj().T @ y)), y


def _reduced_pair(da: core.EigDecomp, db: core.EigDecomp, tol: Tolerance):
    """``(v, ma, mb)``: the maximal parts ``[b]a = v ma v*`` and ``[a]b = v mb v*``,
    both shorted to the one orthonormal basis ``v`` of ``ran a ∩ ran b`` from `_angles`."""
    qb, _, c0 = _angles(da, db, tol)
    v = qb @ c0
    return v, _shorted(da, v, tol)[0], _shorted(db, v, tol)[0]


def ac_part(b, a, tol: Tolerance = DEFAULT_TOL) -> LebesgueParts:
    """Lebesgue decomposition of ``b`` with respect to ``a``.

    Returns the maximal decomposition: ``ac`` is the largest PSD matrix
    satisfying ``ac <= b`` and ``ac << a``.  Alternative (non-maximal)
    decompositions exist in general and are not enumerated.  Both ``b``
    and the reference ``a`` must be PSD.
    """
    db = core.eig_hermitian(b, tol)
    qb, _, c0 = _angles(core.eig_hermitian(a, tol), db, tol)
    v = qb @ c0
    mi, y = _shorted(db, v, tol)
    ac = core._symmetrized(v @ mi @ v.conj().T)
    qy = qb @ y
    p = np.eye(qb.shape[0]) - qb @ qb.conj().T + qy @ mi @ qy.conj().T
    return LebesgueParts(ac, core._symmetrized(db.reconstruct() - ac), core._symmetrized(p))
