"""Absolute continuity, singularity, and the Lebesgue decomposition.

For PSD matrices the sequential definition of absolute continuity
collapses to range inclusion: ``b`` is absolutely continuous with respect
to ``a`` iff ``ran b`` is contained in ``ran a``.  Two PSD matrices are
mutually singular iff their ranges intersect trivially, which is the same
as saying the zero matrix is the only common Loewner minorant.

Every range question is answered from the principal angles of ``ran b``
against ``ran a`` (Björck & Golub, Math. Comp. 27, 1973): with ``Qa⊥`` the
eigenvectors of ``a`` outside its range, the singular values of
``Qa⊥* Qb`` are their sines, and `_angles` alone applies the zero-angle
rule, `Tolerance.zero_angle`.  ``b << a`` iff every angle is zero,
the pair is singular iff none is, and the zero angles span
``ran a ∩ ran b``, computed once per pair.  On that intersection ``V``
`ac_part` builds the maximal part of ``b`` by the shorted-operator formula
``V (V* b^+ V)^{-1} V*`` (Anderson & Trapp, SIAM J. Appl. Math. 28, 1975),
and `_reduced_pair` shorts both ``a`` and ``b`` to the one ``V``, keeping
only the r×r Gram factors ``V* a^+ V`` and ``V* b^+ V``.  `parallel_sum`
reads them as ``a : b = V (V* a^+ V + V* b^+ V)^{-1} V*`` (Anderson & Duffin,
J. Math. Anal. Appl. 26, 1969): one inverse and no sum of the operands.  The
maximal part ``[a]b`` is also the monotone limit of the parallel sums
``(n a) : b`` as ``n`` grows (Ando, Acta Sci. Math. 38, 1976); the
self-test checks `ac_part` against that limit with an oracle of its own.
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
    da.require_psd(tol)
    db.require_psd(tol)
    qb = db.range_basis(tol)
    rb = qb.shape[1]
    z = da.vectors[:, ~da.kept(tol)].conj().T @ qb
    sines, c = np.zeros(rb), np.eye(rb)
    if z.size:
        _, s, vh = np.linalg.svd(z, full_matrices=z.shape[0] < rb)
        sines[: s.size], c = s, vh.conj().T
    return qb, sines, c[:, tol.zero_angle(sines)]


def absolutely_continuous(b, a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``ran b`` is contained in ``ran a`` (so ``b << a``); both must be PSD."""
    qb, _, c0 = _angles(*core._operands(a, b, tol=tol))
    return c0.shape[1] == qb.shape[1]


def mutually_singular(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``ran a`` and ``ran b`` intersect only in ``{0}``; both must be PSD."""
    return _angles(*core._operands(a, b, tol=tol))[2].shape[1] == 0


def _shorted(d: core.EigDecomp, v: np.ndarray, tol: Tolerance):
    """``(g, y)``: ``d`` shorted to ``ran v`` (``v`` orthonormal in ``ran d``) is ``v g^{-1} v*``, with
    ``g = y* y = v* d^+ v`` and ``y`` the coordinates of ``(d^+)^{1/2} v`` in the range basis of ``d``."""
    y = (d.range_basis(tol).conj().T @ v) / np.sqrt(d.eigenvalues[d.kept(tol)])[:, np.newaxis]
    return y.conj().T @ y, y


def _itself(d: core.EigDecomp, other: core.EigDecomp) -> np.ndarray:
    """``d`` as its own part of the pair ``(d, other)``: a copy of its matrix in the pair's promoted dtype."""
    return d.matrix.astype(np.result_type(d.matrix, other.matrix))


def _reduced_pair(da: core.EigDecomp, db: core.EigDecomp, tol: Tolerance):
    """``(v, ga, gb)``: the maximal parts ``[b]a = v ga^{-1} v*`` and ``[a]b = v gb^{-1} v*``,
    both shorted to the one orthonormal basis ``v`` of ``ran a ∩ ran b`` from `_angles`."""
    qb, _, c0 = _angles(da, db, tol)
    v = qb @ c0
    return v, _shorted(da, v, tol)[0], _shorted(db, v, tol)[0]


def parallel_sum(a, b, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Parallel sum ``a : b = a (a + b)^+ b`` of two PSD matrices, read from `_reduced_pair`.

    Its range is ``ran a ∩ ran b``, and on that intersection it is the
    parallel sum of the maximal parts, ``a : b = v (ga + gb)^{-1} v*`` with
    one r×r inverse.  So it shares the rank and zero-angle rule of
    `ac_part`, is symmetric in its arguments and a lower bound of both, and
    never forms ``a + b``: operands that differ in scale by many orders of
    magnitude keep the smaller one's information.
    Both operands must be PSD (`NotPsdError` otherwise).
    """
    v, ga, gb = _reduced_pair(*core._operands(a, b, tol=tol))
    return core._product(v, np.linalg.inv(ga + gb))


def ac_part(b, a, tol: Tolerance = DEFAULT_TOL) -> LebesgueParts:
    """Lebesgue decomposition of ``b`` with respect to ``a``.

    Returns the maximal decomposition: ``ac`` is the largest PSD matrix
    satisfying ``ac <= b`` and ``ac << a``.  Alternative (non-maximal)
    decompositions exist in general and are not enumerated.  Both ``b``
    and the reference ``a`` must be PSD.  When ``b << a`` the parts are
    `_itself` of ``b``, exact zeros and the identity, so no rounding of ``b``
    is left over to read as a singular part; else ``sing`` is ``b - ac``.
    """
    db, da, tol = core._operands(b, a, tol=tol)
    qb, _, c0 = _angles(da, db, tol)
    if c0.shape[1] == qb.shape[1]:
        ac = _itself(db, da)
        return LebesgueParts(ac, np.zeros_like(ac), np.eye(db.n, dtype=ac.dtype))
    v = qb @ c0
    g, y = _shorted(db, v, tol)
    mi = core._symmetrized(np.linalg.inv(g))
    ac = core._product(v, mi)
    qy = qb @ y
    p = np.eye(qb.shape[0]) - qb @ qb.conj().T + qy @ mi @ qy.conj().T
    return LebesgueParts(ac, db.matrix - ac, core._symmetrized(p))
