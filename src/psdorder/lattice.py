"""Suprema and infima of PSD matrices in the Loewner order.

The PSD cone is an anti-lattice: two PSD matrices have a supremum exactly
when they are comparable (Kadison's theorem).  `kadison_witness` makes the
negative direction constructive: given any strict upper bound ``t`` of an
incomparable pair, it builds another upper bound that is not comparable
with ``t``, so no candidate can be least.

Infima are subtler (Ando's theorem): ``a`` and ``b`` have an infimum
exactly when the absolutely continuous parts ``[b]a`` and ``[a]b`` are
comparable, and then the infimum is the smaller part.  Both parts live on
the r-dimensional ``ran a ∩ ran b``, so `lebesgue._reduced_pair` keeps them
as r×r Gram factors ``(ga, gb)`` in an orthonormal basis ``v`` of it, with
``[b]a = v ga^{-1} v*`` and ``[a]b = v gb^{-1} v*``.  The decision reads
their pencil ``gb u = w (ga + gb) u`` (`_pencil`: one Cholesky of
``ga + gb`` and one eigh), lifted by ``v`` to a factor ``z`` with
``[b]a = z diag(1/(1 - w)) z*`` and ``[a]b = z diag(1/w) z*``.  ``w`` is
the spectrum of the contraction ``a~`` that represents ``[b]a`` on the
range of the sum, so ``[b]a <= [a]b`` iff ``w`` lies in ``[0, 1/2]``.
Every infimum decision reads one rule on ``w``, in units that a common
scaling of the pair leaves unchanged: ``w`` reaches a side of ``1/2`` iff
it has an eigenvalue more than ``tol.rel`` beyond ``1/2`` on that side
(`Tolerance.sides`).  The infimum exists iff ``w`` does not
reach both sides, and is ``[a]b`` iff it reaches the high one.  The factor
also gives the candidate ``z diag(1/max(w, 1 - w)) z*`` and, if ``w`` reaches
both sides, `ando_witness`: a common lower bound not comparable with the
candidate, so no candidate is least.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, lebesgue
from .core import (
    DEFAULT_TOL,
    Comparison,
    MatrixError,
    Tolerance,
    ToleranceBreakdownError,
)
from .strength import strength

__all__ = [
    "SupremumVerdict",
    "Compression",
    "InfimumVerdict",
    "sup_exists",
    "kadison_witness",
    "compress",
    "inf_exists",
    "ando_witness",
]


@dataclass(frozen=True)
class SupremumVerdict:
    """Outcome of the supremum decision.

    ``sup`` is present iff ``exists``.  ``comparison`` is the Loewner
    comparison of the pair that decides it.
    """

    exists: bool
    sup: np.ndarray | None
    comparison: Comparison


@dataclass(frozen=True)
class Compression:
    """Representation of a pair on the range of its sum.

    ``j`` is the PSD square root of ``a + b`` and ``range_proj`` the
    projector onto its range (the identity of the compressed space), and
    ``b_tilde = range_proj - a_tilde``, so the contractions sum to it exactly Hermitian;
    ``j a_tilde j = a`` and ``j b_tilde j = b``, with ``0 <= a_tilde <= range_proj``.
    ``range_basis`` is an orthonormal basis of the range; its width is the rank.
    """

    a_tilde: np.ndarray
    b_tilde: np.ndarray
    j: np.ndarray
    range_proj: np.ndarray
    range_basis: np.ndarray


@dataclass(frozen=True)
class InfimumVerdict:
    """Outcome of the infimum decision.

    ``reduced_a`` / ``reduced_b`` are the mutually absolutely continuous parts
    the decision reduces to, each its operand itself when its own range lies in
    the other's (`inf_exists`).  ``candidate`` is the spectral candidate
    ``j g(a~) j``, ``g(t) = min(t, 1 - t)``, read from their pencil (`_pencil`):
    always a common lower bound of the pair, and the infimum whenever one
    exists.  ``exists``, and which reduced part is ``inf``, read the module's
    rule on its spectrum.  ``inf`` (which agrees with ``candidate``) is set iff
    the infimum exists, ``witness`` (an `ando_witness`) iff it does not.
    """

    exists: bool
    inf: np.ndarray | None
    candidate: np.ndarray
    witness: np.ndarray | None
    reduced_a: np.ndarray
    reduced_b: np.ndarray


def sup_exists(a, b, tol: Tolerance = DEFAULT_TOL) -> SupremumVerdict:
    """Supremum of a PSD pair: exists iff the pair is comparable.

    `kadison_witness` refutes any strict upper bound of an incomparable pair.
    """
    da, db, tol = core._operands(a, b, tol=tol)
    cmp = core._compare(da, db, tol)[0]
    if cmp is Comparison.INCOMPARABLE:
        return SupremumVerdict(False, None, cmp)
    return SupremumVerdict(True, (db if cmp is Comparison.LEQ else da).matrix, cmp)


def _first_orthogonal_basis_ray(e: np.ndarray) -> np.ndarray:
    """``e0`` orthogonalized against the unit ray ``e`` if ``|e_0|^2 <= 1/2``, else ``e1``:
    a unit ``e`` has ``|e_i|^2 <= 1/2`` for one of them, so the ray keeps norm ``>= 1/sqrt(2)``."""
    cand = np.zeros(e.size, dtype=e.dtype)
    cand[0 if abs(e[0]) ** 2 <= 0.5 else 1] = 1.0
    cand = cand - e * np.vdot(e, cand)
    return cand / np.linalg.norm(cand)


def kadison_witness(a, b, t, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Upper bound of ``a`` and ``b`` that is not comparable with ``t``.

    Requires ``t >= a``, ``t >= b`` with ``t`` distinct from both; the
    result ``s`` is PSD, satisfies ``s >= a`` and ``s >= b``, and both
    ``s - t`` and ``t - s`` have a negative eigenvalue.  Rejects dimension
    1, where all PSD matrices are comparable and no witness can exist.

    Two constructions cover the two possible geometries:

    * the ranges of ``t - a`` and ``t - b`` share a direction ``e``: move
      their common strength ``lam`` along ``e`` to the orthogonal ray ``f``
      of `_first_orthogonal_basis_ray`, ``s = t - lam e e* + lam f f*``, so
      ``s - t`` has the eigenvalues ``-lam`` and ``lam`` at every scale;
    * the ranges are disjoint: pick strength-scaled rays ``e``, ``f`` in
      them with ``e e* <= t - a`` and ``f f* <= t - b`` and perturb by a
      third of the indefinite ``s0 = e e* + 2 e f* + 2 f e* + f f*``.

    When `core._psd_band` certifies both gaps full rank, the shared
    direction is the first basis vector ``e0`` and ``f = e1``, with ``lam``
    from two Cholesky factors (`_strength_along_e0`) and no
    eigendecomposition.
    """
    da, db, dt, tol = core._operands(a, b, t, tol=tol)
    ha, hb, ht = da.matrix, db.matrix, dt.matrix
    if ha.shape[0] == 1:
        raise MatrixError("no witness in dimension 1: all PSD matrices are comparable")
    # Every PSD check, rank, projector and strength below reads these two gaps.
    dta, dtb = core._exact(ht, ha, subtract=True), core._exact(ht, hb, subtract=True)
    lam = _strength_along_e0(dta.matrix, dtb.matrix, tol)
    if lam is None:
        for gap, name in ((dta, "a"), (dtb, "b")):
            if not gap.is_psd(tol):
                raise MatrixError(f"precondition failed: t >= {name} does not hold")
    for gap, name in ((dta, "a"), (dtb, "b")):
        if tol.negligible(gap._peak, dt._peak):
            raise MatrixError(f"precondition failed: t coincides with {name} within tolerance")
    if lam is not None:
        e, f = np.eye(2, ht.shape[0])
    else:
        qb, _, c0 = lebesgue._angles(dta, dtb, tol)
        shared = qb @ c0
        if not shared.size:
            # Disjoint ranges: each gap's top eigenvector, scaled by the root of its
            # eigenvalue, which is the gap's strength along that eigenvector.
            e, f = (np.sqrt(gap.eigenvalues[-1]) * gap.vectors[:, -1] for gap in (dta, dtb))
            ef = np.outer(e, f.conj())
            s0 = core.rank_one(e) + 2.0 * ef + 2.0 * ef.conj().T + core.rank_one(f)
            return core._symmetrized(ht + s0 / 3.0)
        # Shared range direction: strength along it is positive for both
        # gaps.  It is the projection onto ran(t - a) ∩ ran(t - b) of the
        # first basis vector keeping half the largest such norm, so it does
        # not depend on the basis the SVD returns for that intersection.
        norms = np.linalg.norm(shared, axis=1)
        j = int(np.argmax(norms >= 0.5 * norms.max()))
        e = shared @ shared[j].conj() / norms[j]
        lam = min(strength(dta, e, tol).value, strength(dtb, e, tol).value)
        if lam <= 0.0:
            raise ToleranceBreakdownError(
                "shared range direction carries no strength; angle and strength tests disagree"
            )
        f = _first_orthogonal_basis_ray(e)
    return core._symmetrized(ht + lam * (core.rank_one(f) - core.rank_one(e)))


def _strength_along_e0(ta: np.ndarray, tb: np.ndarray, tol: Tolerance) -> float | None:
    """The smaller strength of the gaps along ``e0``, if `core._psd_band` certifies both full rank.

    Each strength is ``1 / (gap^-1)_00``, the Schur complement of the rest
    of the gap in entry 0: the last pivot squared of a Cholesky that orders
    index 0 last.  ``None`` sends `kadison_witness` down its eigh path.
    """
    if not (core._psd_band(ta, tol, full_rank=True) and core._psd_band(tb, tol, full_rank=True)):
        return None
    last = np.roll(np.arange(ta.shape[0]), -1)
    try:
        pivots = [np.linalg.cholesky(g[np.ix_(last, last)])[-1, -1].real for g in (ta, tb)]
    except np.linalg.LinAlgError:
        return None
    return float(min(pivots)) ** 2


def compress(a, b, tol: Tolerance = DEFAULT_TOL) -> Compression:
    """Represent ``a`` and ``b`` as contractions on the range of ``a + b``.

    ``a_tilde = s^{+1/2} a s^{+1/2}`` with ``s = a + b``, and ``b_tilde = P - a_tilde`` with
    ``P`` the projector onto ``ran s``, so the two sum to ``P`` by construction.  When ``a`` and
    ``b`` are mutually absolutely continuous the spectrum of ``a_tilde``
    on the range of ``s`` lies strictly inside ``(0, 1)``.  Rejects
    operands that are not PSD (`core.as_psd`).
    """
    da, db, tol = core._operands(a, b, tol=tol, psd=True)
    dec = core._exact(da.matrix, db.matrix)
    keep = dec.kept(tol)
    q = dec.vectors[:, keep]
    j = dec.apply(lambda w: np.sqrt(np.clip(w, 0.0, None)) * keep)
    y = q / np.sqrt(dec.eigenvalues[keep])  # y* a y is a on the range of the sum, in the basis q
    a_tilde, p = core._product(q, y.conj().T @ da.matrix @ y), dec.projector(tol)
    return Compression(a_tilde, p - a_tilde, j, p, q)


def inf_exists(a, b, tol: Tolerance = DEFAULT_TOL) -> InfimumVerdict:
    """Infimum decision: exists iff the AC parts of the pair are comparable.

    The one public entry for the infimum: ``exists`` is the verdict and
    ``candidate`` the spectral candidate.  Rejects operands that are not PSD.

    The reduction replaces ``(a, b)`` by the mutually absolutely continuous
    pair ``(a', b') = (v ga^-1 v*, v gb^-1 v*)`` of maximal parts.  One
    `_pencil` of the r×r Gram factors ``(ga, gb)``, its factor ``z`` with
    each column's largest component real positive (so the witness does not
    depend on the basis ``v``), gives the verdict and the side by the
    module's rule, the candidate and, when no infimum exists, the
    `ando_witness`; ``(a, b)`` itself is never compressed, and only the
    verdict is built n×n.  A part is its operand (`lebesgue._itself`) when ``v``
    spans its range read on its own unit, so it has no eigenvalue the pencil cut;
    any other part inverts its Gram factor: ``1 - w`` is only absolutely accurate,
    so ``z diag(1/(1 - w)) z*`` would lose a graded part's small eigenvalues.

    The candidate of a pair equals that of its reduced pair.  With ``P``
    the projector onto the eigenvectors of ``a~`` strictly inside (0, 1),
    ``[b]a = j a~ P j`` and ``[a]b = j (1 - a~) P j``, and ``x g(al) x*``
    is the candidate of ``(x al x*, x be x*)`` whenever ``al + be`` is a
    projector on whose range ``x`` is injective; as ``g(0) = g(1) = 0``,
    both candidates are ``j g(a~) P j``.  In floating point they agree to
    rounding, which the "candidate of the pair" check of the
    ``lattice.infimum`` catalogue entries guards against a numpy candidate
    of the full pair read from `compress`.
    """
    da, db, tol = core._operands(a, b, tol=tol)
    v, ga, gb, li, u, w = _pencil(da, db, tol)
    z = core._phase_normalized(v @ (li.conj().T @ u))
    ap, bp = (
        lebesgue._itself(d, e)
        if v.shape[1] == np.count_nonzero(d.kept(core._operands(d, tol=tol)[-1]))  # d's range on its own unit
        else core._product(v, core._symmetrized(np.linalg.inv(g)))
        for d, e, g in ((da, db, ga), (db, da, gb))
    )
    cand = core._symmetrized((z / np.maximum(w, 1.0 - w)) @ z.conj().T)  # j g(a~) j, g(t) = min(t, 1 - t)
    low, high = tol.sides(w)
    if not (low and high):
        return InfimumVerdict(True, bp if high else ap, cand, None, ap, bp)
    return InfimumVerdict(False, None, cand, _straddle_witness(z, w, tol), ap, bp)


def _pencil(da: core.EigDecomp, db: core.EigDecomp, tol: Tolerance):
    """``(v, ga, gb, li, u, w)``: `lebesgue._reduced_pair` and the pencil ``gb u = w (ga + gb) u``.

    With ``L L* = ga + gb``, ``li = L^-1`` and ``li gb li* = u diag(w) u*``, ``z = v li* u`` has
    ``[b]a = z diag(1/(1 - w)) z*`` and ``[a]b = z diag(1/w) z*``, ``w`` ascending in (0, 1); with no
    intersection ``w`` is empty and ``z`` has no columns.
    """
    v, ga, gb = lebesgue._reduced_pair(da, db, tol)
    li = np.linalg.solve(np.linalg.cholesky(ga + gb), np.eye(v.shape[1]))  # numpy has no triangular solve
    w, u = np.linalg.eigh(core._product(li, gb))
    return v, ga, gb, li, u, w


def ando_witness(a, b, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Common lower bound of ``a`` and ``b`` not comparable with the candidate.

    Precondition: the pair has no infimum (else `MatrixError`), so the
    compressed spectrum ``w`` of its reduced pair reaches both sides of
    ``1/2``.  Couple the eigenpair ``i`` deepest inside ``(0, 1/2)`` with the
    one, ``j``, deepest inside ``(1/2, 1)``; with ``eps`` the smaller of
    their margins over 3 and ``x_k = z_k (w_k (1 - w_k))^-1/2`` from the factor ``z``
    that `inf_exists` lifts from `_pencil`, so ``[b]a = x diag(w) x*`` and ``[a]b = x diag(1 - w) x*``,

        d = (w_i - eps) x_i x_i* + (1 - w_j - eps) x_j x_j* + sqrt(2) eps (x_i x_j* + x_j x_i*).

    Then ``d``, ``[b]a - d`` and ``[a]b - d`` are PSD, and the candidate
    minus ``d`` is ``eps [[1, -sqrt(2)], [-sqrt(2), 1]]``, indefinite, in the
    basis ``x_i, x_j``.  When ``3 eps`` is at most ``tol.rel``, as ``w`` has
    no unit (one side's eigenvalues all lie within ``tol.rel`` of 0 or 1), no
    witness is built and `ToleranceBreakdownError` is raised.
    """
    return _refutation(a, b, tol).witness


def _refutation(a, b, tol: Tolerance) -> InfimumVerdict:
    """`inf_exists`, enforcing `ando_witness`'s precondition."""
    verdict = inf_exists(a, b, tol)
    if verdict.exists:
        raise MatrixError("the infimum of the pair exists, so no witness can be constructed")
    return verdict


def _straddle_witness(z: np.ndarray, w: np.ndarray, tol: Tolerance) -> np.ndarray:
    """`ando_witness`, ``x D x*``, from the factor ``z`` of a reduced pair whose ``w`` straddles 1/2."""
    low, high = np.minimum(w, 0.5 - w), np.minimum(w - 0.5, 1.0 - w)
    i, j = int(np.argmax(low)), int(np.argmax(high))
    eps = min(low[i], high[j]) / 3.0
    if tol.zero_angle(3.0 * eps):  # the rule that has no unit, as ``w`` has none
        raise ToleranceBreakdownError(f"spectrum straddles 1/2 but the witness margin {eps:.3g} is negligible")
    # d on the eigenvectors i and j of a~, in their basis
    r = np.sqrt(2.0) * eps
    dd = np.array([[w[i] - eps, r], [r, 1.0 - w[j] - eps]])
    xs = z[:, [i, j]] / np.sqrt(w[[i, j]] * (1.0 - w[[i, j]]))
    return core._product(xs, dd)
