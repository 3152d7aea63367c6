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
as r×r factors ``(ma, mb)`` in an orthonormal basis ``v`` of it.  The
decision factors that r×r pair (`_spectrum`) and lifts the factor by ``v``,
as ``[b]a = x diag(w) x*`` and ``[a]b = x diag(1 - w) x*``, where ``w`` is
the spectrum of the contraction ``a~`` that represents ``[b]a`` on the
range of the sum, so ``[b]a <= [a]b`` iff ``w`` lies in ``[0, 1/2]``.
Every infimum decision reads one rule on ``w``, in units that a common
scaling of the pair leaves unchanged: ``w`` reaches a side of ``1/2`` iff
it has an eigenvalue more than ``tol.rel`` beyond ``1/2`` on that side
(`_sides`).  The infimum exists iff ``w`` does not
reach both sides, and is ``[a]b`` iff it reaches the high one.  The factor
also gives the candidate ``x diag(min(w, 1 - w)) x*`` and, if ``w`` reaches
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
    projector onto its range (the identity of the compressed space).  The
    contractions satisfy ``a_tilde + b_tilde = range_proj``, ``j a_tilde j = a``
    and ``j b_tilde j = b``, with ``0 <= a_tilde <= range_proj``.
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

    ``reduced_a`` / ``reduced_b`` are the mutually absolutely continuous
    parts the decision reduces to.  ``candidate`` is the spectral candidate
    ``j g(a~) j``, ``g(t) = min(t, 1 - t)``, read from their factor
    (`_spectrum`): always a common lower bound of the pair, and the infimum
    whenever one exists.  ``exists``, and which reduced part is ``inf``,
    read the module's rule on that factor.  ``inf`` (which agrees with
    ``candidate``) is set iff the infimum exists, ``witness`` (an
    `ando_witness`) iff it does not.
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
    da, db = core.eig_hermitian(a, tol), core.eig_hermitian(b, tol)
    cmp = core.comparable(da, db, tol)
    if cmp is Comparison.INCOMPARABLE:
        return SupremumVerdict(False, None, cmp)
    return SupremumVerdict(True, (db if cmp is Comparison.LEQ else da).matrix, cmp)


def _first_orthogonal_basis_ray(e: np.ndarray) -> np.ndarray:
    """First standard basis vector not parallel to ``e``, orthogonalized."""
    n = e.size
    for i in range(n):
        cand = np.zeros(n, dtype=e.dtype)
        cand[i] = 1.0
        cand = cand - e * np.vdot(e, cand)
        norm = float(np.linalg.norm(cand))
        if norm > 1e-6:
            return cand / norm
    raise ToleranceBreakdownError("no basis direction independent of the given ray")


def kadison_witness(a, b, t, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Upper bound of ``a`` and ``b`` that is not comparable with ``t``.

    Requires ``t >= a``, ``t >= b`` with ``t`` distinct from both; the
    result ``s`` is PSD, satisfies ``s >= a`` and ``s >= b``, and both
    ``s - t`` and ``t - s`` have a negative eigenvalue.  Rejects dimension
    1, where all PSD matrices are comparable and no witness can exist.

    Two constructions cover the two possible geometries:

    * the ranges of ``t - a`` and ``t - b`` share a direction ``e``: subtract
      the common strength along ``e`` and add an independent rank-one bump,
      ``s = t - lam e e* + f f*``;
    * the ranges are disjoint: pick strength-scaled rays ``e``, ``f`` in
      them with ``e e* <= t - a`` and ``f f* <= t - b`` and perturb by a
      third of the indefinite ``s0 = e e* + 2 e f* + 2 f e* + f f*``.

    When `core._psd_band` certifies both gaps full rank, the shared
    direction is the first basis vector ``e0`` and ``f = e1``, so the
    witness is built from two Cholesky factors (`_strength_along_e0`) with
    no eigendecomposition.
    """
    ha, hb, ht = (core.eig_hermitian(m, tol).matrix for m in (a, b, t))
    core._same_dim(ha, hb, ht)
    if ha.shape[0] == 1:
        raise MatrixError("no witness in dimension 1: all PSD matrices are comparable")
    # Every PSD check, rank, projector and strength below reads these two gaps.
    dta, dtb = core._exact(ht, ha, subtract=True), core._exact(ht, hb, subtract=True)
    lam = _strength_along_e0(dta.matrix, dtb.matrix, tol)
    if lam is None:
        for gap, name in ((dta, "a"), (dtb, "b")):
            if not gap.is_psd(tol):
                raise MatrixError(f"precondition failed: t >= {name} does not hold")
    coincide = tol.floor(float(np.max(np.abs(ht))))
    if float(np.max(np.abs(dta.matrix))) <= coincide:
        raise MatrixError("precondition failed: t coincides with a within tolerance")
    if float(np.max(np.abs(dtb.matrix))) <= coincide:
        raise MatrixError("precondition failed: t coincides with b within tolerance")
    if lam is not None:
        s = ht.copy()
        s[0, 0] -= lam
        s[1, 1] += 1.0
        return s

    qb, _, c0 = lebesgue._angles(dta, dtb, tol)
    shared = qb @ c0
    if shared.size:
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
        s = ht - lam * core.rank_one(e) + core.rank_one(f)
    else:
        # Disjoint ranges: strength-scaled rays from each gap.
        u = dta.vectors[:, -1]
        e = np.sqrt(strength(dta, u, tol).value) * u
        v = dtb.vectors[:, -1]
        f = np.sqrt(strength(dtb, v, tol).value) * v
        ef = np.outer(e, f.conj())
        s0 = core.rank_one(e) + 2.0 * ef + 2.0 * ef.conj().T + core.rank_one(f)
        s = ht + s0 / 3.0
    return core._symmetrized(s)


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


def _sum_range(ha: np.ndarray, hb: np.ndarray, tol: Tolerance):
    """The operand ``ha + hb`` of two exactly Hermitian matrices, its kept vectors ``q``
    and roots ``s`` of their eigenvalues."""
    dec = core._exact(ha, hb)
    keep = dec.kept(tol)
    return dec, dec.vectors[:, keep], np.sqrt(dec.eigenvalues[keep])


def _on_range(h: np.ndarray, q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``s^-1 q* h q s^-1``: ``h`` on the range of the sum in the basis ``q``; Hermitian up to rounding."""
    y = q / s
    return y.conj().T @ h @ y


def compress(a, b, tol: Tolerance = DEFAULT_TOL) -> Compression:
    """Represent ``a`` and ``b`` as contractions on the range of ``a + b``.

    ``a_tilde = s^{+1/2} a s^{+1/2}`` with ``s = a + b``; when ``a`` and
    ``b`` are mutually absolutely continuous the spectrum of ``a_tilde``
    on the range of ``s`` lies strictly inside ``(0, 1)``.  Rejects
    operands that are not PSD (`core.as_psd`).
    """
    ha, hb = core.as_psd(a, tol), core.as_psd(b, tol)
    core._same_dim(ha, hb)
    dec, q, s = _sum_range(ha, hb, tol)
    j = dec.apply(lambda w: np.sqrt(np.clip(w, 0.0, None)) * dec.kept(tol))
    a_tilde, b_tilde = (core._symmetrized(q @ _on_range(h, q, s) @ q.conj().T) for h in (ha, hb))
    return Compression(a_tilde, b_tilde, j, dec.projector(tol), q)


def _spectrum(a: np.ndarray, b: np.ndarray, tol: Tolerance):
    """Factor ``(x, w)``, ``a = x diag(w) x*`` and ``b = x diag(1 - w) x*``, with ``w`` ascending.

    ``a`` and ``b`` are exactly Hermitian.  ``x = q s u``, with ``q`` and
    ``s`` from `_sum_range` and ``u diag(w) u*`` the eigh of ``_on_range(a)``.
    `inf_exists` passes the r×r factors of its reduced pair: their sum has the
    nonzero spectrum of the n×n sum, so the same ``kept`` cutoff.
    """
    _, q, s = _sum_range(a, b, tol)
    if s.size == 0:
        return q, s
    inner = core.EigDecomp(core._symmetrized(_on_range(a, q, s)))
    return (q * s) @ inner.vectors, inner.eigenvalues


def _candidate(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``j g(a_tilde) j`` as ``x diag(g(w)) x*``, from the factor of `_spectrum`."""
    g = np.clip(np.minimum(w, 1.0 - w), 0.0, None)
    return core._symmetrized((x * g) @ x.conj().T)


def inf_exists(a, b, tol: Tolerance = DEFAULT_TOL) -> InfimumVerdict:
    """Infimum decision: exists iff the AC parts of the pair are comparable.

    The one public entry for the infimum: ``exists`` is the verdict and
    ``candidate`` the spectral candidate.  Rejects operands that are not PSD.

    The reduction replaces ``(a, b)`` by the mutually absolutely continuous
    pair ``(a', b') = (v ma v*, v mb v*)`` of maximal parts.  One `_spectrum`
    of the r×r pair ``(ma, mb)``, lifted as ``x = v x_r`` with each column's
    largest component real positive (so the witness does not depend on the
    basis ``v``), gives the verdict and the side by the module's rule, the
    candidate and, when no infimum exists, the `ando_witness`; ``(a, b)``
    itself is never compressed, and only the verdict is built n×n.

    The candidate of a pair equals that of its reduced pair.  With ``P``
    the projector onto the eigenvectors of ``a~`` strictly inside (0, 1),
    ``[b]a = j a~ P j`` and ``[a]b = j (1 - a~) P j``, and ``x g(al) x*``
    is the candidate of ``(x al x*, x be x*)`` whenever ``al + be`` is a
    projector on whose range ``x`` is injective; as ``g(0) = g(1) = 0``,
    both candidates are ``j g(a~) P j``.  In floating point they agree to
    rounding, which the "candidate of the pair" check of the
    ``lattice.infimum`` catalogue entries guards against the candidate of
    the full pair's `_spectrum`.
    """
    v, ma, mb, x, w = _reduced_spectrum(core.eig_hermitian(a, tol), core.eig_hermitian(b, tol), tol)
    x = core._phase_normalized(v @ x)
    ap, bp = (core._symmetrized(v @ m @ v.conj().T) for m in (ma, mb))
    cand = _candidate(x, w)
    low, high = _sides(w, tol)
    if not (low and high):
        return InfimumVerdict(True, bp if high else ap, cand, None, ap, bp)
    witness = _straddle_witness(x, w, tol)
    return InfimumVerdict(False, None, cand, witness, ap, bp)


def _reduced_spectrum(da: core.EigDecomp, db: core.EigDecomp, tol: Tolerance):
    """``(v, ma, mb, x, w)``: `lebesgue._reduced_pair` and the `_spectrum` factor of ``(ma, mb)``,
    so ``[b]a = (v x) diag(w) (v x)*``; with no intersection ``x`` is 0×0 and ``w`` empty."""
    v, ma, mb = lebesgue._reduced_pair(da, db, tol)
    if v.shape[1] == 0:
        return v, ma, mb, np.zeros((0, 0)), np.zeros(0)
    return (v, ma, mb, *_spectrum(ma, mb, tol))


def _sides(w: np.ndarray, tol: Tolerance) -> tuple[bool, bool]:
    """The module's rule: whether ``w`` reaches below, then above, ``1/2`` by more than ``tol.rel``."""
    return bool(np.any(w < 0.5 - tol.rel)), bool(np.any(w > 0.5 + tol.rel))


def ando_witness(a, b, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Common lower bound of ``a`` and ``b`` not comparable with the candidate.

    Precondition: the pair has no infimum (else `MatrixError`), so the
    compressed spectrum of its reduced pair reaches both sides of ``1/2``.
    Take the largest ``eps`` for which the windows ``[1/2 + 3 eps, 1 - 3 eps]``
    and ``[3 eps, 1/2 - 3 eps]`` both catch eigenvalues, couple the two
    window subspaces by a partial isometry ``v`` and map

        d~ = (x~ - eps) p2 + (y~ - eps) p1 + sqrt(2) eps (v p2 + p2 v*)

    back through ``x`` of `_spectrum`, with the two contractions swapped if
    needed so that the low window is the smaller one.  When ``eps`` is at
    most ``tol.rel / 3`` (one side's eigenvalues all lie within ``tol.rel``
    of 0 or 1, where one part is about ``1/tol.rel`` times the other), no
    witness is built and `ToleranceBreakdownError` is raised.
    """
    return _refutation(a, b, tol).witness


def _refutation(a, b, tol: Tolerance) -> InfimumVerdict:
    """`inf_exists`, enforcing `ando_witness`'s precondition."""
    verdict = inf_exists(a, b, tol)
    if verdict.exists:
        raise MatrixError("the infimum of the pair exists, so no witness can be constructed")
    return verdict


def _straddle_witness(x: np.ndarray, w: np.ndarray, tol: Tolerance) -> np.ndarray:
    """`ando_witness`, ``x D x*``, from the factor of a reduced pair whose ``w`` straddles 1/2."""
    eps_low = float(np.max(np.minimum(w, 0.5 - w))) / 3.0
    eps_high = float(np.max(np.minimum(w - 0.5, 1.0 - w))) / 3.0
    eps = min(eps_low, eps_high)
    if eps <= tol.rel / 3.0:
        raise ToleranceBreakdownError(
            f"spectrum straddles 1/2 but a witness window is empty (margin {eps:.3g})"
        )
    slack = 1e-12
    low = (w >= 3.0 * eps - slack) & (w <= 0.5 - 3.0 * eps + slack)
    high = (w >= 0.5 + 3.0 * eps - slack) & (w <= 1.0 - 3.0 * eps + slack)
    if np.count_nonzero(low) > np.count_nonzero(high):
        w, low, high = 1.0 - w, high, low

    i_low = np.flatnonzero(low)
    i_high = np.flatnonzero(high)[: i_low.size]
    if i_low.size == 0 or i_high.size < i_low.size:
        raise ToleranceBreakdownError("spectral windows lost their eigenvalues")
    # d~ in the eigenbasis of a~; v maps eigenvector i_low[i] to i_high[i].
    dd = np.diag(np.where(low, w - eps, 0.0) + np.where(high, 1.0 - w - eps, 0.0))
    dd[i_high, i_low] = dd[i_low, i_high] = np.sqrt(2.0) * eps
    return core._symmetrized((x @ dd) @ x.conj().T)
