"""Strength of a PSD matrix along a ray, and the order test built on it.

The strength of ``A`` along a non-zero vector ``f`` is the largest ``t >= 0``
with ``t * f f* <= A`` in the Loewner order.  It is positive exactly when
``f`` lies in the range of ``A`` (equivalently of ``A^{1/2}``), in which case
it equals ``1 / (f* A^+ f)`` and comes with a certificate vector ``w``
satisfying ``A^{1/2} w = f`` and ``strength = 1 / ||w||^2``.

Strength functions characterize the Loewner order: ``A <= B`` iff the
strength of ``A`` never exceeds that of ``B`` along any ray.  When the order
fails, `order_witness` constructs a ray certifying the failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import DEFAULT_TOL, MatrixError, Tolerance, ToleranceBreakdownError

__all__ = [
    "StrengthResult",
    "strength",
    "strength_bisection",
    "strength_dominates",
    "order_witness",
]


@dataclass(frozen=True)
class StrengthResult:
    """Strength value with its certificates.

    ``value`` is the strength.  When it is positive, ``witness`` is the
    unique vector ``w`` in the range of ``A^{1/2}`` with ``A^{1/2} w = f``
    and ``constant`` is the least ``m`` satisfying
    ``|<f|x>|^2 <= m * x* A x`` for all ``x``; then ``value * constant = 1``
    and ``value * ||witness||^2 = 1``.  Both certificates are absent when
    the strength is zero.
    """

    value: float
    witness: np.ndarray | None
    constant: float | None


def strength(a, f, tol: Tolerance = DEFAULT_TOL) -> StrengthResult:
    """Largest ``t >= 0`` with ``t * f f* <= a``, plus certificates.

    Zero when ``f`` is outside the numeric range of ``a``, i.e. when the
    sine ``||f_perp|| / ||f||`` of its angle with that range exceeds
    ``tol.rel``; otherwise ``1 / (f* a^+ f)``.
    Rejects ``f = 0``: the strength is only defined along non-zero rays.
    """
    v = core.as_vector(f)
    nf = float(np.linalg.norm(v))
    if nf == 0.0:
        raise MatrixError("strength is only defined along a non-zero ray")
    dec = core.eig_hermitian(a, tol)
    if dec.n != v.size:
        raise core.DimensionMismatchError(
            f"dimension mismatch: matrix is {dec.n}, ray has {v.size}"
        )
    keep = dec.kept(tol)
    coeff = dec.vectors.conj().T @ v
    outside = float(np.linalg.norm(coeff[~keep]))
    if not keep.any() or outside > tol.rel * nf:
        return StrengthResult(0.0, None, None)
    ck = coeff[keep]
    wk = dec.eigenvalues[keep]
    m = float(np.sum(np.abs(ck) ** 2 / wk))
    if m <= 0.0:
        raise ToleranceBreakdownError("in-range ray produced a non-positive bound")
    witness = dec.vectors[:, keep] @ (ck / np.sqrt(wk))
    return StrengthResult(1.0 / m, witness, m)


def strength_bisection(a, f, tol: Tolerance = DEFAULT_TOL, iterations: int = 60) -> float:
    """Strength located by bisection on ``t -> is_psd(a - t f f*)``.

    Independent of the closed form in `strength`: it only consumes PSD
    verdicts.  The bracket ``[0, max_eig(a) / ||f||^2 + 1]`` always
    straddles the supremum.
    """
    v = core.as_vector(f)
    nf2 = float(np.linalg.norm(v)) ** 2
    if nf2 == 0.0:
        raise MatrixError("strength is only defined along a non-zero ray")
    ff = core.rank_one(v)
    dec = core.eig_hermitian(a, tol)
    hi = max(float(dec.eigenvalues[-1]), 0.0) / nf2 + 1.0
    lo = 0.0
    h = dec.reconstruct()
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if core.is_psd(h - mid * ff, tol):
            lo = mid
        else:
            hi = mid
    return lo


def order_witness(a, b, tol: Tolerance = DEFAULT_TOL) -> np.ndarray | None:
    """Ray certifying ``a <= b`` fails, or ``None`` when the order holds.

    When ``b - a`` has a negative direction ``x`` (normalized so that
    ``x* a x = 1``), the ray ``f = a x`` satisfies ``strength(a, f) = 1``
    while ``strength(b, f) < 1``, by the Cauchy-Schwarz inequality for the
    form of ``a``.
    """
    return _order_test(a, b, tol)[1]


def _order_test(a, b, tol: Tolerance) -> tuple[core.Comparison, np.ndarray | None]:
    """`core.comparable` and `order_witness`; ``b - a`` is decomposed only for the ray, at most once."""
    ha, hb = core._pair(a, b, tol)
    d = hb - ha
    cmp, dec = core._compare(d, tol)
    if cmp in (core.Comparison.LEQ, core.Comparison.EQUAL):
        return cmp, None
    if dec is None:
        dec = core.eig_hermitian(d, tol)
    floor = dec.psd_floor(tol)
    entry_scale = max(1.0, float(np.max(np.abs(ha))))
    for i in range(dec.n):
        if dec.eigenvalues[i] >= -floor:
            break
        x = dec.vectors[:, i]
        q = float(np.real(x.conj() @ ha @ x))
        if q > tol.rel * entry_scale:
            x = x / np.sqrt(q)
            return cmp, ha @ x
    # A negative direction with x* a x = 0 would force x* b x < 0, which is
    # impossible for PSD b, so reaching this point means the tolerance
    # policy broke down rather than a genuine order violation.
    raise ToleranceBreakdownError(
        "order violation direction has vanishing quadratic form; "
        "inconsistent with positivity of the right-hand side"
    )


def strength_dominates(
    a,
    b,
    tol: Tolerance = DEFAULT_TOL,
    samples: int = 20,
    seed: int = 0,
) -> bool:
    """Decide ``a <= b`` and cross-check it through strength functions.

    Returns the Loewner verdict.  When the order holds, `samples` seeded
    random rays are checked for dominance ``strength(a, f) <= strength(b, f)``;
    a violation raises `ToleranceBreakdownError` since it contradicts the
    verdict.  When the order fails, the deterministic `order_witness` ray is
    required to exhibit a strict strength gap.
    """
    if samples < 1:
        raise MatrixError("samples must be at least 1")
    ha = core.as_hermitian(a, tol)
    hb = core.as_hermitian(b, tol)
    ray = order_witness(ha, hb, tol)
    da = core.eig_hermitian(ha, tol)
    db = core.eig_hermitian(hb, tol)
    if ray is not None:
        if not strength(da, ray, tol).value > strength(db, ray, tol).value:
            raise ToleranceBreakdownError("order witness failed to produce a strength gap")
        return False
    rng = np.random.default_rng(seed)
    n = ha.shape[0]
    # real rays decide dominance for a real pair
    cplx = np.iscomplexobj(ha) or np.iscomplexobj(hb)
    for k in range(samples):
        g = rng.standard_normal(n)
        if cplx:
            g = g + 1j * rng.standard_normal(n)
        f = ha @ g if k % 2 else g
        if float(np.linalg.norm(f)) <= tol.abs:
            f = g
        la = strength(da, f, tol).value
        lb = strength(db, f, tol).value
        if la > lb + 1e-8 * (1.0 + la):
            raise ToleranceBreakdownError(
                f"sampled ray violates strength dominance despite a <= b ({la} > {lb})"
            )
    return True
