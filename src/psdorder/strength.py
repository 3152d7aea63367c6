"""Strength of a PSD matrix along a ray, and the order test built on it.

The strength of ``A`` along a non-zero vector ``f`` is the largest ``t >= 0``
with ``t * f f* <= A`` in the Loewner order.  It is positive exactly when
``f`` lies in the range of ``A`` (equivalently of ``A^{1/2}``), in which case
it equals ``1 / (f* A^+ f)`` and comes with a certificate vector ``w``
satisfying ``A^{1/2} w = f`` and ``strength = 1 / ||w||^2``.

Strength functions characterize the Loewner order: ``A <= B`` iff the
strength of ``A`` never exceeds that of ``B`` along any ray.  When the order
fails, `order_witness` constructs a ray certifying the failure; the
``strength.*`` entries of `psdorder.selftest` cross-check both against
independent oracles.  `strength` requires a PSD operand (`NotPsdError`
otherwise); `order_witness`, like `core.comparable`, takes any Hermitian pair.
Every threshold they compare with is a `Tolerance` rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import DEFAULT_TOL, MatrixError, Tolerance, ToleranceBreakdownError

__all__ = [
    "StrengthResult",
    "strength",
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

    Zero when ``f`` is outside the numeric range of ``a``, i.e. when its
    angle with that range (sine ``||f_perp|| / ||f||``) is not zero by
    `Tolerance.zero_angle`; otherwise ``1 / (f* a^+ f)``.
    Rejects ``f = 0``, and an ``a`` that is not PSD: the strength is only
    defined along non-zero rays of a PSD matrix.

    The decision reads ``f`` scaled by ``2^-e``, which brings its largest
    real or imaginary part into ``[1/2, 1)``, and the kept eigenvalues of
    ``a`` scaled by an even ``2^-s`` into ``(0, 1]``, so no intermediate of
    an extreme ray or operand underflows or overflows.  The value, witness
    and constant are scaled back exactly; one outside the float range raises
    `MatrixError`.
    """
    v = core.as_vector(f)
    if not np.any(v):
        raise MatrixError("strength is only defined along a non-zero ray")
    dec = core.eig_hermitian(a, tol)
    if dec.n != v.size:
        raise core.DimensionMismatchError(f"dimension mismatch: matrix is {dec.n}, ray has {v.size}")
    dec.require_psd(tol)
    e, s = _exponents(dec, v)
    v = _times_power_of_two(v, -e)
    keep = dec.kept(tol)
    coeff = dec.vectors.conj().T @ v
    outside = float(np.linalg.norm(coeff[~keep]))
    if not keep.any() or not tol.zero_angle(outside, float(np.linalg.norm(v))):
        return StrengthResult(0.0, None, None)
    ck = coeff[keep]
    wk = np.ldexp(dec.eigenvalues[keep], -s)
    m = float(np.sum(np.abs(ck) ** 2 / wk))
    if m <= 0.0:
        raise ToleranceBreakdownError("in-range ray produced a non-positive bound")
    with np.errstate(over="ignore"):
        witness = _times_power_of_two(dec.vectors[:, keep] @ (ck / np.sqrt(wk)), e - s // 2)
        value, constant = float(np.ldexp(1.0 / m, s - 2 * e)), float(np.ldexp(m, 2 * e - s))
    if not (0.0 < value < np.inf and 0.0 < constant < np.inf and np.all(np.isfinite(witness))):
        raise MatrixError("the strength or its certificates along this ray leave the float range")
    return StrengthResult(value, witness, constant)


def _exponents(dec: core.EigDecomp, v: np.ndarray) -> tuple[int, int]:
    """``e`` that brings the largest real or imaginary part of ``v`` times ``2^-e`` into ``[1/2, 1)``,
    and an even ``s`` that brings the top eigenvalue of ``dec`` times ``2^-s`` into ``[1/4, 1)``."""
    e = int(np.frexp(max(np.max(np.abs(v.real)), np.max(np.abs(v.imag))))[1])
    s = int(np.frexp(dec.eigenvalues[-1])[1])
    return e, s + s % 2


def _scaled(dec: core.EigDecomp, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """``(a', f', e, s)``: the pair `strength` decides on, ``a 2^-s`` and ``v 2^-e`` by `_exponents`.
    On it a strength reads ``lam 2^(2e - s)`` and a witness ``xi 2^(s/2 - e)``."""
    e, s = _exponents(dec, v)
    return _times_power_of_two(dec.matrix, -s), _times_power_of_two(v, -e), e, s


def _times_power_of_two(x: np.ndarray, k: int) -> np.ndarray:
    """``x * 2^k``, exact for real or complex ``x`` inside the float range; each factor is finite."""
    return x * np.ldexp(1.0, k // 2) * np.ldexp(1.0, k - k // 2)


def order_witness(a, b, tol: Tolerance = DEFAULT_TOL) -> np.ndarray | None:
    """Ray certifying ``a <= b`` fails, or ``None`` when the order holds.

    When ``b - a`` has a negative direction ``x`` (normalized so that
    ``x* a x = 1``), the ray ``f = a x`` satisfies ``strength(a, f) = 1``
    while ``strength(b, f) < 1``, by the Cauchy-Schwarz inequality for the
    form of ``a``.
    """
    return _order_test(*core._operands(a, b, tol=tol), tol)[1]


def _order_test(da, db, tol: Tolerance) -> tuple[core.Comparison, np.ndarray | None]:
    """`core.comparable` and `order_witness` of two `core.EigDecomp` operands; ``b - a`` is
    decomposed only for the ray, at most once."""
    cmp, dec = core._compare(da, db, tol)
    if cmp in (core.Comparison.LEQ, core.Comparison.EQUAL):
        return cmp, None
    ha, top = da.matrix, float(np.max(np.abs(da.matrix)))
    for i in range(dec.n):
        if tol.psd(dec.eigenvalues[i], dec.top):
            break
        x = dec.vectors[:, i]
        q = float(np.real(x.conj() @ ha @ x))
        if not tol.negligible(q, top):
            x = x / np.sqrt(q)
            return cmp, ha @ x
    # A negative direction with x* a x = 0 would force x* b x < 0, which is
    # impossible for PSD b, so reaching this point means the tolerance
    # policy broke down rather than a genuine order violation.
    raise ToleranceBreakdownError(
        "order violation direction has vanishing quadratic form; "
        "inconsistent with positivity of the right-hand side"
    )

