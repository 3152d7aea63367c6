"""Positive semidefinite matrix calculus with a shared tolerance policy.

Everything downstream (strength functions, Lebesgue decomposition, lattice
decisions) reduces to the primitives in this module: a Hermitian
eigendecomposition, pseudo-inverses and square roots built from it, range
projectors, and Loewner-order comparisons.  Every threshold decision is a
method of one `Tolerance` (the rank rule is `EigDecomp.kept`), so that the
answers are consistent with each other.  `_psd_band` certifies the rank and
PSD rules without an eigendecomposition wherever a Cholesky factor or a
diagonal entry settles them beyond rounding, and defers to `EigDecomp`
inside that band; `is_psd`, `as_psd` and `comparable` ask it first.

Matrices are plain square numpy arrays, accepted as anything
``np.asarray`` can digest.  The dtype follows the operands (`_real_or_complex`):
real input, and complex input whose imaginary part is all zero, is float64,
anything else complex128, and a mixed pair promotes through numpy's own
arithmetic, so a real symmetric pair is decided in real arithmetic and
gets real witnesses.  Results are returned exactly Hermitian.

An `EigDecomp` is the validated operand.  A public entry point validates
each matrix argument once, by `eig_hermitian` (finite, square, Hermitian up
to a small defect, then symmetrized), all of a call's at once by `_operands`,
and hands the operands down; private helpers never validate, and assume one
dimension.  A sum or difference of operands becomes one by `_exact`, a
product Hermitian up to rounding is made exact by `_symmetrized`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "MatrixError",
    "NotHermitianError",
    "NotPsdError",
    "DimensionMismatchError",
    "ToleranceBreakdownError",
    "Tolerance",
    "DEFAULT_TOL",
    "EigDecomp",
    "Comparison",
    "hermitian_part",
    "as_hermitian",
    "eig_hermitian",
    "is_psd",
    "as_psd",
    "sqrt_psd",
    "pinv_psd",
    "pinv_sqrt_psd",
    "numeric_rank",
    "range_projector",
    "loewner_leq",
    "comparable",
    "rank_one",
]


class MatrixError(ValueError):
    """A precondition of the requested operation failed."""


class NotHermitianError(MatrixError):
    """Input matrix is not Hermitian within tolerance."""

    def __init__(self, defect: float, limit: float):
        super().__init__(
            f"matrix is not Hermitian: max asymmetry {defect:.6e} exceeds {limit:.6e}"
        )
        self.defect = defect
        self.limit = limit


class NotPsdError(MatrixError):
    """Input matrix has a negative eigenvalue beyond tolerance."""

    def __init__(self, min_eigenvalue: float, floor: float):
        super().__init__(
            f"matrix is not positive semidefinite: eigenvalue {min_eigenvalue:.6e} "
            f"below floor {-floor:.6e}"
        )
        self.min_eigenvalue = min_eigenvalue
        self.floor = floor


class DimensionMismatchError(MatrixError):
    """Operands do not share a dimension."""


class ToleranceBreakdownError(RuntimeError):
    """An internal consistency check failed near the tolerance edge.

    This signals that the numeric rank / positivity policy could not
    separate the cases cleanly, not that the caller violated a
    precondition.
    """


@dataclass(frozen=True)
class Tolerance:
    """Relative threshold and absolute floor, and the rules that compare with them.

    Each threshold is stated once, on a top scale ``top`` (a largest
    ``|eigenvalue|`` or ``|entry|``, or a bound on it): `cutoff` for the rank
    rule (`EigDecomp.kept`), `floor` for the rest.  Each other rule is one
    method, the only code that compares a quantity with a threshold: `psd`,
    `negligible`, `zero_angle` and `sides`.  Both values are finite and positive.
    """

    rel: float = 1e-10
    abs: float = 1e-12

    def __post_init__(self):
        if not (0 < self.rel < np.inf and 0 < self.abs < np.inf):  # NaN fails too
            raise MatrixError("tolerance must be finite and positive")

    def cutoff(self, top: float) -> float:
        """An eigenvalue at or below this counts as zero (the numeric rank)."""
        return self.rel * top + self.abs

    def floor(self, top: float) -> float:
        """A PSD matrix has no eigenvalue below ``-floor``."""
        return self.rel * max(1.0, top)

    def psd(self, x: float, top: float) -> bool:
        """The PSD rule: ``x`` is not below ``-floor(top)``."""
        return x >= -self.floor(top)

    def negligible(self, x: float, top: float) -> bool:
        """A magnitude ``x`` on the scale ``top`` counts as zero."""
        return x <= self.floor(top)

    def zero_angle(self, sine, length: float = 1.0):
        """Elementwise: the angle whose sine is ``sine / length`` is zero (the sine is at most ``rel``)."""
        return sine <= self.rel * length

    def sides(self, w: np.ndarray) -> tuple[bool, bool]:
        """Whether ``w`` reaches below, then above, ``1/2`` by more than ``rel``."""
        return bool(np.any(w < 0.5 - self.rel)), bool(np.any(w > 0.5 + self.rel))


DEFAULT_TOL = Tolerance()


def _real_or_complex(x) -> np.ndarray:
    """``x`` as float64 if every value is real (a zero imaginary part counts), else as complex128."""
    a = np.asarray(x)
    if a.dtype.kind in "biuf":
        return a.astype(np.float64, copy=False)
    a = a.astype(np.complex128, copy=False)
    if np.count_nonzero(a.imag):  # a NaN counts, so it stays complex and is rejected
        return a
    return a.real.copy()


def as_matrix(m) -> np.ndarray:
    """Coerce to a square matrix with finite entries: float64 if every entry
    is real (a zero imaginary part counts), else complex128."""
    a = _real_or_complex(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionMismatchError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(a)):
        raise MatrixError("matrix entries must be finite (no NaN or infinity)")
    return a


def as_vector(x) -> np.ndarray:
    """Coerce to a 1-d vector with finite entries, float64 or complex128 as `as_matrix`."""
    v = _real_or_complex(x)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatchError(f"expected a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise MatrixError("vector entries must be finite (no NaN or infinity)")
    return v


def hermitian_part(m) -> np.ndarray:
    """Exactly Hermitian average ``(m + m*) / 2`` of a finite square matrix."""
    return _symmetrized(as_matrix(m))


def _symmetrized(m) -> np.ndarray:
    """`hermitian_part` without validation; it halves before adding, so finite entries stay finite."""
    a = _real_or_complex(m)
    return 0.5 * a + 0.5 * a.conj().T


def as_hermitian(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Validate Hermiticity within tolerance and return the symmetrized matrix."""
    a = as_matrix(m)
    defect = float(np.max(np.abs(a - a.conj().T)))
    limit = tol.floor(float(np.max(np.abs(a)))) + tol.abs
    if defect > limit:
        raise NotHermitianError(defect, limit)
    return _symmetrized(a)


@dataclass(frozen=True, eq=False)
class EigDecomp:
    """A validated Hermitian operand, and its eigendecomposition on first read.

    ``matrix`` is exactly Hermitian, float64 or complex128 by
    `_real_or_complex`.  `eig_hermitian` validates an input into one; the
    library's private helpers build one directly only from a matrix that is
    exactly Hermitian by construction (`_exact`, `_symmetrized`).  The
    first read of ``eigenvalues`` or ``vectors`` runs the one eigh of
    ``matrix``: ``eigenvalues`` are real and ascending, ``vectors`` holds
    the matching orthonormal eigenvectors in its columns, phase-normalized
    (largest-magnitude component real positive) so that witnesses built from
    them are reproducible.  ``top`` is ``max|eigenvalue|``, the scale on
    which `kept` applies `Tolerance.cutoff` and `is_psd` `Tolerance.psd`;
    `_psd_band` certifies the same verdicts without a decomposition.
    """

    matrix: np.ndarray

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray, float]:
        w, v = np.linalg.eigh(self.matrix)
        return w, _phase_normalized(v), float(np.max(np.abs(w)))

    eigenvalues = property(lambda self: self._eigh[0])
    vectors = property(lambda self: self._eigh[1])
    top = property(lambda self: self._eigh[2])
    n = property(lambda self: self.matrix.shape[0])

    def reconstruct(self) -> np.ndarray:
        v = self.vectors
        return (v * self.eigenvalues) @ v.conj().T

    def apply(self, fn) -> np.ndarray:
        """Hermitian matrix with the same eigenvectors and eigenvalues ``fn(w)``."""
        v = self.vectors
        return _symmetrized((v * fn(self.eigenvalues)) @ v.conj().T)

    def kept(self, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """Mask of the eigenvalues above the rank cutoff (the numeric range)."""
        return self.eigenvalues > tol.cutoff(self.top)

    def range_basis(self, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        return self.vectors[:, self.kept(tol)]

    def projector(self, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        basis = self.range_basis(tol)
        return _symmetrized(basis @ basis.conj().T)

    def pinv_power(self, p: float, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """Pseudo-inverse of the ``p``-th power: kept eigenvalues become ``w^-p``."""
        keep = self.kept(tol)
        return self.apply(lambda w: np.where(keep, 1.0 / np.where(keep, w, 1.0) ** p, 0.0))

    def is_psd(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return tol.psd(float(self.eigenvalues[0]), self.top)

    def require_psd(self, tol: Tolerance = DEFAULT_TOL) -> "EigDecomp":
        """This decomposition, or `NotPsdError` if the matrix is not PSD."""
        if not self.is_psd(tol):
            raise NotPsdError(float(self.eigenvalues[0]), tol.floor(self.top))
        return self


def eig_hermitian(m, tol: Tolerance = DEFAULT_TOL) -> EigDecomp:
    """The validated operand of a Hermitian matrix, decomposed on first read.

    Validates at once, by `as_hermitian`: rejects a non-square or non-finite
    input, and one whose asymmetry exceeds the tolerance.  The
    eigendecomposition is deterministic for fixed input and runs when the
    result's spectrum is first read.  An `EigDecomp` is returned unchanged.
    """
    return m if isinstance(m, EigDecomp) else EigDecomp(as_hermitian(m, tol))


def _operands(*ms, tol: Tolerance, psd: bool = False) -> tuple[EigDecomp, ...]:
    """Each operand of one call by `eig_hermitian`, all of one dimension, then `as_psd` if ``psd``."""
    ds = tuple(eig_hermitian(m, tol) for m in ms)
    if len({d.n for d in ds}) > 1:
        raise DimensionMismatchError("dimension mismatch: " + " vs ".join(str(d.matrix.shape) for d in ds))
    for d in ds if psd else ():
        as_psd(d, tol)
    return ds


def _exact(x: np.ndarray, y: np.ndarray, subtract: bool = False) -> EigDecomp:
    """The operand of ``x + y`` (``x - y`` if ``subtract``) of two operands' matrices,
    so exactly Hermitian: only the dtype rule applies, and a result that overflows
    is rejected, without a numpy warning."""
    with np.errstate(over="ignore"):
        h = _real_or_complex(x - y if subtract else x + y)
    if not np.all(np.isfinite(h)):
        raise MatrixError("a sum or difference of the operands overflows")
    return EigDecomp(h)


def _phase_normalized(v: np.ndarray) -> np.ndarray:
    """``v`` with each non-zero column's largest-magnitude component made real positive."""
    # A non-zero column has a non-zero largest component, so the division is safe.
    idx = np.argmax(np.abs(v), axis=0)
    lead = v[idx, np.arange(v.shape[1])]
    return v * (lead.conj() / np.abs(lead))[np.newaxis, :]


def _drift(n: int, fro: float) -> float:
    """``n ε ‖x‖_F`` of an n×n ``x`` with ``‖x‖_F = fro``, the one eigh-error constant: it bounds how
    far eigh's largest ``|eigenvalue|`` lies from ``‖x‖₂``, eigh's own eigenvalue error (a modest
    multiple of ``ε ‖x‖₂`` for LAPACK's backward-stable solvers) and the rounding of the norms."""
    return n * np.finfo(np.float64).eps * fro


def _psd_band(x: np.ndarray, tol: Tolerance, full_rank: bool = False) -> bool | None:
    """`EigDecomp.is_psd` of the exactly Hermitian ``x``, certified without eigh, or ``None``.

    With ``full_rank`` the verdict is instead whether every eigenvalue is
    `kept`.  Either verdict asks whether eigh's smallest computed eigenvalue
    clears a threshold, `Tolerance.cutoff` or ``-Tolerance.floor`` of its
    largest ``|eigenvalue|``, which lies within ``drift`` (`_drift`) of
    ``‖x‖₂``, so between the largest column norm and ``‖x‖_F`` widened by
    ``drift``: the threshold lies in ``[lo, hi]``.

    * "No" needs a diagonal entry below ``lo - drift``: the entry's basis
      vector is a ray whose Rayleigh quotient bounds ``λ_min`` from above.
    * "Yes" needs the Cholesky ``L L*`` of ``x - σ I``, ``σ = hi + |hi|/2``,
      to succeed, so ``λ_min(x) >= σ - err`` with ``err = 2 γ_{n+1} ‖L‖_F²``
      plus the rounding of the shift (Higham, *Accuracy and Stability of
      Numerical Algorithms*, Thm 10.3; Rump, BIT 46, 2006), and
      ``σ - err - drift`` to clear ``hi``.  For the PSD floor ``σ`` is half
      its lower bound, ``x + floor_lo/2 I``.

    A failed Cholesky, or a norm that overflows, proves nothing: the answer
    is ``None`` and the caller decomposes.
    """
    n = x.shape[0]
    with np.errstate(over="ignore"):
        cols = np.linalg.norm(x, axis=0)
        fro = float(np.linalg.norm(cols))
    if not np.isfinite(fro):
        return None
    drift = _drift(n, fro)
    top_lo, top_hi = max(float(cols.max()) - drift, 0.0), fro + drift
    threshold = tol.cutoff if full_rank else (lambda top: -tol.floor(top))
    lo, hi = sorted((threshold(top_lo), threshold(top_hi)))
    d = x.diagonal().real
    if float(d.min()) < lo - drift:
        return False
    shift = hi + 0.5 * abs(hi)
    y = x.copy()
    np.fill_diagonal(y, d - shift)
    try:
        l = np.linalg.cholesky(y)
    except np.linalg.LinAlgError:
        return None
    u = np.finfo(np.float64).eps / 2.0
    gamma = (n + 1) * u / (1.0 - (n + 1) * u)
    err = 2.0 * gamma * float(np.linalg.norm(l)) ** 2 + u * (float(np.max(np.abs(d))) + abs(shift))
    return True if shift - err - drift > hi else None


def is_psd(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff no eigenvalue lies below ``-Tolerance.floor`` of ``max|eig|``; `_psd_band` first."""
    dec = eig_hermitian(m, tol)
    verdict = _psd_band(dec.matrix, tol)
    return dec.is_psd(tol) if verdict is None else verdict


def as_psd(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Validate PSD-ness and return the symmetrized matrix (entries unchanged)."""
    dec = eig_hermitian(m, tol)
    if not _psd_band(dec.matrix, tol):  # eigh decides, and words the `NotPsdError`
        dec.require_psd(tol)
    return dec.matrix


def sqrt_psd(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Unique PSD square root.  Rejects matrices with a negative eigenvalue.

    This is also the canonical factor ``J = J*`` with ``J J* = a``, so the
    quadratic form identity ``x* a x = ||J x||^2`` holds for every ``x``.
    """
    dec = eig_hermitian(a, tol).require_psd(tol)
    return dec.apply(lambda w: np.sqrt(np.clip(w, 0.0, None)))


def pinv_psd(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a PSD matrix.

    Eigenvalues at or below the rank cutoff are nulled, the rest inverted.
    """
    return eig_hermitian(a, tol).pinv_power(1.0, tol)


def pinv_sqrt_psd(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Pseudo-inverse of the PSD square root (same rank cutoff as `pinv_psd`)."""
    return eig_hermitian(a, tol).pinv_power(0.5, tol)


def numeric_rank(a, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of eigenvalues above the rank cutoff."""
    return int(np.count_nonzero(eig_hermitian(a, tol).kept(tol)))


def range_projector(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the range of a PSD matrix (numeric rank)."""
    return eig_hermitian(a, tol).projector(tol)


def loewner_leq(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Loewner order: ``a <= b`` iff ``b - a`` is PSD."""
    return comparable(a, b, tol) in (Comparison.LEQ, Comparison.EQUAL)


class Comparison(Enum):
    LEQ = "leq"
    GEQ = "geq"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def comparable(a, b, tol: Tolerance = DEFAULT_TOL) -> Comparison:
    """Classify the pair under the Loewner order.

    ``b - a`` and ``a - b`` share one PSD floor: `_psd_band` decides each,
    and if it defers on either, one decomposition of ``b - a`` decides both.
    """
    return _compare(*_operands(a, b, tol=tol), tol)[0]


def _compare(da: EigDecomp, db: EigDecomp, tol: Tolerance) -> tuple[Comparison, EigDecomp]:
    """`comparable`'s verdict on two operands, and the operand ``d = b - a``.

    ``a <= b`` iff ``d`` is PSD, and ``b <= a`` iff ``-d`` is, which eigh
    reads as `Tolerance.psd` of ``-max eig(d)``.
    """
    d = _exact(db.matrix, da.matrix, subtract=True)
    le = _psd_band(d.matrix, tol)
    ge = None if le is None else _psd_band(-d.matrix, tol)
    if ge is None:
        le, ge = d.is_psd(tol), tol.psd(-float(d.eigenvalues[-1]), d.top)
    return _COMPARISONS[le, ge], d


_COMPARISONS = {
    (True, True): Comparison.EQUAL,
    (True, False): Comparison.LEQ,
    (False, True): Comparison.GEQ,
    (False, False): Comparison.INCOMPARABLE,
}


def rank_one(f) -> np.ndarray:
    """Rank-one PSD matrix ``f f*`` for a non-zero vector ``f``.

    With the pairing ``<f|x> = sum_i f_i conj(x_i)``, this is the matrix of
    the map ``x -> conj(<f|x>) f``; its quadratic form is ``|<f|x>|^2``.
    A product that overflows, or underflows to 0, is rejected without a
    numpy warning.  A complex product is made exactly Hermitian by
    `_symmetrized`; a real one is symmetric as computed and keeps its bits.
    """
    v = as_vector(f)
    if not v.any():
        raise MatrixError("rank_one requires a non-zero vector")
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.outer(v, v.conj())
    if not (np.all(np.isfinite(m)) and m.any()):
        raise MatrixError("the rank-one product of this vector leaves the float range")
    return _symmetrized(m) if np.iscomplexobj(m) else m
