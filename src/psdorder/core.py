"""Positive semidefinite matrix calculus with a shared tolerance policy.

Everything downstream (strength functions, Lebesgue decomposition, lattice
decisions) reduces to the primitives in this module: a Hermitian
eigendecomposition, pseudo-inverses and square roots built from it, range
projectors, and Loewner-order comparisons.  All rank and positivity
decisions go through one `Tolerance`, applied by `EigDecomp` alone, so
that the answers are consistent with each other.  Functions that only read
an operand's spectrum also accept its `EigDecomp`.

Matrices are plain square numpy arrays, accepted as anything
``np.asarray`` can digest.  The dtype follows the operands (`_real_or_complex`):
real input, and complex input whose imaginary part is all zero, is float64,
anything else complex128, and a mixed pair promotes through numpy's own
arithmetic, so a real symmetric pair is decided in real arithmetic and
gets real witnesses.  Inputs are validated to be Hermitian up to a small
defect and symmetrized before use; results are returned exactly Hermitian.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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
    "as_matrix",
    "as_vector",
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
    """Relative threshold and absolute floor for rank/positivity decisions.

    An eigenvalue counts as zero when it is at most ``rel * max|eig| + abs``;
    a Hermitian matrix counts as PSD when its minimum eigenvalue is at least
    ``-rel * max(1, max|eig|)``; a principal angle between two ranges counts
    as zero when its sine is at most ``rel``.
    """

    rel: float = 1e-10
    abs: float = 1e-12

    def __post_init__(self):
        if not (self.rel > 0):
            raise ValueError("Tolerance.rel must be positive")
        if not (self.abs > 0):
            raise ValueError("Tolerance.abs must be positive")


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
    """Exactly Hermitian average ``(m + m*) / 2``."""
    a = as_matrix(m)
    return 0.5 * (a + a.conj().T)


def as_hermitian(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Validate Hermiticity within tolerance and return the symmetrized matrix."""
    a = as_matrix(m)
    defect = float(np.max(np.abs(a - a.conj().T)))
    limit = tol.rel * max(1.0, float(np.max(np.abs(a)))) + tol.abs
    if defect > limit:
        raise NotHermitianError(defect, limit)
    return 0.5 * (a + a.conj().T)


def _same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")


@dataclass(frozen=True)
class EigDecomp:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending, ``vectors`` holds the matching
    orthonormal eigenvectors in its columns, and ``source_scale`` is
    ``max(1, max|eigenvalue|)`` of the decomposed matrix, the scale used for
    tolerance decisions about it.  The rank cutoff (`kept`) and the PSD
    floor (`is_psd`) are applied here and nowhere else.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    source_scale: float

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    def reconstruct(self) -> np.ndarray:
        v = self.vectors
        return (v * self.eigenvalues) @ v.conj().T

    def apply(self, fn) -> np.ndarray:
        """Hermitian matrix with the same eigenvectors and eigenvalues ``fn(w)``."""
        v = self.vectors
        return hermitian_part((v * fn(self.eigenvalues)) @ v.conj().T)

    def rank_cutoff(self, tol: Tolerance = DEFAULT_TOL) -> float:
        return tol.rel * float(np.max(np.abs(self.eigenvalues))) + tol.abs

    def psd_floor(self, tol: Tolerance = DEFAULT_TOL) -> float:
        return tol.rel * self.source_scale

    def kept(self, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """Mask of the eigenvalues above the rank cutoff (the numeric range)."""
        return self.eigenvalues > self.rank_cutoff(tol)

    def range_basis(self, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        return self.vectors[:, self.kept(tol)]

    def projector(self, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        basis = self.range_basis(tol)
        return hermitian_part(basis @ basis.conj().T)

    def pinv_power(self, p: float, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """Pseudo-inverse of the ``p``-th power: kept eigenvalues become ``w^-p``."""
        keep = self.kept(tol)
        return self.apply(lambda w: np.where(keep, 1.0 / np.where(keep, w, 1.0) ** p, 0.0))

    def is_psd(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return float(self.eigenvalues[0]) >= -self.psd_floor(tol)

    def require_psd(self, tol: Tolerance = DEFAULT_TOL) -> "EigDecomp":
        """This decomposition, or `NotPsdError` if the matrix is not PSD."""
        if not self.is_psd(tol):
            raise NotPsdError(float(self.eigenvalues[0]), self.psd_floor(tol))
        return self


def eig_hermitian(m, tol: Tolerance = DEFAULT_TOL) -> EigDecomp:
    """Eigendecomposition of a Hermitian matrix, deterministic for fixed input.

    Rejects inputs whose asymmetry exceeds the tolerance.  Eigenvector
    phases are normalized (largest-magnitude component real positive) so
    that witnesses built from them are reproducible.  An `EigDecomp` is
    returned unchanged.
    """
    if isinstance(m, EigDecomp):
        return m
    h = as_hermitian(m, tol)
    w, v = np.linalg.eigh(h)
    # Largest component of a unit column is nonzero, so the division is safe.
    idx = np.argmax(np.abs(v), axis=0)
    lead = v[idx, np.arange(v.shape[1])]
    v = v * (lead.conj() / np.abs(lead))[np.newaxis, :]
    scale = max(1.0, float(np.max(np.abs(w))))
    return EigDecomp(w, v, scale)


def is_psd(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the minimum eigenvalue clears ``-rel * max(1, max|eig|)``."""
    return eig_hermitian(m, tol).is_psd(tol)


def as_psd(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Validate PSD-ness and return the symmetrized matrix (entries unchanged)."""
    h = as_hermitian(m, tol)
    eig_hermitian(h, tol).require_psd(tol)
    return h


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

    ``b - a`` and ``a - b`` share one decomposition and one PSD floor.
    """
    ma = as_matrix(a)
    mb = as_matrix(b)
    _same_dim(ma, mb)
    return _classify(eig_hermitian(mb - ma, tol), tol)


def _classify(dec: EigDecomp, tol: Tolerance) -> Comparison:
    """How ``a`` compares with ``b``, read from the decomposition of ``b - a``."""
    le = dec.is_psd(tol)
    ge = float(dec.eigenvalues[-1]) <= dec.psd_floor(tol)
    if le and ge:
        return Comparison.EQUAL
    if le:
        return Comparison.LEQ
    if ge:
        return Comparison.GEQ
    return Comparison.INCOMPARABLE


def rank_one(f) -> np.ndarray:
    """Rank-one PSD matrix ``f f*`` for a non-zero vector ``f``.

    With the pairing ``<f|x> = sum_i f_i conj(x_i)``, this is the matrix of
    the map ``x -> conj(<f|x>) f``; its quadratic form is ``|<f|x>|^2``.
    """
    v = as_vector(f)
    if float(np.linalg.norm(v)) == 0.0:
        raise MatrixError("rank_one requires a non-zero vector")
    return np.outer(v, v.conj())
