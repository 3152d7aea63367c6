"""Nonnegative sesquilinear forms as Gram matrices.

A nonnegative form ``t`` on C^n in a fixed basis is carried by its PSD
Gram matrix through ``t(x, y) = y* G x`` (conjugation on the second
argument, matching the pairing convention of `core.rank_one`).  The
correspondence is an order isomorphism with PSD matrices, so suprema and
infima of forms delegate to the operator-level decisions, on the operands
(`core.EigDecomp`) of the Gram matrices, each validated once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, lattice
from .core import DEFAULT_TOL, Comparison, DimensionMismatchError, Tolerance

__all__ = [
    "SesquilinearForm",
    "to_operator",
    "from_operator",
    "form_leq",
    "form_sup_exists",
    "form_inf_exists",
]


@dataclass(frozen=True)
class SesquilinearForm:
    """Nonnegative form given by its PSD Gram matrix in the standard basis."""

    gram: np.ndarray

    def evaluate(self, x, y) -> complex:
        """Value ``t(x, y) = y* gram x``; both vectors must match the Gram matrix."""
        vx = core.as_vector(x)
        vy = core.as_vector(y)
        g = core.as_matrix(self.gram)
        if vx.size != len(g) or vy.size != len(g):
            raise DimensionMismatchError(f"lengths {vx.size}, {vy.size} for a form on C^{len(g)}")
        return complex(vy.conj() @ g @ vx)


def to_operator(t: SesquilinearForm, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """PSD matrix representing the form (validated)."""
    return core.as_psd(t.gram, tol)


def from_operator(m, tol: Tolerance = DEFAULT_TOL) -> SesquilinearForm:
    """Form whose Gram matrix is the given PSD matrix (validated)."""
    return SesquilinearForm(core.as_psd(m, tol))


def form_leq(t: SesquilinearForm, s: SesquilinearForm, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Pointwise order of forms, decided on the Gram matrices."""
    cmp = core._compare(*core._operands(t.gram, s.gram, tol=tol, psd=True))[0]
    return cmp in (Comparison.LEQ, Comparison.EQUAL)


def form_sup_exists(
    t: SesquilinearForm, s: SesquilinearForm, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Supremum of two nonnegative forms exists iff they are comparable."""
    cmp = core._compare(*core._operands(t.gram, s.gram, tol=tol, psd=True))[0]
    return cmp is not Comparison.INCOMPARABLE


def form_inf_exists(
    t: SesquilinearForm, s: SesquilinearForm, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Infimum of two nonnegative forms exists iff their AC parts are comparable.

    Reads `lattice`'s rule on the spectrum of `lattice._pencil`, as ``lattice.inf_exists``
    does, but builds no n×n matrix past the Gram matrices' decompositions and inverts nothing.
    """
    *_, w = lattice._pencil(*core._operands(t.gram, s.gram, tol=tol))
    return not all(tol.sides(w))
