"""Order calculus for positive semidefinite matrices.

Strength functions along rays, Lebesgue decomposition into absolutely
continuous and singular parts, and exact decision procedures (with
constructive witnesses) for suprema and infima in the Loewner order.
"""

from .core import (
    DEFAULT_TOL,
    Comparison,
    DimensionMismatchError,
    EigDecomp,
    MatrixError,
    NotHermitianError,
    NotPsdError,
    Tolerance,
    ToleranceBreakdownError,
    as_hermitian,
    as_psd,
    comparable,
    eig_hermitian,
    hermitian_part,
    is_psd,
    loewner_leq,
    numeric_rank,
    pinv_psd,
    pinv_sqrt_psd,
    range_projector,
    rank_one,
    sqrt_psd,
)
from .forms import (
    SesquilinearForm,
    form_inf_exists,
    form_leq,
    form_sup_exists,
    from_operator,
    to_operator,
)
from .lattice import (
    Compression,
    InfimumVerdict,
    SupremumVerdict,
    ando_witness,
    compress,
    inf_exists,
    kadison_witness,
    sup_exists,
)
from .lebesgue import (
    LebesgueParts,
    absolutely_continuous,
    ac_part,
    mutually_singular,
    parallel_sum,
)
from .strength import (
    StrengthResult,
    order_witness,
    strength,
)

__all__ = [
    "DEFAULT_TOL", "Comparison", "DimensionMismatchError", "EigDecomp",
    "MatrixError", "NotHermitianError", "NotPsdError", "Tolerance",
    "ToleranceBreakdownError", "as_hermitian", "as_psd", "comparable",
    "eig_hermitian", "hermitian_part", "is_psd", "loewner_leq", "numeric_rank",
    "pinv_psd", "pinv_sqrt_psd", "range_projector", "rank_one", "sqrt_psd",
    "SesquilinearForm", "form_inf_exists", "form_leq", "form_sup_exists",
    "from_operator", "to_operator",
    "Compression", "InfimumVerdict", "SupremumVerdict", "ando_witness", "compress",
    "inf_exists", "kadison_witness", "sup_exists",
    "LebesgueParts", "absolutely_continuous", "ac_part", "mutually_singular",
    "parallel_sum",
    "StrengthResult", "order_witness", "strength",
]

__version__ = "0.1.0"
