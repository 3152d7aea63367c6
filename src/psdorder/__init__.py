"""Order calculus for positive semidefinite matrices.

Strength functions along rays, Lebesgue decomposition into absolutely
continuous and singular parts, and exact decision procedures (with
constructive witnesses) for suprema and infima in the Loewner order.

The public names are each module's ``__all__``, re-exported here.
"""

from . import core as _core
from . import forms as _forms
from . import lattice as _lattice
from . import lebesgue as _lebesgue
from . import strength as _strength
from .core import *
from .forms import *
from .lattice import *
from .lebesgue import *
from .strength import *  # last: rebinds the name `strength` from the module to the function

__all__ = [
    *_core.__all__, *_forms.__all__, *_lattice.__all__, *_lebesgue.__all__, *_strength.__all__
]

__version__ = "0.1.0"
