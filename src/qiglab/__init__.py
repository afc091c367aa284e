"""Numerical laboratory for information geometry on density matrices.

Power/log embeddings of positive matrices, matrix-monotone metric kernels,
the induced pair of covariant derivatives, and verification drivers for the
duality, potential, uniqueness, monotonicity and entropy-projection
statements the library is built to test.

The package re-exports each library module's ``__all__``; that list is the
one statement of what the module makes public.
"""

from . import connections, duality, linalg, manifold, metrics, sampling
from .linalg import *
from .sampling import *
from .manifold import *
from .metrics import *
from .connections import *
from .duality import *

__all__ = [
    *linalg.__all__,
    *sampling.__all__,
    *manifold.__all__,
    *metrics.__all__,
    *connections.__all__,
    *duality.__all__,
]

__version__ = "0.1.0"
